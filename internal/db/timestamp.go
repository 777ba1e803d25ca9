package db

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// TimestampEngine is basic timestamp ordering (T/O), DBx1000's TIMESTAMP
// scheme: every transaction draws a unique timestamp from a global
// counter (the allocation bottleneck the study highlights), records
// track the largest reader and writer timestamps, and any access that
// arrives "in the past" aborts. Writes are buffered and installed at
// commit under a per-record latch.
type TimestampEngine struct {
	clock   atomic.Uint64
	rows    []tsRecord
	commits atomic.Uint64
	aborts  atomic.Uint64
}

type tsRecord struct {
	latch atomic.Uint32 // spin latch for rts/wts/data atomicity
	rts   uint64        // largest reader timestamp (latched)
	wts   uint64        // largest writer timestamp (latched)
	data  Row
	_     [24]byte
}

func (r *tsRecord) acquire() {
	for !r.latch.CompareAndSwap(0, 1) {
		runtime.Gosched()
	}
}

func (r *tsRecord) releaseLatch() { r.latch.Store(0) }

// NewTimestampEngine builds a table of records rows.
func NewTimestampEngine(records int) *TimestampEngine {
	e := &TimestampEngine{rows: make([]tsRecord, records)}
	for i := range e.rows {
		for f := range e.rows[i].data.Fields {
			e.rows[i].data.Fields[f] = uint64(i)
		}
	}
	return e
}

// Name implements Engine.
func (e *TimestampEngine) Name() string { return "timestamp" }

// Records implements Engine.
func (e *TimestampEngine) Records() int { return len(e.rows) }

// Close implements Engine.
func (e *TimestampEngine) Close() {}

// Stats implements Engine.
func (e *TimestampEngine) Stats() (uint64, uint64) {
	return e.commits.Load(), e.aborts.Load()
}

// Session implements Engine.
func (e *TimestampEngine) Session() Tx { return &tsTx{e: e} }

type tsWrite struct {
	key  int
	data Row
}

type tsTx struct {
	e      *TimestampEngine
	ts     uint64
	writes []tsWrite
}

func (t *tsTx) Begin() {
	t.ts = t.e.clock.Add(1)
	t.writes = t.writes[:0]
}

func (t *tsTx) findWrite(key int) *tsWrite {
	for i := range t.writes {
		if t.writes[i].key == key {
			return &t.writes[i]
		}
	}
	return nil
}

func (t *tsTx) Read(key int, out *Row) bool {
	if w := t.findWrite(key); w != nil {
		*out = w.data
		return true
	}
	rec := &t.e.rows[key]
	rec.acquire()
	if t.ts < rec.wts {
		rec.releaseLatch()
		return false // arrived before an already-committed write
	}
	if rec.rts < t.ts {
		rec.rts = t.ts
	}
	*out = rec.data
	rec.releaseLatch()
	return true
}

func (t *tsTx) Update(key int, fn func(*Row)) bool {
	if w := t.findWrite(key); w != nil {
		fn(&w.data)
		return true
	}
	rec := &t.e.rows[key]
	rec.acquire()
	if t.ts < rec.rts || t.ts < rec.wts {
		rec.releaseLatch()
		return false // a younger transaction already read or wrote
	}
	// An update reads the row it rewrites, so it stamps rts like Read: an
	// older writer that commits after this read must abort, or this
	// transaction would install a value computed from the row it replaced
	// (a lost update).
	rec.rts = t.ts
	w := tsWrite{key: key, data: rec.data}
	rec.releaseLatch()
	fn(&w.data)
	t.writes = append(t.writes, w)
	return true
}

// Commit latches the whole write set in key order, revalidates every
// record (a younger reader/writer may have slipped in since Update), and
// only then installs — keeping the transaction atomic even on a late
// validation failure.
func (t *tsTx) Commit() bool {
	sort.Slice(t.writes, func(i, j int) bool { return t.writes[i].key < t.writes[j].key })
	for i := range t.writes {
		rec := &t.e.rows[t.writes[i].key]
		rec.acquire()
		if t.ts < rec.rts || t.ts < rec.wts {
			for j := 0; j <= i; j++ {
				t.e.rows[t.writes[j].key].releaseLatch()
			}
			t.writes = t.writes[:0]
			t.e.aborts.Add(1)
			return false
		}
	}
	for i := range t.writes {
		rec := &t.e.rows[t.writes[i].key]
		rec.data = t.writes[i].data
		rec.wts = t.ts
		rec.releaseLatch()
	}
	t.writes = t.writes[:0]
	t.e.commits.Add(1)
	return true
}

func (t *tsTx) Abort() {
	t.writes = t.writes[:0]
	t.e.aborts.Add(1)
}
