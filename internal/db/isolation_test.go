package db

import (
	"sync"
	"testing"
	"time"

	"mvrlu/internal/clock"
)

// TestWriteSkewByIsolationLevel distinguishes the engines' isolation
// guarantees exactly as the paper discusses (§2.4, §7): MV-RLU and
// Hekaton provide snapshot isolation (write skew can commit); SILO and
// TICTOC validate read sets and are serializable (one side must abort).
//
// The skew: rows 0 and 1 each hold 1 in field 3 (invariant: sum ≥ 1).
// Two transactions concurrently read both rows and each zeroes a
// different one if the sum allows.
func TestWriteSkewByIsolationLevel(t *testing.T) {
	serializable := map[string]bool{
		"silo": true, "tictoc": true, "nowait": true, "timestamp": true,
		"mvrlu": false, "hekaton": false,
	}
	for _, name := range AllEngineNames() {
		t.Run(name, func(t *testing.T) {
			// Repeat to give the racy interleaving many chances.
			skewCommitted := false
			for round := 0; round < 200 && !skewCommitted; round++ {
				e, err := NewEngine(name, 4)
				if err != nil {
					t.Fatal(err)
				}
				// Normalize both rows to 1.
				init := e.Session()
				for {
					init.Begin()
					ok := init.Update(0, func(r *Row) { r.Fields[3] = 1 }) &&
						init.Update(1, func(r *Row) { r.Fields[3] = 1 })
					if ok && init.Commit() {
						break
					}
					if !ok {
						init.Abort()
					}
				}

				var barrier, done sync.WaitGroup
				barrier.Add(2)
				done.Add(2)
				run := func(mine, other int) {
					defer done.Done()
					tx := e.Session()
					tx.Begin()
					var a, b Row
					okA := tx.Read(mine, &a)
					okB := tx.Read(other, &b)
					barrier.Done()
					barrier.Wait() // both read before either writes
					if !okA || !okB {
						tx.Abort()
						return
					}
					if a.Fields[3]+b.Fields[3] > 1 {
						if !tx.Update(mine, func(r *Row) { r.Fields[3] = 0 }) {
							tx.Abort()
							return
						}
					}
					tx.Commit()
				}
				go run(0, 1)
				go run(1, 0)
				done.Wait()

				check := e.Session()
				var a, b Row
				check.Begin()
				if !check.Read(0, &a) || !check.Read(1, &b) {
					t.Fatal("final read failed")
				}
				check.Commit()
				if a.Fields[3]+b.Fields[3] == 0 {
					skewCommitted = true
				}
				e.Close()
			}
			if serializable[name] && skewCommitted {
				t.Fatalf("%s is supposed to be serializable but committed write skew", name)
			}
			if !serializable[name] && !skewCommitted {
				// Snapshot isolation *permits* skew; on a small host
				// the interleaving may simply never occur. Only log.
				t.Logf("%s: write skew never materialized in 200 rounds (scheduling-dependent)", name)
			}
		})
	}
}

// TestReadOnlySnapshotStability: under every engine a read-only
// transaction must observe a single consistent snapshot even while a
// writer churns (Silo/TicToc achieve it by validation-abort; MV-RLU and
// Hekaton by versioning — their read-only transactions never abort).
func TestReadOnlySnapshotStability(t *testing.T) {
	for _, name := range EngineNames() {
		t.Run(name, func(t *testing.T) {
			e, err := NewEngine(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			stopCh := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := e.Session()
				for {
					select {
					case <-stopCh:
						return
					default:
					}
					tx.Begin()
					ok := tx.Update(0, func(r *Row) { r.Fields[4]++ }) &&
						tx.Update(1, func(r *Row) { r.Fields[4]-- })
					if ok {
						tx.Commit()
					} else {
						tx.Abort()
					}
				}
			}()
			tx := e.Session()
			var a, b Row
			torn := 0
			mvccAborts := 0
			for i := 0; i < 3000; i++ {
				tx.Begin()
				if tx.Read(0, &a) && tx.Read(1, &b) {
					if !tx.Commit() {
						continue // OCC validation abort: retry
					}
					// Row i initializes fields to i: conserved sum is 1.
					if a.Fields[4]+b.Fields[4] != 1 {
						torn++
					}
				} else {
					tx.Abort()
					mvccAborts++
				}
			}
			close(stopCh)
			wg.Wait()
			if torn != 0 {
				t.Fatalf("%d torn read-only snapshots", torn)
			}
			if (name == "mvrlu") && mvccAborts != 0 {
				t.Fatalf("mvrlu read-only transactions aborted %d times; they never should", mvccAborts)
			}
		})
	}
}

// TestTicTocRTSExtension: a read-only transaction validating at a later
// commit timestamp must extend rts rather than abort when the record is
// unchanged.
func TestTicTocRTSExtension(t *testing.T) {
	e := NewTicTocEngine(4)
	defer e.Close()
	tx := e.Session().(*ttTx)
	// Commit a write so row 0 has wts > 0.
	tx.Begin()
	if !tx.Update(0, func(r *Row) { r.Fields[0] = 5 }) {
		t.Fatal("update failed")
	}
	if !tx.Commit() {
		t.Fatal("commit failed")
	}
	before := e.rows[0].rts.Load()
	// A read-write transaction that reads row 0 and writes row 1 must
	// commit at a timestamp above row 1's rts, extending row 0's rts.
	tx.Begin()
	var r Row
	if !tx.Read(0, &r) || !tx.Update(1, func(r *Row) { r.Fields[0] = 6 }) {
		t.Fatal("ops failed")
	}
	if !tx.Commit() {
		t.Fatal("second commit failed")
	}
	if after := e.rows[0].rts.Load(); after < before {
		t.Fatalf("rts shrank: %d -> %d", before, after)
	}
}

// TestSiloTIDMonotonic: committed TIDs on a record only grow.
func TestSiloTIDMonotonic(t *testing.T) {
	e := NewSiloEngine(2)
	defer e.Close()
	tx := e.Session()
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		tx.Begin()
		if !tx.Update(0, func(r *Row) { r.Fields[0]++ }) {
			t.Fatal("update failed")
		}
		if !tx.Commit() {
			t.Fatal("commit failed")
		}
		cur := e.rows[0].tid.Load()
		if cur&1 == 1 {
			t.Fatal("lock bit leaked")
		}
		if cur <= prev {
			t.Fatalf("TID not monotone: %d after %d", cur, prev)
		}
		prev = cur
	}
}

// TestHekatonChainPruned: version chains stay bounded under churn when
// no old transaction pins them.
func TestHekatonChainPruned(t *testing.T) {
	e := NewHekatonEngine(1)
	defer e.Close()
	tx := e.Session()
	for i := 0; i < 500; i++ {
		tx.Begin()
		if !tx.Update(0, func(r *Row) { r.Fields[0]++ }) {
			t.Fatal("update failed")
		}
		tx.Commit()
	}
	n := 0
	for v := e.rows[0].head.Load(); v != nil; v = v.older.Load() {
		n++
	}
	if n > 8 {
		t.Fatalf("chain grew unbounded: %d versions", n)
	}
}

// TestHekatonReaderStampsSealedCommit stops a two-row commit after its
// seal, before the commit timestamp is drawn. A reader that meets the
// sealed end word must not wait for the writer: it stamps a timestamp of
// its own, above its begin timestamp, and reads both old rows. The writer
// then commits at the reader's stamp.
func TestHekatonReaderStampsSealedCommit(t *testing.T) {
	e := NewHekatonEngine(2)
	defer e.Close()
	w, r := e.Session().(*hekTx), e.Session().(*hekTx)
	w.Begin()
	for key, val := range []uint64{100, 200} {
		if !w.Update(key, func(row *Row) { row.Fields[0] = val }) {
			t.Fatal("update failed")
		}
	}
	w.end.Seal() // Commit's front half, by hand

	read := make(chan [2]uint64, 1)
	go func() {
		var a, b Row
		r.Begin()
		r.Read(0, &a)
		r.Read(1, &b)
		read <- [2]uint64{a.Fields[0], b.Fields[0]}
	}()
	select {
	case got := <-read:
		if got != [2]uint64{0, 1} {
			t.Fatalf("reader at a sealed commit saw %v, want the old rows [0 1]", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader waited on a sealed commit")
	}
	stamped := w.end.Load()
	if stamped >= clock.Aborted || stamped <= r.beginTS.Load() {
		t.Fatalf("end word %d after a reader at %d met it, want a stamp above the reader", stamped, r.beginTS.Load())
	}
	w.Commit()
	for key := range e.rows {
		if got := e.rows[key].head.Load().begin.Load(); got != stamped {
			t.Fatalf("row %d committed at %d, want the reader's stamp %d", key, got, stamped)
		}
	}
	r.Commit()
}
