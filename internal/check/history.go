package check

import (
	"sync"
	"unsafe"
)

// DefaultMaxEvents bounds each stream (per-thread and global) so a
// runaway torture run cannot exhaust memory. At 56 bytes/event this is
// ~56 MB per stream worst case; harnesses pass their own cap.
const DefaultMaxEvents = 1 << 20

// History collects one execution's events. Create with NewHistory,
// attach to an engine (core.Options.Check, rlu/rcu AttachHistory, a
// kvstore build's AttachKVHistory) before its first thread or session,
// run the workload, quiesce it, then hand the History to
// Check/CheckRCU/CheckKV. Recording starts at attachment: a history that
// missed the engine's early commits would report their later
// observations as violations.
//
// Threads record into private streams handed out by ThreadRec; only the
// GC/watermark events share the mutex-guarded global stream. A stream
// that hits the cap stops growing and marks the history truncated; the
// checker then suppresses the rules that would misfire on a partial
// record (see Check).
type History struct {
	mu     sync.Mutex
	global []Event
	recs   []*ThreadRec
	max    int
	// truncSeq is the smallest ticket that failed to record anywhere,
	// or 0 if nothing was dropped. Rules that need a complete record
	// only trust events ticketed strictly below it.
	truncSeq uint64

	// Key interning for KV-index events (see kv.go): ids are 1-based
	// indexes into keyStrs, under their own mutex so write recording
	// never touches the stream locks.
	keyMu   sync.Mutex
	keyIDs  map[string]uint64
	keyStrs []string

	// Engine-object identities (see ObjID), under their own mutex like
	// the keys.
	objMu  sync.Mutex
	objIDs map[unsafe.Pointer]uint64
}

// NewHistory returns an empty history whose streams each hold at most
// maxEvents events (DefaultMaxEvents if maxEvents <= 0).
func NewHistory(maxEvents int) *History {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &History{max: maxEvents}
}

// Truncated reports whether any stream hit its cap and dropped events.
func (h *History) Truncated() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.truncSeq != 0
}

// Events returns the total number of recorded events across all streams.
func (h *History) Events() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.global)
	for _, r := range h.recs {
		r.mu.Lock()
		n += len(r.ev)
		r.mu.Unlock()
	}
	return n
}

// markTruncated notes that the event with ticket s was dropped.
func (h *History) markTruncated(s uint64) {
	h.mu.Lock()
	if h.truncSeq == 0 || s < h.truncSeq {
		h.truncSeq = s
	}
	h.mu.Unlock()
}

// ObjID returns the checker identity of the engine object at p, the
// next unused one on p's first call. The table holds p, so the runtime
// cannot reuse a freed object's memory for a new object while the
// history lives: an id never names two objects, and the record never
// fuses two unrelated version chains. Ids are 1-based and per history.
// Engines call it from reclamation, which may run on any goroutine; a
// thread's own record sites use ThreadRec.ObjID.
func (h *History) ObjID(p unsafe.Pointer) uint64 {
	h.objMu.Lock()
	defer h.objMu.Unlock()
	id, ok := h.objIDs[p]
	if !ok {
		if h.objIDs == nil {
			h.objIDs = make(map[unsafe.Pointer]uint64)
		}
		id = uint64(len(h.objIDs)) + 1
		h.objIDs[p] = id
	}
	return id
}

// ThreadRec hands out a new per-thread stream. Each engine thread gets
// its own at registration; the recorder must only be used by the single
// goroutine driving that thread (the engine's existing Session/Thread
// contract). The recorder's light mutex exists solely so the checker can
// read a stream while its thread is still live (mvtorture snapshots
// after stopping workers, but tests may not); it is never contended on
// the record path.
func (h *History) ThreadRec() *ThreadRec {
	r := &ThreadRec{h: h}
	h.mu.Lock()
	h.recs = append(h.recs, r)
	h.mu.Unlock()
	return r
}

// ThreadRec is one thread's event stream.
type ThreadRec struct {
	h  *History
	mu sync.Mutex
	ev []Event
	// ids caches History.ObjID for this thread (owner-only), so a
	// repeated observation takes no lock that other threads share.
	ids map[unsafe.Pointer]uint64
}

// ObjID is History.ObjID through the thread's private cache.
func (r *ThreadRec) ObjID(p unsafe.Pointer) uint64 {
	if id, ok := r.ids[p]; ok {
		return id
	}
	id := r.h.ObjID(p)
	if r.ids == nil {
		r.ids = make(map[unsafe.Pointer]uint64)
	}
	r.ids[p] = id
	return id
}

func (r *ThreadRec) record(e Event) {
	e.Seq = nextSeq()
	r.recordAt(e)
}

func (r *ThreadRec) recordAt(e Event) {
	r.mu.Lock()
	if len(r.ev) >= r.h.max {
		r.mu.Unlock()
		r.h.markTruncated(e.Seq)
		return
	}
	r.ev = append(r.ev, e)
	r.mu.Unlock()
}

// Begin records critical-section entry at entry timestamp ts.
func (r *ThreadRec) Begin(ts uint64) { r.record(Event{Kind: EvBegin, TS: ts}) }

// End records a clean section exit. Call before releasing the reader
// pin so the watermark rule stays sound.
func (r *ThreadRec) End() { r.record(Event{Kind: EvEnd}) }

// Abort records a section exit that discarded its writes.
func (r *ThreadRec) Abort() { r.record(Event{Kind: EvAbort}) }

// Deref records an observation of obj: vts is the observed version's
// commit timestamp, hops the chain steps walked, flags FlagFromMaster /
// FlagOwn as applicable. For hand-written histories; engines use the
// two-phase DerefTicket/DerefAt so the ticket predates the walk.
func (r *ThreadRec) Deref(obj, vts, hops uint64, flags uint8) {
	r.record(Event{Kind: EvDeref, Obj: obj, VTS: vts, Aux: hops, Flags: flags})
}

// DerefTicket draws the ticket for an observation about to be made.
// Engines call it BEFORE the version walk: a commit whose event ticket
// is smaller was then fully published before any of the walk's loads,
// which is what makes the checker's stale-read rule sound — a commit
// ticketed after this may or may not have been visible to the walk, and
// the checker must not count it. (A post-walk ticket would race the
// commit's linearization store and manufacture false staleness.)
func (r *ThreadRec) DerefTicket() uint64 { return nextSeq() }

// DerefAt records the observation under a ticket previously drawn with
// DerefTicket.
func (r *ThreadRec) DerefAt(seq, obj, vts, hops uint64, flags uint8) {
	r.recordAt(Event{Seq: seq, Kind: EvDeref, Obj: obj, VTS: vts, Aux: hops, Flags: flags})
}

// Write records one write-set entry committed at cts, based on the
// version committed at basedOn (0 + FlagFromMaster when locked from the
// master copy).
func (r *ThreadRec) Write(obj, cts, basedOn uint64, flags uint8) {
	r.record(Event{Kind: EvWrite, Obj: obj, TS: cts, VTS: basedOn, Flags: flags})
}

// RCUBegin/RCUEnd record an RCU read-side section; RCUSyncStart/
// RCUSyncEnd bracket a synchronize call on this thread's stream.
func (r *ThreadRec) RCUBegin() { r.record(Event{Kind: EvRCUBegin}) }
func (r *ThreadRec) RCUEnd()   { r.record(Event{Kind: EvRCUEnd}) }

// RCUSync records a full synchronize episode: call f around the scan.
func (r *ThreadRec) RCUSyncStart() { r.record(Event{Kind: EvRCUSyncStart}) }
func (r *ThreadRec) RCUSyncEnd()   { r.record(Event{Kind: EvRCUSyncEnd}) }

// recordGlobal appends to the shared stream.
func (h *History) recordGlobal(e Event) {
	e.Seq = nextSeq()
	h.mu.Lock()
	if len(h.global) >= h.max {
		h.mu.Unlock()
		h.markTruncated(e.Seq)
		return
	}
	h.global = append(h.global, e)
	h.mu.Unlock()
}

// Reclaim records GC reclaiming a version of obj committed at vts, with
// superseded timestamp sts (0 if live head) and prune timestamp pts (0
// if still chained), justified by watermark wm. Call before the slot is
// released for reuse.
func (h *History) Reclaim(obj, vts, sts, pts, wm uint64, flags uint8) {
	h.recordGlobal(Event{Kind: EvReclaim, Obj: obj, VTS: vts, Aux: sts, Aux2: wm, TS: pts, Flags: flags})
}

// SlotReset records GC resetting the log slot of obj's version committed
// at vts for reuse. Call before the reset.
func (h *History) SlotReset(obj, vts uint64) {
	h.recordGlobal(Event{Kind: EvSlotReset, Obj: obj, VTS: vts})
}

// Writeback records GC writing the version committed at vts back to
// obj's master and detaching the chain at prune timestamp pts.
func (h *History) Writeback(obj, vts, pts uint64) {
	h.recordGlobal(Event{Kind: EvWriteback, Obj: obj, VTS: vts, Aux: pts})
}

// Watermark records a detector broadcast: raw is the scan's minimum
// entry timestamp, published the value the engine actually installed,
// boundary the ORDO window in effect. Call after the publish.
func (h *History) Watermark(raw, published, boundary uint64) {
	h.recordGlobal(Event{Kind: EvWatermark, TS: raw, VTS: published, Aux: boundary})
}

// snapshot returns copies of every stream for the checker.
func (h *History) snapshot() (threads [][]Event, global []Event, truncSeq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	global = append([]Event(nil), h.global...)
	for _, r := range h.recs {
		r.mu.Lock()
		threads = append(threads, append([]Event(nil), r.ev...))
		r.mu.Unlock()
	}
	return threads, global, h.truncSeq
}
