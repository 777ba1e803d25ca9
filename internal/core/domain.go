package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"mvrlu/internal/check"
	"mvrlu/internal/clock"
	"mvrlu/internal/obs"
)

// Engine is the payload-independent view of a Domain: the read-outs and
// controls that serving, durability and checking tools need without
// knowing the domain's object type. A store build backed by a Domain
// embeds it as an Engine, so one type assertion, st.(core.Engine), is
// the whole engine-capability probe.
type Engine interface {
	Stats() Stats
	Stalled() (StallInfo, bool)
	Watermark() uint64
	Now() uint64
	Boundary() uint64
	SetEventTag(tag uint32)
	RegisterMetrics(reg *obs.Registry, labels string)
}

var _ Engine = (*Domain[struct{}])(nil)

// Domain is an MV-RLU synchronization domain: a clock, a set of registered
// threads, a grace-period detector, and the reclamation watermark they
// share. All objects guarded by the same Domain commit and reclaim
// against the same timeline.
//
// Field order is deliberate: cold configuration first, then the shared
// hot atomics, padded onto their own cache lines so that every thread's
// fast-path watermark reads never share a line with fields mutated at
// registration time (threads, nextID) or scan time (wmInFlight, the
// scan counters).
type Domain[T any] struct {
	opts Options
	clk  clock.Clock
	// boundary is the ORDO uncertainty window of clk (§3.9): added to
	// commit timestamps, subtracted from reclamation watermarks, and
	// the minimum unambiguous distance for try_lock ordering checks.
	boundary uint64
	// wmFreshness is the watermark coalescing window in clock units:
	// while the last full scan is younger than this, refresh requests
	// read the broadcast watermark instead of rescanning the threads.
	// One grace-period interval (or the ORDO window, if larger) for the
	// hardware clock; a small tick budget for the logical global clock.
	// A coalesced (lagging) watermark is always safe — the watermark is
	// a conservative lower bound and stays monotone — it only delays
	// reclamation by at most the window.
	wmFreshness uint64

	// threads is a copy-on-write snapshot of registry entries, read by
	// the watermark scan without locks; mu guards its mutation, the
	// closed transition, and the departed-stats fold.
	threads atomic.Pointer[[]threadEntry[T]]
	mu      sync.Mutex
	// nextID assigns thread ids; never reused, so a stale pending
	// version can never be mistaken for the current holder's.
	nextID int
	// departed accumulates the counters of unregistered and collected
	// handles so Domain.Stats stays complete across the handle
	// lifecycle (guarded by mu).
	departed threadStats

	// sentinel occupies Object.pending during GC write-back.
	sentinel *version[T]

	// chk is the attached history recorder (Options.Check), nil in
	// normal operation; threads registered while it is set record into
	// per-thread streams, GC and the detector into its global stream.
	chk *check.History

	gp     *gpDetector[T]
	closed atomic.Bool

	// Failure-observability state, written by the grace-period detector
	// (see gpdetector.go) and the leak guard; read by Stats and by
	// capacity-blocked writers in allocSlot. stallSince doubles as the
	// active-stall flag (0 = watermark advancing normally) and as the
	// episode identity allocSlot rate-limits its reports against.
	stallEvents    atomic.Uint64
	stallSince     atomic.Int64 // unix nanos of the active stall's declaration
	stallThread    atomic.Int64 // registry id of the pinning thread
	stallEntryTS   atomic.Uint64
	stallWatermark atomic.Uint64
	handleLeaks    atomic.Uint64
	detectorPanics atomic.Uint64

	// Telemetry aggregates (see metrics.go): departedHists folds the
	// histograms of unregistered/pruned handles (under mu, like
	// departed); gpAge and stallHist are detector-written. All atomic
	// inside, scrape-safe at any time; cold on the thread fast path.
	departedHists threadHists
	gpAge         obs.Histogram
	stallHist     obs.Histogram

	// evTag labels this domain's entries in the obs event timeline —
	// the shard index for sharded stores (see kvstore.NewSharded), 0
	// otherwise. chainHigh is the longest version chain any deref on
	// this domain has walked; derefs ratchet it up and emit an
	// EvChainHigh timeline event on each new high-water mark.
	evTag     atomic.Uint32
	chainHigh atomic.Uint64

	// watermark is the broadcast reclamation timestamp: every thread
	// currently inside a critical section entered at or after it, so
	// events older than it have no live observers. wmScanAt is the
	// clock reading of the scan that last published it, the freshness
	// epoch of the coalescing fast path; it is stored after the
	// watermark so a fresh wmScanAt never pairs with a stale watermark
	// (the reverse pairing is harmless: merely more conservative).
	// Both live on their own read-mostly cache line: every thread reads
	// them at GC-trigger time, but only a full scan (≤ once per
	// freshness window) writes them.
	_         [64]byte
	watermark atomic.Uint64
	wmScanAt  atomic.Uint64

	// Scan-side mutable state, on its own line so scanners do not
	// invalidate the read-mostly watermark line when coalescing.
	// wmInFlight gates the single in-flight full scan; wmScans counts
	// full thread scans, wmCoalesced the domain-side refresh requests
	// satisfied without one (thread-side coalesced reads are counted in
	// per-thread stats).
	_           [48]byte
	wmScans     atomic.Uint64
	wmCoalesced atomic.Uint64
	wmInFlight  atomic.Bool
	_           [47]byte
}

// threadEntry is one scan-list slot. The handle itself is held weakly so
// that a handle dropped while still registered — a goroutine that leaked
// or exited without Unregister, the misbehaving participant §3.7's
// liveness argument assumes away — can be collected by the runtime; the
// AddCleanup guard then flags the leak. The pieces the grace-period
// machinery must keep reading are held strongly: pin (localTS/head/tail)
// so a section leaked mid-flight keeps pinning the watermark instead of
// silently losing its snapshot protection, and stats so the departed
// thread's counters survive into Domain.Stats.
type threadEntry[T any] struct {
	id      int
	handle  weak.Pointer[Thread[T]]
	pin     *pinState
	stats   *threadStats
	hists   *threadHists
	cleanup runtime.Cleanup
	// leaked marks an entry whose handle was collected while its pin
	// was still published; the entry is retained (safety: the pin must
	// stay visible to the scan) and the stall detector names its id.
	leaked bool
}

// globalClockFreshness is the coalescing window under ClockGlobal, in
// ticks of the logical clock (each timestamp allocation is one tick).
const globalClockFreshness = 256

// NewDomain creates a domain with the given options and starts its
// grace-period detector. Call Close when done to stop the detector.
func NewDomain[T any](opts Options) *Domain[T] {
	opts.sanitize()
	d := &Domain[T]{opts: opts}
	switch opts.ClockMode {
	case ClockGlobal:
		d.clk = &clock.Global{}
	default:
		d.clk = &clock.Hardware{Window: opts.OrdoWindow}
	}
	d.boundary = d.clk.Boundary()
	switch opts.ClockMode {
	case ClockGlobal:
		d.wmFreshness = globalClockFreshness
	default:
		d.wmFreshness = uint64(opts.GPInterval.Nanoseconds())
		if d.boundary > d.wmFreshness {
			d.wmFreshness = d.boundary
		}
	}
	d.sentinel = &version[T]{owner: -1}
	d.chk = opts.Check
	empty := make([]threadEntry[T], 0)
	d.threads.Store(&empty)
	d.gp = newGPDetector(d)
	d.gp.start()
	return d
}

// NewDefaultDomain creates a domain with DefaultOptions.
func NewDefaultDomain[T any]() *Domain[T] { return NewDomain[T](DefaultOptions()) }

// Close shuts the domain down in order: it first marks the domain closed
// — from that point Register panics instead of handing out handles whose
// detector is about to die — and then stops the grace-period detector,
// returning once the detector goroutine has exited. Close is idempotent
// and safe against concurrent Register calls (the closed transition and
// registration serialize on the same lock); every caller, not just the
// first, waits for the detector to be fully stopped before returning.
// Threads must have left their critical sections.
func (d *Domain[T]) Close() {
	d.mu.Lock()
	first := d.closed.CompareAndSwap(false, true)
	d.mu.Unlock()
	if first {
		d.gp.signalStop()
	}
	d.gp.await()
}

// Closed reports whether Close has begun.
func (d *Domain[T]) Closed() bool { return d.closed.Load() }

// Options returns the domain's (sanitized) configuration.
func (d *Domain[T]) Options() Options { return d.opts }

// Alloc creates a master object guarded by this domain. Present for
// symmetry with the paper's API; it is NewObject.
func (d *Domain[T]) Alloc(data T) *Object[T] { return NewObject(data) }

// Register adds the calling goroutine as an MV-RLU thread and returns its
// handle. A handle must only be used by one goroutine at a time, and must
// stay reachable until Unregister: a handle dropped while registered is
// flagged as a leak (Stats.HandleLeaks) by a runtime cleanup.
//
// Register panics if the domain is closed: a handle registered after
// Close would be serviced by no detector — in single-collector mode its
// log would never be reclaimed — so handing one out silently is a
// correctness trap rather than a convenience.
func (d *Domain[T]) Register() *Thread[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		panic("mvrlu: Register on closed Domain (grace-period detector stopped)")
	}
	t := newThread(d, d.nextID)
	d.nextID++
	if d.chk != nil {
		t.crec = d.chk.ThreadRec()
	}
	e := threadEntry[T]{
		id:     t.id,
		handle: weak.Make(t),
		pin:    t.pin,
		stats:  t.stats,
		hists:  t.hists,
	}
	// The leak guard: fires when the runtime proves the handle
	// unreachable while still registered. The closure must not
	// reference t (that would keep it alive forever); it captures the
	// domain and the registry id only.
	e.cleanup = runtime.AddCleanup(t, func(id int) { d.handleLeak(id) }, t.id)
	old := *d.threads.Load()
	next := make([]threadEntry[T], len(old)+1)
	copy(next, old)
	next[len(old)] = e
	d.threads.Store(&next)
	return t
}

// handleLeak is the runtime-cleanup target for a handle dropped while
// registered. A quiescent leak (localTS 0) is pruned: the handle can
// never re-enter a critical section, so removing its entry merely stops
// scanning it; its counters fold into the departed aggregate. A handle
// leaked while pinned is retained and marked: its pin must stay visible
// to the watermark scan — the leaked section may still be reading
// versions through borrowed pointers — so reclamation stays blocked and
// the stall detector reports the culprit id instead of the domain
// corrupting readers or hanging silently.
func (d *Domain[T]) handleLeak(id int) {
	d.mu.Lock()
	old := *d.threads.Load()
	next := make([]threadEntry[T], 0, len(old))
	for _, e := range old {
		if e.id != id {
			next = append(next, e)
			continue
		}
		d.handleLeaks.Add(1)
		if e.pin.localTS.Load() != 0 {
			e.leaked = true
			next = append(next, e)
			continue
		}
		d.departed.add(e.stats)
		d.departedHists.absorb(e.hists)
	}
	d.threads.Store(&next)
	d.mu.Unlock()
	// Wake the detector: a pruned quiescent leak may have been the
	// scan's minimum, and a pinned leak should be diagnosed promptly.
	d.gp.request()
}

// coalescedWatermark returns the broadcast watermark when the last full
// scan is still within window of now, and ok=false when a scan is due.
// This is the GC-trigger fast path: two loads of a read-mostly line,
// independent of the number of registered threads. Callers pass a
// recently drawn clock value rather than reading the clock here — on
// hosts without a cheap time source the read would cost more than the
// scan it avoids. A stale now only errs toward ok=false (uint64
// wraparound when the scan postdates it included), i.e. toward an
// unnecessary scan, never toward treating a stale broadcast as fresh
// beyond the window.
func (d *Domain[T]) coalescedWatermark(now, window uint64) (w uint64, ok bool) {
	at := d.wmScanAt.Load()
	if at != 0 && now-at < window {
		return d.watermark.Load(), true
	}
	return 0, false
}

// refreshWatermark recomputes and publishes the reclamation watermark: the
// minimum local timestamp over threads currently in a critical section
// (or "now" when all are quiescent), minus the ORDO boundary (Theorem 2:
// shrink the grace-period timestamp so clock skew cannot reclaim objects
// still visible to a thread whose clock runs behind). The watermark is
// monotone.
//
// Concurrent refreshers coalesce through wmInFlight: one performs the
// O(threads) scan, the rest read the broadcast value — at most one scan
// old — so a stampede of capacity-blocked writers costs one scan total,
// not one each. Callers on a thread's GC-trigger path should prefer
// Thread.refreshWatermark, which additionally skips scans while the
// broadcast is fresh.
func (d *Domain[T]) refreshWatermark() uint64 {
	if !d.wmInFlight.CompareAndSwap(false, true) {
		d.wmCoalesced.Add(1)
		return d.watermark.Load()
	}
	d.wmScans.Add(1)
	// The clock must be read BEFORE scanning the threads: ReadLock's
	// pin-then-stamp protocol (see Thread.ReadLock) relies on a scan
	// that misses a pin having drawn its own timestamp earlier than the
	// reader's. The scan reads each entry's strongly-held pin state, so
	// a leaked-while-pinned handle keeps holding the watermark back even
	// after the runtime collected the handle itself.
	now := d.clk.Now()
	minTS := now
	for _, e := range *d.threads.Load() {
		ts := e.pin.localTS.Load()
		if ts != 0 && ts < minTS {
			minTS = ts
		}
	}
	raw := minTS
	if !mutateSkipWatermarkBoundary {
		if minTS > d.boundary {
			minTS -= d.boundary
		} else {
			minTS = 0
		}
	}
	if d.chk != nil {
		// Recorded before the publish CAS: any collector that loads
		// the published value is then guaranteed to find this
		// broadcast ticketed before its own reclaim events.
		d.chk.Watermark(raw, minTS, d.boundary)
	}
	w := d.watermark.Load()
	advanced := false
	for minTS > w {
		if d.watermark.CompareAndSwap(w, minTS) {
			w = minTS
			advanced = true
			break
		}
		w = d.watermark.Load()
	}
	// Publish the freshness epoch only after the watermark itself so the
	// coalescing fast path never reads a fresh epoch with a stale value.
	d.wmScanAt.Store(now)
	d.wmInFlight.Store(false)
	if advanced && obs.TraceEnabled() {
		obs.RecordEvent(obs.EvWatermark, d.evTag.Load(), w, 0)
	}
	return w
}

// SetEventTag labels this domain's entries in the obs event timeline
// (kvstore.NewSharded tags each shard's domain with its index so a
// timeline dump attributes GC/watermark events to the right shard).
func (d *Domain[T]) SetEventTag(tag uint32) { d.evTag.Store(tag) }

// noteChainLen ratchets the domain's chain-length high-water mark and
// emits an EvChainHigh timeline event when steps sets a new record.
// Called from the deref telemetry path only, so the untraced fast path
// pays nothing.
func (d *Domain[T]) noteChainLen(steps uint64) {
	hw := d.chainHigh.Load()
	for steps > hw {
		if d.chainHigh.CompareAndSwap(hw, steps) {
			if obs.TraceEnabled() {
				obs.RecordEvent(obs.EvChainHigh, d.evTag.Load(), steps, 0)
			}
			return
		}
		hw = d.chainHigh.Load()
	}
}

// Watermark returns the last broadcast reclamation watermark.
func (d *Domain[T]) Watermark() uint64 { return d.watermark.Load() }

// Boundary returns the clock's ORDO uncertainty window — what the
// history checker (internal/check) must be configured with.
func (d *Domain[T]) Boundary() uint64 { return d.boundary }

// Now exposes the domain clock (examples and tests).
func (d *Domain[T]) Now() uint64 { return d.clk.Now() }
