package core

import (
	"sync"
	"time"

	"mvrlu/internal/failpoint"
	"mvrlu/internal/obs"
)

// gpDetector is the background grace-period detector (§3.7): it broadcasts
// the reclamation watermark periodically or on demand, decoupling
// quiescence detection from thread operation — the property that removes
// RLU's rlu_synchronize from the critical path. In GCSingleCollector mode
// it also performs all log reclamation itself (the "+multi-version"
// factor-analysis configuration, whose single collector bottlenecks
// write-intensive workloads).
//
// The detector doubles as the domain's failure observer: it tracks how
// long the watermark has failed to advance while some reader pins it,
// and — past Options.StallThreshold grace-period intervals — declares a
// stall, identifies the pinning thread and its critical-section entry
// timestamp, and surfaces the episode through Stats.StallEvents /
// Stats.StalledFor and the optional Options.OnStall callback. A stalled
// watermark is the failure mode a misbehaving participant induces (a
// reader that never exits, a leaked pinned handle): writers livelock at
// the capacity watermark once their logs fill, so the engine must report
// the cause rather than spin blind.
type gpDetector[T any] struct {
	d    *Domain[T]
	kick chan struct{}
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	// Stall tracking (detector-goroutine only).
	lastW      uint64
	stallTicks int
	inStall    bool
}

// StallInfo describes a watermark stall: the reclamation watermark has
// not advanced for at least Options.StallThreshold grace-period
// intervals while a reader pins it. It is delivered to Options.OnStall
// and exposed through Domain.Stalled.
type StallInfo struct {
	// ThreadID is the registry id of the pinning thread — the reader
	// whose critical-section entry timestamp is the watermark's minimum.
	ThreadID int
	// EntryTS is that thread's critical-section entry timestamp (its
	// published localTS), the timestamp the watermark cannot pass.
	EntryTS uint64
	// Watermark is the stuck watermark value.
	Watermark uint64
	// Since is when the detector declared the stall.
	Since time.Time
	// BlockedWriter is the registry id of a capacity-blocked writer
	// reporting the stall from allocSlot, or -1 when the report comes
	// from the detector itself.
	BlockedWriter int
}

func newGPDetector[T any](d *Domain[T]) *gpDetector[T] {
	return &gpDetector[T]{
		d:    d,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
	}
}

func (g *gpDetector[T]) start() {
	g.wg.Add(1)
	go g.run()
}

// signalStop asks the detector to exit; await blocks until it has. They
// are split so Domain.Close can make every caller — not only the first —
// wait for the goroutine to be gone before returning.
func (g *gpDetector[T]) signalStop() { g.once.Do(func() { close(g.quit) }) }
func (g *gpDetector[T]) await()      { g.wg.Wait() }

// request asks for an immediate watermark broadcast (on-demand detection).
// Non-blocking; coalesces with an in-flight request.
func (g *gpDetector[T]) request() {
	select {
	case g.kick <- struct{}{}:
	default:
	}
}

func (g *gpDetector[T]) run() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.d.opts.GPInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.quit:
			return
		case <-g.kick:
		case <-ticker.C:
		}
		g.tick()
	}
}

// tick is one detector pass: broadcast the watermark, run stall
// detection, and sweep the logs: trim the idle ones and, in
// single-collector mode, reclaim every other.
// The pass recovers panics — an injected detector-scan fault or a
// panicking user OnStall callback must not kill the goroutine the whole
// domain's reclamation depends on; recoveries are counted in
// Stats.DetectorRecoveries.
func (g *gpDetector[T]) tick() {
	defer func() {
		if r := recover(); r != nil {
			g.d.detectorPanics.Add(1)
		}
	}()
	failpoint.Inject(failpoint.DetectorScan)
	w := g.d.refreshWatermark()
	if obs.Enabled() {
		// Grace-period age: how far reclamation lags the clock, in
		// clock units, sampled once per tick. The natural place to
		// watch a straggling reader grow before it becomes a stall.
		if now := g.d.clk.Now(); now > w {
			g.d.gpAge.Observe(now - w)
		}
	}
	if obs.TraceEnabled() {
		age := uint64(0)
		if now := g.d.clk.Now(); now > w {
			age = now - w
		}
		obs.RecordEvent(obs.EvGPBroadcast, g.d.evTag.Load(), w, age)
	}
	g.checkStall(w)
	g.sweep()
}

// sweep is the detector's pass over the registered logs: it trims every
// log idle for idleTrimTicks ticks (see Thread.trimIdle), and in
// single-collector mode collects every other. An owner's own GC runs
// only at its section boundaries, so without the trim an idle writer —
// a pooled session, a worker whose load stopped — would keep the log
// its last burst left behind.
func (g *gpDetector[T]) sweep() {
	single := g.d.opts.GCMode == GCSingleCollector
	for _, e := range *g.d.threads.Load() {
		// Re-check quit between logs: a sweep over many threads must
		// not make Close wait out the whole scan, and a quit signaled
		// mid-iteration must win over a stale thread snapshot.
		select {
		case <-g.quit:
			return
		default:
		}
		trim := e.pin.idleTick()
		if !trim && !single {
			continue
		}
		t := e.handle.Value()
		switch {
		case t == nil:
		case trim:
			// A trim that gave up (a pinned watermark, an owner back
			// in a section) waits out another idle spell before it
			// retries, so a pinned watermark costs the sweep a scan
			// or two per idle log per spell, not per tick.
			e.pin.trimmed = t.trimIdle()
			e.pin.idleTicks = 0
		default:
			t.collect()
		}
	}
}

// idleTick advances a log's idle count by one detector tick and reports
// whether the log is due a trim: its head has not moved and its owner
// was outside a section at each of the last idleTrimTicks ticks, and it
// was not already trimmed at this head. Detector-only state; a read-only
// owner never moves its head, so it is trimmed once, not every tick.
func (p *pinState) idleTick() bool {
	if head := p.head.Load(); head != p.idleHead {
		p.idleHead, p.idleTicks, p.trimmed = head, 0, false
		return false
	}
	if p.trimmed || p.localTS.Load() != 0 {
		p.idleTicks = 0
		return false
	}
	p.idleTicks++
	return p.idleTicks >= idleTrimTicks
}

// checkStall advances the stall state machine by one detector tick. A
// stall is declared when the watermark has been flat for StallThreshold
// consecutive ticks while at least one thread is pinned (an idle domain
// under the logical clock also has a flat watermark, but with no pin
// there is nothing stalled — nothing is awaiting reclamation). The
// episode ends when the watermark moves again.
func (g *gpDetector[T]) checkStall(w uint64) {
	d := g.d
	if w != g.lastW {
		g.lastW = w
		g.stallTicks = 0
		if g.inStall {
			g.inStall = false
			// Record the completed episode's duration before clearing
			// the flag: Stalled() only ever shows the stall in
			// progress, so the histogram is the durable record of past
			// episodes. Unconditional — once per episode is free, and
			// a stall that ends while telemetry is toggled off should
			// not vanish from history.
			var dur int64
			if since := d.stallSince.Load(); since != 0 {
				if dur = time.Now().UnixNano() - since; dur > 0 {
					d.stallHist.Observe(uint64(dur))
				}
			}
			d.stallSince.Store(0)
			if obs.TraceEnabled() {
				obs.RecordEvent(obs.EvStallClose, d.evTag.Load(), w, uint64(max(dur, 0)))
			}
		}
		return
	}
	if g.inStall || d.opts.StallThreshold < 0 {
		return
	}
	g.stallTicks++
	if g.stallTicks < d.opts.StallThreshold {
		return
	}
	// Identify the culprit: the pinned thread with the minimum entry
	// timestamp. The scan reads the strongly-held pin state, so a
	// leaked handle is named by its registry id like any live one.
	pinID, pinTS := -1, uint64(0)
	for _, e := range *d.threads.Load() {
		ts := e.pin.localTS.Load()
		if ts != 0 && (pinID == -1 || ts < pinTS) {
			pinID, pinTS = e.id, ts
		}
	}
	if pinID == -1 {
		// Flat watermark with no pinned reader: an idle logical
		// clock, not a stall. Restart the count.
		g.stallTicks = 0
		return
	}
	g.inStall = true
	info := StallInfo{
		ThreadID:      pinID,
		EntryTS:       pinTS,
		Watermark:     w,
		Since:         time.Now(),
		BlockedWriter: -1,
	}
	d.stallThread.Store(int64(pinID))
	d.stallEntryTS.Store(pinTS)
	d.stallWatermark.Store(w)
	d.stallEvents.Add(1)
	// stallSince is stored last: it is the flag that makes the episode
	// observable, so the identity fields above must already be in place.
	d.stallSince.Store(info.Since.UnixNano())
	if obs.TraceEnabled() {
		obs.RecordEvent(obs.EvStallOpen, d.evTag.Load(), w, uint64(pinID))
	}
	if cb := d.opts.OnStall; cb != nil {
		cb(info)
	}
}

// Stalled reports the active watermark stall, if any. The fields are
// read individually from the detector's atomics, so a caller racing the
// end of an episode may see a slightly torn snapshot; the ok result is
// authoritative for whether a stall was active at the call.
func (d *Domain[T]) Stalled() (StallInfo, bool) {
	since := d.stallSince.Load()
	if since == 0 {
		return StallInfo{}, false
	}
	return StallInfo{
		ThreadID:      int(d.stallThread.Load()),
		EntryTS:       d.stallEntryTS.Load(),
		Watermark:     d.stallWatermark.Load(),
		Since:         time.Unix(0, since),
		BlockedWriter: -1,
	}, true
}
