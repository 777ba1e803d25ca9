package core

import "time"

// threadStats are owner-written plain counters (the GC-pass trio —
// gcRuns, reclaimed, writebacks — is also written by the detector in
// single-collector mode, under gcMu). They live in a separate allocation
// shared between the Thread and its registry entry so the counters of a
// departed or collected handle survive into Domain.Stats.
type threadStats struct {
	commits        uint64
	aborts         uint64
	panicAborts    uint64 // sections rolled back by a panic under Execute
	lockFails      uint64 // TryLock lost to a concurrent lock holder
	orderFails     uint64 // write-latest-version-only / ORDO ambiguity
	logFails       uint64 // log exhausted while this thread pinned GC
	capacityBlocks uint64 // allocSlot waits at the high watermark
	stallReports   uint64 // allocSlot give-ups attributed to a stall episode
	derefTriggers  uint64 // GCs triggered by the dereference watermark
	gcRuns         uint64
	reclaimed      uint64
	writebacks     uint64
	derefs         uint64
	chainSteps     uint64 // versions inspected across all derefs
	overflowAllocs uint64 // versions placed past the log ceiling (DynamicLog)
	wmCoalesced    uint64 // watermark refreshes served by the broadcast value
	logSegAllocs   uint64 // version-log segments allocated
}

// add folds b into a (aggregation by Domain.Stats and the departed fold).
func (a *threadStats) add(b *threadStats) {
	a.commits += b.commits
	a.aborts += b.aborts
	a.panicAborts += b.panicAborts
	a.lockFails += b.lockFails
	a.orderFails += b.orderFails
	a.logFails += b.logFails
	a.capacityBlocks += b.capacityBlocks
	a.stallReports += b.stallReports
	a.derefTriggers += b.derefTriggers
	a.gcRuns += b.gcRuns
	a.reclaimed += b.reclaimed
	a.writebacks += b.writebacks
	a.derefs += b.derefs
	a.chainSteps += b.chainSteps
	a.overflowAllocs += b.overflowAllocs
	a.wmCoalesced += b.wmCoalesced
	a.logSegAllocs += b.logSegAllocs
}

// Stats is a point-in-time aggregate of a domain's counters. Collect it
// only while all threads are quiescent (outside critical sections).
type Stats struct {
	Commits        uint64 // committed critical sections with writes
	Aborts         uint64 // aborted critical sections
	PanicAborts    uint64 // sections rolled back because fn panicked under Execute
	LockFails      uint64 // TryLock failures against a held lock
	OrderFails     uint64 // write-latest-version-only or ORDO ambiguity failures
	LogFails       uint64 // TryLock failures due to log exhaustion
	CapacityBlocks uint64 // high-watermark waits in allocSlot
	DerefTriggers  uint64 // collections triggered by the dereference watermark
	GCRuns         uint64 // log collection passes
	Reclaimed      uint64 // version slots reclaimed
	Writebacks     uint64 // chain heads written back to masters
	Derefs         uint64 // Deref calls
	ChainSteps     uint64 // version-chain entries inspected by Deref
	OverflowAllocs uint64 // versions placed past the log ceiling (DynamicLog)

	// WatermarkScans counts full O(threads) scans by refreshWatermark;
	// WatermarkCoalesced counts refresh requests that were satisfied by
	// the already-broadcast watermark (fresh enough, or a concurrent
	// refresher in flight) without scanning. Their ratio is the direct
	// observable for §3.7's decoupling claim: GC triggers should
	// normally coalesce instead of recomputing the grace period.
	WatermarkScans     uint64
	WatermarkCoalesced uint64

	// LogSegmentAllocs counts version-log segments allocated from the
	// heap. A log grows by one only when a GC pass frees none of its
	// segments, so the count is flat once reclamation keeps pace and
	// climbs while a pinned snapshot holds a writer's log back.
	LogSegmentAllocs uint64

	// Failure observability (see gpdetector.go). StallEvents counts
	// declared watermark-stall episodes; StalledFor is how long the
	// currently active episode has lasted (zero when the watermark is
	// advancing normally); StallReports counts capacity-blocked writers
	// that attributed an allocSlot give-up to an active episode.
	// HandleLeaks counts handles the runtime collected while still
	// registered (dropped without Unregister). DetectorRecoveries counts
	// panics the grace-period detector recovered from (injected faults,
	// panicking OnStall callbacks) without dying.
	StallEvents        uint64
	StalledFor         time.Duration
	StallReports       uint64
	HandleLeaks        uint64
	DetectorRecoveries uint64

	// StallEpisodes counts completed (recovered-from) stall episodes and
	// StallTotal their cumulative duration, from the domain's stall
	// histogram — the durable record StalledFor's point-in-time view
	// forgets as soon as the watermark moves again. An active episode is
	// in neither until it ends.
	StallEpisodes uint64
	StallTotal    time.Duration
}

// Add returns the field-wise sum of two Stats — the aggregation a
// sharded deployment needs to report N independent domains as one
// total. Duration fields sum; derived ratios (AbortRatio,
// ReadAmplification) remain meaningful on the sum because they are
// recomputed from the summed counters.
func (s Stats) Add(o Stats) Stats {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.PanicAborts += o.PanicAborts
	s.LockFails += o.LockFails
	s.OrderFails += o.OrderFails
	s.LogFails += o.LogFails
	s.CapacityBlocks += o.CapacityBlocks
	s.DerefTriggers += o.DerefTriggers
	s.GCRuns += o.GCRuns
	s.Reclaimed += o.Reclaimed
	s.Writebacks += o.Writebacks
	s.Derefs += o.Derefs
	s.ChainSteps += o.ChainSteps
	s.OverflowAllocs += o.OverflowAllocs
	s.WatermarkScans += o.WatermarkScans
	s.WatermarkCoalesced += o.WatermarkCoalesced
	s.LogSegmentAllocs += o.LogSegmentAllocs
	s.StallEvents += o.StallEvents
	s.StalledFor += o.StalledFor
	s.StallReports += o.StallReports
	s.HandleLeaks += o.HandleLeaks
	s.DetectorRecoveries += o.DetectorRecoveries
	s.StallEpisodes += o.StallEpisodes
	s.StallTotal += o.StallTotal
	return s
}

// AbortRatio returns aborts / (aborts + commits), the quantity Figure 5
// plots. Read-only sections count as neither.
func (s Stats) AbortRatio() float64 {
	total := s.Aborts + s.Commits
	if total == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(total)
}

// ReadAmplification returns the average number of memory objects
// inspected per dereference (Table 1's read-amplification column:
// 1 + 1/V in MV-RLU terms — each dereference reads the chain head plus,
// occasionally, older versions).
func (s Stats) ReadAmplification() float64 {
	if s.Derefs == 0 {
		return 1
	}
	return float64(s.ChainSteps+s.Derefs) / float64(s.Derefs)
}

// Stats aggregates the counters across the whole handle lifecycle: live
// handles, leaked entries whose handle the runtime already collected
// (their strongly-held threadStats remain readable), and the departed
// aggregate of unregistered/pruned handles. Owner-written fields require
// the live threads to be outside critical sections; each live thread's
// gcMu is taken because in GCSingleCollector mode the detector keeps
// collecting (and counting) even while users are quiescent.
func (d *Domain[T]) Stats() Stats {
	var agg threadStats
	d.mu.Lock()
	entries := *d.threads.Load()
	agg.add(&d.departed)
	d.mu.Unlock()
	for _, e := range entries {
		if t := e.handle.Value(); t != nil {
			t.gcMu.Lock()
			agg.add(e.stats)
			t.gcMu.Unlock()
			agg.derefs += t.derefMaster + t.derefCopy
		} else {
			// Handle collected (leaked-while-pinned entry): nothing
			// writes these counters anymore — the single collector
			// skips entries whose weak handle is dead.
			agg.add(e.stats)
		}
	}
	s := Stats{
		Commits:            agg.commits,
		Aborts:             agg.aborts,
		PanicAborts:        agg.panicAborts,
		LockFails:          agg.lockFails,
		OrderFails:         agg.orderFails,
		LogFails:           agg.logFails,
		CapacityBlocks:     agg.capacityBlocks,
		DerefTriggers:      agg.derefTriggers,
		GCRuns:             agg.gcRuns,
		Reclaimed:          agg.reclaimed,
		Writebacks:         agg.writebacks,
		Derefs:             agg.derefs,
		ChainSteps:         agg.chainSteps,
		OverflowAllocs:     agg.overflowAllocs,
		WatermarkCoalesced: agg.wmCoalesced + d.wmCoalesced.Load(),
		LogSegmentAllocs:   agg.logSegAllocs,
		WatermarkScans:     d.wmScans.Load(),
		StallEvents:        d.stallEvents.Load(),
		StallReports:       agg.stallReports,
		HandleLeaks:        d.handleLeaks.Load(),
		DetectorRecoveries: d.detectorPanics.Load(),
	}
	if since := d.stallSince.Load(); since != 0 {
		s.StalledFor = time.Since(time.Unix(0, since))
	}
	eps := d.stallHist.Snapshot()
	s.StallEpisodes = eps.Count()
	s.StallTotal = time.Duration(eps.Sum)
	return s
}

// LogOccupancy returns the number of live slots in the thread's log
// (testing and diagnostics).
func (t *Thread[T]) LogOccupancy() int {
	return int(t.pin.head.Load() - t.pin.tail.Load())
}
