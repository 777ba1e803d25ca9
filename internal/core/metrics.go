package core

import (
	"time"

	"mvrlu/internal/obs"
)

// This file is the engine's telemetry surface: per-thread latency
// histograms recorded on the hot paths behind obs.Enabled, merged at
// scrape time the way Domain.Stats folds threadStats — live handles,
// then the departed aggregate. Unlike Stats (plain owner-written
// counters, readable only at quiescence), everything here is atomics:
// HistogramSnapshot and RegisterMetrics are safe to call at any moment,
// under full load, which is what the /metrics endpoint and the METRICS
// server command require.

// HistKind names one engine histogram. Kinds below numThreadHists are
// recorded per thread (owner-written, folded at scrape); the rest are
// domain-level, written by the grace-period detector.
type HistKind int

const (
	// HistCS is critical-section duration (ReadLock to exit) in
	// nanoseconds, including commit time. Derefs are timed only as part
	// of their section: a clock read costs more than a Deref's walk.
	HistCS HistKind = iota
	// HistCSChainMax is, per critical section, the most version-chain
	// entries any one Deref in it walked.
	HistCSChainMax
	// HistTryLock is TryLock/TryLockConst latency in nanoseconds,
	// successes and failures alike.
	HistTryLock
	// HistCommit is write-set publish (commit) latency in nanoseconds.
	HistCommit
	// HistGCPass is log-reclamation pass duration in nanoseconds.
	HistGCPass
	// HistGCReclaimed is version slots reclaimed per GC pass.
	HistGCReclaimed

	numThreadHists

	// HistGPAge is the grace-period age — clock now minus watermark —
	// sampled once per detector tick, in clock units (nanoseconds under
	// the hardware clock, ticks under the logical one). A growing tail
	// here is the earliest visible sign of a straggling reader.
	HistGPAge
	// HistStall is completed watermark-stall episode durations in
	// nanoseconds. Domain.Stalled only reports the episode in progress;
	// this histogram is how past stalls stay visible after recovery.
	HistStall

	// NumHistKinds bounds the kind space.
	NumHistKinds
)

// histMeta carries the exposition name (prefixed by RegisterMetrics) and
// help text per kind.
var histMeta = [NumHistKinds]struct{ name, help string }{
	HistCS:          {"cs_ns", "critical-section duration in nanoseconds, derefs included"},
	HistCSChainMax:  {"cs_chain_max", "longest version-chain walk (entries) of any Deref in a critical section, one observation per section"},
	HistTryLock:     {"trylock_ns", "TryLock latency in nanoseconds"},
	HistCommit:      {"commit_ns", "write-set commit latency in nanoseconds"},
	HistGCPass:      {"gc_pass_ns", "log reclamation pass duration in nanoseconds"},
	HistGCReclaimed: {"gc_reclaimed_slots", "version slots reclaimed per GC pass"},
	HistGPAge:       {"gp_age", "grace-period age (clock now minus watermark) per detector tick, in clock units"},
	HistStall:       {"stall_episode_ns", "completed watermark-stall episode durations in nanoseconds"},
}

// MetricName returns the unprefixed exposition name of a histogram kind.
func (k HistKind) MetricName() string { return histMeta[k].name }

// threadHists is the per-thread histogram block. Like threadStats it is
// a separate allocation shared between the Thread and its registry entry
// so a departed handle's distributions survive into the domain
// aggregate; unlike threadStats its cells are atomic, so it may be read
// (and, in single-collector mode, written by the detector's collect)
// at any time.
type threadHists [numThreadHists]obs.Histogram

// absorb folds src into dst — the departed-thread fold, mirroring
// threadStats.add. Callers serialize folds against scrapes with
// Domain.mu so an entry is never counted zero or two times.
func (dst *threadHists) absorb(src *threadHists) {
	for i := range src {
		dst[i].Absorb(src[i].Snapshot())
	}
}

// HistogramSnapshot merges one histogram kind across the handle
// lifecycle: live threads, leaked entries, and the departed aggregate.
// Safe to call at any time — the fold runs on atomic snapshots, and the
// thread list plus departed aggregate are read under mu so a concurrent
// Unregister fold can neither drop nor double-count an entry. Every
// bucket is monotone across calls.
func (d *Domain[T]) HistogramSnapshot(k HistKind) obs.Snapshot {
	switch k {
	case HistGPAge:
		return d.gpAge.Snapshot()
	case HistStall:
		return d.stallHist.Snapshot()
	}
	d.mu.Lock()
	entries := *d.threads.Load()
	s := d.departedHists[k].Snapshot()
	d.mu.Unlock()
	for _, e := range entries {
		s.Add(e.hists[k].Snapshot())
	}
	return s
}

// RegisterMetrics registers the domain's telemetry — every histogram
// kind plus the always-safe atomic counters and gauges — under the
// "mvrlu_" prefix and the given Prometheus label set (e.g. `shard="2"`;
// empty for unlabeled series). Labels are how a sharded deployment
// exposes N domains side by side: same family names, one sample per
// shard. Counters derived from plain owner-written threadStats fields
// are deliberately absent: those require quiescence (Domain.Stats) and
// would race a scrape under load. Commit, abort and deref rates are
// recovered from the histogram _count series instead.
func (d *Domain[T]) RegisterMetrics(reg *obs.Registry, labels string) {
	const prefix = "mvrlu_"
	for k := HistKind(0); k < NumHistKinds; k++ {
		if k == numThreadHists {
			continue
		}
		kind := k
		reg.HistogramWith(prefix+histMeta[kind].name, labels, histMeta[kind].help,
			func() obs.Snapshot { return d.HistogramSnapshot(kind) })
	}
	reg.CounterWith(prefix+"watermark_scans_total", labels,
		"full O(threads) watermark scans",
		d.wmScans.Load)
	reg.CounterWith(prefix+"watermark_coalesced_total", labels,
		"domain-side watermark refreshes served by the broadcast value",
		d.wmCoalesced.Load)
	reg.CounterWith(prefix+"stall_events_total", labels,
		"declared watermark-stall episodes",
		d.stallEvents.Load)
	reg.CounterWith(prefix+"handle_leaks_total", labels,
		"handles collected by the runtime while still registered",
		d.handleLeaks.Load)
	reg.CounterWith(prefix+"detector_recoveries_total", labels,
		"panics the grace-period detector recovered from",
		d.detectorPanics.Load)
	reg.GaugeWith(prefix+"watermark", labels,
		"broadcast reclamation watermark in clock units",
		func() float64 { return float64(d.watermark.Load()) })
	reg.GaugeWith(prefix+"watermark_age", labels,
		"domain clock minus the broadcast watermark, in clock units; a growing age means a pinned reader is holding reclamation back",
		func() float64 { return float64(d.clk.Now() - d.watermark.Load()) })
	reg.GaugeWith(prefix+"threads", labels,
		"registered thread handles (including leaked-while-pinned entries)",
		func() float64 { return float64(len(*d.threads.Load())) })
	reg.GaugeWith(prefix+"stalled_for_seconds", labels,
		"age of the active watermark-stall episode, 0 when none",
		func() float64 {
			since := d.stallSince.Load()
			if since == 0 {
				return 0
			}
			return float64(time.Now().UnixNano()-since) / 1e9
		})
}
