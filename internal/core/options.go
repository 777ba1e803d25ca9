package core

import (
	"time"

	"mvrlu/internal/check"
)

// GCMode selects who reclaims per-thread logs. The modes form the middle
// rungs of the paper's factor analysis (§6.3).
type GCMode int

const (
	// GCConcurrent is full MV-RLU: every thread reclaims its own log at
	// critical-section boundaries, guided by the broadcast watermark.
	GCConcurrent GCMode = iota
	// GCSingleCollector delegates all log reclamation to the
	// grace-period detector goroutine ("+multi-version" rung: one GC
	// thread reclaims invisible versions and becomes the bottleneck
	// under write-intensive load).
	GCSingleCollector
)

// ClockMode selects the timestamp source (§3.9).
type ClockMode int

const (
	// ClockOrdo uses the scalable hardware-style clock with an ORDO
	// uncertainty window.
	ClockOrdo ClockMode = iota
	// ClockGlobal uses one shared atomic counter — the global logical
	// clock whose cache-line contention the paper's "+ORDO" factor rung
	// removes.
	ClockGlobal
)

// Options configure a Domain. The zero value is not valid; use
// DefaultOptions as a base.
type Options struct {
	// LogSlots is the ceiling of a thread's version log, in versions:
	// occupancy blocks writers at HighCapacity of it, and the capacity
	// watermarks are fractions of it. The paper configures 512 KB
	// circular logs; here every log grows by 64-slot segments as
	// reclamation holds versions back, and reuses the segments the tail
	// passes, so a writer holds the slots its reclamation lag needs
	// rather than LogSlots up front.
	LogSlots int

	// HighCapacity is the fraction of log occupancy at which a writer
	// blocks until reclamation frees space (paper: 75%).
	HighCapacity float64

	// LowCapacity is the fraction of log occupancy that triggers
	// garbage collection at the next critical-section boundary
	// (paper: 50%). Zero disables the capacity watermark trigger
	// ("+concurrent GC" rung: collect only when the log is full).
	LowCapacity float64

	// DerefRatio is the copy-object dereference ratio that triggers
	// garbage collection (paper: 50%): when more than this fraction of
	// dereferences since the last collection had to walk into version
	// chains instead of reading masters, collecting (which writes
	// newest copies back to masters and prunes chains) pays off.
	// Zero disables the dereference watermark.
	DerefRatio float64

	// GCMode selects concurrent autonomous GC or a single collector.
	GCMode GCMode

	// ClockMode selects the timestamp source.
	ClockMode ClockMode

	// GPInterval is the period of the background grace-period
	// detector's watermark broadcast.
	GPInterval time.Duration

	// DynamicLog enables the extension the paper leaves as future work
	// (§5: "our current implementation statically allocates the log and
	// is prone to blocking"): when a thread's log stays at the
	// HighCapacity ceiling for a writer's whole bounded wait, the log
	// grows past the ceiling by further segments instead of failing the
	// TryLock. Those slots stay in the log's FIFO and are reclaimed by
	// the same tail rule as any other; once reclamation catches up the
	// log drops the segments beyond what the ceiling needs.
	DynamicLog bool

	// OrdoWindow injects an artificial ORDO uncertainty window (in
	// clock ticks) into the scalable clock, exercising the §3.9
	// ambiguity machinery: commit timestamps are advanced by the
	// window, reclamation watermarks retarded by it, and TryLock fails
	// when the newest commit is within the window of the local
	// timestamp. The default 0 models this substrate's single
	// monotonic clock (no inter-core skew). Ignored under ClockGlobal.
	OrdoWindow uint64

	// StallThreshold is the number of consecutive grace-period detector
	// ticks the watermark may stay flat — while some reader pins it —
	// before the detector declares a watermark stall (Stats.StallEvents,
	// Domain.Stalled, OnStall). Zero selects the default (64 ticks,
	// ~13ms at the default GPInterval); negative disables stall
	// detection entirely.
	StallThreshold int

	// Check, when non-nil, attaches a history recorder (internal/check)
	// to the domain: every thread registered afterwards records its
	// critical sections, dereferences, and commits into a per-thread
	// stream, and GC reclamation / write-backs / watermark broadcasts
	// into the history's global stream, from NewDomain on. There is no
	// other switch: with Check nil (the default) each record site costs
	// a nil test on an owner-local pointer. Hand the history to
	// check.Check, after the domain quiesces, for the verdict.
	Check *check.History

	// OnStall, when non-nil, is invoked once per stall episode by the
	// grace-period detector (BlockedWriter = -1) and once per episode by
	// each writer that exhausts its log behind the stalled watermark
	// (BlockedWriter = that writer's id). Detector-side calls run on the
	// detector goroutine: the callback must not enter a critical section
	// of this domain and should return quickly. A panicking callback is
	// recovered and counted in Stats.DetectorRecoveries.
	OnStall func(StallInfo)
}

// DefaultOptions mirror the paper's configuration (§6.1): watermarks at
// 75%/50%/50% and concurrent autonomous GC over the ORDO clock.
func DefaultOptions() Options {
	return Options{
		LogSlots:     4096,
		HighCapacity: 0.75,
		LowCapacity:  0.50,
		DerefRatio:   0.50,
		GCMode:       GCConcurrent,
		ClockMode:    ClockOrdo,
		GPInterval:   200 * time.Microsecond,
	}
}

func (o *Options) sanitize() {
	if o.LogSlots <= 0 {
		o.LogSlots = 4096
	}
	if o.HighCapacity <= 0 || o.HighCapacity > 1 {
		o.HighCapacity = 0.75
	}
	if o.LowCapacity < 0 || o.LowCapacity > o.HighCapacity {
		o.LowCapacity = 0
	}
	if o.DerefRatio < 0 || o.DerefRatio >= 1 {
		o.DerefRatio = 0
	}
	if o.GPInterval <= 0 {
		o.GPInterval = 200 * time.Microsecond
	}
	if o.StallThreshold == 0 {
		o.StallThreshold = 64
	}
}
