// Package clock provides the timestamp-allocation primitives used by the
// MV-RLU and RLU engines.
//
// The paper allocates timestamps from the per-CPU hardware clock (RDTSCP)
// and orders them with the ORDO primitive (Kashyap et al., EuroSys 2018):
// two timestamps are only comparable when they differ by more than
// ORDO_BOUNDARY, the maximum measured inter-CPU clock skew. This package
// reproduces that interface with two sources:
//
//   - Hardware: the Go runtime's monotonic clock. Like a TSC read it is
//     allocation- and contention-free (VDSO fast path), so many threads can
//     draw timestamps concurrently without a shared cache line. A
//     configurable Boundary models ORDO_BOUNDARY.
//
//   - Global: a single shared atomic counter, the design the paper
//     attributes to RLU and to Hekaton and identifies as a scalability
//     bottleneck. Its Boundary is zero (a total order needs no window).
//
// Timestamps are uint64 nanosecond-scale values. Infinity marks
// uncommitted versions.
package clock

import (
	"sync/atomic"
	"time"
)

// Infinity is the commit timestamp of an uncommitted version. No clock
// ever returns it.
const Infinity = ^uint64(0)

// The CommitWord sentinels. All three lie above every timestamp, so a
// reader's plain `word <= snapshot` test reads each as "not in my
// snapshot"; a word value below Aborted is a commit timestamp.
const (
	Pending    = Infinity     // the write set is still being built
	Committing = Infinity - 1 // sealed: every version is reachable
	Aborted    = Infinity - 2 // will never commit (vp keeps such versions)
)

// CommitWord is a write set's commit word: one atomic word whose store of
// the commit timestamp makes every version of the set visible at once
// (§3.2, §3.5). Every versioned engine commits through it.
//
// The committer makes every version of the set reachable, calls Seal
// (Pending → Committing), draws a timestamp and calls Stamp, and uses the
// timestamp Stamp returns. A reader that loads Committing does not wait:
// it draws a timestamp from the same clock and calls Stamp itself.
// Whichever Stamp lands first is the commit time. It is valid whoever
// drew it, because every version was already in place.
//
// Precondition on the clock: every draw is strictly above any clock
// reading taken before it. In particular, it is above any reading a
// reader took before the word left Pending.
//
// Why no reader sees part of a write set: let final be the timestamp the
// word ends with. A stored timestamp is final, because Stamp only
// replaces Committing. A reader that loads Committing resolves it to
// final with Stamp before it compares. A reader that loads Pending took
// its snapshot s before the word left Pending, and every draw follows
// Seal, so final > s by the precondition. So every reader decides every
// version of the set by the same test, final <= s. A descheduled
// committer costs a reader at most one clock draw (the reader-stamps rule
// of Ben-David et al., "Multiversion Concurrency with Bounded Delay").
//
// The zero value reads as timestamp 0; call Reset before first use.
type CommitWord struct{ v atomic.Uint64 }

// Reset readies the word for a new write set. Only the owner may call it,
// and only once no reader can still reach the word.
func (w *CommitWord) Reset() { w.v.Store(Pending) }

// Load returns the commit timestamp or a sentinel.
func (w *CommitWord) Load() uint64 { return w.v.Load() }

// Seal moves the word from Pending to Committing. Call it once every
// version of the write set is reachable. It never overwrites a stamp.
func (w *CommitWord) Seal() {
	if !mutateLatePublish {
		w.v.CompareAndSwap(Pending, Committing)
	}
}

// Stamp installs ts, which must be drawn after the word was seen
// Committing, unless another stamp won. It returns the winning stamp.
func (w *CommitWord) Stamp(ts uint64) uint64 {
	from := Committing
	if mutateLatePublish {
		from = Pending
	}
	if w.v.CompareAndSwap(from, ts) {
		return ts
	}
	return w.v.Load()
}

// Set stores ts, a stamp already won on another word of the same write
// set: the committer copies the set's commit timestamp into each
// version's own word this way once its header holds it.
func (w *CommitWord) Set(ts uint64) { w.v.Store(ts) }

// Abort marks a word that was never sealed as aborted.
func (w *CommitWord) Abort() { w.v.Store(Aborted) }

// SkewForTesting is a representative ORDO window (in nanoseconds) for
// tests that inject artificial clock skew. The ORDO paper measured
// boundaries in the 100ns–2µs range across large NUMA machines.
const SkewForTesting = 1000

// Clock allocates timestamps.
type Clock interface {
	// Now returns the current timestamp. Timestamps from one Clock are
	// monotone per goroutine but only globally ordered up to Boundary.
	Now() uint64
	// Peek returns the current timestamp without allocating one. For
	// Hardware the two are the same read; for Global, Now advances the
	// counter while Peek only observes it. Freshness checks (e.g. the
	// watermark-refresh coalescing in the MV-RLU engine) must use Peek
	// so that polling does not itself advance logical time.
	Peek() uint64
	// Boundary returns the ORDO uncertainty window: timestamps closer
	// than this cannot be ordered unambiguously.
	Boundary() uint64
}

// Hardware is a scalable clock backed by the runtime monotonic clock,
// standing in for RDTSCP+ORDO. Because the runtime serves every core from
// one monotonic source, there is no inter-core skew and the zero value's
// Boundary is 0 — all the ORDO add/subtract arithmetic in the engines
// stays in place but degenerates to exact ordering. Set Window to inject
// an artificial skew window and exercise the ORDO ambiguity paths (the
// paper's hardware needs this for correctness; ours only for testing).
type Hardware struct {
	// Window is the injected uncertainty boundary in nanoseconds.
	Window uint64
}

var base = time.Now()

// Nanotime returns the runtime's monotonic nanoseconds since process
// start. It is the one base of Hardware timestamps and of obs.Now, so a
// Hardware timestamp minus one is a telemetry time.
func Nanotime() int64 { return int64(time.Since(base)) }

// Now returns Nanotime plus one, so that 0 can be used as "before all
// time".
func (h *Hardware) Now() uint64 { return uint64(Nanotime()) + 1 }

// Peek is Now: reading the hardware clock allocates nothing.
func (h *Hardware) Peek() uint64 { return h.Now() }

// Boundary returns the configured ORDO window.
func (h *Hardware) Boundary() uint64 { return h.Window }

// Global is a totally ordered logical clock implemented as one shared
// atomic counter. Every allocation contends on the same cache line; the
// paper's factor analysis uses it to quantify what ORDO buys.
type Global struct {
	ctr atomic.Uint64
}

// Now draws the next logical timestamp.
func (g *Global) Now() uint64 { return g.ctr.Add(1) }

// Peek observes the counter without advancing it.
func (g *Global) Peek() uint64 { return g.ctr.Load() }

// Boundary is zero: a counter is totally ordered.
func (g *Global) Boundary() uint64 { return 0 }
