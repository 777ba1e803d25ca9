// Package obs is the engine's low-overhead telemetry core: lock-free
// power-of-two-bucket latency histograms recorded by their owning
// threads, and a registry that exposes histograms, counters, and gauges
// in Prometheus text format.
//
// Cost model, mirroring internal/failpoint: the whole layer is gated on
// one package-level atomic.Bool. Hot-path record sites wrap themselves as
//
//	if obs.Enabled() {
//	    t0 := obs.Now()
//	    ...
//	    hist.Observe(uint64(obs.Now() - t0))
//	}
//
// so the disabled path costs one atomic load and a branch (see
// BenchmarkRecordSiteDisabled and TestDisabledRecordSiteCost), and the
// record path never locks or allocates — Observe is two uncontended
// atomic adds on owner-local cache lines. Scrapes merge the per-thread
// histograms the same way threadStats.add folds the engine's counters,
// except the buckets are atomics, so merging is safe at any time, under
// full load, with no quiescence requirement. That is the property the
// /metrics endpoint and the METRICS server command rely on: every value
// they read is an atomic load, every exported counter is monotone.
package obs

import (
	"sync/atomic"

	"mvrlu/internal/clock"
)

// enabled gates every hot-path record site in the engine and server.
// Telemetry is disabled by default; daemons (cmd/mvkvd) and harnesses
// opt in at startup.
var enabled atomic.Bool

// Enabled reports whether telemetry recording is on. It is the single
// atomic load that gates every record site.
func Enabled() bool { return enabled.Load() }

// SetEnabled turns telemetry recording on or off. Toggling while record
// sites are executing is safe: sites that began before the toggle finish
// their record (or skip it); histograms only ever accumulate.
func SetEnabled(on bool) { enabled.Store(on) }

// Now returns a monotonic timestamp in nanoseconds since process start,
// for bracketing record sites. One call is a single time.Since — the
// vDSO clock read — with no allocation. It shares clock.Hardware's base,
// so an engine that has just drawn a hardware timestamp can start a
// timing from it without a second read.
func Now() int64 { return clock.Nanotime() }
