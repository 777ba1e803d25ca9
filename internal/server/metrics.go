package server

import (
	"fmt"
	"time"

	"mvrlu/internal/obs"
)

// registerMetrics builds the server's metric registry at New time:
// server-level series first, then each shard engine's series (none for
// rlu and vanilla), labelled shard="i" only when there is more than one
// shard. Every callback reads atomics only — the same always-safe
// discipline as the default INFO sections — so the registry may be
// scraped (over HTTP or the METRICS command) at any moment under full
// load.
func (s *Server) registerMetrics() {
	s.reg = obs.NewRegistry()
	s.reg.Gauge("server_uptime_seconds",
		"seconds since the server was created",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.Counter("server_accepted_total",
		"TCP connections accepted",
		s.accepted.Load)
	s.reg.Counter("server_commands_total",
		"commands dispatched",
		s.commands.Load)
	s.reg.Counter("server_panics_total",
		"connection-goroutine panics isolated",
		s.panics.Load)
	s.reg.Gauge("server_conns",
		"connections currently served",
		func() float64 { return float64(s.numConns()) })
	s.reg.Gauge("server_sessions",
		"store sessions in the pool",
		func() float64 { return float64(s.store.NumSessions()) })
	s.reg.Histogram("server_batch_ns",
		"per-batch service time (session checkout to return) in nanoseconds",
		s.batchHist.Snapshot)
	// The flight recorder's slowest traces annotate the batch histogram
	// at scrape: each occupied bucket gets a "# EXEMPLAR" comment line
	// carrying a trace ID that TRACELOG resolves to a full breakdown.
	s.reg.AttachExemplars("server_batch_ns", s.flight.Exemplars)
	s.reg.Counter("server_traces_recorded_total",
		"request traces admitted to the flight recorder",
		s.flight.Recorded)
	s.reg.Counter("server_trace_events_total",
		"engine timeline events recorded (GC, watermark, stall, fsync)",
		obs.EventsTotal)
	s.reg.Gauge("server_shards",
		"independent store shards behind the router (1 = unsharded)",
		func() float64 { return float64(len(s.pools)) })
	for i := range s.shardCmds {
		n := &s.shardCmds[i].n
		s.reg.CounterWith("server_shard_commands_total",
			fmt.Sprintf(`shard="%d"`, i),
			"commands executed per shard (multi-key commands count once per shard touched)",
			n.Load)
	}
	for i, e := range s.engines {
		if e != nil {
			e.RegisterMetrics(s.reg, s.shardLabel(i, `shard="%d"`))
		}
	}
	if s.cfg.WAL != nil {
		s.cfg.WAL.RegisterMetrics(s.reg)
	}
}

// Metrics returns the server's metric registry — the daemon mounts its
// Handler at /metrics.
func (s *Server) Metrics() *obs.Registry { return s.reg }
