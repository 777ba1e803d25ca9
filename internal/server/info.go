package server

import (
	"fmt"
	"strings"
	"time"

	"mvrlu/internal/core"
)

// quiesceBudget bounds how long INFO ALL waits to check out a pool's
// other handles before giving up on that shard's full-stats section.
const quiesceBudget = 250 * time.Millisecond

// infoText renders the INFO reply. The default sections read only
// atomics — per-shard watermarks, the active stall episodes (which
// engine thread pins which shard's reclamation, since when), and the
// per-handle lines that let an operator map a thread id back to a pool
// handle and the command it is running — so INFO is always safe and
// cheap under full traffic.
//
// full additionally emits each shard's complete engine Stats (aborts,
// GC counters, watermark-scan coalescing). Stats is documented
// quiescent-only: its per-thread counters are plain owner-written
// fields, so that shard's whole pool must first be checked out (the
// channel receive is the happens-before edge with each handle's last
// user). That is a deliberate, bounded traffic stall per shard; past
// quiesceBudget the section degrades to engine_stats:busy instead of
// blocking the server — e.g. while a long SCAN holds a handle. The
// caller holds no session itself: INFO renders after its batch's shard
// workers have joined and returned theirs.
func (s *Server) infoText(full bool) string {
	var b strings.Builder
	nHandles := 0
	for _, p := range s.pools {
		nHandles += len(p.all)
	}
	fmt.Fprintf(&b, "# server\n")
	fmt.Fprintf(&b, "build:%s\n", s.store.Name())
	fmt.Fprintf(&b, "uptime_ms:%d\n", time.Since(s.start).Milliseconds())
	fmt.Fprintf(&b, "shards:%d\n", len(s.pools))
	fmt.Fprintf(&b, "handles:%d\n", nHandles)
	fmt.Fprintf(&b, "sessions:%d\n", s.store.NumSessions())
	fmt.Fprintf(&b, "conns:%d\n", s.numConns())
	fmt.Fprintf(&b, "max_conns:%d\n", s.cfg.MaxConns)
	fmt.Fprintf(&b, "accepted:%d\n", s.accepted.Load())
	fmt.Fprintf(&b, "commands:%d\n", s.commands.Load())
	fmt.Fprintf(&b, "panics:%d\n", s.panics.Load())
	fmt.Fprintf(&b, "shutting:%d\n", boolInt(s.shutting.Load()))
	sharded := len(s.pools) > 1
	if sharded {
		for i := range s.pools {
			fmt.Fprintf(&b, "shard_%d_commands:%d\n", i, s.shardCmds[i].n.Load())
		}
	}

	if w := s.cfg.WAL; w != nil {
		st := w.Stats()
		fmt.Fprintf(&b, "\n# wal\n")
		fmt.Fprintf(&b, "wal_dir:%s\n", w.Dir())
		fmt.Fprintf(&b, "wal_records:%d\n", st.Records)
		fmt.Fprintf(&b, "wal_bytes:%d\n", st.Bytes)
		fmt.Fprintf(&b, "wal_syncs:%d\n", st.Syncs)
		fmt.Fprintf(&b, "wal_snapshots:%d\n", st.Snapshots)
		fmt.Fprintf(&b, "wal_errors:%d\n", st.Errors)
		fmt.Fprintf(&b, "wal_queue_bytes:%d\n", st.QueueBytes)
		fmt.Fprintf(&b, "wal_live_bytes:%d\n", st.LiveBytes)
		fmt.Fprintf(&b, "wal_degraded:%d\n", boolInt(w.Err() != nil))
	}

	// The engine sections exist for the builds with a core.Engine (the
	// mvrlu ones); rlu and vanilla report only the server and handle
	// sections.
	for i, e := range s.engines {
		if e != nil {
			s.writeWatermarkSection(&b, i, e)
		}
	}

	if full {
		for i, e := range s.engines {
			if e != nil {
				s.writeEngineSection(&b, i, e)
			}
		}
	}

	fmt.Fprintf(&b, "\n# handles\n")
	for i, p := range s.pools {
		for _, ps := range p.all {
			if sharded {
				fmt.Fprintf(&b, "shard%d_", i)
			}
			fmt.Fprintf(&b,
				"handle_%d:thread_id=%d,in_use=%d,batches=%d,commands=%d,last_cmd=%s\n",
				ps.idx, ps.threadID, boolInt(ps.inUse.Load()),
				ps.batches.Load(), ps.commands.Load(), *ps.lastCmd.Load())
		}
	}
	return b.String()
}

// shardLabel renders shard i's label through format — ` shard=%d` on an
// INFO section name, `shard="%d"` on a metric series — and is empty on a
// one-shard server, which keeps the unlabelled names and series.
func (s *Server) shardLabel(i int, format string) string {
	if len(s.pools) == 1 {
		return ""
	}
	return fmt.Sprintf(format, i)
}

// writeWatermarkSection emits one shard's watermark/stall section.
func (s *Server) writeWatermarkSection(b *strings.Builder, i int, e core.Engine) {
	now, w := e.Now(), e.Watermark()
	fmt.Fprintf(b, "\n# watermark%s\n", s.shardLabel(i, " shard=%d"))
	fmt.Fprintf(b, "clock_now:%d\n", now)
	fmt.Fprintf(b, "watermark:%d\n", w)
	fmt.Fprintf(b, "watermark_age:%d\n", now-w)
	if info, ok := e.Stalled(); ok {
		fmt.Fprintf(b, "stalled:1\n")
		fmt.Fprintf(b, "stall_thread_id:%d\n", info.ThreadID)
		fmt.Fprintf(b, "stall_entry_ts:%d\n", info.EntryTS)
		fmt.Fprintf(b, "stall_watermark:%d\n", info.Watermark)
		fmt.Fprintf(b, "stalled_for_us:%d\n",
			time.Since(info.Since).Microseconds())
	} else {
		fmt.Fprintf(b, "stalled:0\n")
	}
}

// writeEngineSection emits one shard's quiescent engine Stats (INFO ALL
// only).
func (s *Server) writeEngineSection(b *strings.Builder, i int, e core.Engine) {
	held, all := s.quiescePool(s.pools[i], quiesceBudget)
	fmt.Fprintf(b, "\n# engine%s\n", s.shardLabel(i, " shard=%d"))
	if all {
		stats := e.Stats()
		fmt.Fprintf(b, "commits:%d\n", stats.Commits)
		fmt.Fprintf(b, "aborts:%d\n", stats.Aborts)
		fmt.Fprintf(b, "abort_ratio:%.4f\n", stats.AbortRatio())
		fmt.Fprintf(b, "panic_aborts:%d\n", stats.PanicAborts)
		fmt.Fprintf(b, "lock_fails:%d\n", stats.LockFails)
		fmt.Fprintf(b, "order_fails:%d\n", stats.OrderFails)
		fmt.Fprintf(b, "log_fails:%d\n", stats.LogFails)
		fmt.Fprintf(b, "capacity_blocks:%d\n", stats.CapacityBlocks)
		fmt.Fprintf(b, "gc_runs:%d\n", stats.GCRuns)
		fmt.Fprintf(b, "reclaimed:%d\n", stats.Reclaimed)
		fmt.Fprintf(b, "writebacks:%d\n", stats.Writebacks)
		fmt.Fprintf(b, "derefs:%d\n", stats.Derefs)
		fmt.Fprintf(b, "read_amplification:%.4f\n", stats.ReadAmplification())
		fmt.Fprintf(b, "overflow_allocs:%d\n", stats.OverflowAllocs)
		fmt.Fprintf(b, "watermark_scans:%d\n", stats.WatermarkScans)
		fmt.Fprintf(b, "watermark_coalesced:%d\n", stats.WatermarkCoalesced)
		fmt.Fprintf(b, "log_segment_allocs:%d\n", stats.LogSegmentAllocs)
		fmt.Fprintf(b, "handle_leaks:%d\n", stats.HandleLeaks)
		fmt.Fprintf(b, "detector_recoveries:%d\n", stats.DetectorRecoveries)
		fmt.Fprintf(b, "stall_events:%d\n", stats.StallEvents)
		fmt.Fprintf(b, "stall_reports:%d\n", stats.StallReports)
		fmt.Fprintf(b, "stalled_for_us:%d\n", stats.StalledFor.Microseconds())
		fmt.Fprintf(b, "stall_episodes:%d\n", stats.StallEpisodes)
		fmt.Fprintf(b, "stall_total_us:%d\n", stats.StallTotal.Microseconds())
	} else {
		fmt.Fprintf(b, "engine_stats:busy\n")
	}
	s.releaseHeld(s.pools[i], held)
}

// quiescePool checks every handle of a pool out of the free channel,
// within budget. It never blocks indefinitely, so two racing INFO ALL
// commands cannot deadlock holding partial sets — the loser times out,
// releases, and reports busy.
func (s *Server) quiescePool(p *sessionPool, budget time.Duration) (held []*pooledSession, all bool) {
	deadline := time.NewTimer(budget)
	defer deadline.Stop()
	for len(held) < len(p.all) {
		select {
		case ps := <-p.free:
			held = append(held, ps)
		case <-deadline.C:
			return held, false
		}
	}
	return held, true
}

func (s *Server) releaseHeld(p *sessionPool, held []*pooledSession) {
	for _, ps := range held {
		p.free <- ps
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
