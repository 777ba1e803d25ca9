package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
	"mvrlu/internal/server"
	"mvrlu/internal/wal"

	// Registers the ordered-index builds (mvrlu-idx) with kvstore.
	_ "mvrlu/internal/index"
)

// target is one built system under test with its load workers attached:
// for a server workload the store, its WAL, the in-process server on a
// loopback port and one connected client per worker; for engine-hash the
// set and one session per worker.
type target struct {
	w       *workload
	workers []worker

	store    kvstore.Store
	wlog     *wal.Log
	walDir   string
	srv      *server.Server
	serveErr chan error
	clients  []*client

	engine *engineTarget

	// quiet is held by the benchmark's own background users of the
	// engine — the WAL installer's dump walk, the chain sampler — while
	// they are inside it, and by snapshot: Domain.Stats may only be read
	// while every engine thread is outside its critical sections, and the
	// load workers are stopped at window edges but these two are not.
	quiet sync.Mutex
}

// runConfig is what one run of one workload needs to know.
type runConfig struct {
	seed    int64
	seconds float64 // total measuring time; phases are fixed shares of it
	outDir  string  // scratch and output directory (WAL dirs, trace files)
	quick   bool    // smoke mode: one set-up, small probes, paced rate from this run
	traced  bool
}

// phase returns share/35 of the run: the issue's 5 s warm-up, 20 s closed
// loop and 10 s paced window make 35, and every window is scaled by the
// same factor to fit the driver's time cap.
func (c *runConfig) phase(share float64) time.Duration {
	return time.Duration(c.seconds * share / 35 * float64(time.Second))
}

// setup builds a fresh target for w. Everything a user of the system
// would wait for before the first request can be served is in here, and
// so in setup_s: store build, preload, WAL open, server start, connect —
// plus generating the op streams.
func setup(w *workload, cfg *runConfig) (*target, error) {
	// The switches as a user of each surface finds them: mvkvd defaults to
	// telemetry on and tracing off; the engine as a library has both off.
	obs.SetEnabled(w.Store != "")
	obs.SetTraceEnabled(false)
	if w.Store == "" {
		return setupEngine(w, cfg), nil
	}
	t := &target{w: w}
	st, err := kvstore.NewSharded(w.Store, w.Shards, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
	if err != nil {
		return nil, err
	}
	t.store = st
	if w.WAL {
		if err := t.openWAL(cfg); err != nil {
			st.Close()
			return nil, err
		}
	}
	preload(st, w.Keys)
	if t.wlog != nil {
		// The preload went through the commit hook; make it durable
		// before serving, as a daemon's recovery would have.
		if err := t.wlog.SyncBarrier(); err != nil {
			t.close()
			return nil, fmt.Errorf("wal barrier after preload: %w", err)
		}
		// One checkpoint per closed-loop sub-window, so every sub-window
		// pays for exactly one and several cycles complete in a run.
		t.wlog.StartInstaller(cfg.phase(5), t.storeDump(), func(err error) {
			fmt.Fprintln(os.Stderr, "benchmark: wal installer:", err)
		})
	}

	// The mvkvd defaults, with the two knobs the issue pins: Handles=2
	// and, on traced runs only, a flight recorder deep enough to average
	// stage totals over.
	scfg := server.Config{Addr: "127.0.0.1:0", Handles: 2, WAL: t.wlog}
	if cfg.traced {
		scfg.TraceRecent = 4096
	}
	t.srv = server.New(st, scfg)
	if err := t.srv.Listen(); err != nil {
		t.close()
		return nil, err
	}
	t.serveErr = make(chan error, 1)
	go func() { t.serveErr <- t.srv.Serve() }()

	var peers [][txnKeys - 1]uint32
	if w.Mix[opTxn] > 0 {
		peers = txnPeers(w.Keys, w.Shards)
	}
	for i := 0; i < serverConns; i++ {
		nc, err := dial(t.srv.Addr().String())
		if err != nil {
			t.close()
			return nil, err
		}
		c := newClient(i, w, nc, genStream(w, cfg.seed, i, streamLen), peers)
		c.opsPerBatch = batchOps
		t.clients = append(t.clients, c)
		t.workers = append(t.workers, c)
	}
	return t, nil
}

func (t *target) openWAL(cfg *runConfig) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "wal-")
	if err != nil {
		return err
	}
	t.walDir = dir
	wlog, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	t.wlog = wlog
	// The same two hooks mvkvd installs: one record per committed write,
	// one record group per committed MULTI body.
	if !kvstore.SetStoreCommitHook(t.store, func(op kvstore.CommitOp) {
		_ = wlog.Append(walRecord(op)) // sticky on the log; the server's ack gate surfaces it
	}) {
		return fmt.Errorf("store %s has no commit hook", t.store.Name())
	}
	kvstore.SetStoreTxnCommitHook(t.store, func(ops []kvstore.CommitOp) {
		recs := make([]wal.Record, len(ops))
		for i, op := range ops {
			recs[i] = walRecord(op)
		}
		_ = wlog.AppendGroup(recs)
	})
	return nil
}

func walRecord(op kvstore.CommitOp) wal.Record {
	return wal.Record{TS: op.TS, Shard: op.Shard, Del: op.Del, Key: op.Key, Value: op.Value}
}

// storeDump is mvkvd's snapshot feed for the WAL installer: wait out the
// commit-timestamp visibility window, read the replay cutoffs, then emit
// one consistent walk of the keyspace.
func (t *target) storeDump() wal.DumpFunc {
	st := t.store
	return func(minTS map[uint32]uint64, emit func(key, value string) error) (map[uint32]uint64, error) {
		kvstore.WaitVisible(st, minTS)
		cutoffs := kvstore.WALCutoffs(st)
		t.quiet.Lock()
		defer t.quiet.Unlock()
		sess := st.Session()
		defer sess.Close()
		var eerr error
		sess.ForEach(func(k, v string) bool {
			eerr = emit(k, v)
			return eerr == nil
		})
		return cutoffs, eerr
	}
}

// preload writes keys 0..n-1 with the preload marker as their writer.
func preload(st kvstore.Store, n int) {
	sess := st.Session()
	defer sess.Close()
	for i := 0; i < n; i++ {
		sess.Set(keyString(uint32(i)), valueString(uint32(i), preloadConn, 0))
	}
}

// stopServing drains the server and closes the WAL, leaving the WAL
// directory in place for the durability audit. The store stays open.
func (t *target) stopServing() error {
	var first error
	for _, c := range t.clients {
		c.nc.Close()
	}
	if t.srv != nil {
		t.srv.Shutdown()
		if t.serveErr != nil {
			if err := <-t.serveErr; err != nil {
				first = fmt.Errorf("serve: %w", err)
			}
			t.serveErr = nil
		}
	}
	if t.wlog != nil {
		if err := t.wlog.Close(); err != nil && first == nil {
			first = fmt.Errorf("wal close: %w", err)
		}
	}
	return first
}

// close tears the whole target down and removes its WAL directory.
func (t *target) close() error {
	if t.engine != nil {
		t.engine.set.Close()
		return nil
	}
	err := t.stopServing()
	if t.store != nil {
		t.store.Close() // after the drain and the WAL: a late installer tick must not dump a closed store
		t.store = nil
	}
	if t.walDir != "" {
		os.RemoveAll(t.walDir)
	}
	return err
}

// setupTimed sets the target up several times and reports the median
// set-up time, keeping the last build for the run: one set-up is a single
// sample of a sub-second quantity, far noisier than the bound it is held
// to. Short set-ups are repeated more often.
func setupTimed(w *workload, cfg *runConfig) (*target, float64, error) {
	const minReps, maxReps, budget = 3, 15, 1.5
	var times []float64
	var spent float64
	for {
		t0 := time.Now()
		t, err := setup(w, cfg)
		if err != nil {
			return nil, 0, err
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		spent += d
		enough := len(times) >= minReps && (spent >= budget || len(times) >= maxReps)
		if cfg.quick || enough {
			return t, median(times), nil
		}
		if err := t.close(); err != nil {
			return nil, 0, err
		}
	}
}

// coreStatser is the public engine-counter surface of the mvrlu builds.
type coreStatser interface{ Stats() core.Stats }

// coreStats sums the engine counters of every shard of the target's
// store (or of the engine-hash set). Call it only between phases, while
// no worker is inside a critical section.
func (t *target) coreStats() core.Stats {
	if t.engine != nil {
		if s, ok := t.engine.set.(coreStatser); ok {
			return s.Stats()
		}
		return core.Stats{}
	}
	var sum core.Stats
	if sh, ok := t.store.(*kvstore.Sharded); ok {
		for i := 0; i < sh.NumShards(); i++ {
			if s, ok := sh.Shard(i).(coreStatser); ok {
				sum = sum.Add(s.Stats())
			}
		}
		return sum
	}
	if s, ok := t.store.(coreStatser); ok {
		sum = s.Stats()
	}
	return sum
}
