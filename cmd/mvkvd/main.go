// mvkvd is the MV-RLU KV daemon: it serves one kvstore build (mvrlu-kv
// by default) over a minimal RESP2 protocol, multiplexing connections
// onto a bounded pool of engine thread handles. See internal/server for
// the protocol and the pooling/drain design, and DESIGN.md §7.
//
// Usage:
//
//	go run ./cmd/mvkvd -addr 127.0.0.1:6399 -store mvrlu-kv -shards 4
//
// Talk to it with cmd/mvkvload, redis-cli, or plain telnet (inline
// commands are accepted): PING GET SET DEL EXISTS MGET MSET SCAN INFO
// METRICS TRACELOG QUIT SHUTDOWN, plus RANGE MULTI EXEC DISCARD on the
// ordered-index (-idx) builds. SIGINT/SIGTERM and the SHUTDOWN command
// trigger the same ordered graceful drain.
//
// With -metrics-addr the daemon also serves an HTTP observability
// endpoint: Prometheus text at /metrics, the runtime profiler under
// /debug/pprof/, and expvar (runtime memstats) at /debug/vars. Telemetry
// recording itself is governed by -telemetry (on by default; the
// disabled record sites cost under a nanosecond, see internal/obs).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mvrlu/internal/failpoint"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
	"mvrlu/internal/server"
	"mvrlu/internal/wal"

	// Register the ordered-index builds (mvrlu-idx, rlu-idx, vanilla-idx)
	// with the kvstore build registry; they enable RANGE and MULTI/EXEC.
	_ "mvrlu/internal/index"
)

func main() {
	var (
		addr  = flag.String("addr", "127.0.0.1:6399", "TCP listen address")
		store = flag.String("store", "mvrlu-kv",
			"store build: "+strings.Join(kvstore.Names(), ", "))
		shards = flag.Int("shards", 0,
			"independent store shards, each its own engine domain with its own watermark and GC (0 = GOMAXPROCS, 1 = unsharded)")
		maxConns = flag.Int("max-conns", 1024, "max concurrent connections (accept backpressure past it)")
		readTO   = flag.Duration("read-timeout", 5*time.Second, "read timeout for the rest of a pipelined batch after its first command")
		writeTO  = flag.Duration("write-timeout", 5*time.Second, "reply flush timeout")
		idleTO   = flag.Duration("idle-timeout", 5*time.Minute, "idle connection timeout")
		drainTO  = flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain budget")
		metrics  = flag.String("metrics-addr", "",
			"HTTP observability listen address (/metrics, /debug/pprof/, /debug/vars); empty = disabled")
		telemetry = flag.Bool("telemetry", true,
			"record latency histograms on the engine and server hot paths")
		trace = flag.Bool("trace", false,
			"record per-request stage traces into the flight recorder (TRACELOG, /debug/traces) and the engine GC/watermark timeline (TRACELOG GC)")
		failpoints = flag.String("failpoints", "",
			"failpoint spec, e.g. 'wal-before-fsync=sleep(8ms)' (fault-injection harness; empty = disabled)")
		walDir = flag.String("wal", "",
			"write-ahead log directory: writes are acknowledged only once durable, and the store is recovered from this directory at startup; empty = no WAL (acknowledged implies committed only)")
		walSync = flag.String("wal-sync", "always",
			"WAL durability policy: always (fsync per group-committed batch) or none (page cache only; benchmarking)")
		snapInterval = flag.Duration("snapshot-interval", 30*time.Second,
			"installer cadence: how often the WAL is compacted into a snapshot and truncated (0 = size-triggered only)")
		walMaxBytes = flag.Int64("wal-max-bytes", 64<<20,
			"live WAL bytes that trigger an installer pass between ticks")
	)
	flag.Parse()
	obs.SetEnabled(*telemetry)
	obs.SetTraceEnabled(*trace)
	if *failpoints != "" {
		if err := failpoint.Enable(*failpoints, 1); err != nil {
			fmt.Fprintln(os.Stderr, "mvkvd: failpoints:", err)
			os.Exit(1)
		}
		log.Printf("mvkvd: failpoints armed: %s", *failpoints)
	}

	if *shards <= 0 {
		*shards = runtime.GOMAXPROCS(0)
	}
	st, err := kvstore.NewSharded(*store, *shards, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Durability: recover the store from the WAL directory, install the
	// commit hook that logs every committed write, and start the installer
	// before serving — order matters: replay must precede the hook, or the
	// replayed writes would be re-logged.
	var wlog *wal.Log
	if *walDir != "" {
		mode, err := wal.ParseSyncMode(*walSync)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var rec *wal.Recovery
		wlog, rec, err = wal.Open(wal.Options{
			Dir:          *walDir,
			Sync:         mode,
			MaxLiveBytes: *walMaxBytes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dump := storeDump(st)
		if !rec.Empty() {
			sess := st.Session()
			sets, dels := rec.Apply(sess)
			sess.Close()
			log.Printf("mvkvd: wal recovery: %d snapshot keys + %d records (%d segments, %d torn bytes) -> %d sets, %d dels; epoch %d",
				rec.SnapshotKeys, rec.Records, rec.Segments, rec.TornBytes, sets, dels, rec.Epoch)
			// Fold the replayed tail into a fresh snapshot now, so repeated
			// crash/restart cycles cannot grow an ever-longer replay chain.
			if err := wlog.Checkpoint(dump); err != nil {
				fmt.Fprintln(os.Stderr, "mvkvd: post-recovery checkpoint:", err)
				os.Exit(1)
			}
		}
		st.SetCommitHook(func(op kvstore.CommitOp) {
			// The error is sticky on the log; the server's degraded-mode
			// check and the ack gate surface it, so drop it here.
			_ = wlog.Append(wal.Record{
				TS: op.TS, Shard: op.Shard, Del: op.Del,
				Key: op.Key, Value: op.Value,
			})
		})
		// Every build commits a MULTI body atomically; log each one as a
		// single record group so recovery replays it all-or-nothing (a
		// transaction's ops would otherwise be independent records a torn
		// tail could split).
		st.SetTxnCommitHook(func(ops []kvstore.CommitOp) {
			recs := make([]wal.Record, len(ops))
			for i, op := range ops {
				recs[i] = wal.Record{
					TS: op.TS, Shard: op.Shard, Del: op.Del,
					Key: op.Key, Value: op.Value,
				}
			}
			_ = wlog.AppendGroup(recs)
		})
		wlog.StartInstaller(*snapInterval, dump, func(err error) {
			log.Printf("mvkvd: wal installer: %v", err)
		})
		log.Printf("mvkvd: wal on %s (sync=%s, snapshot every %v)", *walDir, mode, *snapInterval)
	}

	srv := server.New(st, server.Config{
		Addr:         *addr,
		MaxConns:     *maxConns,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		IdleTimeout:  *idleTO,
		DrainTimeout: *drainTO,
		// With a WAL the daemon sequences the teardown itself after the
		// drain: installer stopped and log closed BEFORE the store, so a
		// late snapshot tick can never dump a closed store.
		OwnsStore: wlog == nil,
		WAL:       wlog,
	})
	if err := srv.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("mvkvd: %s build (%d shard(s)) listening on %s", st.Name(), *shards, srv.Addr())

	var msrv *http.Server
	if *metrics != "" {
		mln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		msrv = metricsServer(srv)
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("mvkvd: metrics server: %v", err)
			}
		}()
		log.Printf("mvkvd: metrics on http://%s/metrics", mln.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("mvkvd: %s, draining", sig)
		srv.Shutdown()
	}()

	if err := srv.Serve(); err != nil {
		log.Fatalf("mvkvd: %v", err)
	}
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			log.Printf("mvkvd: wal close: %v", err)
		}
		st.Close()
	}
	if msrv != nil {
		// Closed after the drain: a scraper may legitimately want the
		// final counters of a shutting-down daemon.
		msrv.Close()
	}
	log.Printf("mvkvd: drained, store closed, exiting")
}

// storeDump adapts the store to the WAL installer's DumpFunc: wait out
// each shard's ORDO visibility window, then emit one consistent snapshot
// of the whole keyspace. It reports no replay cutoffs: every build logs
// each key in commit order (see kvstore.CommitHook).
func storeDump(st kvstore.Store) wal.DumpFunc {
	return func(minTS map[uint32]uint64, emit func(key, value string) error) (map[uint32]uint64, error) {
		kvstore.WaitVisible(st, minTS)
		sess := st.Session()
		defer sess.Close()
		var eerr error
		sess.ForEach(func(k, v string) bool {
			if err := emit(k, v); err != nil {
				eerr = err
				return false
			}
			return true
		})
		return nil, eerr
	}
}

// metricsServer builds the observability mux: Prometheus exposition,
// pprof, and expvar. A dedicated mux — not http.DefaultServeMux — so the
// surface is exactly what is registered here.
func metricsServer(srv *server.Server) *http.Server {
	mux := http.NewServeMux()
	mux.Handle("/metrics", srv.Metrics().Handler())
	mux.Handle("/debug/traces", srv.TraceHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return &http.Server{Handler: mux}
}
