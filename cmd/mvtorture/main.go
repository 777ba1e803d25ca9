// mvtorture is an rcutorture-style stress driver for the MV-RLU engine:
// randomized mixes of snapshot audits, multi-object transfers, frees with
// replacement, and deliberately pinned readers, with conservation and
// identity invariants checked continuously and chain invariants verified
// at the end.
//
// Failure-model options: -faults arms the internal failpoint framework
// with a deterministic injection spec (panics and delays inside the
// engine's commit, lock, allocation, write-back, and detector paths);
// -panicfrac mixes in transactions that deliberately panic mid-write-set;
// -stallpin runs a reader that pins the watermark long enough for the
// stall detector to fire (the run fails if it does not). A wall-clock
// watchdog aborts the process with a full goroutine dump if the workers
// stop making progress.
//
// Usage:
//
//	go run ./cmd/mvtorture -duration 10s -threads 8 -objects 64
//	go run ./cmd/mvtorture -config tiny-log -duration 30s
//	go run ./cmd/mvtorture -config tiny-log -duration 5s \
//	    -faults 'trylock-cas=panic/193,commit-publish=panic/197' \
//	    -panicfrac 0.05 -stallpin 25ms
//
// Exit status is non-zero on any invariant violation (1), bad usage (2),
// or a watchdog-detected hang (3).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/trace"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/check"
	"mvrlu/internal/failpoint"
	"mvrlu/mvrlu"
)

type record struct {
	Balance int
	ID      int
	Acct    *mvrlu.Object[record]
}

func options(config string) (mvrlu.Options, error) {
	o := mvrlu.DefaultOptions()
	switch config {
	case "default":
	case "tiny-log":
		o.LogSlots = 64
		o.GPInterval = 50 * time.Microsecond
	case "single-collector":
		o.GCMode = mvrlu.GCSingleCollector
	case "global-clock":
		o.ClockMode = mvrlu.ClockGlobal
	case "skew":
		o.OrdoWindow = uint64(20 * time.Microsecond)
	case "dynamic-log":
		o.LogSlots = 64
		o.DynamicLog = true
	default:
		return o, fmt.Errorf("unknown config %q (default, tiny-log, single-collector, global-clock, skew, dynamic-log)", config)
	}
	return o, nil
}

// deliberatePanic is the payload of the panic-worker mix, distinguishable
// from injected faults and from real bugs.
const deliberatePanic = "mvtorture: deliberate transaction panic"

// guard runs one torture op, swallowing the two panic classes the run
// provokes on purpose — failpoint injections and the deliberate
// mid-write-set panics — and re-raising anything else as a real bug.
// The engine guarantees the handle is outside any critical section with
// its write set rolled back (or, for a commit-window fault, committed
// whole) when such a panic escapes, so the worker just moves on.
func guard(injected, deliberate *atomic.Int64, op func()) {
	defer func() {
		r := recover()
		switch {
		case r == nil:
		case failpoint.IsInjected(r):
			injected.Add(1)
		case r == any(deliberatePanic):
			deliberate.Add(1)
		default:
			panic(r)
		}
	}()
	op()
}

// The invariant kinds a run checks. Each is counted on its own so the
// run's verdict names what failed.
const (
	failAudit        = iota // an audit section's total was off
	failPinned              // the pinned reader's total was off
	failReread              // one section read one account twice, differently
	failIdentity            // a slot holds another account after the run
	failConservation        // the final total was off
	failChain               // CheckObject rejected a chain
	failStall               // -stallpin ran but the stall detector never fired
	failChecker             // the history checker's violations (-check)
	numFails
)

var failNames = [numFails]string{
	"audit", "pinned-snapshot", "reread", "identity",
	"conservation", "chain", "stall-detector", "checker",
}

func main() {
	var (
		duration = flag.Duration("duration", 5*time.Second, "stress duration")
		shards   = flag.Int("shards", 1,
			"independent engine domains tortured concurrently (threads and objects are per shard; -stallpin pins shard 0)")
		threads   = flag.Int("threads", 8, "worker goroutines (per shard)")
		objects   = flag.Int("objects", 32, "account objects (per shard)")
		config    = flag.String("config", "default", "engine configuration")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		faults    = flag.String("faults", "", "failpoint spec, e.g. 'trylock-cas=panic/193,writeback=sleep(50us)/7' (points: "+failpoint.Catalog()+")")
		panicfrac = flag.Float64("panicfrac", 0, "fraction of transfers that deliberately panic mid-write-set")
		stallpin  = flag.Duration("stallpin", 0, "pin a reader this long per cycle; the run fails unless the stall detector fires")
		watchdog  = flag.Duration("watchdog", 30*time.Second, "abort with a goroutine dump after this long without worker progress")
		traceOut  = flag.String("trace", "",
			"write a runtime execution trace to this file (view with go tool trace); critical sections and GC passes appear as mvrlu.cs/mvrlu.gc regions")
		checkHist   = flag.Bool("check", false, "record an execution history and run the snapshot-isolation checker (internal/check) at the end; violations fail the run")
		checkEvents = flag.Int("checkevents", 0, "history event cap per stream for -check (0 = default; hitting the cap relaxes completeness-dependent rules)")
	)
	flag.Parse()

	opts, err := options(*config)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *faults != "" {
		if err := failpoint.Enable(*faults, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer failpoint.Reset()
	}
	if *shards < 1 {
		*shards = 1
	}
	startTorTrace(*traceOut)
	if *checkHist {
		// Recording must cover every commit from the first one, or later
		// observations would look like unknown versions to the checker.
		check.SetEnabled(true)
	}

	// Each shard is a fully independent engine domain with its own
	// registry of accounts, its own invariant total, and (with -check)
	// its own history — the same per-shard isolation the sharded KV
	// server runs with. Workers, the final audit, and the checker all
	// operate per shard; counters and the watchdog are shared.
	type shard struct {
		dom      *mvrlu.Domain[record]
		registry []*mvrlu.Object[record]
		hist     *check.History
	}
	const unit = 1000
	total := *objects * unit
	shs := make([]*shard, *shards)
	for s := range shs {
		o := opts
		sh := &shard{}
		if *checkHist {
			sh.hist = check.NewHistory(*checkEvents)
			o.Check = sh.hist
		}
		sh.dom = mvrlu.NewDomain[record](o)
		sh.registry = make([]*mvrlu.Object[record], *objects)
		for i := range sh.registry {
			acct := mvrlu.NewObject(record{Balance: unit, ID: i})
			sh.registry[i] = mvrlu.NewObject(record{Acct: acct})
		}
		shs[s] = sh
		defer sh.dom.Close()
	}

	var (
		stop      atomic.Bool
		fails     [numFails]atomic.Int64
		audits    atomic.Int64
		transfers atomic.Int64
		frees     atomic.Int64
		reads     atomic.Int64
		injected  atomic.Int64
		panicked  atomic.Int64
		wg        sync.WaitGroup
	)
	progress := func() int64 {
		return audits.Load() + transfers.Load() + frees.Load() +
			reads.Load() + injected.Load() + panicked.Load()
	}

	// Wall-clock watchdog: if no worker completes (or aborts) a single op
	// across a full interval, the run is wedged — dump every goroutine's
	// stack and exit non-zero rather than hang CI.
	watchdogDone := make(chan struct{})
	stopWatchdog := sync.OnceFunc(func() { close(watchdogDone) })
	defer stopWatchdog()
	go func() {
		last := int64(-1)
		ticker := time.NewTicker(*watchdog)
		defer ticker.Stop()
		for {
			select {
			case <-watchdogDone:
				return
			case <-ticker.C:
			}
			if now := progress(); now != last {
				last = now
				continue
			}
			fmt.Fprintf(os.Stderr, "WATCHDOG: no progress for %v (ops=%d); goroutine dump follows\n", *watchdog, last)
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%s\n", buf[:runtime.Stack(buf, true)])
			stopTorTrace()
			os.Exit(3)
		}
	}()

	// Deliberately pinned reader on shard 0: holds a critical section
	// long enough that that shard's grace-period detector must declare a
	// watermark stall and name this thread. Its snapshot must stay
	// consistent throughout. With -shards > 1 the other shards run
	// unpinned — their reclamation must be unaffected.
	if *stallpin > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dom, registry := shs[0].dom, shs[0].registry
			h := dom.Register()
			defer h.Unregister()
			for !stop.Load() {
				// guard like the workers: the readlock-pin failpoint can
				// just as well fire on this thread's ReadLock, and an
				// unrecovered injected panic here kills the whole run.
				guard(&injected, &panicked, func() {
					h.ReadLock()
					sum := 0
					for _, holder := range registry {
						sum += h.Deref(h.Deref(holder).Acct).Balance
					}
					if sum != total {
						fails[failPinned].Add(1)
						fmt.Fprintf(os.Stderr, "pinned snapshot broken: total %d, want %d\n", sum, total)
					}
					time.Sleep(*stallpin)
					h.ReadUnlock()
					audits.Add(1)
				})
				time.Sleep(*stallpin / 4)
			}
		}()
	}

	for s := range shs {
		for g := 0; g < *threads; g++ {
			wg.Add(1)
			go func(sh *shard, id int) {
				defer wg.Done()
				registry := sh.registry
				h := sh.dom.Register()
				defer h.Unregister()
				rng := rand.New(rand.NewSource(*seed + int64(id)*7919))
				for !stop.Load() {
					switch rng.Intn(10) {
					case 0, 1, 2, 3:
						guard(&injected, &panicked, func() {
							h.ReadLock()
							sum := 0
							for _, holder := range registry {
								sum += h.Deref(h.Deref(holder).Acct).Balance
							}
							h.ReadUnlock()
							if sum != total {
								fails[failAudit].Add(1)
							}
							audits.Add(1)
						})
					case 4, 5, 6, 7:
						i, j := rng.Intn(*objects), rng.Intn(*objects)
						if i == j {
							continue
						}
						amt := rng.Intn(100) + 1
						die := rng.Float64() < *panicfrac
						guard(&injected, &panicked, func() {
							h.Execute(func(h *mvrlu.Thread[record]) bool {
								ci, ok := h.TryLock(h.Deref(registry[i]).Acct)
								if !ok {
									return false
								}
								cj, ok := h.TryLock(h.Deref(registry[j]).Acct)
								if !ok {
									return false
								}
								ci.Balance -= amt
								cj.Balance += amt
								if die {
									// Mid-write-set, both copies dirty: the
									// rollback must discard both sides or
									// conservation breaks.
									panic(deliberatePanic)
								}
								return true
							})
							transfers.Add(1)
						})
					case 8:
						i := rng.Intn(*objects)
						guard(&injected, &panicked, func() {
							h.Execute(func(h *mvrlu.Thread[record]) bool {
								holder := registry[i]
								old := h.Deref(holder).Acct
								co, ok := h.TryLock(old)
								if !ok {
									return false
								}
								ch, ok := h.TryLock(holder)
								if !ok {
									return false
								}
								ch.Acct = mvrlu.NewObject(record{Balance: co.Balance, ID: co.ID})
								h.Free(old)
								return true
							})
							frees.Add(1)
						})
					default:
						guard(&injected, &panicked, func() {
							h.ReadLock()
							acct := h.Deref(registry[rng.Intn(*objects)]).Acct
							first := h.Deref(acct).Balance
							for k := 0; k < 64; k++ {
								if h.Deref(acct).Balance != first {
									fails[failReread].Add(1)
								}
							}
							h.ReadUnlock()
							reads.Add(1)
						})
					}
				}
			}(shs[s], s**threads+g)
		}
	}

	start := time.Now()
	time.Sleep(*duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if *faults != "" {
		failpoint.Disable()
	}

	// Final ground truth and structural invariants, per shard.
	for s, sh := range shs {
		dom, registry := sh.dom, sh.registry
		h := dom.Register()
		h.ReadLock()
		sum := 0
		for i, holder := range registry {
			acct := h.Deref(holder).Acct
			r := h.Deref(acct)
			sum += r.Balance
			if r.ID != i {
				fails[failIdentity].Add(1)
				fmt.Fprintf(os.Stderr, "shard %d: identity corrupted: slot %d holds ID %d\n", s, i, r.ID)
			}
		}
		h.ReadUnlock()
		if sum != total {
			fails[failConservation].Add(1)
			fmt.Fprintf(os.Stderr, "shard %d: conservation broken: total %d, want %d\n", s, sum, total)
		}
		for _, holder := range registry {
			if err := dom.CheckObject(holder); err != nil {
				fails[failChain].Add(1)
				fmt.Fprintln(os.Stderr, err)
			}
		}
	}

	// Aggregate engine stats; the stall assertion is against shard 0,
	// the one the pinned reader ran on — and with -shards > 1 the other
	// shards must NOT have been stalled by it.
	var st mvrlu.Stats
	sts := make([]mvrlu.Stats, len(shs))
	for s, sh := range shs {
		sts[s] = sh.dom.Stats()
		st = st.Add(sts[s])
	}
	if *stallpin > 0 && sts[0].StallEvents == 0 {
		fails[failStall].Add(1)
		fmt.Fprintf(os.Stderr, "stall detector never fired despite -stallpin %v\n", *stallpin)
	}
	fmt.Printf("mvtorture config=%s shards=%d threads=%d objects=%d elapsed=%v\n",
		*config, *shards, *threads, *objects, elapsed)
	fmt.Printf("  audits=%d transfers=%d frees=%d reads=%d\n", audits.Load(), transfers.Load(), frees.Load(), reads.Load())
	fmt.Printf("  commits=%d aborts=%d reclaimed=%d writebacks=%d overflow=%d\n",
		st.Commits, st.Aborts, st.Reclaimed, st.Writebacks, st.OverflowAllocs)
	if *shards > 1 {
		for s := range sts {
			fmt.Printf("  shard %d: commits=%d reclaimed=%d stalls=%d\n",
				s, sts[s].Commits, sts[s].Reclaimed, sts[s].StallEvents)
		}
	}
	if *faults != "" || *panicfrac > 0 {
		fmt.Printf("  injected=%d deliberate-panics=%d panic-aborts=%d detector-recoveries=%d\n",
			injected.Load(), panicked.Load(), st.PanicAborts, st.DetectorRecoveries)
	}
	if *faults != "" {
		fmt.Printf("  failpoints: %s\n", failpoint.Report())
	}
	if st.StallEvents > 0 {
		fmt.Printf("  stalls=%d stall-reports=%d stall-episodes=%d stall-total=%v\n",
			st.StallEvents, st.StallReports, st.StallEpisodes, st.StallTotal)
	}
	if *checkHist {
		// Workers have joined, so op counters are final; the watchdog
		// would read the offline analysis below as "no progress" and kill
		// the run, so retire it first.
		stopWatchdog()
		// All workers have joined and the final audits are done, so the
		// domains are quiescent; close them to stop the detectors before
		// disabling recording, then check each shard's full history
		// against its own boundary.
		for _, sh := range shs {
			sh.dom.Close()
		}
		check.SetEnabled(false)
		for s, sh := range shs {
			rep := check.Check(sh.hist, check.Opts{Boundary: sh.dom.Boundary()})
			// The checker's finding alone, never "OK": the verdict below
			// also weighs the run's own invariants.
			finding := "checker: no violations"
			if !rep.Ok() {
				finding = rep.String()
				fails[failChecker].Add(int64(rep.Total))
			}
			if *shards > 1 {
				fmt.Printf("  shard %d: %s\n", s, finding)
			} else {
				fmt.Printf("  %s\n", finding)
			}
		}
	}
	stopTorTrace()
	// The last line is the run's one verdict.
	var failed []string
	for k := range fails {
		if n := fails[k].Load(); n != 0 {
			failed = append(failed, fmt.Sprintf("%s=%d", failNames[k], n))
		}
	}
	if len(failed) != 0 {
		fmt.Printf("  FAIL: invariant violations: %s\n", strings.Join(failed, " "))
		os.Exit(1)
	}
	fmt.Println("  PASS: all invariants held")
}

// traceFile is the open -trace output, nil when tracing is off.
var (
	traceFile *os.File
	traceOnce sync.Once
)

// startTorTrace begins a runtime execution trace into path. Stopping is
// explicit (stopTorTrace before each os.Exit) rather than deferred: the
// watchdog and the violation path exit the process directly, which
// would leave the trace truncated and unreadable.
func startTorTrace(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(2)
	}
	if err := trace.Start(f); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(2)
	}
	traceFile = f
}

// stopTorTrace flushes and closes the trace; safe to call more than once
// and from the watchdog goroutine racing the main exit path.
func stopTorTrace() {
	if traceFile == nil {
		return
	}
	traceOnce.Do(func() {
		trace.Stop()
		traceFile.Close()
	})
}
