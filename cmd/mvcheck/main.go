// mvcheck replays a deterministic, seeded workload on one of the three
// engines (core MV-RLU, single-copy RLU, or RCU) with the internal/check
// history recorder attached, then runs the offline snapshot-isolation /
// grace-period checker over the recorded execution and reports the
// verdict. Unlike mvtorture (duration-based, throughput-oriented), the
// workload here is a fixed operation count derived entirely from -seed,
// so a failing seed can be re-run and bisected.
//
// Usage:
//
//	go run ./cmd/mvcheck -engine mvrlu -seed 42 -ops 20000
//	go run ./cmd/mvcheck -engine mvrlu -skew 20us -threads 8
//	go run ./cmd/mvcheck -engine rlu -ops 50000
//	go run ./cmd/mvcheck -engine rcu -ops 50000
//	go run ./cmd/mvcheck -engine mvrlu-idx -ops 5000
//
// The *-idx engines (mvrlu-idx, rlu-idx, vanilla-idx) drive the ordered
// index builds with the KV history recorder attached and validate the
// range-snapshot rules (CheckKV): every range walk observes one
// timestamp, multi-key transactions are never torn across a reader.
//
// Exit status: 0 on a clean verdict, 1 on checker violations, 2 on bad
// usage. A binary built with -tags mvrlu_mutate (which plants known
// snapshot bugs in the engine AND a range-walk snapshot-unpin bug in the
// index) must exit 1 when run with -engine mvrlu and a non-zero -skew,
// and when run with -engine mvrlu-idx; that is how CI proves the checker
// has teeth.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/check"
	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/rcu"
	"mvrlu/internal/rlu"
	"mvrlu/mvrlu"

	// Register the ordered-index builds with the kvstore registry.
	_ "mvrlu/internal/index"
)

type account struct {
	Balance int
	ID      int
}

func main() {
	var (
		engine = flag.String("engine", "mvrlu",
			"engine to check: mvrlu, rlu, rcu, mvrlu-idx, rlu-idx, vanilla-idx")
		seed   = flag.Int64("seed", 1, "base RNG seed; the whole workload derives from it")
		shards = flag.Int("shards", 1,
			"independent mvrlu domains checked concurrently, one history each (mvrlu engine only)")
		threads = flag.Int("threads", 4, "worker goroutines (per shard when -shards > 1)")
		objects = flag.Int("objects", 16, "shared objects")
		ops     = flag.Int("ops", 20000, "operations per worker")
		skew    = flag.Duration("skew", 0, "injected ORDO uncertainty window (mvrlu engine only)")
		events  = flag.Int("events", 0, "history event cap per stream (0 = default)")
		verbose = flag.Bool("v", false, "print the per-rule event counts even on success")
	)
	flag.Parse()

	if *shards > 1 && *engine != "mvrlu" {
		fmt.Fprintf(os.Stderr, "-shards applies to the mvrlu engine only\n")
		os.Exit(2)
	}

	if *shards > 1 {
		// N independent domains, each with its own history, validated
		// against its own ORDO boundary — the same per-shard attachment
		// the sharded server uses. The workloads run concurrently; a
		// violation on any shard fails the whole run.
		hists := make([]*check.History, *shards)
		reps := make([]*check.Report, *shards)
		var wg sync.WaitGroup
		for s := 0; s < *shards; s++ {
			hists[s] = check.NewHistory(*events)
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				reps[s] = runMVRLU(hists[s], *seed+int64(s)*1_000_003,
					*threads, *objects, *ops, *skew)
			}(s)
		}
		wg.Wait()
		bad := false
		for s, rep := range reps {
			if rep.Ok() && !*verbose {
				fmt.Printf("mvcheck engine=mvrlu shard=%d/%d seed=%d: %s\n",
					s, *shards, *seed, rep)
				continue
			}
			fmt.Printf("mvcheck engine=mvrlu shard=%d/%d seed=%d:\n%s\n",
				s, *shards, *seed, rep)
			bad = bad || !rep.Ok()
		}
		if bad {
			os.Exit(1)
		}
		return
	}

	hist := check.NewHistory(*events)
	var rep *check.Report
	switch *engine {
	case "mvrlu":
		rep = runMVRLU(hist, *seed, *threads, *objects, *ops, *skew)
	case "rlu":
		rep = runRLU(hist, *seed, *threads, *objects, *ops)
	case "rcu":
		rep = runRCU(hist, *seed, *threads, *ops)
	case "mvrlu-idx", "rlu-idx", "vanilla-idx":
		rep = runIndex(hist, *engine, *seed, *threads, *objects, *ops)
	default:
		fmt.Fprintf(os.Stderr,
			"unknown engine %q (mvrlu, rlu, rcu, mvrlu-idx, rlu-idx, vanilla-idx)\n", *engine)
		os.Exit(2)
	}

	if rep.Ok() && !*verbose {
		fmt.Printf("mvcheck engine=%s seed=%d: %s\n", *engine, *seed, rep)
		return
	}
	fmt.Printf("mvcheck engine=%s seed=%d:\n%s\n", *engine, *seed, rep)
	if !rep.Ok() {
		os.Exit(1)
	}
}

// runMVRLU drives scans, transfers, const validations, frees with
// replacement, and aborted readers on the core engine.
func runMVRLU(hist *check.History, seed int64, threads, objects, ops int, skew time.Duration) *check.Report {
	opts := mvrlu.DefaultOptions()
	opts.LogSlots = 256 // small enough to keep GC and write-backs busy
	opts.GPInterval = 50 * time.Microsecond
	opts.OrdoWindow = uint64(skew)
	opts.Check = hist

	dom := mvrlu.NewDomain[account](opts)

	const unit = 1000
	registry := make([]*mvrlu.Object[account], objects)
	for i := range registry {
		registry[i] = mvrlu.NewObject(account{Balance: unit, ID: i})
	}

	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := dom.Register()
			defer h.Unregister()
			rng := rand.New(rand.NewSource(seed + int64(id)*7919))
			for n := 0; n < ops; n++ {
				switch rng.Intn(10) {
				case 0, 1, 2:
					h.ReadLock()
					sum := 0
					for _, o := range registry {
						sum += h.Deref(o).Balance
					}
					h.ReadUnlock()
					if sum != objects*unit {
						bad.Add(1)
					}
				case 3, 4, 5, 6:
					i, j := rng.Intn(objects), rng.Intn(objects)
					if i == j {
						continue
					}
					amt := rng.Intn(50) + 1
					h.Execute(func(h *mvrlu.Thread[account]) bool {
						ci, ok := h.TryLock(registry[i])
						if !ok {
							return false
						}
						cj, ok := h.TryLock(registry[j])
						if !ok {
							return false
						}
						ci.Balance -= amt
						cj.Balance += amt
						return true
					})
				case 7:
					i, j := rng.Intn(objects), rng.Intn(objects)
					if i == j {
						continue
					}
					h.Execute(func(h *mvrlu.Thread[account]) bool {
						if !h.TryLockConst(registry[i]) {
							return false
						}
						cj, ok := h.TryLock(registry[j])
						if !ok {
							return false
						}
						cj.ID = h.Deref(registry[i]).ID
						return true
					})
				default:
					h.ReadLock()
					_ = h.Deref(registry[rng.Intn(objects)])
					h.Abort()
				}
			}
		}(g)
	}
	wg.Wait()
	dom.Close()

	rep := check.Check(hist, check.Opts{Boundary: dom.Boundary()})
	if n := bad.Load(); n != 0 {
		// Fold live invariant breakage into the verdict so the exit
		// status reflects it even if the checker itself stayed quiet.
		fmt.Fprintf(os.Stderr, "mvcheck: %d conservation violations observed live\n", n)
		rep.Violations = append(rep.Violations, check.Violation{Rule: "conservation", Detail: fmt.Sprintf("%d broken snapshots", n)})
		rep.Total += int(n)
	}
	return rep
}

// runRLU drives scans and transfers on the single-copy RLU engine
// (global clock: its commit points are exact, so Opts.Boundary is 0).
func runRLU(hist *check.History, seed int64, threads, objects, ops int) *check.Report {
	d := rlu.NewDomain[account](rlu.ClockGlobal)
	d.AttachHistory(hist)

	const unit = 1000
	registry := make([]*rlu.Object[account], objects)
	for i := range registry {
		registry[i] = rlu.NewObject(account{Balance: unit, ID: i})
	}

	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := d.Register()
			rng := rand.New(rand.NewSource(seed + int64(id)*104729))
			for n := 0; n < ops; n++ {
				if rng.Intn(2) == 0 {
					h.ReadLock()
					sum := 0
					for _, o := range registry {
						sum += h.Deref(o).Balance
					}
					h.ReadUnlock()
					if sum != objects*unit {
						bad.Add(1)
					}
				} else {
					i, j := rng.Intn(objects), rng.Intn(objects)
					if i == j {
						continue
					}
					h.ReadLock()
					ci, ok := h.TryLock(registry[i])
					if !ok {
						h.Abort()
						continue
					}
					cj, ok := h.TryLock(registry[j])
					if !ok {
						h.Abort()
						continue
					}
					ci.Balance -= 3
					cj.Balance += 3
					h.ReadUnlock()
				}
			}
		}(g)
	}
	wg.Wait()

	rep := check.Check(hist, check.Opts{})
	if n := bad.Load(); n != 0 {
		fmt.Fprintf(os.Stderr, "mvcheck: %d conservation violations observed live\n", n)
		rep.Violations = append(rep.Violations, check.Violation{Rule: "conservation", Detail: fmt.Sprintf("%d broken snapshots", n)})
		rep.Total += int(n)
	}
	return rep
}

// runIndex drives one of the ordered-index builds through the kvstore
// capability surface — Set/Remove, multi-key ApplyTxn bodies, and range
// walks racing the writers — with the KV history recorder attached,
// then validates the range-snapshot rules: every walk observes exactly
// one timestamp, and no multi-key commit is torn across a reader.
func runIndex(hist *check.History, build string, seed int64, threads, keys, ops int) *check.Report {
	st, err := kvstore.New(build, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	type historied interface{ AttachKVHistory(*check.History) }
	hst, ok := st.(historied)
	if !ok {
		fmt.Fprintf(os.Stderr, "store %s records no KV history\n", build)
		os.Exit(2)
	}
	hst.AttachKVHistory(hist) // before any session, so every session records
	defer st.Close()

	var seq atomic.Uint64
	var live atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		live.Add(1)
		go func(id int) {
			defer wg.Done()
			defer live.Add(-1)
			sess := st.Session().(kvstore.OrderedSession)
			defer sess.Close()
			rng := rand.New(rand.NewSource(seed + int64(id)*6151))
			for n := 0; n < ops; n++ {
				k := fmt.Sprintf("k%04d", rng.Intn(keys))
				switch rng.Intn(6) {
				case 0:
					sess.Remove(k)
				case 1:
					k2 := fmt.Sprintf("k%04d", rng.Intn(keys))
					sess.ApplyTxn([]kvstore.TxnOp{
						{Key: k, Value: fmt.Sprintf("u%d", seq.Add(1))},
						{Key: k2, Value: fmt.Sprintf("u%d", seq.Add(1))},
					})
				default:
					sess.Set(k, fmt.Sprintf("u%d", seq.Add(1)))
				}
			}
		}(g)
	}
	// A dedicated churn writer cycles remove→re-add through the middle of
	// the scanned range until the reader is done. The random writers
	// above finish in milliseconds on an idle host, and a snapshot bug in
	// the walk only manifests when a write commits *mid-walk* — tying the
	// churn's lifetime to the reader's makes that overlap structural
	// instead of a scheduling accident (the mutation gate must fail every
	// run, not just on a loaded machine). The churn is paced to the
	// reader — one remove→re-add per completed scan — because a
	// free-running writer floods its history stream past the event cap,
	// and a truncated history rightly mutes the checker's absence rules:
	// the gate would go quiet for bookkeeping reasons, not correctness
	// ones.
	var stopChurn atomic.Bool
	var churned atomic.Int64
	var scans atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := st.Session().(kvstore.OrderedSession)
		defer sess.Close()
		var paced int64
		for n := 0; !stopChurn.Load(); n++ {
			for scans.Load() <= paced && !stopChurn.Load() {
				runtime.Gosched()
			}
			paced = scans.Load()
			k := fmt.Sprintf("k%04d", keys/4+n%(keys/2))
			sess.Remove(k)
			sess.Set(k, fmt.Sprintf("u%d", seq.Add(1)))
			churned.Add(1)
		}
	}()

	// One reader walking ranges while the writers are live, plus a floor
	// of walks so short runs still record sections to validate. The
	// churn-progress term keeps the reader scanning until the churn
	// writer has swept the range at least four times *while scans were
	// running* — on a loaded host the reader could otherwise burn its
	// whole scan budget before the churn goroutine is first scheduled.
	reader := st.Session().(kvstore.OrderedSession)
	lo, hi := fmt.Sprintf("k%04d", keys/8), fmt.Sprintf("k%04d", keys-1-keys/8)
	for i := 0; live.Load() > 0 || i < 256 || churned.Load() < int64(4*keys); i++ {
		reader.RangeAscend(lo, hi, func(k, v string) bool { return true })
		if i%3 == 0 {
			reader.RangeDescend("k0000", hi, func(k, v string) bool { return true })
		}
		scans.Add(1)
	}
	reader.Close()
	stopChurn.Store(true)
	wg.Wait()

	var boundary uint64
	if e, ok := st.(core.Engine); ok {
		boundary = e.Boundary()
	}
	return check.CheckKV(hist, check.Opts{Boundary: boundary})
}

// runRCU drives readers against an updater that swaps a pointer and
// synchronizes before reusing the old box.
func runRCU(hist *check.History, seed int64, threads, ops int) *check.Report {
	d := rcu.NewDomain()
	d.AttachHistory(hist)

	type box struct{ gen, a, b uint64 }
	var cur atomic.Pointer[box]
	cur.Store(&box{})

	var bad atomic.Int64
	var wg, ready sync.WaitGroup
	ready.Add(threads)
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := d.Register()
			ready.Done()
			for n := 0; n < ops; n++ {
				th.ReadLock()
				p := cur.Load()
				if p.a != p.b || p.a != p.gen {
					bad.Add(1)
				}
				th.ReadUnlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := d.Register()
		// Wait until every reader is registered, so the grace periods
		// below actually contend with live sections instead of racing
		// ahead of the readers on a loaded machine.
		ready.Wait()
		for gen := uint64(1); gen <= uint64(ops/10)+1; gen++ {
			cur.Store(&box{gen: gen, a: gen, b: gen})
			th.Synchronize()
		}
	}()
	wg.Wait()

	rep := check.CheckRCU(hist)
	_ = seed // readers are uniform; the flag is kept for interface symmetry
	if n := bad.Load(); n != 0 {
		fmt.Fprintf(os.Stderr, "mvcheck: %d torn reads observed live\n", n)
		rep.Violations = append(rep.Violations, check.Violation{Rule: "torn-read", Detail: fmt.Sprintf("%d reclaimed boxes reused under readers", n)})
		rep.Total += int(n)
	}
	return rep
}
