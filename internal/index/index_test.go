package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/check"
	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
)

var builds = []string{"mvrlu-idx", "rlu-idx", "vanilla-idx"}

func newStore(t *testing.T, build string) kvstore.Store {
	t.Helper()
	s, err := kvstore.New(build, 0, 0)
	if err != nil {
		t.Fatalf("New(%s): %v", build, err)
	}
	t.Cleanup(s.Close)
	return s
}

func ordered(t *testing.T, s kvstore.Store) kvstore.OrderedSession {
	t.Helper()
	sess, ok := s.Session().(kvstore.OrderedSession)
	if !ok {
		t.Fatalf("%s session is not ordered", s.Name())
	}
	t.Cleanup(sess.Close)
	return sess
}

func collectAsc(sess kvstore.OrderedSession, lo, hi string, limit int) []string {
	var out []string
	sess.RangeAscend(lo, hi, func(k, v string) bool {
		out = append(out, k+"="+v)
		return limit <= 0 || len(out) < limit
	})
	return out
}

func collectDesc(sess kvstore.OrderedSession, lo, hi string, limit int) []string {
	var out []string
	sess.RangeDescend(lo, hi, func(k, v string) bool {
		out = append(out, k+"="+v)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// TestOrderedConformance drives the full Store+OrderedSession contract
// on every build with one deterministic script and asserts identical
// results.
func TestOrderedConformance(t *testing.T) {
	for _, build := range builds {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			sess := ordered(t, s)

			rng := rand.New(rand.NewSource(7))
			model := map[string]string{}
			for i := 0; i < 400; i++ {
				k := fmt.Sprintf("k%03d", rng.Intn(120))
				switch rng.Intn(10) {
				case 0, 1, 2:
					if _, ok := model[k]; sess.Remove(k) != ok {
						t.Fatalf("Remove(%s) existence mismatch", k)
					}
					delete(model, k)
				default:
					v := fmt.Sprintf("v%d", i)
					sess.Set(k, v)
					model[k] = v
				}
			}
			for k, v := range model {
				if got, ok := sess.Get(k); !ok || got != v {
					t.Fatalf("Get(%s) = %q,%v want %q", k, got, ok, v)
				}
			}
			if _, ok := sess.Get("nope"); ok {
				t.Fatal("Get(nope) found")
			}

			var want []string
			for k, v := range model {
				want = append(want, k+"="+v)
			}
			sort.Strings(want)
			if got := collectAsc(sess, "", "\xff", 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("full ascend mismatch:\n got %v\nwant %v", got, want)
			}
			rev := append([]string(nil), want...)
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			if got := collectDesc(sess, "", "\xff", 0); !reflect.DeepEqual(got, rev) {
				t.Fatalf("full descend mismatch:\n got %v\nwant %v", got, rev)
			}

			// Inclusive sub-range, limits, reversed bounds.
			var sub []string
			for _, kv := range want {
				if kv >= "k020" && kv[:4] <= "k080" {
					sub = append(sub, kv)
				}
			}
			if got := collectAsc(sess, "k020", "k080", 0); !reflect.DeepEqual(got, sub) {
				t.Fatalf("sub ascend mismatch:\n got %v\nwant %v", got, sub)
			}
			if len(sub) > 3 {
				if got := collectAsc(sess, "k020", "k080", 3); !reflect.DeepEqual(got, sub[:3]) {
					t.Fatalf("limited ascend mismatch: %v", got)
				}
			}
			if got := collectAsc(sess, "z", "a", 0); len(got) != 0 {
				t.Fatalf("reversed bounds yielded %v", got)
			}

			// ForEach yields sorted order on the ordered builds.
			var all []string
			sess.ForEach(func(k, v string) bool { all = append(all, k+"="+v); return true })
			if !reflect.DeepEqual(all, want) {
				t.Fatalf("ForEach mismatch:\n got %v\nwant %v", all, want)
			}
			var pre []string
			sess.ForEachPrefix("k0", func(k, v string) bool { pre = append(pre, k); return true })
			for _, k := range pre {
				if k[:2] != "k0" {
					t.Fatalf("prefix scan leaked %s", k)
				}
			}
		})
	}
}

// TestApplyTxnSemantics exercises removed[] reporting and the
// last-op-per-key compression on every build.
func TestApplyTxnSemantics(t *testing.T) {
	for _, build := range builds {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			sess := ordered(t, s)
			sess.Set("a", "1")

			removed := sess.ApplyTxn([]kvstore.TxnOp{
				{Key: "a", Del: true},  // exists
				{Key: "b", Del: true},  // missing
				{Key: "c", Value: "x"}, // insert
				{Key: "c", Value: "y"}, // overwrite in-txn (compressed)
				{Key: "d", Value: "t"}, // insert...
				{Key: "d", Del: true},  // ...then delete: net nothing
				{Key: "e", Del: true},  // missing...
				{Key: "e", Value: "z"}, // ...then set: plain insert
			})
			wantRemoved := []bool{true, false, false, false, false, false, false, false}
			// d's delete is the kept op for d; it removes the pre-txn
			// absence — d never existed before the txn, so removed=false.
			if !reflect.DeepEqual(removed, wantRemoved) {
				t.Fatalf("removed = %v want %v", removed, wantRemoved)
			}
			got := collectAsc(sess, "", "\xff", 0)
			want := []string{"c=y", "e=z"}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-txn state %v want %v", got, want)
			}

			if rm := sess.ApplyTxn(nil); len(rm) != 0 {
				t.Fatalf("empty txn: %v", rm)
			}
		})
	}
}

// TestApplyTxnAtomicVisibility hammers multi-key transactions with
// concurrent range readers: every reader snapshot must see the
// transaction's keys at the SAME generation — all-or-nothing.
func TestApplyTxnAtomicVisibility(t *testing.T) {
	for _, build := range builds {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			w := ordered(t, s)
			keys := []string{"t:a", "t:b", "t:c"}

			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := ordered(t, s)
					for !stop.Load() {
						var gens []string
						sess.RangeAscend("t:", "t:\xff", func(k, v string) bool {
							gens = append(gens, v)
							return true
						})
						if len(gens) == 0 {
							continue
						}
						if len(gens) != len(keys) {
							t.Errorf("torn txn: saw %d of %d keys", len(gens), len(keys))
							return
						}
						for _, g := range gens[1:] {
							if g != gens[0] {
								t.Errorf("torn txn: generations %v", gens)
								return
							}
						}
					}
				}()
			}
			for gen := 0; gen < 300 && !t.Failed(); gen++ {
				ops := make([]kvstore.TxnOp, len(keys))
				for i, k := range keys {
					ops[i] = kvstore.TxnOp{Key: k, Value: fmt.Sprintf("g%04d", gen)}
				}
				w.ApplyTxn(ops)
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestConcurrentTorture races independent writers against range
// readers on the engine builds (run under -race in CI): readers must
// always observe a sorted, duplicate-free window with values matching
// their keys.
func TestConcurrentTorture(t *testing.T) {
	for _, build := range []string{"mvrlu-idx", "rlu-idx"} {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for wi := 0; wi < 3; wi++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					sess := ordered(t, s)
					rng := rand.New(rand.NewSource(seed))
					for i := 0; !stop.Load(); i++ {
						k := fmt.Sprintf("k%03d", rng.Intn(200))
						if rng.Intn(4) == 0 {
							sess.Remove(k)
						} else {
							sess.Set(k, "of-"+k)
						}
					}
				}(int64(wi) * 977)
			}
			for ri := 0; ri < 3; ri++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := ordered(t, s)
					for !stop.Load() {
						prev := ""
						sess.RangeAscend("k050", "k150", func(k, v string) bool {
							if prev != "" && k <= prev {
								t.Errorf("unsorted walk: %s after %s", k, prev)
								return false
							}
							if v != "of-"+k {
								t.Errorf("value %q under key %s", v, k)
								return false
							}
							prev = k
							return true
						})
						if _, ok := sess.Get("k100"); ok {
							// exercise point reads concurrently too
							_ = ok
						}
					}
				}()
			}
			time.Sleep(300 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestKVCheckClean runs a concurrent load with KV-history recording on
// every build and asserts CheckKV passes — the positive control for the
// planted-mutation gate.
func TestKVCheckClean(t *testing.T) {
	for _, build := range builds {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			h := check.NewHistory(0)
			type historied interface{ AttachKVHistory(*check.History) }
			s.(historied).AttachKVHistory(h)

			var seq atomic.Uint64
			var live atomic.Int32
			var wg sync.WaitGroup
			for wi := 0; wi < 2; wi++ {
				wg.Add(1)
				live.Add(1)
				go func(seed int64) {
					defer wg.Done()
					defer live.Add(-1)
					sess := ordered(t, s)
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 400; i++ {
						k := fmt.Sprintf("c%03d", rng.Intn(64))
						switch rng.Intn(6) {
						case 0:
							sess.Remove(k)
						case 1:
							k2 := fmt.Sprintf("c%03d", rng.Intn(64))
							sess.ApplyTxn([]kvstore.TxnOp{
								{Key: k, Value: fmt.Sprintf("u%d", seq.Add(1))},
								{Key: k2, Value: fmt.Sprintf("u%d", seq.Add(1))},
							})
						default:
							sess.Set(k, fmt.Sprintf("u%d", seq.Add(1)))
						}
					}
				}(int64(wi)*31 + 5)
			}
			reader := ordered(t, s)
			for i := 0; live.Load() > 0 || i < 50; i++ {
				reader.RangeAscend("c010", "c050", func(k, v string) bool { return true })
				if i%3 == 0 {
					reader.RangeDescend("c000", "c030", func(k, v string) bool { return true })
				}
			}
			wg.Wait()

			var boundary uint64
			if e, ok := s.(core.Engine); ok {
				boundary = e.Boundary()
			}
			rep := check.CheckKV(h, check.Opts{Boundary: boundary})
			if !rep.Ok() {
				t.Fatalf("CheckKV: %s", rep)
			}
			if rep.Sections == 0 || rep.Commits == 0 {
				t.Fatalf("empty history: %s", rep)
			}
		})
	}
}

// TestKVCheckCatchesUnpin is the descending walk's checker tooth, and
// deterministic: the only reader is RangeDescend, and at every pair it
// visits a second session commits a fresh value to the window's lowest
// key, which the walk reaches last. A walk that holds one snapshot
// returns that key as it was when the walk began; one that re-pins
// mid-stream (-tags mvrlu_mutate) returns a value committed after the
// timestamp it reported, and CheckKV must flag it. Without the tag the
// same run is the clean control. mvrlu-idx only: an MV-RLU commit never
// waits for readers, so committing from inside the walk cannot deadlock,
// as it would on RLU's synchronize or the vanilla build's read lock.
func TestKVCheckCatchesUnpin(t *testing.T) {
	s := newStore(t, "mvrlu-idx").(*MVIndex)
	h := check.NewHistory(0)
	s.AttachKVHistory(h)
	reader, writer := ordered(t, s), ordered(t, s)
	const keys = 64
	for i := 0; i < keys; i++ {
		writer.Set(fmt.Sprintf("d%03d", i), "seed")
	}
	visited := 0
	reader.RangeDescend("d000", fmt.Sprintf("d%03d", keys-1), func(k, v string) bool {
		visited++
		writer.Set("d000", fmt.Sprintf("w%d", visited))
		return true
	})
	if visited != keys {
		t.Fatalf("descending walk visited %d of %d keys", visited, keys)
	}
	rep := check.CheckKV(h, check.Opts{Boundary: s.Boundary()})
	switch {
	case mutateRangeUnpin && rep.Ok():
		t.Fatalf("CheckKV missed a descending walk that re-pinned mid-stream: %s", rep)
	case !mutateRangeUnpin && !rep.Ok():
		t.Fatalf("CheckKV: %s", rep)
	}
}

// maxTowers is a rand.Source under which randHeight always draws
// maxHeight.
type maxTowers struct{}

func (maxTowers) Int63() int64 { return 0 }
func (maxTowers) Seed(int64)   {}

// TestRangeWalkOracle checks both walk directions of every build against
// a sorted-slice oracle, with an early stop at every n, over the shapes a
// finger-search descend could get wrong: an empty index, bounds present
// and absent, lo > hi, lo == hi, hi past the last key, lo before the
// first, max-height towers, and deleted neighbours.
func TestRangeWalkOracle(t *testing.T) {
	bounds := [][2]string{
		{"k100", "k150"}, // both bounds present
		{"k101", "k151"}, // both absent
		{"k150", "k100"}, // lo > hi
		{"k100", "k100"}, // lo == hi, present
		{"k101", "k101"}, // lo == hi, absent
		{"k150", "z"},    // hi past the last key
		{"", "k050"},     // lo before the first key
		{"", "\xff"},     // everything
		{"k000", "k009"}, // below the first key
		{"k201", "k999"}, // above the last key
	}
	for _, build := range builds {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			sess := ordered(t, s)
			var keys []string // the oracle, sorted
			verify := func(stage string) {
				t.Helper()
				for _, b := range bounds {
					lo, hi := b[0], b[1]
					var asc []string
					for _, k := range keys {
						if lo <= k && k <= hi {
							asc = append(asc, k+"=v"+k)
						}
					}
					desc := slices.Clone(asc)
					slices.Reverse(desc)
					for n := 0; n <= len(asc); n++ { // n = 0: no limit
						wantAsc, wantDesc := asc, desc
						if n > 0 {
							wantAsc, wantDesc = asc[:n], desc[:n]
						}
						if got := collectAsc(sess, lo, hi, n); !slices.Equal(got, wantAsc) {
							t.Fatalf("%s: ascend [%q,%q] stop %d:\n got %v\nwant %v", stage, lo, hi, n, got, wantAsc)
						}
						if got := collectDesc(sess, lo, hi, n); !slices.Equal(got, wantDesc) {
							t.Fatalf("%s: descend [%q,%q] stop %d:\n got %v\nwant %v", stage, lo, hi, n, got, wantDesc)
						}
					}
				}
			}
			verify("empty")

			// Even keys k010..k200; every 20th (k100 and the last key
			// among them) on a max-height tower in the engine builds.
			var base *indexBase
			switch st := s.(type) {
			case *MVIndex:
				base = &st.indexBase
			case *RLUIndex:
				base = &st.indexBase
			}
			for i := 10; i <= 200; i += 2 {
				k := fmt.Sprintf("k%03d", i)
				if base != nil && i%20 == 0 {
					rng := base.rng
					base.rng = rand.New(maxTowers{})
					sess.Set(k, "v"+k)
					base.rng = rng
				} else {
					sess.Set(k, "v"+k)
				}
				keys = append(keys, k)
			}
			verify("loaded")

			// Delete the neighbours of the probed bounds, and a tall tower.
			for _, k := range []string{"k098", "k102", "k148", "k152", "k010", "k140"} {
				if !sess.Remove(k) {
					t.Fatalf("Remove(%s) = false", k)
				}
				keys = slices.DeleteFunc(keys, func(x string) bool { return x == k })
			}
			verify("after deletes")
		})
	}
}

// hookLog collects what a store's hooks were handed: per-op deliveries
// in call order and TxnHook groups (copied — the slice belongs to the
// store).
type hookLog struct {
	mu     sync.Mutex
	perOp  []kvstore.CommitOp
	groups [][]kvstore.CommitOp
}

func (l *hookLog) install(t *testing.T, s kvstore.Store, withTxnHook bool) {
	t.Helper()
	if !kvstore.SetStoreCommitHook(s, func(op kvstore.CommitOp) {
		l.mu.Lock()
		l.perOp = append(l.perOp, op)
		l.mu.Unlock()
	}) {
		t.Fatalf("%s: no commit hook capability", s.Name())
	}
	if withTxnHook && !kvstore.SetStoreTxnCommitHook(s, func(ops []kvstore.CommitOp) {
		l.mu.Lock()
		l.groups = append(l.groups, append([]kvstore.CommitOp(nil), ops...))
		l.mu.Unlock()
	}) {
		t.Fatalf("%s: no txn hook capability", s.Name())
	}
}

// take returns and clears everything delivered since the last take.
func (l *hookLog) take() (perOp []kvstore.CommitOp, groups [][]kvstore.CommitOp) {
	l.mu.Lock()
	defer l.mu.Unlock()
	perOp, groups = l.perOp, l.groups
	l.perOp, l.groups = nil, nil
	return perOp, groups
}

// lastCommitTS reads the commit timestamp of sess's latest commit from
// below the hook plumbing.
func lastCommitTS(t *testing.T, sess kvstore.Session) uint64 {
	t.Helper()
	switch k := sess.(type) {
	case *mvIdxSession:
		return k.t.h.LastCommitTS()
	case *session:
		return k.tw.(*rluTower).h.LastCommitTS()
	case *vanIdxSession:
		return k.v.verClock.Load()
	}
	t.Fatalf("unknown session type %T", sess)
	return 0
}

// TestHookRouting pins what the one commit routine must deliver where:
// single ops to the per-op hook with the commit ts, ApplyTxn groups to
// the TxnHook as ONE call (falling back per-op without one), nothing for
// a no-op delete or a superseded op.
func TestHookRouting(t *testing.T) {
	set := func(k, v string) kvstore.TxnOp { return kvstore.TxnOp{Key: k, Value: v} }
	del := func(k string) kvstore.TxnOp { return kvstore.TxnOp{Del: true, Key: k} }
	for _, build := range builds {
		for _, withTxnHook := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/txnhook=%v", build, withTxnHook), func(t *testing.T) {
				s := newStore(t, build)
				var log hookLog
				log.install(t, s, withTxnHook)
				sess := ordered(t, s)

				// expect asserts the deliveries since the last call: want ops,
				// all stamped with the latest commit ts, as one TxnHook group
				// when grouped (and a TxnHook exists) or per-op otherwise.
				expect := func(what string, grouped bool, want ...kvstore.CommitOp) {
					t.Helper()
					perOp, groups := log.take()
					got := perOp
					if grouped && withTxnHook && len(want) > 0 {
						if len(groups) != 1 || len(perOp) != 0 {
							t.Fatalf("%s: %d TxnHook calls, %d per-op calls; want 1, 0", what, len(groups), len(perOp))
						}
						got = groups[0]
					} else if len(groups) != 0 {
						t.Fatalf("%s: %d TxnHook calls; want none", what, len(groups))
					}
					ts := lastCommitTS(t, sess)
					for i := range want {
						want[i].TS = ts
					}
					if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s: delivered %+v want %+v", what, got, want)
					}
				}

				sess.Set("a", "1")
				expect("Set", false, kvstore.CommitOp{Key: "a", Value: "1"})
				sess.Set("a", "2")
				expect("Set update", false, kvstore.CommitOp{Key: "a", Value: "2"})
				if !sess.Remove("a") {
					t.Fatal("Remove(a) = false")
				}
				expect("Remove", false, kvstore.CommitOp{Del: true, Key: "a"})
				if sess.Remove("a") {
					t.Fatal("Remove(a) twice = true")
				}
				expect("no-op Remove", false)

				sess.ApplyTxn([]kvstore.TxnOp{set("b", "1"), set("c", "1"), del("nope")})
				expect("ApplyTxn", true, kvstore.CommitOp{Key: "b", Value: "1"}, kvstore.CommitOp{Key: "c", Value: "1"})
				sess.ApplyTxn([]kvstore.TxnOp{set("d", "1")})
				expect("one-op ApplyTxn", true, kvstore.CommitOp{Key: "d", Value: "1"})
				sess.ApplyTxn([]kvstore.TxnOp{del("nope")})
				expect("no-op ApplyTxn", true)
				sess.ApplyTxn([]kvstore.TxnOp{set("e", "old"), del("b"), set("e", "new")})
				expect("superseded op", true, kvstore.CommitOp{Del: true, Key: "b"}, kvstore.CommitOp{Key: "e", Value: "new"})
			})
		}
	}
}

// TestHookOrderIsCommitOrder: on the engine builds hooks run under the
// writer mutex, so for every key the hook-call order is the commit
// order — timestamps never go backwards and the last delivery is the
// stored value.
func TestHookOrderIsCommitOrder(t *testing.T) {
	for _, build := range []string{"mvrlu-idx", "rlu-idx"} {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			var log hookLog
			log.install(t, s, true)
			var wg sync.WaitGroup
			for wi := 0; wi < 3; wi++ {
				wg.Add(1)
				go func(wi int) {
					defer wg.Done()
					sess := ordered(t, s)
					rng := rand.New(rand.NewSource(int64(wi)))
					for i := 0; i < 300; i++ {
						k, v := fmt.Sprintf("h%d", rng.Intn(8)), fmt.Sprintf("w%d-%d", wi, i)
						switch rng.Intn(4) {
						case 0:
							sess.Remove(k)
						case 1:
							sess.ApplyTxn([]kvstore.TxnOp{{Key: k, Value: v}, {Key: fmt.Sprintf("h%d", rng.Intn(8)), Value: v}})
						default:
							sess.Set(k, v)
						}
					}
				}(wi)
			}
			wg.Wait()

			// Both hooks run under the one writer mutex, but they land in
			// two lists; per key the timestamps order them.
			perOp, groups := log.take()
			type last struct {
				ts  uint64
				op  kvstore.CommitOp
				src string
			}
			final := map[string]last{}
			check := func(src string, ops []kvstore.CommitOp) {
				prev := map[string]uint64{}
				for _, op := range ops {
					if op.TS < prev[op.Key] {
						t.Fatalf("%s hook: key %s ts %d delivered after ts %d", src, op.Key, op.TS, prev[op.Key])
					}
					prev[op.Key] = op.TS
					if f := final[op.Key]; op.TS >= f.ts {
						final[op.Key] = last{op.TS, op, src}
					}
				}
			}
			check("per-op", perOp)
			var flat []kvstore.CommitOp
			for _, g := range groups {
				for _, op := range g[1:] {
					if op.TS != g[0].TS {
						t.Fatalf("txn group with mixed timestamps: %+v", g)
					}
				}
				flat = append(flat, g...)
			}
			check("txn", flat)
			sess := ordered(t, s)
			for k, f := range final {
				v, ok := sess.Get(k)
				if ok == f.op.Del || (ok && v != f.op.Value) {
					t.Fatalf("key %s: store has %q,%v but the last delivery (%s hook) was %+v", k, v, ok, f.src, f.op)
				}
			}
		})
	}
}

// TestEngineSessionsCarryTraces: both engine builds get request tracing
// from the shared session — one lock_wait and one commit span per write,
// plus wal_append once a hook is installed.
func TestEngineSessionsCarryTraces(t *testing.T) {
	for _, build := range []string{"mvrlu-idx", "rlu-idx"} {
		t.Run(build, func(t *testing.T) {
			s := newStore(t, build)
			sess := ordered(t, s)
			tc, ok := sess.(kvstore.TraceCarrier)
			if !ok {
				t.Fatalf("%s session is not a kvstore.TraceCarrier", build)
			}
			var tr obs.Trace
			tc.SetTrace(&tr)
			defer tc.SetTrace(nil)
			spans := func(op func()) map[obs.Stage]int {
				tr.Begin()
				op()
				d := tr.Finish()
				got := map[obs.Stage]int{}
				for _, sp := range d.Spans[:d.NSpans] {
					got[sp.Stage]++
				}
				return got
			}
			want := map[obs.Stage]int{obs.StageLockWait: 1, obs.StageCommit: 1}
			if got := spans(func() { sess.Set("a", "1") }); !reflect.DeepEqual(got, want) {
				t.Fatalf("Set spans %v want %v", got, want)
			}
			if got := spans(func() { sess.Get("a") }); len(got) != 0 {
				t.Fatalf("Get stamped %v", got)
			}
			kvstore.SetStoreCommitHook(s, func(kvstore.CommitOp) {})
			want[obs.StageWALAppend] = 1
			if got := spans(func() { sess.ApplyTxn([]kvstore.TxnOp{{Key: "b", Value: "1"}, {Key: "c", Value: "1"}}) }); !reflect.DeepEqual(got, want) {
				t.Fatalf("ApplyTxn spans %v want %v", got, want)
			}
			delete(want, obs.StageWALAppend)
			if got := spans(func() { sess.Remove("nope") }); !reflect.DeepEqual(got, want) {
				t.Fatalf("no-op Remove spans %v want %v", got, want)
			}
		})
	}
}
