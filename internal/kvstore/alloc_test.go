package kvstore_test

import (
	"fmt"
	"testing"

	"mvrlu/internal/kvstore"

	_ "mvrlu/internal/index"
)

// allocRows bounds the heap allocations per build of one Get, one
// update-Set (the key already present), one ForEachPrefix and, on the
// ordered builds, one RangeAscend and one RangeDescend, each walk
// stopping after 16 pairs — with no slack: a change that raises a count
// must raise its row and say why. The rlu builds' Set allocations are
// the RLU engine's write-set bookkeeping, not the session's.
var allocRows = map[string]struct{ get, set, prefix16, range16 float64 }{
	"mvrlu-kv":    {0, 0, 0, 0},
	"rlu-kv":      {0, 3, 0, 0},
	"vanilla":     {0, 0, 0, 0},
	"mvrlu-idx":   {0, 0, 0, 0},
	"rlu-idx":     {0, 3, 0, 0},
	"vanilla-idx": {0, 0, 0, 0},
}

// TestAllocsPerOp measures Get, update-Set and 16-pair walk allocations
// with testing.AllocsPerRun over 1000 preloaded keys on every build.
func TestAllocsPerOp(t *testing.T) {
	const nkeys = 1000
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key:%04d", i)
	}
	for _, name := range kvstore.Names() {
		t.Run(name, func(t *testing.T) {
			row, ok := allocRows[name]
			if !ok {
				t.Fatalf("no allocation row for build %s", name)
			}
			st, err := kvstore.New(name, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sess := st.Session()
			defer sess.Close()
			for _, k := range keys {
				sess.Set(k, "v")
			}
			i := 0
			get := testing.AllocsPerRun(nkeys, func() {
				sess.Get(keys[i%nkeys])
				i++
			})
			set := testing.AllocsPerRun(nkeys, func() {
				sess.Set(keys[i%nkeys], "w")
				i++
			})
			t.Logf("%s: %v allocs per Get, %v per update-Set", name, get, set)
			if get > row.get {
				t.Errorf("%v allocations per Get, want at most %v", get, row.get)
			}
			if set > row.set {
				t.Errorf("%v allocations per update-Set, want at most %v", set, row.set)
			}
			n := 0
			first16 := func(k, v string) bool { n++; return n < 16 }
			prefix := testing.AllocsPerRun(100, func() {
				n = 0
				sess.ForEachPrefix("key:0", first16)
			})
			t.Logf("%s: %v allocs per 16-pair ForEachPrefix", name, prefix)
			if prefix > row.prefix16 {
				t.Errorf("%v allocations per 16-pair ForEachPrefix, want at most %v", prefix, row.prefix16)
			}
			ord, ok := sess.(kvstore.OrderedSession)
			if !ok {
				return
			}
			for _, desc := range []bool{false, true} {
				rng := testing.AllocsPerRun(100, func() {
					n = 0
					if desc {
						ord.RangeDescend("key:0100", "key:0900", first16)
					} else {
						ord.RangeAscend("key:0100", "key:0900", first16)
					}
				})
				t.Logf("%s: %v allocs per 16-pair range (desc %v)", name, rng, desc)
				if rng > row.range16 {
					t.Errorf("%v allocations per 16-pair range (desc %v), want at most %v", rng, desc, row.range16)
				}
			}
		})
	}
}
