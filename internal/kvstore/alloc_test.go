package kvstore_test

import (
	"fmt"
	"testing"

	"mvrlu/internal/kvstore"

	_ "mvrlu/internal/index"
)

// allocRows bounds the heap allocations of one Get and one update-Set
// (the key already present) per build, with no slack: a change that
// raises a count must raise its row and say why. The rlu builds' Set
// allocations are the RLU engine's write-set bookkeeping, not the
// session's.
var allocRows = map[string]struct{ get, set float64 }{
	"mvrlu-kv":    {0, 0},
	"rlu-kv":      {0, 3},
	"vanilla":     {0, 0},
	"mvrlu-idx":   {0, 0},
	"rlu-idx":     {0, 3},
	"vanilla-idx": {0, 0},
}

// TestAllocsPerOp measures Get and update-Set allocations with
// testing.AllocsPerRun over 1000 preloaded keys on every build.
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
		})
	}
}
