package kvstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"mvrlu/internal/check"
	"mvrlu/internal/core"
	"mvrlu/internal/rlu"
)

// published counts the sentinels in a root table.
func published[O any](roots []atomic.Pointer[O]) (n int) {
	for i := range roots {
		if roots[i].Load() != nil {
			n++
		}
	}
	return n
}

// TestObjectSize is the counted cost of an engine object (DESIGN.md §3):
// an MV-RLU header is the paper's two words, p-copy and p-pending, in
// front of the master, and an RLU header its one copy word, so a store
// record's object is its payload plus those words and nothing else. An
// mvrlu-kv record is then exactly one 64-byte cache line. Headers are
// measured against a real payload: Go pads a struct whose last field
// has size zero, so Object[struct{}] would read one word more.
func TestObjectSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"core.Object header", unsafe.Sizeof(core.Object[kvNode]{}) - unsafe.Sizeof(kvNode{}), 16},
		{"core.Object[kvNode]", unsafe.Sizeof(core.Object[kvNode]{}), 64},
		{"rlu.Object header", unsafe.Sizeof(rlu.Object[rkvNode]{}) - unsafe.Sizeof(rkvNode{}), 8},
		{"rlu.Object[rkvNode]", unsafe.Sizeof(rlu.Object[rkvNode]{}), 56},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestEmptyBucketCost is the counted cost of the engine hash builds'
// bucket table (DESIGN.md §9): a fresh default-layout store allocates
// at most 1 MiB — one pointer per bucket, no sentinel — and inserting
// keys into k distinct empty buckets makes exactly k sentinels. A
// Remove of an absent key, a second key in a used bucket and an update
// make none.
func TestEmptyBucketCost(t *testing.T) {
	const maxFresh, k = 1 << 20, 100
	for _, name := range []string{"mvrlu-kv", "rlu-kv"} {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			st, err := New(name, 0, 0)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			fresh := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: a fresh default store allocates %d B", name, fresh)
			if fresh > maxFresh {
				t.Errorf("a fresh default store allocates %d B, want at most %d", fresh, maxFresh)
			}
			sentinels := func() int {
				switch s := st.(type) {
				case *MVRLUStore:
					return published(s.roots)
				case *RLUStore:
					return published(s.roots)
				}
				t.Fatalf("%T has no bucket table", st)
				return 0
			}

			// One key per distinct bucket, and one more sharing the first's.
			var keys []string
			var twin string
			used := map[int]int{}
			for i := 0; len(keys) < k || twin == ""; i++ {
				key := fmt.Sprintf("e:%d", i)
				r := rootOf(hashString(key), DefaultSlots, DefaultBucketsPerSlot)
				if _, ok := used[r]; !ok && len(keys) < k {
					used[r] = len(keys)
					keys = append(keys, key)
				} else if ok && used[r] == 0 && twin == "" {
					twin = key
				}
			}
			sess := st.Session()
			defer sess.Close()
			if sess.Remove(keys[0]) || sentinels() != 0 {
				t.Fatalf("a Remove into an empty bucket made %d sentinels", sentinels())
			}
			for i, key := range keys {
				sess.Set(key, "v")
				if n := sentinels(); n != i+1 {
					t.Fatalf("%d inserts into distinct empty buckets made %d sentinels", i+1, n)
				}
			}
			sess.Set(twin, "v")
			sess.Set(keys[0], "w")
			if n := sentinels(); n != k {
				t.Fatalf("a second key and an update made %d sentinels, want none", n-k)
			}
			if v, ok := sess.Get(twin); !ok || v != "v" {
				t.Fatalf("Get(%s) = %q, %v", twin, v, ok)
			}
		})
	}
}

// TestSessionLogCost is the counted cost of a writer's version log
// (DESIGN.md §3): 1000 Sets through one mvrlu-kv session, each followed
// by a watermark broadcast past it, leave the session's log at no more
// than 2 segments of 64 versions. The log holds what reclamation holds
// back, not the 4096-version ceiling of the default options.
func TestSessionLogCost(t *testing.T) {
	const sets, maxSegs = 1000, 2
	st, err := New("mvrlu-kv", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	d := st.(*MVRLUStore).d
	sess := st.Session()
	defer sess.Close()
	for i := range sets {
		sess.Set(fmt.Sprintf("l:%d", i%100), fmt.Sprint(i))
		now := d.Now()
		deadline := time.Now().Add(10 * time.Second)
		for d.Watermark() <= now {
			if time.Now().After(deadline) {
				t.Fatalf("the watermark did not pass Set %d in 10 s", i)
			}
			runtime.Gosched()
		}
	}
	n := d.Stats().LogSegmentAllocs
	t.Logf("%d Sets: the session's log holds %d segments", sets, n)
	if n > maxSegs {
		t.Fatalf("%d Sets left the session's log at %d segments, want at most %d", sets, n, maxSegs)
	}
	if v, ok := sess.Get("l:99"); !ok || v != "999" {
		t.Fatalf("Get(l:99) = %q, %v", v, ok)
	}
}

// TestKVCheckFirstInserts is TestKVCheckClean's first-insert case on the
// hash builds: two writers insert fresh keys, nearly all into
// still-empty buckets (4 slots × 1024 buckets), while a reader runs Get
// on keys whose Set has returned and whole prefix walks. Every such Get
// must find its key, and CheckKV must pass.
func TestKVCheckFirstInserts(t *testing.T) {
	const writers, perWriter = 2, 300
	key := func(w, i int) string { return fmt.Sprintf("f:%d:%03d", w, i) }
	for _, name := range []string{"vanilla", "rlu-kv", "mvrlu-kv"} {
		t.Run(name, func(t *testing.T) {
			st, err := New(name, 4, 1024)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			h := check.NewHistory(0)
			st.(interface{ AttachKVHistory(*check.History) }).AttachKVHistory(h)

			var inserted [writers]atomic.Int64
			var live atomic.Int32
			var wg sync.WaitGroup
			for w := range writers {
				wg.Add(1)
				live.Add(1)
				go func() {
					defer wg.Done()
					defer live.Add(-1)
					sess := st.Session()
					defer sess.Close()
					for i := range perWriter {
						sess.Set(key(w, i), fmt.Sprintf("v%d", i))
						inserted[w].Store(int64(i + 1))
					}
				}()
			}
			reader := st.Session()
			defer reader.Close()
			all := func(k, v string) bool { return true }
			for i := 0; live.Load() > 0 || i < 20; i++ {
				w := i % writers
				if n := int(inserted[w].Load()); n > 0 {
					k := key(w, i%n)
					if v, ok := reader.Get(k); !ok || v != fmt.Sprintf("v%d", i%n) {
						t.Errorf("Get(%s) = %q, %v after its Set returned", k, v, ok)
					}
				}
				reader.ForEachPrefix("f:", all)
			}
			wg.Wait()

			var boundary uint64
			if e, ok := st.(core.Engine); ok {
				boundary = e.Boundary()
			}
			rep := check.CheckKV(h, check.Opts{Boundary: boundary})
			if !rep.Ok() {
				t.Fatalf("CheckKV: %s", rep)
			}
			if rep.Commits != writers*perWriter {
				t.Fatalf("%d commits recorded, want %d: %s", rep.Commits, writers*perWriter, rep)
			}
		})
	}
}
