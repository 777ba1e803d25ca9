// Integration tests: cross-module scenarios that the per-package suites
// cannot cover — the public facade driving the benchmark harness and
// engine statistics flowing through the stack.
package main_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"mvrlu/internal/bench"
	"mvrlu/internal/ds"
	"mvrlu/internal/figures"
	"mvrlu/mvrlu"
)

// TestFacadeWithHarness drives a user-defined structure built purely on
// the public facade through a concurrent workload, and checks engine
// statistics surface coherently.
func TestFacadeWithHarness(t *testing.T) {
	type entry struct {
		Key  int
		Next *mvrlu.Object[entry]
	}
	dom := mvrlu.NewDefaultDomain[entry]()
	defer dom.Close()
	head := mvrlu.NewObject(entry{Key: -1 << 62})

	insert := func(h *mvrlu.Thread[entry], key int) {
		h.Execute(func(h *mvrlu.Thread[entry]) bool {
			prev, cur := head, h.Deref(head).Next
			for cur != nil && h.Deref(cur).Key < key {
				prev, cur = cur, h.Deref(cur).Next
			}
			if cur != nil && h.Deref(cur).Key == key {
				return true
			}
			c, ok := h.TryLock(prev)
			if !ok {
				return false
			}
			c.Next = mvrlu.NewObject(entry{Key: key, Next: cur})
			return true
		})
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			h := dom.Register()
			for i := 0; i < 100; i++ {
				insert(h, base*1000+i)
			}
		}(g)
	}
	wg.Wait()

	h := dom.Register()
	h.ReadLock()
	count := 0
	for cur := h.Deref(head).Next; cur != nil; cur = h.Deref(cur).Next {
		count++
	}
	h.ReadUnlock()
	if count != 400 {
		t.Fatalf("list has %d entries, want 400", count)
	}
	st := dom.Stats()
	if st.Commits < 400 {
		t.Fatalf("commits %d < inserts", st.Commits)
	}
	if st.Derefs == 0 {
		t.Fatal("no derefs counted")
	}
}

// TestReportPipeline checks the Table text and CSV renderers compose with
// real measured cells.
func TestReportPipeline(t *testing.T) {
	set, err := ds.New("mvrlu-hash", ds.Config{Buckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	res := bench.Run(set, bench.Workload{Threads: 2, UpdateRatio: 0.1, Initial: 100, Duration: 20 * time.Millisecond})

	tab := bench.NewTable("t", "threads", "mvrlu-hash")
	tab.Add("2", "mvrlu-hash", res.OpsPerUsec())
	var txt, csv strings.Builder
	tab.Render(&txt)
	tab.RenderCSV(&csv)
	if !strings.Contains(txt.String(), "mvrlu-hash") {
		t.Fatal("text render broken")
	}
	if !strings.HasPrefix(csv.String(), "# t\nthreads,mvrlu-hash\n2,") {
		t.Fatalf("csv render broken:\n%s", csv.String())
	}
}

// TestEveryFigureCellSmoke measures a miniature of every figure through
// Table.Measure, the path mvbench prints from, and checks each printed
// table holds one value per cell and that no throughput is zero.
func TestEveryFigureCellSmoke(t *testing.T) {
	for _, f := range figures.All(figures.Params{Threads: []int{2}, Duration: 5 * time.Millisecond, Shrink: 100}) {
		for _, tab := range f.Tables {
			for i, out := range tab.Measure() {
				d := out.Data()
				filled := 0
				for _, r := range d.Rows {
					for col, v := range r.Cells {
						filled++
						if i == 0 && tab.Metric.Unit != "abort-ratio" && v <= 0 {
							t.Errorf("%s %q: %s at %s measured %v", f.ID, d.Title, col, r.X, v)
						}
					}
				}
				if filled != len(tab.Cells) {
					t.Errorf("%s %q: %d values printed for %d cells", f.ID, d.Title, filled, len(tab.Cells))
				}
			}
		}
	}
}

// TestMixedDomainsIndependent: two MV-RLU domains must not interfere
// (watermarks, logs, and stats are per-domain).
func TestMixedDomainsIndependent(t *testing.T) {
	type v struct{ N int }
	d1 := mvrlu.NewDefaultDomain[v]()
	opts := mvrlu.DefaultOptions()
	opts.LogSlots = 256 // small log so reclamation must run during the loop
	d2 := mvrlu.NewDomain[v](opts)
	defer d1.Close()
	defer d2.Close()
	o1, o2 := mvrlu.NewObject(v{}), mvrlu.NewObject(v{})
	h1, h2 := d1.Register(), d2.Register()

	// Pin a reader in d1; writers in d2 must reclaim freely.
	h1.ReadLock()
	_ = h1.Deref(o1)
	for i := 0; i < 2000; i++ {
		h2.ReadLock()
		if c, ok := h2.TryLock(o2); ok {
			c.N = i
		}
		h2.ReadUnlock()
	}
	h1.ReadUnlock()
	if s2 := d2.Stats(); s2.Reclaimed == 0 {
		t.Fatal("d2 reclamation blocked by a reader in d1")
	}
	if s1 := d1.Stats(); s1.Commits != 0 {
		t.Fatal("d1 counted d2's commits")
	}
}
