package bench

import (
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/ds"
)

func TestUniformCoversRange(t *testing.T) {
	g := Uniform{Range: 10}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		k := g.Next(rng)
		if k < 0 || k >= 10 {
			t.Fatalf("key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform missed keys: %d/10", len(seen))
	}
}

func TestPareto8020Skew(t *testing.T) {
	g := Pareto8020{Range: 1000}
	rng := rand.New(rand.NewSource(2))
	hot := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next(rng) < 200 {
			hot++
		}
	}
	frac := float64(hot) / n
	if math.Abs(frac-0.8) > 0.02 {
		t.Fatalf("hot fraction %.3f, want ~0.80", frac)
	}
}

func TestZipfSkewIncreasesWithTheta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	top := func(theta float64) float64 {
		g := NewZipf(1000, theta)
		hits := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if g.Next(rng) < 10 {
				hits++
			}
		}
		return float64(hits) / n
	}
	lo, hi := top(0.2), top(0.9)
	if hi <= lo {
		t.Fatalf("theta 0.9 top-10 share (%.3f) not above theta 0.2 (%.3f)", hi, lo)
	}
	if hi < 0.2 {
		t.Fatalf("theta 0.9 insufficiently skewed: %.3f", hi)
	}
}

func TestZipfBounds(t *testing.T) {
	g := NewZipf(100, 0.7)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		k := g.Next(rng)
		if k < 0 || k >= 100 {
			t.Fatalf("zipf key %d out of [0,100)", k)
		}
	}
}

func TestRunMeasuresThroughput(t *testing.T) {
	set, err := ds.New("mvrlu-hash", ds.Config{Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	w := Workload{
		Threads:     2,
		UpdateRatio: 0.2,
		Initial:     500,
		Duration:    50 * time.Millisecond,
	}
	res := Run(set, w)
	if res.Ops == 0 {
		t.Fatal("no operations measured")
	}
	if res.OpsPerUsec() <= 0 {
		t.Fatal("throughput not positive")
	}
	if res.Commits == 0 {
		t.Fatal("no commits measured on an abort-counting set")
	}
}

// TestDriveWaitsForSlowSetup: a worker whose setup outlasts the whole
// window still measures, because the clock starts only once every worker
// is ready and every worker counts at least the op in flight at stop.
func TestDriveWaitsForSlowSetup(t *testing.T) {
	const setup, d = 20 * time.Millisecond, 5 * time.Millisecond
	var ops [2]atomic.Uint64
	m := Drive(len(ops), d, nil, func(w int, _ *atomic.Bool) func() {
		if w == 0 {
			time.Sleep(setup)
		}
		return func() { ops[w].Add(1) }
	})
	for w := range ops {
		if ops[w].Load() == 0 {
			t.Errorf("worker %d ran no op in the window", w)
		}
	}
	if m.Ops != ops[0].Load()+ops[1].Load() {
		t.Errorf("measured %d ops, workers ran %d", m.Ops, ops[0].Load()+ops[1].Load())
	}
	if m.Elapsed < d {
		t.Errorf("window %v shorter than d = %v", m.Elapsed, d)
	}
}

func TestPrefillExactCount(t *testing.T) {
	set, err := ds.New("rcu-list", ds.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	w := Workload{Initial: 100, Threads: 1, Duration: time.Millisecond}
	Prefill(set, w)
	s := set.Session()
	count := 0
	for k := 0; k < w.keyRange(); k++ {
		if s.Lookup(k) {
			count++
		}
	}
	if count != 100 {
		t.Fatalf("prefilled %d keys, want 100", count)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Figure X", "threads", "mvrlu", "rlu")
	tab.Add("1", "mvrlu", 1.5)
	tab.Add("1", "rlu", 0.7)
	tab.Add("2", "mvrlu", 2.9)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Figure X", "threads", "mvrlu", "1.500", "0.700", "2.900", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
