package bench

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/ds"
)

// Distribution names a key distribution.
type Distribution int

// Supported key distributions.
const (
	DistUniform Distribution = iota
	DistPareto8020
	DistZipf
)

// Workload describes one benchmark cell: the paper's microbenchmarks are
// all instances of this (update ratio 2/20/80%, distribution, data-set
// size, thread count).
type Workload struct {
	// Threads is the number of worker goroutines ("threads" in the
	// paper's figures).
	Threads int
	// UpdateRatio is the fraction of operations that mutate (evenly
	// split between insert and remove), e.g. 0.02 / 0.20 / 0.80 for
	// the paper's read-mostly / read-intensive / write-intensive mixes.
	UpdateRatio float64
	// Initial is the number of elements loaded before measuring.
	Initial int
	// Range is the key space; 0 defaults to 2×Initial so the set size
	// stays stable under a balanced insert/remove mix.
	Range int
	// Dist selects the key distribution; Theta applies to DistZipf.
	Dist  Distribution
	Theta float64
	// RangeRatio is the fraction of operations that are ordered range
	// scans (the YCSB-E style mix), taken out of the lookup share; the
	// set's sessions must implement ds.RangeScanner when it is nonzero.
	RangeRatio float64
	// RangeLen is the scan length for range operations (default 16).
	RangeLen int
	// Duration is the measured run length.
	Duration time.Duration
}

func (w Workload) keyRange() int {
	if w.Range > 0 {
		return w.Range
	}
	return 2 * w.Initial
}

func (w Workload) gen() KeyGen {
	r := w.keyRange()
	switch w.Dist {
	case DistPareto8020:
		return Pareto8020{Range: r}
	case DistZipf:
		return NewZipf(r, w.Theta)
	default:
		return Uniform{Range: r}
	}
}

// Result is one measured cell.
type Result struct {
	Set      string
	Workload Workload
	Measurement
}

// Measurement is what Drive measured: operations completed by every
// worker, wall time from opening the start gate (once every worker is
// ready) to the last worker stopping, and the commit/abort delta over
// that window.
type Measurement struct {
	Ops        uint64
	Elapsed    time.Duration
	Commits    uint64
	Aborts     uint64
	AbortRatio float64
}

// OpsPerUsec returns throughput in operations per microsecond, the unit
// of every throughput figure in the paper.
func (m Measurement) OpsPerUsec() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Ops) / float64(m.Elapsed.Microseconds())
}

// Drive runs threads workers behind one start gate for d and returns
// what they did. Worker t calls newWorker(t, stop) on its own goroutine,
// and the gate opens — and the clock starts — only once every worker has
// returned from it, so per-worker setup (sessions, generators) stays out
// of the measured window however long it takes. Each worker then runs
// the returned op at least once and until stop is set; the op in flight
// when stop lands finishes and is counted, so no window measures nothing
// even if a worker is not scheduled until d has passed. An op that
// retries may read stop to give up early. counters, when non-nil,
// returns cumulative commit and abort counts; the measurement carries
// their delta.
func Drive(threads int, d time.Duration, counters func() (commits, aborts uint64),
	newWorker func(t int, stop *atomic.Bool) func()) Measurement {
	var beforeC, beforeA uint64
	if counters != nil {
		beforeC, beforeA = counters()
	}
	var (
		stop  atomic.Bool
		total atomic.Uint64
		ready sync.WaitGroup
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	ready.Add(threads)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := newWorker(t, &stop)
			ready.Done()
			ops := uint64(0)
			<-start
			for {
				op()
				ops++
				if stop.Load() {
					break
				}
			}
			total.Add(ops)
		}()
	}
	ready.Wait()
	begin := time.Now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	m := Measurement{Ops: total.Load(), Elapsed: time.Since(begin)}
	if counters != nil {
		c, a := counters()
		m.Commits, m.Aborts = c-beforeC, a-beforeA
		if m.Commits+m.Aborts > 0 {
			m.AbortRatio = float64(m.Aborts) / float64(m.Commits+m.Aborts)
		}
	}
	return m
}

// Prefill loads Initial distinct keys, spread deterministically over the
// key range, so every mechanism starts from an identical set.
func Prefill(set ds.Set, w Workload) {
	s := set.Session()
	r := w.keyRange()
	rng := rand.New(rand.NewSource(12345))
	inserted := 0
	for inserted < w.Initial {
		if s.Insert(rng.Intn(r)) {
			inserted++
		}
	}
}

// Run measures one workload cell on set: prefill, then Threads goroutines
// issuing the op mix until the deadline. Abort statistics are taken as a
// before/after delta so repeated runs on one set stay correct.
func Run(set ds.Set, w Workload) Result {
	Prefill(set, w)
	var counters func() (uint64, uint64)
	if ac, ok := set.(ds.AbortCounter); ok {
		counters = ac.AbortStats
	}
	rangeLen := w.RangeLen
	if rangeLen <= 0 {
		rangeLen = 16
	}
	m := Drive(w.Threads, w.Duration, counters, func(t int, _ *atomic.Bool) func() {
		s := set.Session()
		scanner, _ := s.(ds.RangeScanner)
		rng := rand.New(rand.NewSource(int64(t)*7919 + 17))
		gen := w.gen()
		return func() {
			k := gen.Next(rng)
			p := rng.Float64()
			switch {
			case p < w.UpdateRatio/2:
				s.Insert(k)
			case p < w.UpdateRatio:
				s.Remove(k)
			case p < w.UpdateRatio+w.RangeRatio && scanner != nil:
				scanner.RangeScan(k, rangeLen)
			default:
				s.Lookup(k)
			}
		}
	})
	return Result{Set: set.Name(), Workload: w, Measurement: m}
}
