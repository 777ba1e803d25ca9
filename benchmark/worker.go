package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// worker is one load goroutine's view of the system under test: a
// connection of a server workload, or an in-process session of
// engine-hash. batch performs one batch and reports when it started, when
// its request was handed over, and when its last reply was checked (the
// middle time equals the first for in-process work).
type worker interface {
	batch() (t0, t1, t2 int64)
	state() *workerState
}

// workerState is what the phase drivers read back from a worker.
type workerState struct {
	// done counts ops completed; the coordinator samples it at
	// sub-window edges. Padded so the two workers' counters do not share
	// a cache line.
	done atomic.Uint64
	_    [56]byte

	opsPerBatch uint64
	attempted   uint64
	failed      uint64

	// spans holds one entry per batch while a traced window runs.
	spans   []batchSpan
	tracing bool
}

// batchSpan is one client.batch span with its two children:
// client.write is [T0,T1], client.read_wait is [T1,T2].
type batchSpan struct{ T0, T1, T2 int64 }

// closedLoop drives every worker flat out — each sends its next batch as
// soon as the previous one is answered — for warm (discarded) plus nsub
// sub-windows of length sub, and returns the ops/s of each sub-window.
func closedLoop(ws []worker, warm, sub time.Duration, nsub int) (rates []float64) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := w.state()
			for !stop.Load() {
				t0, t1, t2 := w.batch()
				st.done.Add(st.opsPerBatch)
				if st.tracing {
					st.spans = append(st.spans, batchSpan{t0, t1, t2})
				}
			}
		}()
	}
	sample := func() (uint64, int64) {
		var n uint64
		for _, w := range ws {
			n += w.state().done.Load()
		}
		return n, nowNs()
	}
	time.Sleep(warm)
	n0, t0 := sample()
	for i := 0; i < nsub; i++ {
		time.Sleep(sub)
		n1, t1 := sample()
		rates = append(rates, float64(n1-n0)/(float64(t1-t0)/1e9))
		n0, t0 = n1, t1
	}
	stop.Store(true)
	wg.Wait()
	return rates
}

// pacerClock is the time source of the paced scheduler; tests substitute
// a virtual one.
type pacerClock interface {
	now() int64
	waitUntil(t int64)
}

type realClock struct{}

func (realClock) now() int64 { return nowNs() }

// waitUntil sleeps while the deadline is far and, for the last stretch,
// polls the clock with a minimal sleep between looks. Go's timers wake up
// to a millisecond late on an idle process, which at these batch intervals
// would be most of the latency being measured, so the end of the wait has
// to be polled. time.Sleep(1) rather than runtime.Gosched: a Gosched loop
// re-queues itself on the global run queue and is picked again at once, so
// its P never steals work or polls the network, and a server goroutine
// waiting on that P's neighbour sat for milliseconds (p90 of 3.4 ms against
// a p50 of 94 us on kv-point-read). The minimal sleep parks the goroutine,
// which sends the P through the scheduler's whole search first.
func (realClock) waitUntil(t int64) {
	for {
		d := t - nowNs()
		if d <= 0 {
			return
		}
		if d > 3e6 {
			time.Sleep(time.Duration(d - 2e6))
			continue
		}
		time.Sleep(1)
	}
}

// pacedResult is one worker's paced window.
type pacedResult struct {
	offered int     // batches due inside the window
	lat     []int64 // due → last reply, one per batch sent
	late    []int64 // how long after it could have gone a batch was sent
}

// pacedLoop sends one batch every interval from start+offset, open loop:
// batch i is due at start+offset+i·interval whether or not the system
// kept up, and the batches due before end are the window's offered load.
// Latency runs from the due time, so when one batch stalls, the wait it
// imposes on the batches due behind it is charged to them. A worker that
// has fallen a quarter of a window behind gives up; what it had not sent
// by then was never answered and counts in offered without a latency.
func pacedLoop(clk pacerClock, start, offset, interval, end int64, batch func() (t0, t1, t2 int64)) pacedResult {
	var r pacedResult
	first := start + offset
	if first < end {
		r.offered = int((end - first + interval - 1) / interval)
	}
	giveUp := end + (end-start)/4
	free := start
	for i := 0; i < r.offered; i++ {
		due := first + int64(i)*interval
		clk.waitUntil(due)
		sent := clk.now()
		if sent >= giveUp {
			break
		}
		could := due
		if free > could {
			could = free
		}
		_, _, t2 := batch()
		r.lat = append(r.lat, t2-due)
		r.late = append(r.late, sent-could)
		free = t2
	}
	return r
}

// pacedWindow runs pacedLoop on every worker at rate ops/s in total and
// returns the per-worker results. Workers are offset against each other
// so their batches interleave instead of colliding.
func pacedWindow(ws []worker, rate float64, window time.Duration) []pacedResult {
	perBatch := float64(ws[0].state().opsPerBatch)
	interval := int64(perBatch * float64(len(ws)) / rate * 1e9)
	res := make([]pacedResult, len(ws))
	start := nowNs() + int64(time.Millisecond)
	end := start + int64(window)
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			offset := interval * int64(i) / int64(len(ws))
			res[i] = pacedLoop(realClock{}, start, offset, interval, end, w.batch)
		}()
	}
	wg.Wait()
	return res
}

// pacedSummary folds the workers' paced results: sorted latencies and
// lateness, plus how many offered batches must be counted as failed —
// the unanswered ones, or all of them when the system delivered under
// 99% of what was offered (an overloaded open loop has no meaningful
// latency).
func pacedSummary(res []pacedResult) (lat, late []int64, offered, unanswered int) {
	var lats, lates [][]int64
	for _, r := range res {
		lats = append(lats, r.lat)
		lates = append(lates, r.late)
		offered += r.offered
		unanswered += r.offered - len(r.lat)
	}
	lat, late = sortedCopy(lats...), sortedCopy(lates...)
	if float64(len(lat)) < 0.99*float64(offered) {
		unanswered = offered
	}
	return lat, late, offered, unanswered
}
