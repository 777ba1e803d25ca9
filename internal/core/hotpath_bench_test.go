package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/obs"
)

// Hot-path microbenchmarks: the engine's per-operation fast-path costs.
// Run with:
//
//	go test -bench 'ReadLockUnlock|ReadSection|DerefChainN|TryLockCommit|WatermarkContention|LogPressure' \
//	    -benchmem -cpu 1,2,4,8 -run '^$' ./internal/core
//
// The tracked trajectory of these costs is the benchmark's core.* layer
// cuts (benchmark/history.jsonl), not a file written from here.

// BenchmarkReadLockUnlock measures an empty critical section: the
// ReadLock/ReadUnlock boundary cost, including maybeGC's trigger checks.
// The parallel variant registers one handle per worker, so -cpu N also
// scales the number of registered threads the watermark machinery sees.
func BenchmarkReadLockUnlock(b *testing.B) {
	d := NewDomain[payload](DefaultOptions())
	defer d.Close()
	var mu sync.Mutex
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		h := d.Register()
		mu.Unlock()
		for pb.Next() {
			h.ReadLock()
			h.ReadUnlock()
		}
	})
}

// BenchmarkReadSection measures one read critical section — ReadLock,
// eight Derefs each walking a one-version chain, ReadUnlock — under each
// telemetry switch: off, metrics on (the mvkvd and benchmark default),
// and tracing only. Telemetry is paid per section, not per Deref, so the
// on and traced cells should sit a few clock reads above off whatever
// the Deref count.
func BenchmarkReadSection(b *testing.B) {
	for _, cell := range []struct {
		name           string
		metrics, trace bool
	}{{"off", false, false}, {"on", true, false}, {"traced", false, true}} {
		b.Run(cell.name, func(b *testing.B) {
			obs.SetEnabled(cell.metrics)
			obs.SetTraceEnabled(cell.trace)
			defer obs.SetEnabled(false)
			defer obs.SetTraceEnabled(false)
			d := NewDomain[payload](DefaultOptions())
			defer d.Close()
			h := d.Register()
			defer h.Unregister()
			objs := make([]*Object[payload], 8)
			for i := range objs {
				objs[i] = NewObject(payload{})
				h.Execute(func(h *Thread[payload]) bool {
					c, ok := h.TryLock(objs[i])
					if ok {
						c.A = i
					}
					return ok
				})
			}
			sum := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ReadLock()
				for _, o := range objs {
					sum += h.Deref(o).A
				}
				h.ReadUnlock()
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}

// BenchmarkDerefChainN measures the version-chain walk for a pinned
// reader that must traverse N committed versions to its snapshot — the
// per-hop cost of Deref's chain loop.
func BenchmarkDerefChainN(b *testing.B) {
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("N%d", depth), func(b *testing.B) {
			opts := DefaultOptions()
			opts.LogSlots = 4096
			d := NewDomain[payload](opts)
			defer d.Close()
			o := NewObject(payload{A: 7})
			pin := d.Register()
			pin.ReadLock()
			w := d.Register()
			for i := 0; i < depth; i++ {
				w.ReadLock()
				if c, ok := w.TryLock(o); ok {
					c.A = i
				}
				w.ReadUnlock()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := pin.Deref(o).A; got != 7 {
					b.Fatalf("snapshot moved: %d", got)
				}
			}
			b.StopTimer()
			pin.ReadUnlock()
		})
	}
}

// BenchmarkTryLockCommit measures the steady-state write path: one
// ReadLock/TryLock/ReadUnlock cycle per op. The warmup loop before
// ResetTimer lets the engine reach its steady state (log wrap-around,
// write-set header recycling), so the reported allocs/op is the
// steady-state allocation rate — the tentpole target is 0.
func BenchmarkTryLockCommit(b *testing.B) {
	d := NewDomain[payload](DefaultOptions())
	defer d.Close()
	o := NewObject(payload{})
	h := d.Register()
	for i := 0; i < 1<<16; i++ {
		h.ReadLock()
		if c, ok := h.TryLock(o); ok {
			c.A = i
		}
		h.ReadUnlock()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ReadLock()
		if c, ok := h.TryLock(o); ok {
			c.A = i
		}
		h.ReadUnlock()
	}
}

// benchWriteChurn runs private-object write critical sections on every
// worker (no lock conflicts — the contention surface is the watermark
// machinery, not the object locks) and reports the watermark scan and
// coalesce counters alongside ns/op.
//
// idle registers that many extra handles that never enter a critical
// section — a thread-pool model where most registered threads are
// quiescent at any instant — which widens the O(registered) watermark
// scan without adding runnable goroutines.
//
// slowReader adds one handle cycling long (~200µs) read critical
// sections. While it is pinned the watermark cannot pass its entry
// timestamp, so the writers' logs stay above the low capacity watermark
// and the GC trigger fires on every boundary — the paper's mixed
// workload of update churn under snapshot readers, and the regime where
// per-trigger scan cost multiplies into every operation.
func benchWriteChurn(b *testing.B, opts Options, idle int, slowReader bool) {
	d := NewDomain[payload](opts)
	defer d.Close()
	for i := 0; i < idle; i++ {
		d.Register()
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	if slowReader {
		h := d.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.ReadLock()
				time.Sleep(200 * time.Microsecond)
				h.ReadUnlock()
			}
		}()
	}
	var mu sync.Mutex
	b.ResetTimer() // domain + fleet setup is not the measured surface
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		h := d.Register()
		o := NewObject(payload{})
		mu.Unlock()
		i := 0
		for pb.Next() {
			h.ReadLock()
			if c, ok := h.TryLock(o); ok {
				c.A = i
			}
			h.ReadUnlock()
			i++
		}
	})
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	s := d.Stats()
	b.ReportMetric(float64(s.WatermarkScans), "wm-scans")
	b.ReportMetric(float64(s.WatermarkCoalesced), "wm-coalesced")
}

// BenchmarkWatermarkContention is the scalability surface of the pass:
// a hair-trigger capacity watermark plus a slow pinned reader keep the
// GC trigger firing on every critical-section boundary (while the log
// stays far from the blocking high watermark), and a fleet of 256
// registered-but-idle handles gives the scan its width (the paper
// evaluates up to 448 threads; a few hundred registered handles is a
// mid-sized deployment, not an extreme). Every pre-coalescing trigger
// performed an O(registered threads) scan — here 256+ cache lines —
// plus a clock read and a CAS on the shared watermark line, and kicked
// the detector; with coalescing it reads the broadcast value. Run with -cpu 1,2,4,8 to scale the runnable workers on top of
// the fixed scan width.
func BenchmarkWatermarkContention(b *testing.B) {
	opts := DefaultOptions()
	// A big log keeps the pinned reader's occupancy backlog well beneath
	// the near-high forced-scan threshold, so the measured surface is the
	// per-boundary trigger itself, not the capacity-pressure path.
	opts.LogSlots = 16384
	opts.LowCapacity = 0.01 // low watermark ≈ 164 slots: hair trigger
	benchWriteChurn(b, opts, 256, true)
}

// BenchmarkLogPressure is the capacity-starved regime: a tiny log keeps
// occupancy cycling into allocSlot's blocking path, so reclamation speed
// (watermark advance latency) bounds throughput. On an oversubscribed
// host this is dominated by descheduled readers pinning the watermark —
// the regime where coalescing must NOT make things worse.
func BenchmarkLogPressure(b *testing.B) {
	opts := DefaultOptions()
	opts.LogSlots = 256
	opts.LowCapacity = 0.25
	benchWriteChurn(b, opts, 0, false)
}
