package core

import (
	"fmt"
	"testing"

	"mvrlu/internal/check"
)

// Microbenchmarks for the engine's primitives — the per-hop costs behind
// every figure. Run with:
//
//	go test -bench BenchmarkDeref -benchmem ./internal/core
//
// BenchmarkDerefChainDepth quantifies the version-traversal overhead the
// paper's dereference watermark exists to bound (Table 1's 1+1/V): a
// pinned reader forces chains of a chosen depth, and an old-snapshot
// reader walks all of them.
func BenchmarkDerefChainDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 4, 16} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			opts := DefaultOptions()
			opts.LogSlots = 4096
			d := NewDomain[payload](opts)
			defer d.Close()
			o := NewObject(payload{A: 7})

			// Pin the oldest snapshot, then stack versions.
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
			// The pinned reader's snapshot predates every version, so
			// each Deref walks the whole chain to the master.
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

// BenchmarkDerefFresh measures the common case: a fresh reader hitting
// the chain head (or master) directly.
func BenchmarkDerefFresh(b *testing.B) {
	for _, chained := range []bool{false, true} {
		name := "master"
		if chained {
			name = "chain-head"
		}
		b.Run(name, func(b *testing.B) {
			d := NewDomain[payload](DefaultOptions())
			defer d.Close()
			o := NewObject(payload{A: 1})
			h := d.Register()
			if chained {
				pin := d.Register()
				pin.ReadLock()
				defer pin.ReadUnlock()
				h.ReadLock()
				if c, ok := h.TryLock(o); ok {
					c.A = 2
				}
				h.ReadUnlock()
			}
			h.ReadLock()
			defer h.ReadUnlock()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = h.Deref(o).A
			}
		})
	}
}

// BenchmarkWriteSetSize measures commit cost against write-set size.
func BenchmarkWriteSetSize(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("objs%d", size), func(b *testing.B) {
			opts := DefaultOptions()
			opts.LogSlots = 8192
			d := NewDomain[payload](opts)
			defer d.Close()
			objs := make([]*Object[payload], size)
			for i := range objs {
				objs[i] = NewObject(payload{})
			}
			h := d.Register()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ReadLock()
				for _, o := range objs {
					if c, ok := h.TryLock(o); ok {
						c.A = i
					}
				}
				h.ReadUnlock()
			}
		})
	}
}

// BenchmarkTryLockConflict measures the fast-fail path against a held
// lock (the abort trigger under contention).
func BenchmarkTryLockConflict(b *testing.B) {
	d := NewDomain[payload](DefaultOptions())
	defer d.Close()
	o := NewObject(payload{})
	holder := d.Register()
	holder.ReadLock()
	if _, ok := holder.TryLock(o); !ok {
		b.Fatal("setup lock failed")
	}
	loser := d.Register()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loser.ReadLock()
		if _, ok := loser.TryLock(o); ok {
			b.Fatal("lock should be held")
		}
		loser.Abort()
	}
	b.StopTimer()
	holder.ReadUnlock()
}

// BenchmarkDerefRecorded measures a Deref with a history checker
// attached: the object's checker id, the ticket and one event append on
// top of the walk. Each round of derefs runs against a fresh domain and
// history, so the event streams never fill up and drop events.
func BenchmarkDerefRecorded(b *testing.B) {
	const objects, round = 64, 1 << 14
	b.ReportAllocs()
	var sum int
	for done := 0; done < b.N; {
		b.StopTimer()
		opts := DefaultOptions()
		opts.Check = check.NewHistory(round + 16)
		d := NewDomain[payload](opts)
		h := d.Register()
		objs := make([]*Object[payload], objects)
		for i := range objs {
			objs[i] = NewObject(payload{A: i})
		}
		n := min(round, b.N-done)
		b.StartTimer()
		h.ReadLock()
		for i := 0; i < n; i++ {
			sum += h.Deref(objs[i%objects]).A
		}
		h.ReadUnlock()
		b.StopTimer()
		h.Unregister()
		d.Close()
		done += n
		b.StartTimer()
	}
	if sum < 0 {
		b.Fatal("unreachable")
	}
}
