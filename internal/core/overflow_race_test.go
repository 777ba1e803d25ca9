package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDynamicLogOverflowDeterministic drives a writer through a tiny log
// behind a pinned reader: the log fills, allocSlot places versions past
// its ceiling, and — because the reader entered
// before every write — the reader's snapshot must keep reading the
// initial values the whole time (snapshot isolation across the
// ceiling).
func TestDynamicLogOverflowDeterministic(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 16 // highSlots = 12
	opts.DynamicLog = true
	opts.StallThreshold = -1
	d := newTestDomain(t, opts)

	const n = 4
	var objs [n]*Object[payload]
	for i := range objs {
		objs[i] = NewObject(payload{A: 100 + i})
	}
	reader := d.Register()
	writer := d.Register()
	reader.ReadLock()

	for round := 0; round < 10; round++ { // 40 commits through a 12-slot window
		for i := 0; i < n; i++ {
			i, round := i, round
			writer.Execute(func(th *Thread[payload]) bool {
				c, ok := th.TryLock(objs[i])
				if !ok {
					return false
				}
				c.A = 1000*round + i
				return true
			})
			// The pinned snapshot predates every write: it must keep
			// seeing the initial values, past the ceiling too.
			if got := reader.Deref(objs[i]).A; got != 100+i {
				t.Fatalf("snapshot broken at round %d: objs[%d] = %d, want %d", round, i, got, 100+i)
			}
		}
	}
	reader.ReadUnlock()

	s := d.Stats()
	if s.OverflowAllocs == 0 {
		t.Fatal("no version placed past the ceiling: the dynamic-log path was never exercised")
	}
	// After the reader exits, the latest committed values win.
	reader.ReadLock()
	for i := range objs {
		if got := reader.Deref(objs[i]).A; got != 9000+i {
			t.Fatalf("final value objs[%d] = %d, want %d", i, got, 9000+i)
		}
	}
	reader.ReadUnlock()
	for i := range objs {
		if err := d.CheckObject(objs[i]); err != nil {
			t.Fatalf("objs[%d]: %v", i, err)
		}
	}
}

// TestDynamicLogOverflowRace interleaves writers that grow their logs
// past the ceiling, write-set header reuse, an on/off pinning reader, and concurrent
// snapshot validators, under -race in CI. The invariant is exact
// conservation of the account total in every snapshot.
func TestDynamicLogOverflowRace(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 16
	opts.DynamicLog = true
	opts.GPInterval = time.Millisecond
	opts.StallThreshold = -1
	d := newTestDomain(t, opts)

	const nAccounts = 8
	const initial = 500
	var accounts [nAccounts]*Object[payload]
	for i := range accounts {
		accounts[i] = NewObject(payload{A: initial})
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Pin/unpin cycles: each pinned window wedges the tiny logs and
	// forces writers through the overflow path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		pinner := d.Register()
		defer pinner.Unregister()
		for !stop.Load() {
			pinner.ReadLock()
			sum := 0
			for _, a := range accounts {
				sum += pinner.Deref(a).A
			}
			if sum != nAccounts*initial {
				t.Errorf("pinned snapshot sum %d, want %d", sum, nAccounts*initial)
			}
			time.Sleep(3 * time.Millisecond)
			pinner.ReadUnlock()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			for i := 0; !stop.Load(); i++ {
				from := (w + i) % nAccounts
				to := (from + 1 + (i*7)%(nAccounts-1)) % nAccounts
				h.Execute(func(th *Thread[payload]) bool {
					src, ok := th.TryLock(accounts[from])
					if !ok {
						return false
					}
					dst, ok := th.TryLock(accounts[to])
					if !ok {
						return false
					}
					src.A--
					dst.A++
					return true
				})
				if i%32 == 0 {
					h.ReadLock()
					sum := 0
					for _, a := range accounts {
						sum += h.Deref(a).A
					}
					if sum != nAccounts*initial {
						t.Errorf("worker %d snapshot sum %d, want %d", w, sum, nAccounts*initial)
					}
					h.ReadUnlock()
				}
			}
		}(w)
	}

	time.Sleep(250 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	s := d.Stats()
	if s.OverflowAllocs == 0 {
		t.Log("note: no overflow versions allocated this run (timing-dependent)")
	}
	h := d.Register()
	h.ReadLock()
	sum := 0
	for _, a := range accounts {
		sum += h.Deref(a).A
	}
	h.ReadUnlock()
	if sum != nAccounts*initial {
		t.Fatalf("final sum %d, want %d", sum, nAccounts*initial)
	}
	for i, a := range accounts {
		if err := d.CheckObject(a); err != nil {
			t.Fatalf("account %d: %v", i, err)
		}
	}
}

// TestAbortHeavyRollbackRace hammers two objects from eight writers so
// most TryLocks lose and most sections roll back, interleaving rollback's
// head-rewind with pooled write-set header recycling and commits. Run
// under -race in CI; the account pair must conserve its total in every
// snapshot and at quiescence.
func TestAbortHeavyRollbackRace(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 64
	opts.GPInterval = time.Millisecond
	d := newTestDomain(t, opts)
	a := NewObject(payload{A: 1 << 20})
	b := NewObject(payload{A: 0})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			for i := 0; !stop.Load(); i++ {
				first, second := a, b
				if (w+i)%2 == 0 {
					first, second = b, a
				}
				h.Execute(func(th *Thread[payload]) bool {
					x, ok := th.TryLock(first)
					if !ok {
						return false
					}
					y, ok := th.TryLock(second)
					if !ok {
						return false
					}
					x.A--
					y.A++
					return true
				})
				if i%64 == 0 {
					h.ReadLock()
					if got := h.Deref(a).A + h.Deref(b).A; got != 1<<20 {
						t.Errorf("snapshot total %d, want %d", got, 1<<20)
					}
					h.ReadUnlock()
				}
			}
		}(w)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	s := d.Stats()
	if s.Aborts == 0 {
		t.Fatal("no aborts under 8-way contention on two objects")
	}
	if s.Commits == 0 {
		t.Fatal("no commits: livelock")
	}
	h := d.Register()
	h.ReadLock()
	if got := h.Deref(a).A + h.Deref(b).A; got != 1<<20 {
		t.Fatalf("final total %d, want %d", got, 1<<20)
	}
	h.ReadUnlock()
	if err := d.CheckObject(a); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckObject(b); err != nil {
		t.Fatal(err)
	}
}
