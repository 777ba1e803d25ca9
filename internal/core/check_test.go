package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/check"
	"mvrlu/internal/failpoint"
)

// TestCheckerLiveEngine runs concurrent workloads with the history
// recorder attached and requires a clean checker verdict, across the
// clock modes and a tiny log that forces reclamation traffic. Run with
// -race for the full S4 gate.
func TestCheckerLiveEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("checker torture skipped in -short mode")
	}
	configs := []struct {
		name string
		opts func() Options
	}{
		{"default", DefaultOptions},
		{"skew-window", func() Options {
			o := DefaultOptions()
			o.OrdoWindow = uint64(20 * time.Microsecond)
			return o
		}},
		{"global-clock", func() Options {
			o := DefaultOptions()
			o.ClockMode = ClockGlobal
			return o
		}},
		{"tiny-log", func() Options {
			o := DefaultOptions()
			o.LogSlots = 64
			o.GPInterval = 50 * time.Microsecond
			return o
		}},
		{"single-collector", func() Options {
			o := DefaultOptions()
			o.GCMode = GCSingleCollector
			o.LogSlots = 256
			return o
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts()
			h := check.NewHistory(0)
			opts.Check = h
			runCheckedWorkload(t, opts, h, 150*time.Millisecond)
		})
	}
}

// runCheckedWorkload drives transfers, frees, const validations, and
// snapshot scans with recording on, then checks the history.
func runCheckedWorkload(t *testing.T, opts Options, h *check.History, dur time.Duration) {
	t.Helper()
	d := NewDomain[payload](opts)
	const threads, objects = 4, 12

	accounts := make([]*Object[payload], objects)
	for i := range accounts {
		accounts[i] = NewObject(payload{A: 1000, B: i})
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := d.Register()
			defer th.Unregister()
			rng := rand.New(rand.NewSource(int64(id)*7919 + 3))
			for !stop.Load() {
				switch rng.Intn(8) {
				case 0, 1, 2: // snapshot scan
					th.ReadLock()
					sum := 0
					for _, o := range accounts {
						sum += th.Deref(o).A
					}
					th.ReadUnlock()
					if sum != objects*1000 {
						t.Error("conservation violated")
						stop.Store(true)
					}
				case 3, 4, 5: // transfer
					i, j := rng.Intn(objects), rng.Intn(objects)
					if i == j {
						continue
					}
					th.Execute(func(th *Thread[payload]) bool {
						ci, ok := th.TryLock(accounts[i])
						if !ok {
							return false
						}
						cj, ok := th.TryLock(accounts[j])
						if !ok {
							return false
						}
						ci.A -= 7
						cj.A += 7
						return true
					})
				case 6: // const validation alongside a real write
					i, j := rng.Intn(objects), rng.Intn(objects)
					if i == j {
						continue
					}
					th.Execute(func(th *Thread[payload]) bool {
						if !th.TryLockConst(accounts[i]) {
							return false
						}
						cj, ok := th.TryLock(accounts[j])
						if !ok {
							return false
						}
						cj.B = th.Deref(accounts[i]).B
						return true
					})
				default: // reader that aborts
					th.ReadLock()
					_ = th.Deref(accounts[rng.Intn(objects)])
					th.Abort()
				}
			}
		}(g)
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	d.Close()

	rep := check.Check(h, check.Opts{Boundary: d.Boundary()})
	if !rep.Ok() {
		t.Fatalf("checker verdict on a correct engine:\n%s", rep)
	}
	if rep.Sections == 0 || rep.Commits == 0 || rep.Derefs == 0 {
		t.Fatalf("history recorded nothing useful: %s", rep)
	}
	t.Logf("%s", rep)
}

// TestCheckerIdleTrim puts the detector's collection of other threads'
// logs under the checker: writers commit transfers in bursts and go
// idle between them past the trim threshold, while readers keep taking
// snapshot sums. The trims then run — GC passes, write-backs and slot
// resets on a log whose owner is idle — concurrently with the readers,
// and the history must stay clean. A writer sits out each idle spell
// until its log is empty, which outside a section only a trim (or, in
// single-collector mode, the collector) can do, so the test also counts
// the spells the detector emptied.
func TestCheckerIdleTrim(t *testing.T) {
	if testing.Short() {
		t.Skip("checker torture skipped in -short mode")
	}
	for _, c := range gcModes {
		t.Run(c.name, func(t *testing.T) {
			hist := check.NewHistory(0)
			opts := DefaultOptions()
			opts.GCMode = c.mode
			opts.GPInterval = 50 * time.Microsecond // a 0.8 ms idle threshold
			opts.Check = hist
			d := NewDomain[payload](opts)
			const writers, readers, objects = 2, 2, 12
			accounts := make([]*Object[payload], objects)
			for i := range accounts {
				accounts[i] = NewObject(payload{A: 1000})
			}
			var stop atomic.Bool
			var emptied atomic.Int64
			var wg sync.WaitGroup
			for g := range writers + readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := d.Register()
					defer th.Unregister()
					rng := rand.New(rand.NewSource(int64(g)*7919 + 5))
					for !stop.Load() {
						if g >= writers {
							th.ReadLock()
							sum := 0
							for _, o := range accounts {
								sum += th.Deref(o).A
							}
							th.ReadUnlock()
							if sum != objects*1000 {
								t.Error("conservation violated")
								stop.Store(true)
							}
							// A reader that never sleeps would starve
							// the detector's ticks on a small host.
							time.Sleep(20 * time.Microsecond)
							continue
						}
						for range 1 + rng.Intn(3*logSegSlots) {
							i, j := rng.Intn(objects), rng.Intn(objects)
							if i == j {
								continue
							}
							th.Execute(func(th *Thread[payload]) bool {
								ci, ok := th.TryLock(accounts[i])
								if !ok {
									return false
								}
								cj, ok := th.TryLock(accounts[j])
								if !ok {
									return false
								}
								ci.A -= 7
								cj.A += 7
								return true
							})
						}
						for idle := time.Now(); time.Since(idle) < 20*time.Millisecond && !stop.Load(); {
							if th.LogOccupancy() == 0 {
								emptied.Add(1)
								break
							}
							time.Sleep(100 * time.Microsecond)
						}
					}
				}()
			}
			time.Sleep(300 * time.Millisecond)
			stop.Store(true)
			wg.Wait()
			d.Close()

			rep := check.Check(hist, check.Opts{Boundary: d.Boundary()})
			if !rep.Ok() {
				t.Fatalf("checker verdict on idle trims:\n%s", rep)
			}
			if emptied.Load() == 0 {
				t.Fatal("no idle writer's log was ever emptied")
			}
			t.Logf("%d idle spells emptied; %s", emptied.Load(), rep)
		})
	}
}

// TestCheckerNamesEarlySlotReset: a log segment is released, and its
// slots reset for reuse, only once the tail has passed every slot in it,
// and the checker's reset-before-reclaim rule names a slot reset ahead of
// the tail. Const copies, reclaimable at commit, fill segment 0 but for
// its last slot, where a chain head that a pinned reader keeps
// unreclaimable stops the tail; the segment is released once the reader
// has left, and every slot reset must follow its version's reclaim in
// the history. The detector is down: the test steps reclamation itself.
func TestCheckerNamesEarlySlotReset(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	hist := check.NewHistory(0)
	opts := DefaultOptions()
	opts.Check = hist
	d := newTestDomain(t, opts)
	z, y := NewObject(payload{}), NewObject(payload{})
	h := d.Register()
	defer h.Unregister()
	write := func(o *Object[payload], v int) {
		t.Helper()
		h.ReadLock()
		c, ok := h.TryLock(o)
		if !ok {
			t.Fatalf("TryLock failed at head %d", h.headC)
		}
		c.A = v
		h.ReadUnlock()
	}
	step := func() {
		d.refreshWatermark()
		h.collect()
	}
	for h.headC%logSegSlots != logSegSlots-1 {
		h.ReadLock()
		if !h.TryLockConst(z) {
			t.Fatalf("TryLockConst failed at head %d", h.headC)
		}
		h.ReadUnlock()
	}
	write(y, 1) // the last slot of segment 0
	r := d.Register()
	r.ReadLock()
	step() // y is written back at a prune stamp above the reader
	tail := h.pin.tail.Load()
	r.ReadUnlock()
	r.Unregister()
	if tail != logSegSlots-1 {
		t.Fatalf("tail %d with the reader pinned, want %d", tail, logSegSlots-1)
	}
	for i := 0; h.segLo == 0; i++ {
		if i == 2*logSegSlots {
			t.Fatal("segment 0 was never released")
		}
		write(z, i)
		step()
	}
	rep := check.Check(hist, check.Opts{Boundary: d.Boundary()})
	if !rep.Ok() {
		t.Fatalf("checker verdict:\n%s", rep)
	}
	if rep.SlotResets != logSegSlots {
		t.Fatalf("%d slot resets recorded, want the %d of segment 0: %s", rep.SlotResets, logSegSlots, rep)
	}
}

// TestDerefOrdoWindowRegression is the S1 regression: a commit stamped
// at now+B must stay invisible until readers are unambiguously past it
// — for entry timestamps inside [cts, cts+B) the version is ambiguous
// and Deref must keep returning the old data. Before the fix the walk
// accepted any cts <= ts, making the commit visible a full window too
// early.
func TestDerefOrdoWindowRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based; skipped in -short mode")
	}
	const window = 100 * time.Millisecond
	opts := DefaultOptions()
	opts.OrdoWindow = uint64(window)
	d := NewDomain[payload](opts)
	defer d.Close()
	th := d.Register()
	defer th.Unregister()

	obj := NewObject(payload{A: 1})
	t0 := time.Now() // lower bound on the commit's clock draw
	th.Execute(func(th *Thread[payload]) bool {
		c, ok := th.TryLock(obj)
		if !ok {
			return false
		}
		c.A = 2
		return true
	})

	// Poll until the new value surfaces. Safety: any read entered less
	// than 2B after t0 has ts < cts+B and must still see 1. Liveness:
	// past ~3B the new value must be visible.
	sawAmbiguousWindow := false
	for {
		entry := time.Since(t0)
		th.ReadLock()
		v := th.Deref(obj).A
		th.ReadUnlock()
		switch v {
		case 1:
			if entry >= window && entry < 2*window {
				sawAmbiguousWindow = true
			}
		case 2:
			// entry was measured before ReadLock, so it understates the
			// entry timestamp; seeing 2 this early is a real violation.
			if entry < 2*window-time.Millisecond {
				t.Fatalf("new version visible %v after commit; ambiguous until %v", entry, 2*window)
			}
			if !sawAmbiguousWindow {
				t.Log("no poll landed inside the ambiguity window (heavy scheduling noise?)")
			}
			return
		default:
			t.Fatalf("impossible value %d", v)
		}
		if entry > 4*window {
			t.Fatalf("new version still invisible %v after commit", entry)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConstLockChainAndFree is the S2 regression: TryLockConst commits
// are validation-only — they must never stamp a version into the
// object's chain — and Free through a const lock must be refused, not
// silently discarded at commit.
func TestConstLockChainAndFree(t *testing.T) {
	opts := DefaultOptions()
	// Keep GC quiet so chain lengths are deterministic.
	opts.LowCapacity = 0
	opts.DerefRatio = 0
	hist := check.NewHistory(0)
	opts.Check = hist
	d := NewDomain[payload](opts)
	defer d.Close()
	th := d.Register()
	defer th.Unregister()

	obj := NewObject(payload{A: 1})
	other := NewObject(payload{A: 10})
	th.Execute(func(th *Thread[payload]) bool {
		c, ok := th.TryLock(obj)
		if !ok {
			return false
		}
		c.A = 2
		return true
	})
	n0 := d.ChainLen(obj)
	if n0 == 0 {
		t.Fatal("real commit should have chained a version")
	}

	for i := 0; i < 10; i++ {
		th.Execute(func(th *Thread[payload]) bool {
			if !th.TryLockConst(obj) {
				return false
			}
			c, ok := th.TryLock(other)
			if !ok {
				return false
			}
			c.A++
			return true
		})
	}
	if n := d.ChainLen(obj); n != n0 {
		t.Fatalf("const commits changed chain length: %d -> %d", n0, n)
	}

	// Free through a const lock must be refused...
	th.ReadLock()
	if !th.TryLockConst(obj) {
		t.Fatal("uncontended TryLockConst failed")
	}
	if th.Free(obj) {
		t.Fatal("Free succeeded through a const lock")
	}
	th.Abort()
	// ...and the object must remain live and intact.
	if obj.Freed() {
		t.Fatal("object freed through a const lock")
	}
	th.ReadLock()
	if v := th.Deref(obj).A; v != 2 {
		t.Fatalf("value corrupted: %d", v)
	}
	th.ReadUnlock()

	d.Close()
	rep := check.Check(hist, check.Opts{Boundary: d.Boundary()})
	if !rep.Ok() {
		t.Fatalf("checker verdict:\n%s", rep)
	}
}
