package rlu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type item struct {
	Val  int
	Next *Object[item]
}

func TestReadWriteBasic(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	h := d.Register()
	o := NewObject(item{Val: 1})

	h.ReadLock()
	if got := h.Deref(o).Val; got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	c, ok := h.TryLock(o)
	if !ok {
		t.Fatal("TryLock failed")
	}
	c.Val = 2
	h.ReadUnlock()

	h.ReadLock()
	if got := h.Deref(o).Val; got != 2 {
		t.Fatalf("after commit got %d, want 2", got)
	}
	h.ReadUnlock()
}

func TestAbortRollsBack(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	h := d.Register()
	o := NewObject(item{Val: 1})
	h.ReadLock()
	c, _ := h.TryLock(o)
	c.Val = 99
	h.Abort()
	h.ReadLock()
	if got := h.Deref(o).Val; got != 1 {
		t.Fatalf("aborted write visible: %d", got)
	}
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("object still locked after abort")
	}
	h.Abort()
}

func TestWriterConflict(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	h1, h2 := d.Register(), d.Register()
	o := NewObject(item{})
	h1.ReadLock()
	h2.ReadLock()
	if _, ok := h1.TryLock(o); !ok {
		t.Fatal("first lock failed")
	}
	if _, ok := h2.TryLock(o); ok {
		t.Fatal("second lock should fail")
	}
	h2.Abort()
	h1.ReadUnlock()
}

// TestFig2RLUBlocksThirdVersion reproduces Figure 2's RLU half: a writer
// committing while an old reader is active must wait in rlu_synchronize
// until the reader leaves its critical section.
func TestFig2RLUBlocksThirdVersion(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	reader := d.Register()
	writer := d.Register()
	o := NewObject(item{})

	reader.ReadLock() // old reader pins the grace period

	committed := make(chan struct{})
	go func() {
		writer.ReadLock()
		c, ok := writer.TryLock(o)
		if !ok {
			t.Error("writer TryLock failed")
		}
		c.Val = 1
		writer.ReadUnlock() // blocks in rlu_synchronize
		close(committed)
	}()

	select {
	case <-committed:
		t.Fatal("commit finished while an old reader was inside its critical section")
	case <-time.After(20 * time.Millisecond):
	}
	reader.ReadUnlock()
	select {
	case <-committed:
	case <-time.After(time.Second):
		t.Fatal("commit did not finish after reader left")
	}
}

// TestStealCopy: a reader that starts after the write clock is advertised
// must observe the new values from the writer's log even before
// write-back completes.
func TestStealCopy(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	r := d.Register()
	w := d.Register()
	o := NewObject(item{Val: 1})

	blocker := d.Register()
	blocker.ReadLock() // forces the writer to stay in synchronize

	done := make(chan struct{})
	go func() {
		w.ReadLock()
		c, _ := w.TryLock(o)
		c.Val = 2
		w.ReadUnlock()
		close(done)
	}()

	// Wait until the writer advertises its write clock.
	for wc := w.writeC.Load(); wc == infinity || wc == committing; wc = w.writeC.Load() {
		time.Sleep(time.Millisecond)
	}
	r.ReadLock()
	got := r.Deref(o).Val
	r.ReadUnlock()
	if got != 2 {
		t.Fatalf("new reader read %d, want stolen copy value 2", got)
	}
	blocker.ReadUnlock()
	<-done
}

func TestFreeBlocksRelock(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	h := d.Register()
	o := NewObject(item{})
	h.ReadLock()
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("lock failed")
	}
	if !h.Free(o) {
		t.Fatal("free failed")
	}
	h.ReadUnlock()
	if !o.Freed() {
		t.Fatal("not freed")
	}
	h.ReadLock()
	if _, ok := h.TryLock(o); ok {
		t.Fatal("locked a freed object")
	}
	h.Abort()
}

func TestConcurrentCounters(t *testing.T) {
	for _, mode := range []ClockMode{ClockGlobal, ClockOrdo} {
		d := NewDomain[item](mode)
		o := NewObject(item{})
		const goroutines, increments = 6, 300
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := d.Register()
				for i := 0; i < increments; i++ {
					h.Execute(func(h *Thread[item]) bool {
						c, ok := h.TryLock(o)
						if !ok {
							return false
						}
						c.Val++
						return true
					})
				}
			}()
		}
		wg.Wait()
		h := d.Register()
		h.ReadLock()
		got := h.Deref(o).Val
		h.ReadUnlock()
		if got != goroutines*increments {
			t.Fatalf("mode %v: counter = %d, want %d", mode, got, goroutines*increments)
		}
		if s := d.Stats(); s.Commits == 0 {
			t.Fatalf("mode %v: no commits recorded", mode)
		}
	}
}

// TestSnapshotDuringCommit: readers always see either all or none of a
// multi-object write set.
func TestSnapshotDuringCommit(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	x := NewObject(item{Val: 1})
	y := NewObject(item{Val: -1})
	var stop atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		h := d.Register()
		for !stop.Load() {
			h.Execute(func(h *Thread[item]) bool {
				cx, ok := h.TryLock(x)
				if !ok {
					return false
				}
				cy, ok := h.TryLock(y)
				if !ok {
					return false
				}
				cx.Val++
				cy.Val--
				return true
			})
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			for !stop.Load() {
				h.ReadLock()
				sum := h.Deref(x).Val + h.Deref(y).Val
				h.ReadUnlock()
				if sum != 0 {
					violations.Add(1)
				}
			}
		}()
	}
	time.Sleep(80 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d torn snapshots", v)
	}
}
