package rlu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/clock"
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
	for wc := w.writeC.Load().Load(); wc == clock.Pending || wc == clock.Committing; wc = w.writeC.Load().Load() {
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

// TestReaderStampsSealedFlush stops a two-object flush after its seal,
// before any write clock is drawn. A reader that meets the sealed word
// must not wait for the writer: it stamps a write clock of its own, above
// its entry clock, and reads both old masters. The flush then commits at
// the reader's stamp and waits for that reader in rlu_synchronize.
func TestReaderStampsSealedFlush(t *testing.T) {
	for _, mode := range []ClockMode{ClockGlobal, ClockOrdo} {
		d := NewDomain[item](mode)
		x, y := NewObject(item{Val: 1}), NewObject(item{Val: -1})
		w, r := d.Register(), d.Register()
		w.ReadLock()
		cx, _ := w.TryLock(x)
		cy, _ := w.TryLock(y)
		cx.Val, cy.Val = 2, -2
		w.writeC.Load().Seal() // flush's front half, by hand

		read := make(chan [2]int, 1)
		go func() {
			r.ReadLock()
			read <- [2]int{r.Deref(x).Val, r.Deref(y).Val}
		}()
		select {
		case got := <-read:
			if got != [2]int{1, -1} {
				t.Fatalf("mode %v: reader at a sealed flush saw x=%d y=%d, want 1 -1", mode, got[0], got[1])
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("mode %v: reader waited on a sealed flush", mode)
		}
		stamped := w.writeC.Load().Load()
		if stamped >= clock.Aborted || stamped <= r.SnapshotTS() {
			t.Fatalf("mode %v: write clock %d after a reader at %d met it, want a stamp above the reader", mode, stamped, r.SnapshotTS())
		}

		committed := make(chan struct{})
		go func() {
			w.ReadUnlock()
			close(committed)
		}()
		select {
		case <-committed:
			t.Fatalf("mode %v: flush wrote back under a reader it skipped", mode)
		case <-time.After(20 * time.Millisecond):
		}
		if gx, gy := r.Deref(x).Val, r.Deref(y).Val; gx != 1 || gy != -1 {
			t.Fatalf("mode %v: snapshot moved during the flush: x=%d y=%d", mode, gx, gy)
		}
		r.ReadUnlock()
		<-committed
		if got := w.LastCommitTS(); got != stamped {
			t.Fatalf("mode %v: flush used write clock %d, want the reader's stamp %d", mode, got, stamped)
		}
		r.ReadLock()
		if gx, gy := r.Deref(x).Val, r.Deref(y).Val; gx != 2 || gy != -2 {
			t.Fatalf("mode %v: after the flush x=%d y=%d, want 2 -2", mode, gx, gy)
		}
		r.ReadUnlock()
	}
}

// TestLateStampMissesNextFlush replays Deref's stamp step with the reader
// descheduled between its load and its Stamp. The reader sees one flush
// Committing and draws a write clock; that flush then completes and the
// same thread seals its next flush before the reader's Stamp lands. The
// late Stamp must not become the next flush's write clock: it was drawn
// before that seal, so a reader that entered in between would see one of
// the flush's objects at its old master and steal the other's copy.
func TestLateStampMissesNextFlush(t *testing.T) {
	for _, mode := range []ClockMode{ClockGlobal, ClockOrdo} {
		d := NewDomain[item](mode)
		x, y := NewObject(item{Val: 1}), NewObject(item{Val: 1})
		w := d.Register()
		w.ReadLock()
		cx, _ := w.TryLock(x)
		cx.Val = 2
		w.writeC.Load().Seal()

		e := x.copy.Load() // the reader's Deref of x
		if got := e.writeC.Load(); got != clock.Committing {
			t.Fatalf("mode %v: sealed flush reads %d, want Committing", mode, got)
		}
		late := d.writeClock()

		w.ReadUnlock() // the first flush finishes
		first := w.LastCommitTS()
		w.ReadLock()
		cy, _ := w.TryLock(y)
		cy.Val = 2
		w.writeC.Load().Seal()

		if got := e.writeC.Stamp(late); got != first {
			t.Fatalf("mode %v: late stamp returned %d, want the first flush's write clock %d", mode, got, first)
		}
		if got := w.writeC.Load().Load(); got != clock.Committing {
			t.Fatalf("mode %v: the next flush's word reads %d after a late stamp drawn at %d, want Committing", mode, got, late)
		}
		w.ReadUnlock()
		if got := w.LastCommitTS(); got <= first {
			t.Fatalf("mode %v: next flush committed at %d, want above the first's %d", mode, got, first)
		}
	}
}

// TestOrdoWriteClockAboveReadClock: a write clock must be strictly above
// every read clock taken before it (the CommitWord precondition). With a
// zero window the hardware clock can return one nanosecond twice, so a
// write clock of Now()+Boundary() can equal an earlier reader's entry.
func TestOrdoWriteClockAboveReadClock(t *testing.T) {
	d := NewDomain[item](ClockOrdo)
	for i := 0; i < 1_000_000; i++ {
		if rc, wc := d.readClock(), d.writeClock(); wc <= rc {
			t.Fatalf("draw %d: write clock %d not above read clock %d", i, wc, rc)
		}
	}
}

// TestFreeBlocksRelock: a committed Free stores the domain's freed
// marker in the object's copy word for good. No thread can lock the
// object again, and a Deref from a later section still reads the master,
// as it did before the free.
func TestFreeBlocksRelock(t *testing.T) {
	d := NewDomain[item](ClockGlobal)
	h, h2 := d.Register(), d.Register()
	o := NewObject(item{Val: 1})
	h.ReadLock()
	c, ok := h.TryLock(o)
	if !ok {
		t.Fatal("lock failed")
	}
	c.Val = 2
	if !h.Free(o) {
		t.Fatal("free failed")
	}
	h.ReadUnlock()
	if !o.Freed() || o.copy.Load() != d.freed {
		t.Fatalf("Freed() = %v, copy word %p, want the freed marker", o.Freed(), o.copy.Load())
	}
	for _, th := range []*Thread[item]{h, h2} {
		th.ReadLock()
		if _, ok := th.TryLock(o); ok {
			t.Fatalf("thread %d locked a freed object", th.id)
		}
		if p := th.Deref(o); p != &o.data || p.Val != 1 {
			t.Fatalf("thread %d read %+v, want the master {Val:1}", th.id, *p)
		}
		th.Abort()
	}
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
