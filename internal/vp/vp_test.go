package vp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/clock"
)

type rec struct {
	Val  int
	Next *Obj[rec]
}

func TestReadWrite(t *testing.T) {
	d := NewDomain[rec]()
	s := d.Register()
	o := NewObj(d, rec{Val: 1})

	s.Begin()
	if got := s.Read(o).Val; got != 1 {
		t.Fatalf("got %d", got)
	}
	if !s.Write(o, rec{Val: 2}) {
		t.Fatal("write failed")
	}
	s.Commit()

	s.Begin()
	if got := s.Read(o).Val; got != 2 {
		t.Fatalf("after commit got %d", got)
	}
	s.Commit()
}

func TestSnapshotIgnoresPending(t *testing.T) {
	d := NewDomain[rec]()
	w, r := d.Register(), d.Register()
	o := NewObj(d, rec{Val: 1})

	w.Begin()
	w.Write(o, rec{Val: 2})

	r.Begin()
	if got := r.Read(o).Val; got != 1 {
		t.Fatalf("pending write visible: %d", got)
	}
	r.Commit()
	w.Commit()

	r.Begin()
	if got := r.Read(o).Val; got != 2 {
		t.Fatalf("committed write invisible: %d", got)
	}
	r.Commit()
}

// TestReaderStampsSealedCommit stops a two-object commit after its seal,
// before the epoch is drawn. A reader that meets the sealed descriptor
// must not wait for the writer: it stamps an epoch of its own, above its
// snapshot, and reads both old values. The writer then commits at the
// reader's stamp.
func TestReaderStampsSealedCommit(t *testing.T) {
	d := NewDomain[rec]()
	w, r := d.Register(), d.Register()
	x, y := NewObj(d, rec{Val: 1}), NewObj(d, rec{Val: -1})
	w.Begin()
	if !w.Write(x, rec{Val: 2}) || !w.Write(y, rec{Val: -2}) {
		t.Fatal("write failed")
	}
	tx := w.tx
	tx.Seal() // Commit's front half, by hand

	read := make(chan [2]int, 1)
	go func() {
		r.Begin()
		read <- [2]int{r.Read(x).Val, r.Read(y).Val}
	}()
	select {
	case got := <-read:
		if got != [2]int{1, -1} {
			t.Fatalf("reader at a sealed commit saw x=%d y=%d, want 1 -1", got[0], got[1])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("reader waited on a sealed commit")
	}
	stamped := tx.Load()
	if stamped >= clock.Aborted || stamped <= r.snap.Load() {
		t.Fatalf("descriptor %d after a reader at %d met it, want a stamp above the reader", stamped, r.snap.Load())
	}
	w.Commit()
	if got := tx.Load(); got != stamped {
		t.Fatalf("writer committed at %d, want the reader's stamp %d", got, stamped)
	}
	if gx, gy := r.Read(x).Val, r.Read(y).Val; gx != 1 || gy != -1 {
		t.Fatalf("snapshot moved after the commit: x=%d y=%d", gx, gy)
	}
	r.Commit()
	r.Begin()
	if gx, gy := r.Read(x).Val, r.Read(y).Val; gx != 2 || gy != -2 {
		t.Fatalf("after the commit x=%d y=%d, want 2 -2", gx, gy)
	}
	r.Commit()
}

func TestAbortedVersionsInvisible(t *testing.T) {
	d := NewDomain[rec]()
	s := d.Register()
	o := NewObj(d, rec{Val: 1})
	s.Begin()
	s.Write(o, rec{Val: 99})
	s.Abort()
	s.Begin()
	if got := s.Read(o).Val; got != 1 {
		t.Fatalf("aborted write visible: %d", got)
	}
	s.Commit()
	// The aborted version still occupies the chain until pruning — the
	// overhead the paper describes.
	if n := s.chainLen(o); n < 2 {
		t.Fatalf("aborted version should linger in chain, len=%d", n)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	d := NewDomain[rec]()
	a, b := d.Register(), d.Register()
	o := NewObj(d, rec{})
	a.Begin()
	if !a.Write(o, rec{Val: 1}) {
		t.Fatal("first write failed")
	}
	b.Begin()
	if b.Write(o, rec{Val: 2}) {
		t.Fatal("conflicting write succeeded")
	}
	b.Abort()
	a.Commit()
}

// TestAbortedHeadDoesNotMaskConflict is the deterministic reproducer
// for a lost-update window that used to surface as a rare (~1/40)
// linearizability failure in the concurrent suites: Write's conflict
// checks inspected only the literal chain head, so an ABORTED head —
// which fails both the active-writer and the committed-newer checks —
// masked the committed version beneath it. A stale-snapshot writer then
// slipped past the write-latest rule and overwrote state it never saw.
//
// Sequence: C snapshots; A commits a newer version; B aborts on top of
// it (aborted head); C writes. C's snapshot predates A's commit, so the
// write must be refused.
func TestAbortedHeadDoesNotMaskConflict(t *testing.T) {
	d := NewDomain[rec]()
	a, b, c := d.Register(), d.Register(), d.Register()
	o := NewObj(d, rec{Val: 1})

	c.Begin() // snapshot before A's commit

	a.Begin()
	if !a.Write(o, rec{Val: 2}) {
		t.Fatal("A's write failed")
	}
	a.Commit()

	b.Begin()
	if !b.Write(o, rec{Val: 3}) {
		t.Fatal("B's write failed")
	}
	b.Abort() // chain head is now an aborted version over A's commit

	if c.Write(o, rec{Val: 99}) {
		t.Fatal("stale-snapshot write succeeded past an aborted head (lost update)")
	}
	c.Abort()

	s := d.Register()
	s.Begin()
	if got := s.Read(o).Val; got != 2 {
		t.Fatalf("latest = %d, want A's committed 2", got)
	}
	s.Commit()
}

func TestPruneBoundsChains(t *testing.T) {
	d := NewDomain[rec]()
	s := d.Register()
	o := NewObj(d, rec{})
	for i := 0; i < 200; i++ {
		s.Execute(func(s *Session[rec]) bool {
			return s.Write(o, rec{Val: i})
		})
	}
	if n := s.chainLen(o); n > d.PruneLen*2+2 {
		t.Fatalf("chain unbounded: %d", n)
	}
	s.Begin()
	if got := s.Read(o).Val; got != 199 {
		t.Fatalf("latest = %d", got)
	}
	s.Commit()
}

func TestConcurrentCounter(t *testing.T) {
	d := NewDomain[rec]()
	o := NewObj(d, rec{})
	const goroutines, increments = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.Register()
			for i := 0; i < increments; i++ {
				s.Execute(func(s *Session[rec]) bool {
					c, ok := s.ReadWrite(o)
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
	s := d.Register()
	s.Begin()
	got := s.Read(o).Val
	s.Commit()
	if got != goroutines*increments {
		t.Fatalf("counter %d, want %d", got, goroutines*increments)
	}
}

func TestSnapshotSumInvariant(t *testing.T) {
	d := NewDomain[rec]()
	x := NewObj(d, rec{Val: 50})
	y := NewObj(d, rec{Val: -50})
	var stop atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := d.Register()
		for !stop.Load() {
			s.Execute(func(s *Session[rec]) bool {
				a, ok := s.ReadWrite(x)
				if !ok {
					return false
				}
				b, ok := s.ReadWrite(y)
				if !ok {
					return false
				}
				a.Val++
				b.Val--
				return true
			})
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := d.Register()
			for !stop.Load() {
				s.Begin()
				sum := s.Read(x).Val + s.Read(y).Val
				s.Commit()
				if sum != 0 {
					bad.Add(1)
				}
			}
		}()
	}
	time.Sleep(80 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d torn snapshots", bad.Load())
	}
}
