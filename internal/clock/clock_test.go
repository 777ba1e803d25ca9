package clock

import (
	"sync"
	"testing"
)

func TestHardwareMonotonic(t *testing.T) {
	h := &Hardware{}
	prev := uint64(0)
	for i := 0; i < 10000; i++ {
		now := h.Now()
		if now < prev {
			t.Fatalf("clock went backwards: %d after %d", now, prev)
		}
		prev = now
	}
	if prev == 0 || prev == Infinity {
		t.Fatal("implausible timestamp")
	}
}

func TestHardwareNeverReturnsReservedValues(t *testing.T) {
	h := &Hardware{}
	for i := 0; i < 1000; i++ {
		now := h.Now()
		if now == 0 {
			t.Fatal("clock returned 0 (reserved for 'quiescent')")
		}
		if now == Infinity {
			t.Fatal("clock returned Infinity (reserved for 'uncommitted')")
		}
	}
}

func TestHardwareBoundary(t *testing.T) {
	h := &Hardware{}
	if h.Boundary() != 0 {
		t.Fatalf("default boundary %d, want 0 (single monotonic source)", h.Boundary())
	}
	h.Window = 123
	if h.Boundary() != 123 {
		t.Fatal("window not honoured")
	}
}

func TestGlobalStrictlyIncreasing(t *testing.T) {
	g := &Global{}
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		now := g.Now()
		if now <= prev {
			t.Fatalf("global clock not strictly increasing: %d after %d", now, prev)
		}
		prev = now
	}
	if g.Boundary() != 0 {
		t.Fatal("global clock must be totally ordered")
	}
}

func TestCommitWordStampsOnce(t *testing.T) {
	var w CommitWord
	w.Reset()
	if got := w.Load(); got != Pending {
		t.Fatalf("reset word reads %d, want Pending", got)
	}
	w.Seal()
	if got := w.Load(); got != Committing {
		t.Fatalf("sealed word reads %d, want Committing", got)
	}
	if got := w.Stamp(7); got != 7 {
		t.Fatalf("first stamp returned %d, want 7", got)
	}
	if got := w.Stamp(9); got != 7 {
		t.Fatalf("second stamp returned %d, want the winner 7", got)
	}
	w.Seal()
	if got := w.Load(); got != 7 {
		t.Fatalf("Seal overwrote the stamp: %d", got)
	}
	w.Reset()
	w.Abort()
	if got := w.Load(); got != Aborted {
		t.Fatalf("aborted word reads %d", got)
	}
}

// TestLatePublishTearsSnapshot lets a reader enter between a committer's
// draw and its stamp. The reader meets the sealed word, stamps a draw of
// its own above its snapshot, and skips the write set; the committer
// adopts that stamp, so the reader's second look at the same set agrees
// with its first. Built with -tags mvrlu_mutate the word still reads
// Pending in that gap, the committer's earlier draw lands inside the
// reader's snapshot, and the second look sees the set the first skipped.
func TestLatePublishTearsSnapshot(t *testing.T) {
	var g Global
	var w CommitWord
	w.Reset()
	visible := func(snap uint64) bool {
		v := w.Load()
		if v == Committing {
			v = w.Stamp(g.Now())
		}
		return v <= snap
	}
	var snap uint64
	var first bool
	draw := func() uint64 {
		ts := g.Now()
		snap = g.Peek() // a reader enters after the draw
		first = visible(snap)
		return ts
	}
	w.Seal() // every version of the write set is reachable
	cts := w.Stamp(draw())
	if first {
		t.Fatalf("a reader at %d saw a commit that had not stamped yet", snap)
	}
	if visible(snap) {
		t.Fatalf("torn read: the reader at %d skipped the write set, then saw it at %d", snap, cts)
	}
}

func TestGlobalUniqueUnderConcurrency(t *testing.T) {
	g := &Global{}
	const goroutines, draws = 8, 2000
	seen := make([]map[uint64]bool, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		seen[i] = make(map[uint64]bool, draws)
		wg.Add(1)
		go func(m map[uint64]bool) {
			defer wg.Done()
			for j := 0; j < draws; j++ {
				m[g.Now()] = true
			}
		}(seen[i])
	}
	wg.Wait()
	all := make(map[uint64]bool, goroutines*draws)
	for _, m := range seen {
		for ts := range m {
			if all[ts] {
				t.Fatalf("duplicate timestamp %d", ts)
			}
			all[ts] = true
		}
	}
	if len(all) != goroutines*draws {
		t.Fatalf("drew %d unique timestamps, want %d", len(all), goroutines*draws)
	}
}
