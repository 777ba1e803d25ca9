package kvstore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mvrlu/internal/check"
	"mvrlu/internal/core"
)

// TestHashTxnAtomicVisibility: a transaction on a hash build spans
// several slots, and its one commit must be all-or-nothing to a reader's
// one-snapshot prefix scan. Two writers apply the same key set in
// opposite orders, so a body committed slot by slot shows up as a torn
// snapshot, and slot locks taken in body order instead of slot order
// deadlock.
func TestHashTxnAtomicVisibility(t *testing.T) {
	keys := []string{"t:a", "t:b", "t:c", "t:d", "t:e"}
	slots := map[int]bool{}
	for _, k := range keys {
		slots[slotOf(hashString(k), DefaultSlots)] = true
	}
	if len(slots) < 2 {
		t.Fatalf("keys %v land on %d slot(s); the test needs at least 2", keys, len(slots))
	}
	for _, name := range []string{"mvrlu-kv", "rlu-kv", "vanilla"} {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, DefaultSlots, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			var stop atomic.Bool
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					sess := s.Session()
					defer sess.Close()
					for !stop.Load() {
						var vals []string
						sess.ForEachPrefix("t:", func(_, v string) bool {
							vals = append(vals, v)
							return true
						})
						if len(vals) == 0 {
							continue
						}
						if len(vals) != len(keys) {
							t.Errorf("torn txn: saw %d of %d keys", len(vals), len(keys))
							return
						}
						for _, v := range vals[1:] {
							if v != vals[0] {
								t.Errorf("torn txn: values %v", vals)
								return
							}
						}
					}
				}()
			}

			var writers sync.WaitGroup
			for w := 0; w < 2; w++ {
				order := slices.Clone(keys)
				if w == 1 {
					slices.Reverse(order)
				}
				writers.Add(1)
				go func() {
					defer writers.Done()
					sess := s.Session().(TxnSession)
					defer sess.Close()
					for gen := 0; gen < 100 && !t.Failed(); gen++ {
						ops := make([]TxnOp, len(order))
						for i, k := range order {
							ops[i] = TxnOp{Key: k, Value: fmt.Sprintf("w%d-g%03d", w, gen)}
						}
						sess.ApplyTxn(ops)
					}
				}()
			}
			writers.Wait()
			stop.Store(true)
			readers.Wait()

		})
	}
}

// TestSlotLocksAscending: whatever order a body names its keys in, a hash
// tower takes each of their slots once, in ascending slot order — the one
// order that keeps two bodies over overlapping slots from deadlocking.
// The concurrent test above seldom interleaves two lock acquisitions
// closely enough to hang on a wrong order, so this checks the order
// itself.
func TestSlotLocksAscending(t *testing.T) {
	var keys []string
	var want []int
	for i := 0; i < 2*DefaultSlots; i++ { // more keys than slots: some share
		k := fmt.Sprintf("t:%d", i)
		keys = append(keys, k)
		if sl := slotOf(hashString(k), DefaultSlots); !slices.Contains(want, sl) {
			want = append(want, sl)
		}
	}
	slices.Sort(want)
	reversed := slices.Clone(keys)
	slices.Reverse(reversed)
	w := slotWriter{locks: make(slotLocks, DefaultSlots)}
	for _, order := range [][]string{keys, reversed} {
		ops := make([]TxnOp, len(order))
		keep := make([]int, len(order))
		for i, k := range order {
			ops[i], keep[i] = TxnOp{Key: k, Value: "v"}, i
		}
		w.Lock(ops, keep)
		got := slices.Clone(w.held)
		w.Unlock()
		if !slices.Equal(got, want) {
			t.Fatalf("slots locked in order %v, want %v", got, want)
		}
	}
}

// TestKVCheckCatchesSplitBody is the hash builds' checker tooth, and
// deterministic: a reader walks the store while a two-key body commits,
// on the writer's goroutine (an MV-RLU reader never waits for a writer),
// and CheckKV must find the history clean. Built with -tags
// mvrlu_mutate, mvrlu-kv commits the body as two Executes and the reader
// walks in the gap between them, seeing the first key new and the second
// old: CheckKV reports the torn body (kv-range-snapshot or kv-torn-txn),
// and the test must fail on every run — the check-si gate asserts it
// does. Without the tag there is no gap: the reader walks after the one
// commit, and the test is the clean control.
func TestKVCheckCatchesSplitBody(t *testing.T) {
	s := NewMVRLUStore(4, 64, core.DefaultOptions())
	defer s.Close()
	h := check.NewHistory(0)
	s.AttachKVHistory(h)
	writer, reader := s.Session().(TxnSession), s.Session()
	defer writer.Close()
	defer reader.Close()
	writer.Set("s:a", "a0")
	writer.Set("s:b", "b0")

	walks := 0
	walk := func() {
		reader.ForEach(func(k, v string) bool { return true })
		walks++
	}
	splitBodyGap = walk
	defer func() { splitBodyGap = func() {} }()
	writer.ApplyTxn([]TxnOp{{Key: "s:a", Value: "a1"}, {Key: "s:b", Value: "b1"}})
	if walks == 0 {
		walk()
	}
	if rep := check.CheckKV(h, check.Opts{Boundary: s.Boundary()}); !rep.Ok() || rep.Sections != 1 {
		t.Fatalf("CheckKV: %s", rep)
	}
}

// TestKVCheckCatchesLateBucket is the bucket table's checker tooth, and
// deterministic: a Set links a key into a bucket that was empty, and a
// reader walks the store once the commit is recorded, on the writer's
// goroutine. Built with -tags mvrlu_mutate, mvrlu-kv stores the new
// sentinel only at Unlock, after calling lateBucketGap: the reader walks
// in that gap, its snapshot follows the recorded commit, yet the bucket
// still reads empty, so CheckKV reports kv-range-missing, and the test
// must fail on every run (the check-si gate asserts it does). Without
// the tag there is no gap: the reader walks after Set returns, and the
// test is the clean control. The exact global clock keeps the check
// free of ORDO's ambiguity window, so one walk suffices.
func TestKVCheckCatchesLateBucket(t *testing.T) {
	opts := core.DefaultOptions()
	opts.ClockMode = core.ClockGlobal
	s := NewMVRLUStore(4, 64, opts)
	defer s.Close()
	h := check.NewHistory(0)
	s.AttachKVHistory(h)
	writer, reader := s.Session(), s.Session()
	defer writer.Close()
	defer reader.Close()

	walks := 0
	walk := func() {
		reader.ForEachPrefix("b:", func(k, v string) bool { return true })
		walks++
	}
	lateBucketGap = walk
	defer func() { lateBucketGap = func() {} }()
	writer.Set("b:new", "v0")
	if walks == 0 {
		walk()
	}
	if rep := check.CheckKV(h, check.Opts{Boundary: s.Boundary()}); !rep.Ok() || rep.Sections != 1 {
		t.Fatalf("CheckKV: %s", rep)
	}
}
