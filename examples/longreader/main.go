// Longreader: Figure 2 of the paper as a runnable demonstration.
//
// Run with:
//
//	go run ./examples/longreader
//
// A long-running analytical reader pins an old snapshot while writers
// keep updating the same objects. Under RLU (dual-version) every commit
// executes rlu_synchronize and must wait for the reader, so writer
// throughput collapses to the reader's pace. Under MV-RLU the writers
// simply stack more versions — the reader keeps its consistent old
// snapshot, writers never wait, and garbage collection catches up once
// the reader leaves.
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"mvrlu/internal/rlu"
	"mvrlu/mvrlu"
)

type record struct {
	Value int
}

const (
	readerHold = 300 * time.Millisecond
	objects    = 8
)

func runMVRLU(dynamicLog bool) (writes int64, readerConsistent bool) {
	opts := mvrlu.DefaultOptions()
	// With a static log the writer can outrun reclamation while the
	// reader pins the grace period: once the log fills it must wait,
	// as the paper notes (§5). The dynamic-log extension lifts that.
	opts.DynamicLog = dynamicLog
	dom := mvrlu.NewDomain[record](opts)
	defer dom.Close()
	objs := make([]*mvrlu.Object[record], objects)
	for i := range objs {
		objs[i] = mvrlu.NewObject(record{Value: i})
	}

	// The analytical reader enters a critical section and stays there.
	readerDone := make(chan bool)
	readerIn := make(chan struct{})
	go func() {
		h := dom.Register()
		h.ReadLock()
		before := make([]int, objects)
		for i, o := range objs {
			before[i] = h.Deref(o).Value
		}
		close(readerIn)
		time.Sleep(readerHold)
		consistent := true
		for i, o := range objs {
			if h.Deref(o).Value != before[i] {
				consistent = false // snapshot must not move
			}
		}
		h.ReadUnlock()
		readerDone <- consistent
	}()
	<-readerIn

	// Writer hammers updates while the reader is pinned.
	var count atomic.Int64
	stop := make(chan struct{})
	go func() {
		h := dom.Register()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Execute(func(h *mvrlu.Thread[record]) bool {
				c, ok := h.TryLock(objs[i%objects])
				if !ok {
					return false
				}
				c.Value++
				return true
			})
			count.Add(1)
		}
	}()
	consistent := <-readerDone
	close(stop)
	return count.Load(), consistent
}

func runRLU() (writes int64, readerConsistent bool) {
	dom := rlu.NewDomain[record](rlu.ClockGlobal)
	defer dom.Close()
	objs := make([]*rlu.Object[record], objects)
	for i := range objs {
		objs[i] = rlu.NewObject(record{Value: i})
	}

	readerDone := make(chan bool)
	readerIn := make(chan struct{})
	go func() {
		h := dom.Register()
		h.ReadLock()
		before := make([]int, objects)
		for i, o := range objs {
			before[i] = h.Deref(o).Value
		}
		close(readerIn)
		time.Sleep(readerHold)
		consistent := true
		for i, o := range objs {
			if h.Deref(o).Value != before[i] {
				consistent = false
			}
		}
		h.ReadUnlock()
		readerDone <- consistent
	}()
	<-readerIn

	var count atomic.Int64
	stop := make(chan struct{})
	go func() {
		h := dom.Register()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.Execute(func(h *rlu.Thread[record]) bool {
				c, ok := h.TryLock(objs[i%objects])
				if !ok {
					return false
				}
				c.Value++
				return true
			})
			count.Add(1)
		}
	}()
	consistent := <-readerDone
	close(stop)
	return count.Load(), consistent
}

func main() {
	fmt.Printf("a reader holds its critical section for %v while a writer updates %d objects\n\n",
		readerHold, objects)

	rluWrites, rluOK := runRLU()
	fmt.Printf("RLU:                 %8d commits (every commit waits in rlu_synchronize); reader stable: %v\n",
		rluWrites, rluOK)

	mvWrites, mvOK := runMVRLU(false)
	fmt.Printf("MV-RLU (static log): %8d commits (no waiting until the log fills);       reader stable: %v\n",
		mvWrites, mvOK)

	dynWrites, dynOK := runMVRLU(true)
	fmt.Printf("MV-RLU (dynamic):    %8d commits (log grows past its ceiling);           reader stable: %v\n",
		dynWrites, dynOK)
}
