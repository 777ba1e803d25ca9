package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/check"
)

// TestCheckerLiveRCU runs readers against an updater that swaps a
// pointer and synchronizes before reuse, with the history recorder
// attached, and requires a clean grace-period verdict from CheckRCU.
func TestCheckerLiveRCU(t *testing.T) {
	if testing.Short() {
		t.Skip("checker torture skipped in -short mode")
	}
	h := check.NewHistory(0)
	d := NewDomain()
	d.AttachHistory(h)

	type box struct{ gen, a, b uint64 }
	var cur atomic.Pointer[box]
	cur.Store(&box{})

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := d.Register()
			for !stop.Load() {
				th.ReadLock()
				p := cur.Load()
				if p.a != p.b || p.a != p.gen {
					t.Error("torn read: reclaimed box reused under a reader")
					stop.Store(true)
				}
				th.ReadUnlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		th := d.Register()
		var gen uint64
		for !stop.Load() {
			gen++
			cur.Store(&box{gen: gen, a: gen, b: gen})
			th.Synchronize() // old box now unreachable by any reader
		}
	}()
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	rep := check.CheckRCU(h)
	if !rep.Ok() {
		t.Fatalf("checker verdict on a correct RCU engine:\n%s", rep)
	}
	if rep.Sections == 0 {
		t.Fatal("history recorded no read sections")
	}
	t.Logf("rcu: %d sections: OK", rep.Sections)
}
