package rlu

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/check"
)

// TestCheckerLiveRLU runs a concurrent transfer/scan workload on the
// single-copy RLU engine with the history recorder attached and
// requires a clean checker verdict. RLU maps onto the multi-version
// model as all-from-master commits whose flush is the write-back.
func TestCheckerLiveRLU(t *testing.T) {
	if testing.Short() {
		t.Skip("checker torture skipped in -short mode")
	}
	for _, mode := range []ClockMode{ClockGlobal, ClockOrdo} {
		name := "global"
		if mode == ClockOrdo {
			name = "ordo"
		}
		t.Run(name, func(t *testing.T) {
			h := check.NewHistory(0)
			d := NewDomain[item](mode)
			d.AttachHistory(h)

			const threads, objects = 4, 8
			accounts := make([]*Object[item], objects)
			for i := range accounts {
				accounts[i] = NewObject(item{Val: 1000})
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			for g := 0; g < threads; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th := d.Register()
					rng := rand.New(rand.NewSource(int64(id)*104729 + 7))
					for !stop.Load() {
						if rng.Intn(2) == 0 { // scan
							th.ReadLock()
							sum := 0
							for _, o := range accounts {
								sum += th.Deref(o).Val
							}
							th.ReadUnlock()
							if sum != objects*1000 {
								t.Error("conservation violated")
								stop.Store(true)
							}
						} else { // transfer
							i, j := rng.Intn(objects), rng.Intn(objects)
							if i == j {
								continue
							}
							th.ReadLock()
							ci, ok := th.TryLock(accounts[i])
							if !ok {
								th.Abort()
								continue
							}
							cj, ok := th.TryLock(accounts[j])
							if !ok {
								th.Abort()
								continue
							}
							ci.Val -= 3
							cj.Val += 3
							th.ReadUnlock()
						}
					}
				}(g)
			}
			time.Sleep(150 * time.Millisecond)
			stop.Store(true)
			wg.Wait()

			rep := check.Check(h, check.Opts{})
			if !rep.Ok() {
				t.Fatalf("checker verdict on a correct RLU engine:\n%s", rep)
			}
			if rep.Sections == 0 || rep.Commits == 0 || rep.Writebacks == 0 {
				t.Fatalf("history recorded nothing useful: %s", rep)
			}
			t.Logf("%s", rep)
		})
	}
}

// TestAttachHistoryDeferredPanics: the deferred flush runs outside any
// critical section, which the section-structured event model cannot
// express; attaching must refuse loudly rather than record garbage.
func TestAttachHistoryDeferredPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AttachHistory on a deferred domain did not panic")
		}
	}()
	d := NewDeferredDomain[item](ClockGlobal)
	d.AttachHistory(check.NewHistory(0))
}
