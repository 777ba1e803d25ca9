package db

import (
	"sync"
	"testing"
	"time"
)

func engines(t *testing.T, records int) []Engine {
	t.Helper()
	var out []Engine
	for _, name := range AllEngineNames() {
		e, err := NewEngine(name, records)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func TestReadInitialRows(t *testing.T) {
	for _, e := range engines(t, 64) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			tx := e.Session()
			var r Row
			tx.Begin()
			if !tx.Read(7, &r) {
				t.Fatal("read failed")
			}
			if !tx.Commit() {
				t.Fatal("read-only commit failed")
			}
			if r.Fields[0] != 7 || r.Fields[9] != 7 {
				t.Fatalf("row 7 = %v", r.Fields)
			}
		})
	}
}

func TestUpdateVisibleAfterCommit(t *testing.T) {
	for _, e := range engines(t, 16) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			tx := e.Session()
			for {
				tx.Begin()
				if !tx.Update(3, func(r *Row) { r.Fields[1] = 999 }) {
					tx.Abort()
					continue
				}
				if tx.Commit() {
					break
				}
			}
			var r Row
			tx.Begin()
			if !tx.Read(3, &r) {
				t.Fatal("read failed")
			}
			tx.Commit()
			if r.Fields[1] != 999 {
				t.Fatalf("update lost: %v", r.Fields)
			}
		})
	}
}

func TestAbortDiscards(t *testing.T) {
	for _, e := range engines(t, 16) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			tx := e.Session()
			tx.Begin()
			if !tx.Update(5, func(r *Row) { r.Fields[0] = 12345 }) {
				t.Fatal("update failed on idle table")
			}
			tx.Abort()
			var r Row
			tx.Begin()
			tx.Read(5, &r)
			tx.Commit()
			if r.Fields[0] == 12345 {
				t.Fatal("aborted write visible")
			}
		})
	}
}

// TestNoLostUpdates: concurrent counter increments through each engine
// must all survive — the fundamental write-write correctness property of
// every CC scheme.
func TestNoLostUpdates(t *testing.T) {
	const (
		goroutines = 4
		increments = 400
	)
	for _, e := range engines(t, 8) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := e.Session()
					for i := 0; i < increments; i++ {
						for {
							tx.Begin()
							if !tx.Update(0, func(r *Row) { r.Fields[2]++ }) {
								tx.Abort()
								continue
							}
							if tx.Commit() {
								break
							}
						}
					}
				}()
			}
			wg.Wait()
			tx := e.Session()
			var r Row
			tx.Begin()
			if !tx.Read(0, &r) {
				t.Fatal("final read failed")
			}
			tx.Commit()
			if got := r.Fields[2]; got != goroutines*increments {
				t.Fatalf("counter = %d, want %d (lost updates)", got, goroutines*increments)
			}
		})
	}
}

// TestTransactionAtomicity: transfers between two rows keep the total
// constant in every committed read snapshot.
func TestTransactionAtomicity(t *testing.T) {
	for _, e := range engines(t, 4) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			var wg sync.WaitGroup
			stop := time.Now().Add(80 * time.Millisecond)
			bad := 0
			var mu sync.Mutex
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := e.Session()
				for time.Now().Before(stop) {
					tx.Begin()
					okA := tx.Update(0, func(r *Row) { r.Fields[5]++ })
					okB := okA && tx.Update(1, func(r *Row) { r.Fields[5]-- })
					if okA && okB {
						tx.Commit()
					} else {
						tx.Abort()
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := e.Session()
				var a, b Row
				for time.Now().Before(stop) {
					tx.Begin()
					if tx.Read(0, &a) && tx.Read(1, &b) {
						if !tx.Commit() {
							continue
						}
						// Row i initializes every field to i, so
						// the conserved sum of rows 0 and 1 is 1.
						if a.Fields[5]+b.Fields[5] != 1 {
							mu.Lock()
							bad++
							mu.Unlock()
						}
					} else {
						tx.Abort()
					}
				}
			}()
			wg.Wait()
			if bad != 0 {
				t.Fatalf("%d torn transaction snapshots", bad)
			}
		})
	}
}

func TestRunYCSBSmoke(t *testing.T) {
	for _, e := range engines(t, 256) {
		t.Run(e.Name(), func(t *testing.T) {
			defer e.Close()
			res := RunYCSB(e, YCSBConfig{
				Records:     256,
				Threads:     3,
				TxnSize:     8,
				UpdateRatio: 0.2,
				Theta:       0.7,
				Duration:    40 * time.Millisecond,
			})
			if res.Ops == 0 {
				t.Fatal("no transactions completed")
			}
			if res.OpsPerUsec() <= 0 {
				t.Fatal("no throughput")
			}
		})
	}
}

func TestEngineRegistry(t *testing.T) {
	if _, err := NewEngine("bogus", 10); err == nil {
		t.Fatal("bogus engine accepted")
	}
	if len(EngineNames()) != 4 {
		t.Fatalf("want 4 paper engines, got %v", EngineNames())
	}
	if len(AllEngineNames()) != 6 {
		t.Fatalf("want 6 engines total, got %v", AllEngineNames())
	}
}
