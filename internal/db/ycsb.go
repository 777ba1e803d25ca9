package db

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"mvrlu/internal/bench"
	"mvrlu/internal/core"
)

// YCSBConfig is the workload of Figure 9: multi-access transactions over
// a Zipfian key distribution (DBx1000 defaults: 16 requests per
// transaction, theta 0.7; the paper runs 2%, 20% and 80% update rates).
type YCSBConfig struct {
	Records     int
	Threads     int
	TxnSize     int
	UpdateRatio float64 // per access
	Theta       float64
	Duration    time.Duration
}

// YCSBResult is one measured cell; its Ops are committed transactions.
type YCSBResult struct {
	Engine string
	Config YCSBConfig
	bench.Measurement
}

// RunYCSB drives cfg against the engine and reports throughput of
// committed transactions (aborted transactions retry until they commit,
// as in DBx1000).
func RunYCSB(e Engine, cfg YCSBConfig) YCSBResult {
	if cfg.TxnSize <= 0 {
		cfg.TxnSize = 16
	}
	m := bench.Drive(cfg.Threads, cfg.Duration, e.Stats, func(t int, stop *atomic.Bool) func() {
		tx := e.Session()
		rng := rand.New(rand.NewSource(int64(t)*104729 + 31))
		zipf := bench.NewZipf(cfg.Records, cfg.Theta)
		keys := make([]int, cfg.TxnSize)
		updates := make([]bool, cfg.TxnSize)
		var row Row
		return func() {
			for i := range keys {
				keys[i] = zipf.Next(rng)
				updates[i] = rng.Float64() < cfg.UpdateRatio
			}
			// Retry the transaction until it commits.
			for {
				tx.Begin()
				ok := true
				for i := range keys {
					if updates[i] {
						ok = tx.Update(keys[i], bumpRow)
					} else {
						ok = tx.Read(keys[i], &row)
					}
					if !ok {
						break
					}
				}
				if ok {
					if tx.Commit() {
						break
					}
				} else {
					tx.Abort()
				}
				if stop.Load() {
					break
				}
				// Brief backoff before retrying: without it a
				// restarted transaction spin-hammers the lock
				// holder's records, which on few cores starves
				// the holder itself.
				runtime.Gosched()
			}
		}
	})
	return YCSBResult{Engine: e.Name(), Config: cfg, Measurement: m}
}

func bumpRow(r *Row) {
	r.Fields[0]++
	r.Fields[FieldsPerRow-1] = r.Fields[0]
}

// NewEngine constructs a CC engine by name.
func NewEngine(name string, records int) (Engine, error) {
	switch name {
	case "mvrlu":
		return NewMVRLUEngine(records, core.DefaultOptions()), nil
	case "hekaton":
		return NewHekatonEngine(records), nil
	case "silo":
		return NewSiloEngine(records), nil
	case "tictoc":
		return NewTicTocEngine(records), nil
	case "nowait":
		return NewNoWaitEngine(records), nil
	case "timestamp":
		return NewTimestampEngine(records), nil
	}
	return nil, fmt.Errorf("db: unknown engine %q (want one of %v)", name, AllEngineNames())
}

// EngineNames lists the Figure 9 quartet (the paper's comparison).
func EngineNames() []string { return []string{"mvrlu", "hekaton", "silo", "tictoc"} }

// AllEngineNames adds the extra DBx1000 schemes implemented here (NO_WAIT
// two-phase locking and basic timestamp ordering).
func AllEngineNames() []string {
	return []string{"mvrlu", "hekaton", "silo", "tictoc", "nowait", "timestamp"}
}
