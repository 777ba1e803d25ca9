package figures

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"mvrlu/internal/bench"
	"mvrlu/internal/core"
	"mvrlu/internal/db"
	"mvrlu/internal/ds"
	"mvrlu/internal/kvstore"
)

func sample(m bench.Measurement) Sample {
	return Sample{Throughput: m.OpsPerUsec(), AbortRatio: m.AbortRatio}
}

// runSet measures one internal/ds set on a fresh instance. It and the
// other run helpers panic on an unknown name: every name is a catalogue
// constant, so an unknown one is a bug here.
func runSet(name string, cfg ds.Config, w bench.Workload) Sample {
	set, err := ds.New(name, cfg)
	if err != nil {
		panic(err)
	}
	defer set.Close()
	return sample(bench.Run(set, w).Measurement)
}

// readAmplification loads an MV-RLU list with every even key of w's
// range, then measures w on it and reports the objects read per
// dereference of the measured window only: the load's inserts walk
// freshly created chains and would inflate the read-only baseline.
func readAmplification(w bench.Workload) Sample {
	set := ds.NewMVRLUList(core.DefaultOptions())
	defer set.Close()
	load := set.Session()
	for k := 0; k < w.Range; k += 2 {
		load.Insert(k)
	}
	before := set.Stats()
	s := sample(bench.Run(set, w).Measurement)
	after := set.Stats()
	s.ReadAmp = core.Stats{
		Derefs:     after.Derefs - before.Derefs,
		ChainSteps: after.ChainSteps - before.ChainSteps,
	}.ReadAmplification()
	return s
}

// runEngine measures one internal/db concurrency control.
func runEngine(name string, cfg db.YCSBConfig) Sample {
	e, err := db.NewEngine(name, cfg.Records)
	if err != nil {
		panic(err)
	}
	defer e.Close()
	return sample(db.RunYCSB(e, cfg).Measurement)
}

// runStore measures one kvstore build at its default slot layout.
func runStore(name string, w kvWorkload) Sample {
	s, err := kvstore.New(name, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	return sample(runKV(s, w))
}

// kvWorkload is a Figure 10 or YCSB-E cell.
type kvWorkload struct {
	// Records is the number of key-value pairs loaded (the paper loads
	// 1 GB; scale Records×ValueSize to taste).
	Records   int
	ValueSize int
	Threads   int
	// UpdateRatio is the fraction of Set operations.
	UpdateRatio float64
	// RangeRatio is the fraction of ordered scans of RangeLen keys
	// (the YCSB-E mix), taken out of the Get share; a build without an
	// ordered session serves a Get instead.
	RangeRatio float64
	RangeLen   int
	Duration   time.Duration
}

func keyName(i int) string { return fmt.Sprintf("key%010d", i) }

// runKV loads Records values, then runs Threads workers doing the
// Set/scan/Get mix over uniformly random existing keys.
func runKV(s kvstore.Store, w kvWorkload) bench.Measurement {
	sess := s.Session()
	val := strings.Repeat("v", w.ValueSize)
	for i := 0; i < w.Records; i++ {
		sess.Set(keyName(i), val)
	}
	val = strings.Repeat("w", w.ValueSize)
	// Bounds are inclusive, so the scans' upper bound is the last
	// loaded key, not "" (which would make every range empty).
	hiKey := keyName(w.Records - 1)
	return bench.Drive(w.Threads, w.Duration, nil, func(t int, _ *atomic.Bool) func() {
		sess := s.Session()
		ordered, _ := sess.(kvstore.OrderedSession)
		rng := rand.New(rand.NewSource(int64(t)*6151 + 7))
		return func() {
			k := keyName(rng.Intn(w.Records))
			p := rng.Float64()
			switch {
			case p < w.UpdateRatio:
				sess.Set(k, val)
			case p < w.UpdateRatio+w.RangeRatio && ordered != nil:
				n := 0
				ordered.RangeAscend(k, hiKey, func(string, string) bool {
					n++
					return n < w.RangeLen
				})
			default:
				sess.Get(k)
			}
		}
	})
}
