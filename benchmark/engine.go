package main

import (
	"math/rand"

	"mvrlu/internal/ds"
)

// engineTarget is the engine-hash workload's system under test: the
// paper's hash-table set over MV-RLU, driven in-process with no server.
type engineTarget struct {
	set     ds.Set
	workers []*engineWorker
	initial int
}

// engineWorker drives one ds.Session. To make every reply checkable under
// concurrency, the key space is split by key mod clients: a worker
// inserts and removes only keys of its own residue (the stream's key is
// moved onto it), so it alone decides whether such a key is present and
// can hold each Insert, Remove and own-residue Lookup to its private
// copy of the truth. Lookups still range over all keys, and both workers
// still share every bucket chain.
type engineWorker struct {
	workerState
	id   int
	sess ds.Session
	ops  []op
	pos  int
	mine []bool // by key; meaningful for keys of this worker's residue

	okIns, okRem uint64
}

func setupEngine(w *workload, cfg *runConfig) *target {
	set, err := ds.New("mvrlu-hash", ds.Config{Buckets: 1000})
	if err != nil {
		panic(err) // the name is a constant of this file
	}
	e := &engineTarget{set: set}
	t := &target{w: w, engine: e}
	for i := 0; i < clients; i++ {
		ew := &engineWorker{
			id:   i,
			sess: set.Session(),
			ops:  genStream(w, cfg.seed, i, streamLen),
			mine: make([]bool, w.Keys),
		}
		ew.opsPerBatch = engineBatch
		e.workers = append(e.workers, ew)
		t.workers = append(t.workers, ew)
	}
	// Half the key range is present at the start, as in the paper's runs.
	rng := rand.New(rand.NewSource(cfg.seed*1000003 + 977))
	for e.initial < w.Keys/2 {
		k := rng.Intn(w.Keys)
		owner := e.workers[k%clients]
		if owner.sess.Insert(k) {
			owner.mine[k] = true
			e.initial++
		}
	}
	return t
}

func (e *engineWorker) state() *workerState { return &e.workerState }

func (e *engineWorker) batch() (t0, t1, t2 int64) {
	t0 = nowNs()
	for i := 0; i < engineBatch; i++ {
		o := e.ops[e.pos]
		if e.pos++; e.pos == len(e.ops) {
			e.pos = 0
		}
		key := int(o.key)
		switch o.kind {
		case opLookup:
			if got := e.sess.Lookup(key); key%clients == e.id && got != e.mine[key] {
				e.failed++
			}
		case opInsert:
			key += e.id - key%clients
			ok := e.sess.Insert(key)
			if ok == e.mine[key] {
				e.failed++
			}
			if ok {
				e.okIns++
			}
			e.mine[key] = true
		case opRemove:
			key += e.id - key%clients
			ok := e.sess.Remove(key)
			if ok != e.mine[key] {
				e.failed++
			}
			if ok {
				e.okRem++
			}
			e.mine[key] = false
		}
	}
	e.attempted += engineBatch
	return t0, t0, nowNs()
}

// verify checks the set's final contents against the workers' records:
// every key present exactly when its owner says so, and the size equal to
// initial + successful inserts − successful removes. It returns how many
// checks it made and how many failed.
func (e *engineTarget) verify(keys int) (attempted, failed uint64) {
	sess := e.set.Session()
	size := 0
	for k := 0; k < keys; k++ {
		got := sess.Lookup(k)
		if got {
			size++
		}
		if got != e.workers[k%clients].mine[k] {
			failed++
		}
	}
	want := e.initial
	for _, w := range e.workers {
		want += int(w.okIns) - int(w.okRem)
	}
	if size != want {
		failed++
	}
	return uint64(keys) + 1, failed
}
