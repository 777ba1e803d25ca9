// Package index provides the ordered-index builds of the kvstore: the
// same Store/TxnSession surface as the hash builds, plus the
// kvstore.OrderedSession capability (snapshot range scans).
//
// The data structure is a skiplist with versioned towers (DESIGN.md
// §12 justifies the choice over a balanced tree): every node is one
// engine object holding the key, the value, and a fixed array of
// forward pointers, so an update or a splice is a handful of TryLocks
// and a range scan is a single level-0 pointer walk inside one reader
// critical section — exactly the access pattern MV-RLU's
// copy-on-lock/combine protocol is built for. Writers serialize on one
// index-wide mutex (the structure-local analogue of the hash builds'
// per-slot locks: an ordered insert touches up to maxHeight towers, so
// per-node locking would deadlock-order them anyway); readers never
// touch it.
//
// Three builds register with kvstore at init:
//
//	mvrlu-idx   multi-version RLU engine (internal/core)
//	rlu-idx     single-version RLU engine (internal/rlu)
//	vanilla-idx RWMutex + sorted slice baseline
//
// Each is a kvstore.Tower behind the shared kvstore.TowerSession, which
// owns the one commit routine behind Set/Remove/ApplyTxn, hook delivery,
// trace spans, the snapshot walk and all KV-history recording. This
// package adds only what ordered builds have (session.go): RangeAscend
// and RangeDescend, each one TowerSession.Scan over a tower walk, and
// the skiplists' writer half — the index mutex and the tower heights
// drawn under it. A tower (mvrlu.go, rlu.go, vanilla.go)
// is a node type plus the loops that Deref: findPreds, the splices,
// Apply (one Execute), Get, and the ascending and descending walks. The
// seam is crossed a bounded number of times per operation, never per
// node, so each engine's walk stays monomorphic. A new ordered build is
// a node type and a tower.
//
// Importers pull them in with a blank import:
//
//	import _ "mvrlu/internal/index"
package index

import (
	"math/rand"

	"mvrlu/internal/kvstore"
)

// maxHeight bounds skiplist towers. With p=1/4 the expected height of
// the tallest tower crosses 12 around 16M keys — beyond any workload
// this repo runs — and a fixed array keeps a node's tower inside its
// engine object so copy-on-lock duplicates the pointers too (a slice
// would alias the master's backing array across TryLock copies).
const maxHeight = 12

func init() {
	kvstore.RegisterBuild("mvrlu-idx", func(slots, bucketsPerSlot int) kvstore.Store {
		return NewMVIndex()
	})
	kvstore.RegisterBuild("rlu-idx", func(slots, bucketsPerSlot int) kvstore.Store {
		return NewRLUIndex()
	})
	kvstore.RegisterBuild("vanilla-idx", func(slots, bucketsPerSlot int) kvstore.Store {
		return NewVanillaIndex()
	})
}

// randHeight draws a tower height with p=1/4 level promotion. Callers
// hold the index writer mutex, which also guards rng.
func randHeight(rng *rand.Rand) int {
	h := 1
	for h < maxHeight && rng.Intn(4) == 0 {
		h++
	}
	return h
}
