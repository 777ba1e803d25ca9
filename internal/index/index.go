// Package index provides the ordered-index builds of the kvstore: the
// same Store/TxnSession surface as the hash builds, plus the
// kvstore.OrderedSession capability (snapshot range scans).
//
// The data structure is a skiplist with versioned towers (DESIGN.md
// §12 justifies the choice over a balanced tree): every node is one
// engine object holding the key, the value, its level-0 link and a
// copy-on-write array of its upper links (links), so an update or a
// splice is a handful of TryLocks and a range scan is a single level-0
// pointer walk inside one reader critical section — exactly the access
// pattern MV-RLU's copy-on-lock/combine protocol is built for. Writers
// serialize on one index-wide mutex (the structure-local analogue of
// the hash builds' per-slot locks: an ordered insert touches up to
// maxHeight towers, so per-node locking would deadlock-order them
// anyway); readers never touch it.
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
	"slices"

	"mvrlu/internal/kvstore"
)

// maxHeight bounds skiplist towers. With p=1/4 the expected height of
// the tallest tower crosses 12 around 16M keys — beyond any workload
// this repo runs. Only the head sentinel is this tall; a node carries
// its own height in links.
const maxHeight = 12

// links is a skiplist node's tower: level 0 inline, levels 1..h-1 in
// up, so a node of height h is len(up) = h-1 pointers past its level-0
// link and a height-1 node (3 in 4) carries no array at all. TryLock
// copies the payload, so a locked copy shares up with the version or
// master it was copied from. Hence the one rule: an up array is never
// written once a version or master can reach it — relink gives a
// locked copy its own clone before its first upper-level store.
type links[P comparable] struct {
	next P   // level 0
	up   []P // levels 1..h-1; copy-on-write
}

func (l *links[P]) height() int { return len(l.up) + 1 }

// headLinks is the head sentinel's tower: every level, all nil.
func headLinks[P comparable]() links[P] { return links[P]{up: make([]P, maxHeight-1)} }

// at returns the link at level lvl < height().
func (l *links[P]) at(lvl int) P {
	if lvl == 0 {
		return l.next
	}
	return l.up[lvl-1]
}

// successors is the tower of a node spliced in after the locked
// predecessor copies cps, one per level: each level points where its
// predecessor's does. The up array is new, so the node owns it.
func successors[P comparable](cps []*links[P]) links[P] {
	n := links[P]{next: cps[0].next}
	if len(cps) > 1 {
		n.up = make([]P, len(cps)-1)
		for l := 1; l < len(cps); l++ {
			n.up[l-1] = cps[l].up[l-1]
		}
	}
	return n
}

// relink points level l of each locked copy cps[l] at succ(l). One
// predecessor holds a contiguous run of levels, so each copy's up is
// cloned once, before the first store into it, however many levels it
// spans.
func relink[P comparable](cps []*links[P], succ func(lvl int) P) {
	cps[0].next = succ(0)
	for l := 1; l < len(cps); l++ {
		c := cps[l]
		if l == 1 || c != cps[l-1] {
			c.up = slices.Clone(c.up)
		}
		c.up[l-1] = succ(l)
	}
}

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
