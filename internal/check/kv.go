package check

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the KV layer of the checker: recording and validation for
// the kvstore builds (the hash builds and the internal/index ordered
// ones, all recorded by kvstore.TowerSession). Where checker.go proves
// the ENGINE's snapshot rules over object ids and version chains,
// CheckKV proves the STORE's contract over keys and values, for range
// walks and prefix walks alike:
//
//   - range-snapshot: a walk observes exactly one timestamp — no value
//     it yields was committed after the walk's pinned snapshot;
//   - range-stale / range-missing: the walk yields the NEWEST visible
//     write of every key in its bounds — nothing older, nothing skipped;
//   - torn-txn: a multi-key transaction is never observed torn — once a
//     reader sees one key of a transaction, it must see every key the
//     transaction wrote inside the walked bounds at least that new.
//
// Soundness needs no global writer lock; writers on disjoint slot
// locks commit and record concurrently. It leans on three recording
// disciplines every build keeps:
//
//   - A write is recorded after its commit publishes, and under its
//     body's writer locks. One key maps to one writer lock (its slot on
//     a hash build, the index mutex on an ordered one), so for any key
//     ticket order equals commit order (kvstore's
//     TestHookBeforeNextCommit pins this on every build).
//   - EvKVRangeBegin is ticketed before the walk's first load. Tickets
//     come from one atomic counter, so a write ticketed before it was
//     published before that load, whichever locks the writer held.
//   - Every rule compares tickets only between writes to ONE key, or
//     between a write and a walk's EvKVRangeBegin. None needs a global
//     order across keys, so none is scoped to a single writer lock.
//
// Observations are matched to writes by (key, ValueHash); ambiguous
// matches (the same value written twice to one key) are conservatively
// skipped, so harnesses that want the rules to have teeth write values
// unique per (key, write).

// ValueHash fingerprints a value for KV events (FNV-1a).
func ValueHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// KeyID interns key and returns its stable 1-based id — the Obj field of
// every KV event. Safe from any goroutine.
func (h *History) KeyID(key string) uint64 {
	h.keyMu.Lock()
	defer h.keyMu.Unlock()
	if h.keyIDs == nil {
		h.keyIDs = map[string]uint64{}
	}
	if id, ok := h.keyIDs[key]; ok {
		return id
	}
	h.keyStrs = append(h.keyStrs, key)
	id := uint64(len(h.keyStrs))
	h.keyIDs[key] = id
	return id
}

// keyStrings snapshots the interned table; index id-1.
func (h *History) keyStrings() []string {
	h.keyMu.Lock()
	defer h.keyMu.Unlock()
	return append([]string(nil), h.keyStrs...)
}

// KVWrite records one committed store mutation: key id, commit
// timestamp cts, value fingerprint vhash (ignored for a delete),
// transaction id txn (0 for single-key commits). Record after the commit
// publishes and under its writer locks, before the key's next writer
// can enter.
func (r *ThreadRec) KVWrite(key, cts, vhash, txn uint64, del bool) {
	e := Event{Kind: EvKVWrite, Obj: key, TS: cts, Aux: vhash, Aux2: txn}
	if del {
		e.Aux = 0
		e.Flags = FlagFree
	}
	r.record(e)
}

// KVRangeBegin records a walk pinning snapshot ts over the inclusive
// key-id bounds [lo, hi]; flags is 0, FlagRev (descending) or FlagPrefix
// (an unordered walk of the keys with prefix lo; hi unused). Call BEFORE
// the walk's first load.
func (r *ThreadRec) KVRangeBegin(ts, lo, hi uint64, flags uint8) {
	r.record(Event{Kind: EvKVRangeBegin, TS: ts, Obj: lo, Aux: hi, Flags: flags})
}

// KVRangeObs records one observed pair of the open range walk.
func (r *ThreadRec) KVRangeObs(key, vhash uint64) {
	r.record(Event{Kind: EvKVRangeObs, Obj: key, Aux: vhash})
}

// KVRangeEnd closes the open range walk; partial marks an early stop.
func (r *ThreadRec) KVRangeEnd(partial bool) {
	e := Event{Kind: EvKVRangeEnd}
	if partial {
		e.Flags = FlagPartial
	}
	r.record(e)
}

// kvWrite is one EvKVWrite, decoded.
type kvWrite struct {
	seq, cts, vhash, txn uint64
	key                  uint64
	del                  bool
}

// kvObs is one EvKVRangeObs, decoded.
type kvObs struct {
	seq, key, vhash uint64
}

// kvRange is one walk with its observations.
type kvRange struct {
	ts                   uint64
	lo, hi               uint64 // key ids; lo is the prefix of a prefix walk
	beginSeq, endSeq     uint64
	rev, prefix, partial bool
	obs                  []kvObs
}

// CheckKV validates a KV-index history and returns the verdict. Like
// Check, every rule is written so a correct index cannot trip it; the
// inline notes argue each one. Report counters are reused: Sections =
// range walks, Commits = writes, Derefs = observations.
func CheckKV(h *History, o Opts) *Report {
	threads, global, truncSeq := h.snapshot()
	keys := h.keyStrings()
	r := &Report{Truncated: truncSeq != 0, max: o.MaxViolations}
	if r.max <= 0 {
		r.max = 100
	}
	B := o.Boundary
	name := func(id uint64) string {
		if id >= 1 && int(id) <= len(keys) {
			return keys[id-1]
		}
		return fmt.Sprintf("key#%d", id)
	}

	for _, e := range global {
		r.add("kv-structure", "unexpected global event in KV history: %v", e)
	}

	// Pass 1: per-thread structure, gathering writes and ranges.
	var writes []kvWrite
	var ranges []kvRange
	for ti, ev := range threads {
		var cur *kvRange
		for _, e := range ev {
			switch e.Kind {
			case EvKVWrite:
				if cur != nil {
					r.add("kv-structure", "thread %d: write inside an open range walk (%v)", ti, e)
				}
				writes = append(writes, kvWrite{
					seq: e.Seq, cts: e.TS, vhash: e.Aux, txn: e.Aux2,
					key: e.Obj, del: e.Flags&FlagFree != 0,
				})
			case EvKVRangeBegin:
				if cur != nil {
					r.add("kv-structure", "thread %d: nested range begin (%v)", ti, e)
					cur.partial = true
					ranges = append(ranges, *cur)
				}
				cur = &kvRange{ts: e.TS, lo: e.Obj, hi: e.Aux, beginSeq: e.Seq,
					rev: e.Flags&FlagRev != 0, prefix: e.Flags&FlagPrefix != 0}
			case EvKVRangeObs:
				if cur == nil {
					r.add("kv-structure", "thread %d: range obs outside a walk (%v)", ti, e)
					continue
				}
				cur.obs = append(cur.obs, kvObs{seq: e.Seq, key: e.Obj, vhash: e.Aux})
			case EvKVRangeEnd:
				if cur == nil {
					r.add("kv-structure", "thread %d: range end without begin (%v)", ti, e)
					continue
				}
				cur.endSeq = e.Seq
				cur.partial = e.Flags&FlagPartial != 0
				ranges = append(ranges, *cur)
				cur = nil
			default:
				r.add("kv-structure", "thread %d: non-KV event in KV history: %v", ti, e)
			}
		}
		if cur != nil {
			// Stream cut mid-walk (harness stopped or truncation):
			// treat as an early stop so absence rules stay sound.
			cur.partial = true
			ranges = append(ranges, *cur)
		}
	}
	r.Sections = len(ranges)
	r.Commits = len(writes)

	sort.Slice(writes, func(i, j int) bool { return writes[i].seq < writes[j].seq })
	byKey := map[uint64][]kvWrite{}
	for _, w := range writes {
		byKey[w.key] = append(byKey[w.key], w)
	}

	// Transaction-uniform timestamp: every write of one transaction
	// carries the one commit timestamp its Execute body produced.
	txnTS := map[uint64]uint64{}
	txnWrites := map[uint64][]kvWrite{}
	tornTxn := map[uint64]bool{} // txns already structurally broken
	for _, w := range writes {
		if w.txn == 0 {
			continue
		}
		if ts, ok := txnTS[w.txn]; ok && ts != w.cts {
			r.add("kv-txn-ts", "txn %d writes carry two commit timestamps (%d and %d)", w.txn, ts, w.cts)
			tornTxn[w.txn] = true
		} else {
			txnTS[w.txn] = w.cts
		}
		txnWrites[w.txn] = append(txnWrites[w.txn], w)
	}

	// Per-key commit-order monotonicity. Sound only for an exact clock
	// (B == 0: rlu write clock, vanilla version counter, mvrlu global
	// counter clock): commits to one key serialize on its writer lock,
	// record in that order, and an exact clock never regresses.
	// Under ORDO skew (B > 0) two adjacent commits' hardware-clock reads
	// may legally invert by up to B, so the rule is skipped.
	if B == 0 {
		for key, ws := range byKey {
			for i := 1; i < len(ws); i++ {
				if ws[i].cts < ws[i-1].cts {
					r.add("kv-structure", "key %s: commit order regressed (ts %d after %d)",
						name(key), ws[i].cts, ws[i-1].cts)
				}
			}
		}
	}

	// Ordered key-id table for the absence sweep.
	type keyEnt struct {
		s  string
		id uint64
	}
	order := make([]keyEnt, len(keys))
	for i, s := range keys {
		order[i] = keyEnt{s, uint64(i + 1)}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].s < order[j].s })

	for ri := range ranges {
		rng := &ranges[ri]
		S := rng.ts
		visible := func(cts uint64) bool { return cts <= S && S-cts >= B }
		// inBounds is the walk's key set: [lo, hi], or the keys with
		// prefix lo for a prefix walk.
		lo, hi := name(rng.lo), name(rng.hi)
		walk := fmt.Sprintf("range [%s,%s]", lo, hi)
		inBounds := func(k string) bool { return lo <= k && k <= hi }
		if rng.prefix {
			walk = fmt.Sprintf("prefix walk %q", lo)
			inBounds = func(k string) bool { return strings.HasPrefix(k, lo) }
		}
		r.Derefs += len(rng.obs)

		// Structure: bounds, ordering (prefix walks yield no key order),
		// duplicates.
		seen := map[uint64]bool{}
		prev := ""
		for i, ob := range rng.obs {
			k := name(ob.key)
			if !inBounds(k) {
				r.add("kv-range-bounds", "%s: observed out-of-bounds key %s", walk, k)
			}
			if seen[ob.key] {
				r.add("kv-range-bounds", "%s: key %s observed twice", walk, k)
			}
			seen[ob.key] = true
			if i > 0 && !rng.prefix {
				if !rng.rev && k <= prev {
					r.add("kv-range-bounds", "ascending %s: %s observed after %s", walk, k, prev)
				}
				if rng.rev && k >= prev {
					r.add("kv-range-bounds", "descending %s: %s observed after %s", walk, k, prev)
				}
			}
			prev = k
		}

		// Match observations to writes by (key, ValueHash); validate the
		// snapshot and staleness of each match.
		matched := map[uint64]kvWrite{}
		for _, ob := range rng.obs {
			var cands []kvWrite
			for _, w := range byKey[ob.key] {
				if !w.del && w.vhash == ob.vhash {
					cands = append(cands, w)
				}
			}
			if len(cands) == 0 {
				if truncSeq == 0 {
					r.add("kv-unknown-value", "%s@ts=%d: key %s holds a value no recorded write produced",
						walk, S, name(ob.key))
				}
				continue
			}
			if len(cands) > 1 {
				continue // ambiguous fingerprint: conservatively skip
			}
			w := cands[0]
			// Only cts > S is a violation here. A matched write whose cts
			// lies INSIDE the ambiguity window (S-B, S] is legal: GC may
			// have pruned the chain and written the version back to the
			// master, where the engine serves it without a timestamp —
			// writeback's watermark proof (cts ≤ wm < every future entry
			// ts) already ordered it before this reader. The strict
			// ambiguity discipline for CHAINED versions is the engine
			// checker's snapshot rule, not this layer's.
			if w.cts > S {
				r.add("kv-range-snapshot", "%s pinned ts=%d observed key %s committed at ts=%d — two timestamps in one walk",
					walk, S, name(ob.key), w.cts)
				continue
			}
			// Stale-within-range: a strictly newer write to this key,
			// ticketed before the walk began (hence fully published
			// before its first load) and visible at S, should have been
			// returned instead.
			for _, w2 := range byKey[ob.key] {
				if w2.seq > w.seq && w2.seq < rng.beginSeq && visible(w2.cts) {
					r.add("kv-range-stale", "%s@ts=%d: key %s observed at ts=%d but a visible write at ts=%d (seq %d) predates the walk",
						walk, S, name(ob.key), w.cts, w2.cts, w2.seq)
					break
				}
			}
			matched[ob.key] = w
		}

		// covered is the key span whose absence the walk proves, from
		// its smallest key: all of its bounds when it ran to the end; up
		// to the last key yielded when an ordered walk stopped early;
		// nothing when a prefix walk did, since it yields no key order.
		from, covered := lo, inBounds
		if rng.partial {
			if len(rng.obs) == 0 || rng.prefix {
				covered = func(string) bool { return false }
			} else if last := name(rng.obs[len(rng.obs)-1].key); rng.rev {
				from, covered = last, func(k string) bool { return last <= k && k <= hi }
			} else {
				covered = func(k string) bool { return lo <= k && k <= last }
			}
		}

		// Missing-within-range: key k in the covered span, newest
		// visible write ticketed before the walk is a Set, and no
		// visible write at all was ticketed during/after the walk that
		// could explain a racing change — the walk had to yield k. The
		// covered span is contiguous in key order, prefix walks'
		// included.
		if truncSeq == 0 {
			i := sort.Search(len(order), func(i int) bool { return order[i].s >= from })
			for ; i < len(order) && covered(order[i].s); i++ {
				id := order[i].id
				if seen[id] {
					continue
				}
				ws := byKey[id]
				var vStar *kvWrite
				lateVisible := false
				for wi := range ws {
					w := &ws[wi]
					if !visible(w.cts) {
						continue
					}
					if w.seq < rng.beginSeq {
						vStar = w // seq-sorted: keeps the newest
					} else {
						lateVisible = true
					}
				}
				if vStar != nil && !vStar.del && !lateVisible {
					r.add("kv-range-missing", "%s@ts=%d: key %s set at ts=%d (seq %d) before the walk, visible, never deleted — but absent",
						walk, S, order[i].s, vStar.cts, vStar.seq)
				}
			}
		}

		// Torn-txn: observing one key of a transaction at its commit
		// timestamp T proves T was visible at S; every other key the
		// transaction wrote inside the walked bounds must then be
		// observed at least that new (or be deleted by a visible later
		// write). Matching is exact, so this names the transaction even
		// when kv-range-stale would also fire.
		for _, w := range matched {
			if w.txn == 0 || tornTxn[w.txn] {
				continue
			}
			for _, gw := range txnWrites[w.txn] {
				if gw.key == w.key {
					continue
				}
				k2 := name(gw.key)
				if !inBounds(k2) {
					continue
				}
				if m2, ok := matched[gw.key]; ok {
					if m2.seq < gw.seq {
						r.add("kv-torn-txn", "%s@ts=%d: txn %d (ts=%d) torn — key %s observed from the txn but %s observed older (seq %d < %d)",
							walk, S, w.txn, w.cts, name(w.key), k2, m2.seq, gw.seq)
					}
					continue
				}
				if seen[gw.key] || gw.del {
					continue // unmatched observation (ambiguous) or txn's own delete
				}
				if !covered(k2) || truncSeq != 0 {
					continue
				}
				excused := false
				for _, d := range byKey[gw.key] {
					if d.del && d.seq > gw.seq && visible(d.cts) {
						excused = true
						break
					}
				}
				if !excused {
					r.add("kv-torn-txn", "%s@ts=%d: txn %d (ts=%d) torn — key %s observed from the txn but %s is absent",
						walk, S, w.txn, w.cts, name(w.key), k2)
				}
			}
		}
	}
	return r
}
