package check

import "testing"

// Hand-written KV-index histories exercising every CheckKV rule: the
// clean shape first, then each violation planted one at a time so a
// regression in any rule fails its own test, not a shared one.

// kvSet records a committed Set of key to val at cts (txn 0).
func kvSet(h *History, r *ThreadRec, key, val string, cts uint64) {
	r.KVWrite(h.KeyID(key), cts, ValueHash(val), 0, false)
}

// kvObserve records one pair of the open walk.
func kvObserve(h *History, r *ThreadRec, key, val string) {
	r.KVRangeObs(h.KeyID(key), ValueHash(val))
}

func TestKVCleanHistory(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 11)
	kvSet(h, w, "c", "c1", 12)
	// One multi-key transaction: both writes share cts and txn id.
	w.KVWrite(h.KeyID("a"), 20, ValueHash("a2"), 7, false)
	w.KVWrite(h.KeyID("b"), 20, ValueHash("b2"), 7, false)

	rd.KVRangeBegin(25, h.KeyID("a"), h.KeyID("c"), 0)
	kvObserve(h, rd, "a", "a2")
	kvObserve(h, rd, "b", "b2")
	kvObserve(h, rd, "c", "c1")
	rd.KVRangeEnd(false)

	// Descending walk over the same snapshot.
	rd.KVRangeBegin(25, h.KeyID("a"), h.KeyID("c"), FlagRev)
	kvObserve(h, rd, "c", "c1")
	kvObserve(h, rd, "b", "b2")
	kvObserve(h, rd, "a", "a2")
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	wantClean(t, rep)
	if rep.Sections != 2 || rep.Commits != 5 || rep.Derefs != 6 {
		t.Fatalf("miscounted: %s", rep)
	}
}

// TestKVRangeSnapshotViolation: a walk pinned at ts=15 yields a value
// committed at ts=30 — two timestamps in one walk.
func TestKVRangeSnapshotViolation(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 12)

	rd.KVRangeBegin(15, h.KeyID("a"), h.KeyID("b"), 0)
	kvObserve(h, rd, "a", "a1")
	// The write lands mid-walk with a later timestamp, and the walk
	// observes it anyway: a mixed-timestamp range read.
	w.KVWrite(h.KeyID("b"), 30, ValueHash("b2"), 0, false)
	kvObserve(h, rd, "b", "b2")
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	if rep.Ok() {
		t.Fatal("mixed-timestamp range read passed")
	}
	wantRule(t, rep, "kv-range-snapshot", "two timestamps in one walk")
}

// TestKVTornTxnViolation: a walk observes one key of a transaction but
// an OLDER value of another key the same transaction wrote — the commit
// is torn across the reader.
func TestKVTornTxnViolation(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 11)
	w.KVWrite(h.KeyID("a"), 20, ValueHash("a2"), 9, false)
	w.KVWrite(h.KeyID("b"), 20, ValueHash("b2"), 9, false)

	rd.KVRangeBegin(25, h.KeyID("a"), h.KeyID("b"), 0)
	kvObserve(h, rd, "a", "a2") // from txn 9
	kvObserve(h, rd, "b", "b1") // pre-txn value: torn
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	if rep.Ok() {
		t.Fatal("torn multi-key commit passed")
	}
	wantRule(t, rep, "kv-torn-txn", "observed older")
}

// TestKVTornTxnAbsent: the transaction's second key is absent from the
// walk entirely (never written before the txn), same verdict.
func TestKVTornTxnAbsent(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	w.KVWrite(h.KeyID("a"), 20, ValueHash("a2"), 3, false)
	w.KVWrite(h.KeyID("b"), 20, ValueHash("b2"), 3, false)

	rd.KVRangeBegin(25, h.KeyID("a"), h.KeyID("b"), 0)
	kvObserve(h, rd, "a", "a2")
	// b absent although txn 3 wrote it inside the bounds.
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	if rep.Ok() {
		t.Fatal("half-visible transaction passed")
	}
	wantRule(t, rep, "kv-torn-txn", "is absent")
}

// TestKVTxnTimestampSplit: two writes claiming one transaction id with
// different commit timestamps — structurally impossible for a single
// Execute body.
func TestKVTxnTimestampSplit(t *testing.T) {
	h := NewHistory(0)
	w := h.ThreadRec()
	w.KVWrite(h.KeyID("a"), 20, ValueHash("a2"), 5, false)
	w.KVWrite(h.KeyID("b"), 21, ValueHash("b2"), 5, false)
	rep := CheckKV(h, Opts{})
	wantRule(t, rep, "kv-txn-ts", "two commit timestamps")
}

// TestKVRangeMissing: a visible, never-deleted key inside the bounds is
// skipped by the walk.
func TestKVRangeMissing(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 11)
	kvSet(h, w, "c", "c1", 12)

	rd.KVRangeBegin(20, h.KeyID("a"), h.KeyID("c"), 0)
	kvObserve(h, rd, "a", "a1")
	kvObserve(h, rd, "c", "c1") // b skipped
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	wantRule(t, rep, "kv-range-missing", "but absent")
}

// TestKVRangeMissingPartialExcused: the same skip is NOT a violation
// when the walk stopped early before reaching the key.
func TestKVRangeMissingPartialExcused(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 11)

	rd.KVRangeBegin(20, h.KeyID("a"), h.KeyID("b"), 0)
	kvObserve(h, rd, "a", "a1")
	rd.KVRangeEnd(true) // early stop after a
	wantClean(t, CheckKV(h, Opts{}))
}

// TestKVRangeStale: the walk returns an old value although a newer one
// was visible at the snapshot and fully published before the walk began.
func TestKVRangeStale(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()

	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "a", "a2", 12)

	rd.KVRangeBegin(20, h.KeyID("a"), h.KeyID("a"), 0)
	kvObserve(h, rd, "a", "a1")
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	wantRule(t, rep, "kv-range-stale", "predates the walk")
}

// TestKVRangeBounds: out-of-bounds, duplicate, and misordered
// observations are structural violations.
func TestKVRangeBounds(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 10)
	kvSet(h, w, "z", "z1", 10)

	rd.KVRangeBegin(20, h.KeyID("a"), h.KeyID("b"), 0)
	kvObserve(h, rd, "b", "b1")
	kvObserve(h, rd, "a", "a1") // misordered for an ascending walk
	kvObserve(h, rd, "a", "a1") // duplicate
	kvObserve(h, rd, "z", "z1") // out of bounds
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	wantRule(t, rep, "kv-range-bounds", "observed after")
	wantRule(t, rep, "kv-range-bounds", "observed twice")
	wantRule(t, rep, "kv-range-bounds", "out-of-bounds")
}

// TestKVStructure: events outside a walk, nested walks, ends without
// begins, and non-KV events are all structural violations.
func TestKVStructure(t *testing.T) {
	h := NewHistory(0)
	rd := h.ThreadRec()
	rd.KVRangeObs(1, 2) // obs outside a walk
	rd.KVRangeEnd(false)
	rd.KVRangeBegin(10, 1, 2, 0)
	rd.KVRangeBegin(10, 1, 2, 0)  // nested
	rd.KVWrite(1, 5, 1, 0, false) // write inside an open walk
	rd.KVRangeEnd(false)
	rd.Begin(3) // engine event in a KV history

	rep := CheckKV(h, Opts{})
	m := rules(rep)
	if m["kv-structure"] < 4 {
		t.Fatalf("expected >=4 kv-structure violations, got:\n%s", rep)
	}
}

// TestKVAmbiguityWindowWriteback: a matched value whose cts lies inside
// the ORDO window (S-B, S] is NOT flagged — GC writeback can legally put
// it in the master where the engine serves it without a timestamp.
func TestKVAmbiguityWindowWriteback(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "a", "a1", 98)

	rd.KVRangeBegin(100, h.KeyID("a"), h.KeyID("a"), 0)
	kvObserve(h, rd, "a", "a1") // cts=98, S=100, B=5: inside the window
	rd.KVRangeEnd(false)

	wantClean(t, CheckKV(h, Opts{Boundary: 5}))
}

// TestKVDeleteExcusesAbsence: a key deleted before the snapshot is
// legitimately absent from the walk.
func TestKVDeleteExcusesAbsence(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "a", "a1", 10)
	kvSet(h, w, "b", "b1", 11)
	w.KVWrite(h.KeyID("b"), 12, 0, 0, true) // delete b

	rd.KVRangeBegin(20, h.KeyID("a"), h.KeyID("b"), 0)
	kvObserve(h, rd, "a", "a1")
	rd.KVRangeEnd(false)

	wantClean(t, CheckKV(h, Opts{}))
}

// TestKVUnknownValue: a walk yielding a value no write produced is
// flagged on a complete (untruncated) history.
func TestKVUnknownValue(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "a", "a1", 10)

	rd.KVRangeBegin(20, h.KeyID("a"), h.KeyID("a"), 0)
	kvObserve(h, rd, "a", "phantom")
	rd.KVRangeEnd(false)

	rep := CheckKV(h, Opts{})
	wantRule(t, rep, "kv-unknown-value", "no recorded write")
}

// TestKVPrefixWalkClean: a prefix walk yields its keys in bucket order,
// as a hash build's does, and misses no key with the prefix; keys
// outside the prefix are neither expected nor flagged.
func TestKVPrefixWalkClean(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "p:a", "a1", 10)
	kvSet(h, w, "p:b", "b1", 11)
	kvSet(h, w, "p:c", "c1", 12)
	kvSet(h, w, "q:a", "q1", 13)

	rd.KVRangeBegin(20, h.KeyID("p:"), 0, FlagPrefix)
	kvObserve(h, rd, "p:c", "c1")
	kvObserve(h, rd, "p:a", "a1")
	kvObserve(h, rd, "p:b", "b1")
	rd.KVRangeEnd(false)
	wantClean(t, CheckKV(h, Opts{}))
}

// TestKVPrefixWalkBounds: a prefix walk that yields a key without the
// prefix is out of bounds.
func TestKVPrefixWalkBounds(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "p:a", "a1", 10)
	kvSet(h, w, "q:a", "q1", 11)

	rd.KVRangeBegin(20, h.KeyID("p:"), 0, FlagPrefix)
	kvObserve(h, rd, "q:a", "q1")
	kvObserve(h, rd, "p:a", "a1")
	rd.KVRangeEnd(false)
	wantRule(t, CheckKV(h, Opts{}), "kv-range-bounds", "out-of-bounds key q:a")
}

// TestKVPrefixWalkMissing: a complete prefix walk must yield every
// visible key with the prefix; a partial one proves no absence, since
// its pairs come in no key order.
func TestKVPrefixWalkMissing(t *testing.T) {
	for _, partial := range []bool{false, true} {
		h := NewHistory(0)
		w, rd := h.ThreadRec(), h.ThreadRec()
		kvSet(h, w, "p:a", "a1", 10)
		kvSet(h, w, "p:b", "b1", 11)
		kvSet(h, w, "p:c", "c1", 12)

		rd.KVRangeBegin(20, h.KeyID("p:"), 0, FlagPrefix)
		kvObserve(h, rd, "p:c", "c1") // p:a and p:b not yielded
		rd.KVRangeEnd(partial)
		rep := CheckKV(h, Opts{})
		if partial {
			wantClean(t, rep)
		} else {
			wantRule(t, rep, "kv-range-missing", "key p:a")
		}
	}
}

// TestKVPrefixWalkTornTxn: a prefix walk that sees one key of a
// transaction new and another older is torn, whatever the order it
// yields them in.
func TestKVPrefixWalkTornTxn(t *testing.T) {
	h := NewHistory(0)
	w, rd := h.ThreadRec(), h.ThreadRec()
	kvSet(h, w, "p:a", "a1", 10)
	kvSet(h, w, "p:b", "b1", 10)
	w.KVWrite(h.KeyID("p:a"), 20, ValueHash("a2"), 3, false)
	w.KVWrite(h.KeyID("p:b"), 20, ValueHash("b2"), 3, false)

	rd.KVRangeBegin(25, h.KeyID("p:"), 0, FlagPrefix)
	kvObserve(h, rd, "p:b", "b1")
	kvObserve(h, rd, "p:a", "a2")
	rd.KVRangeEnd(false)
	wantRule(t, CheckKV(h, Opts{}), "kv-torn-txn", "observed older")
}
