package check

import (
	"fmt"
	"sort"
	"strings"
)

// Opts configures Check.
type Opts struct {
	// Boundary is the ORDO uncertainty window the engine ran with
	// (clock.Boundary()). A version whose commit timestamp falls within
	// Boundary of a reader's entry timestamp is ambiguous: the checker
	// requires the engine to have treated it as not-yet-committed.
	Boundary uint64
	// MaxViolations caps the violations retained in the report (the
	// total count is still exact). 0 means 100.
	MaxViolations int
}

// Violation is one checker finding.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Report is the checker's verdict over one history.
type Report struct {
	Violations []Violation
	// Total counts all violations, including ones dropped by the cap.
	Total int
	// Truncated mirrors History.Truncated: some rules were relaxed
	// because the record is incomplete.
	Truncated bool

	Sections, Derefs, Commits, Reclaims, SlotResets, Writebacks, Watermarks int

	max int
}

// Ok reports a clean history.
func (r *Report) Ok() bool { return r.Total == 0 }

func (r *Report) add(rule, format string, args ...any) {
	r.Total++
	if len(r.Violations) < r.max {
		r.Violations = append(r.Violations, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d sections, %d derefs, %d commits, %d reclaims, %d slot resets, %d writebacks, %d watermarks",
		r.Sections, r.Derefs, r.Commits, r.Reclaims, r.SlotResets, r.Writebacks, r.Watermarks)
	if r.Truncated {
		b.WriteString(" (truncated)")
	}
	if r.Ok() {
		b.WriteString(": OK")
		return b.String()
	}
	fmt.Fprintf(&b, ": %d VIOLATIONS", r.Total)
	for _, v := range r.Violations {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if r.Total > len(r.Violations) {
		fmt.Fprintf(&b, "\n  ... and %d more", r.Total-len(r.Violations))
	}
	return b.String()
}

// commit is one non-aborted write-set entry, indexed per object.
type commit struct {
	cts, basedOn, seq uint64
	flags             uint8
}

// section is one critical section as seen in a thread stream.
type section struct {
	ts             uint64 // entry timestamp
	beginSeq       uint64
	endSeq         uint64 // ticket of End/Abort, 0 if the stream ended mid-section
	aborted        bool
	derefs, writes []Event
}

// Check validates a multi-version history (core MV-RLU or rlu engine)
// and returns the verdict. The rules are written so that a correct
// engine can never trip them (no false positives); see the inline
// soundness notes. When the history is truncated, rules that require a
// complete record (unknown-version, missing-write-back) are relaxed.
func Check(h *History, o Opts) *Report {
	threads, global, truncSeq := h.snapshot()
	r := &Report{Truncated: truncSeq != 0, max: o.MaxViolations}
	if r.max <= 0 {
		r.max = 100
	}
	B := o.Boundary

	// The global stream can interleave out of ticket order (the ticket
	// is drawn before the append lock); restore ticket order.
	sort.Slice(global, func(i, j int) bool { return global[i].Seq < global[j].Seq })

	// Pass 1: structure + per-thread rules, gathering sections.
	var sections []section
	for ti, ev := range threads {
		var cur *section
		var lastTS uint64
		inFirst := true
		for i := range ev {
			e := ev[i]
			switch e.Kind {
			case EvBegin:
				if cur != nil {
					r.add("structure", "thread %d: begin inside open section (%v)", ti, e)
					sections = append(sections, *cur)
				}
				if !inFirst && e.TS < lastTS {
					r.add("monotonic-snapshot", "thread %d: entry ts %d after entry ts %d", ti, e.TS, lastTS)
				}
				inFirst = false
				lastTS = e.TS
				sections = append(sections, section{ts: e.TS, beginSeq: e.Seq})
				cur = &sections[len(sections)-1]
			case EvEnd, EvAbort:
				if cur == nil {
					r.add("structure", "thread %d: %v without begin", ti, e)
					continue
				}
				cur.endSeq = e.Seq
				cur.aborted = e.Kind == EvAbort
				cur = nil
			case EvDeref:
				if cur == nil {
					r.add("structure", "thread %d: deref outside section (%v)", ti, e)
					continue
				}
				cur.derefs = append(cur.derefs, e)
			case EvWrite:
				if cur == nil {
					r.add("structure", "thread %d: write outside section (%v)", ti, e)
					continue
				}
				if e.TS < cur.ts {
					r.add("commit-ts", "thread %d: commit ts %d before entry ts %d (%v)", ti, e.TS, cur.ts, e)
				}
				cur.writes = append(cur.writes, e)
			default:
				r.add("structure", "thread %d: unexpected %v in SI history", ti, e)
			}
		}
	}

	// Index commits, write-backs, reclaims, watermarks.
	byObj := map[uint64][]commit{}   // non-const commits
	constBy := map[uint64][]commit{} // const (validation-only) entries
	for _, s := range sections {
		if s.aborted {
			// Engines record writes only on the commit path; a write in
			// an aborted section is itself a bug.
			for _, w := range s.writes {
				r.add("structure", "write in aborted section (%v)", w)
			}
			continue
		}
		for _, w := range s.writes {
			r.Commits++
			c := commit{cts: w.TS, basedOn: w.VTS, seq: w.Seq, flags: w.Flags}
			if w.Flags&FlagConst != 0 {
				constBy[w.Obj] = append(constBy[w.Obj], c)
			} else {
				byObj[w.Obj] = append(byObj[w.Obj], c)
			}
		}
		r.Sections++
		r.Derefs += len(s.derefs)
	}
	for obj := range byObj {
		cs := byObj[obj]
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].cts != cs[j].cts {
				return cs[i].cts < cs[j].cts
			}
			return cs[i].seq < cs[j].seq
		})
	}

	wbs := map[uint64][]Event{}            // obj -> write-backs, ticket order
	recl := map[uint64]map[uint64]uint64{} // obj -> vts -> earliest reclaim ticket
	var marks []Event
	maxPub := uint64(0)
	for _, e := range global {
		switch e.Kind {
		case EvWriteback:
			r.Writebacks++
			wbs[e.Obj] = append(wbs[e.Obj], e)
		case EvReclaim:
			r.Reclaims++
			// R1: re-evaluate the reclamation predicate the engine
			// claims to have applied: a version may go only if it is a
			// never-published const copy, a freed head below the
			// watermark, or superseded/pruned below the watermark.
			ok := e.Flags&FlagConst != 0 ||
				(e.Flags&FlagFree != 0 && e.VTS < e.Aux2) ||
				(e.Aux != 0 && e.Aux < e.Aux2) ||
				(e.TS != 0 && e.TS < e.Aux2)
			if !ok {
				r.add("premature-reclaim", "version (obj %d, cts %d, sts %d, pts %d) reclaimed under watermark %d", e.Obj, e.VTS, e.Aux, e.TS, e.Aux2)
			}
			// R2: the watermark used must not run ahead of what the
			// detector had broadcast by then. Sound because broadcast
			// events are ticketed before the publish CAS, so any value
			// the collector loaded has a smaller ticket. Needs the full
			// broadcast record: once the global stream truncates, maxPub
			// underestimates and the rule would misfire.
			if e.Aux2 > maxPub && !r.Truncated {
				r.add("premature-reclaim", "reclaim of (obj %d, cts %d) used watermark %d ahead of newest broadcast %d", e.Obj, e.VTS, e.Aux2, maxPub)
			}
			m := recl[e.Obj]
			if m == nil {
				m = map[uint64]uint64{}
				recl[e.Obj] = m
			}
			if s, dup := m[e.VTS]; !dup || e.Seq < s {
				m[e.VTS] = e.Seq
			}
		case EvSlotReset:
			r.SlotResets++
			// R6: a slot is reset only after the tail passed it, and the
			// pass that moved the tail recorded the version's reclaim
			// first, so recl (built in ticket order) already holds it.
			// Sound on a truncated record: both events go to this one
			// stream, which only grows, from collector passes serialized
			// per log, so a recorded reset's reclaim was recorded too.
			if _, ok := recl[e.Obj][e.VTS]; !ok {
				r.add("reset-before-reclaim", "obj %d version %d: slot reset at #%d before any reclaim of it", e.Obj, e.VTS, e.Seq)
			}
		case EvWatermark:
			r.Watermarks++
			// R4: published value must be window-conservative: at most
			// the scanned minimum entry ts minus the ORDO boundary.
			want := uint64(0)
			if e.TS > e.Aux {
				want = e.TS - e.Aux
			}
			if e.VTS > want {
				r.add("watermark", "broadcast published %d, but min entry ts %d with boundary %d allows at most %d", e.VTS, e.TS, e.Aux, want)
			}
			marks = append(marks, e)
			if e.VTS > maxPub {
				maxPub = e.VTS
			}
		default:
			r.add("structure", "unexpected %v in global stream", e)
		}
	}

	// R5: a broadcast's raw minimum must bound every section provably
	// pinned across the scan. End tickets are stamped before the pin is
	// released and broadcast tickets after the scan completes, so
	// beginSeq < markSeq < endSeq proves the pin was held for the whole
	// scan; the conservative pin-then-stamp entry protocol then forces
	// the scan's minimum at or below that entry ts.
	// marks is in global-stream (ascending Seq) order, so each section
	// examines only the broadcasts inside its own ticket window — a long
	// pinned section pays for the broadcasts it actually spanned, not for
	// the whole run. (The naive all-pairs scan was quadratic and took
	// tens of seconds on a stall-heavy torture history.)
	for _, s := range sections {
		if s.endSeq == 0 {
			continue // stream ended mid-section: pin state at scan unknown
		}
		lo := sort.Search(len(marks), func(i int) bool { return marks[i].Seq > s.beginSeq })
		for _, m := range marks[lo:] {
			if m.Seq >= s.endSeq {
				break
			}
			if m.TS > s.ts {
				r.add("watermark", "broadcast #%d scanned min %d past reader pinned at %d (section #%d..#%d)", m.Seq, m.TS, s.ts, s.beginSeq, s.endSeq)
			}
		}
	}

	// Lost updates: each object's committed versions must form a single
	// chain — every commit based on its immediate predecessor, either
	// directly (basedOn == predecessor cts) or through the master copy
	// after GC wrote that predecessor back.
	for obj, cs := range byObj {
		for i, c := range cs {
			if c.flags&FlagFree != 0 && i != len(cs)-1 {
				r.add("write-after-free", "obj %d: commit at %d after free at %d", obj, cs[i+1].cts, c.cts)
			}
			if i > 0 && c.flags&FlagFromMaster == 0 && c.basedOn == cs[i-1].cts {
				continue
			}
			if c.flags&FlagFromMaster != 0 {
				if i == 0 {
					continue // first recorded commit, locked pristine master
				}
				if hasWriteback(wbs[obj], cs[i-1].cts, c.seq) {
					continue
				}
				if !r.Truncated {
					r.add("lost-update", "obj %d: commit at %d locked master but predecessor %d was never written back", obj, c.cts, cs[i-1].cts)
				}
				continue
			}
			if i == 0 {
				if !r.Truncated {
					r.add("lost-update", "obj %d: commit at %d based on unrecorded version %d", obj, c.cts, c.basedOn)
				}
				continue
			}
			// Each stream truncates as a clean prefix, but different
			// threads' streams cut off at different points, so a
			// truncated history can hold a chain with the middle
			// thread's commits missing — basedOn then points past the
			// recorded predecessor without any lost update.
			if !r.Truncated {
				r.add("lost-update", "obj %d: commit at %d based on %d, skipping commit at %d", obj, c.cts, c.basedOn, cs[i-1].cts)
			}
		}
	}

	// Write skew: a TryLockConst entry asserts the object did not
	// change between the version it validated against and its own
	// commit; any interleaved commit is a skew the engine must have
	// aborted instead.
	for obj, cs := range constBy {
		chain := byObj[obj]
		for _, c := range cs {
			// Newest real commit strictly before this const commit.
			p := -1
			for i, cc := range chain {
				if cc.cts < c.cts {
					p = i
				} else {
					break
				}
			}
			if c.flags&FlagFromMaster != 0 {
				if p >= 0 && !hasWriteback(wbs[obj], chain[p].cts, c.seq) && !r.Truncated {
					r.add("write-skew", "obj %d: const commit at %d validated master but commit at %d intervened", obj, c.cts, chain[p].cts)
				}
				continue
			}
			if p < 0 {
				if !r.Truncated {
					r.add("write-skew", "obj %d: const commit at %d validated unrecorded version %d", obj, c.cts, c.basedOn)
				}
				continue
			}
			if chain[p].cts != c.basedOn && !r.Truncated {
				// Same prefix-truncation caveat as the lost-update rule:
				// the version validated against may simply be missing
				// from the record.
				r.add("write-skew", "obj %d: const commit at %d validated version %d but commit at %d intervened", obj, c.cts, c.basedOn, chain[p].cts)
			}
		}
	}

	// Snapshot validity per observation.
	for _, s := range sections {
		for _, d := range s.derefs {
			if d.Flags&FlagOwn != 0 {
				continue // thread's own uncommitted copy: always current
			}
			chain := byObj[d.Obj]
			if d.VTS != 0 {
				// Observed a committed version. It must be real, it
				// must be unambiguously before the section's entry
				// (the ORDO rule the mutation mode weakens), and no
				// newer unambiguous commit may exist.
				if !r.Truncated && !chainHas(chain, d.VTS) {
					r.add("snapshot", "observation of obj %d saw unrecorded version %d", d.Obj, d.VTS)
				}
				if d.VTS > s.ts || s.ts-d.VTS < B {
					r.add("snapshot", "observation of obj %d saw version %d inside the %d-wide ORDO window of entry ts %d", d.Obj, d.VTS, B, s.ts)
				}
				if n := newestBefore(chain, s.ts, B, d.Seq); n != nil && n.cts > d.VTS {
					r.add("snapshot", "stale read: obj %d entry ts %d observed version %d, but version %d was unambiguously committed", d.Obj, s.ts, d.VTS, n.cts)
				}
				// Use-after-reclaim: the reclaim ticket precedes the
				// observation ticket, and the observation was made
				// under a pin held since before its own ticket — a
				// correct engine cannot produce this order.
				if m := recl[d.Obj]; m != nil {
					if rs, ok := m[d.VTS]; ok && rs < d.Seq {
						r.add("use-after-reclaim", "obj %d version %d observed at #%d after reclaim at #%d", d.Obj, d.VTS, d.Seq, rs)
					}
				}
			} else if !r.Truncated {
				// Observed the master copy: the newest unambiguous
				// commit, if any, must have been written back (else
				// the master is stale).
				if n := newestBefore(chain, s.ts, B, d.Seq); n != nil && !hasWriteback(wbs[d.Obj], n.cts, 0) {
					r.add("snapshot", "stale read: obj %d entry ts %d observed master, but version %d was unambiguously committed and never written back", d.Obj, s.ts, n.cts)
				}
			}
		}
	}
	return r
}

// chainHas reports whether a commit at exactly cts exists.
func chainHas(chain []commit, cts uint64) bool {
	i := sort.Search(len(chain), func(i int) bool { return chain[i].cts >= cts })
	return i < len(chain) && chain[i].cts == cts
}

// newestBefore returns the newest commit unambiguously before entry ts
// ts (cts + B < ts, strict so that a same-tick commit racing the
// observation is never counted) that was ticketed before the
// observation, or nil. The ticket guard is what makes the stale-read
// rule sound: observation tickets are drawn before the walk's first
// load, so commit.seq < deref.seq proves the commit was fully published
// before the walk could have looked — anything ticketed later may have
// raced the walk and is skipped, which can hide nothing the observation
// was obliged to see.
func newestBefore(chain []commit, ts, B uint64, beforeSeq uint64) *commit {
	for i := len(chain) - 1; i >= 0; i-- {
		c := &chain[i]
		if c.cts < ts && ts-c.cts > B && (beforeSeq == 0 || c.seq < beforeSeq) {
			return c
		}
	}
	return nil
}

// hasWriteback reports a write-back of the version committed at cts,
// optionally restricted to tickets before beforeSeq (0 = any).
func hasWriteback(wbs []Event, cts uint64, beforeSeq uint64) bool {
	for _, w := range wbs {
		if w.VTS == cts && (beforeSeq == 0 || w.Seq < beforeSeq) {
			return true
		}
	}
	return false
}
