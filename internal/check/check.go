// Package check is the engine's correctness net: a low-overhead history
// recorder plus an offline checker that validates recorded executions of
// the three synchronization engines (MV-RLU in internal/core, RLU in
// internal/rlu, RCU in internal/rcu) against the guarantees they
// advertise:
//
//  1. snapshot validity — every dereference returns the newest version
//     whose commit timestamp is unambiguously before the section's entry
//     timestamp (PAPER §3.3), modulo the ORDO uncertainty window;
//  2. per-thread monotonic snapshots — a thread's critical-section entry
//     timestamps never go backwards;
//  3. write safety — no lost updates under TryLock (every commit builds
//     on its predecessor) and no write skew under TryLockConst (a
//     const-locked object admits no intervening commit);
//  4. GC safety — no version is reclaimed while a still-pinned entry
//     timestamp could legally observe it, cross-checked against the
//     watermark broadcasts the reclamation was justified by.
//
// Cost model: recording follows attachment. A thread records exactly
// when its recorder pointer is non-nil, which it is iff a History was
// attached before the thread registered; there is no global switch. A
// site with no recorder costs a plain-pointer nil check (the pointer
// lives on the thread's hot cache line) — see
// BenchmarkRecordSiteDisabled. Recording sites append to
// per-thread event streams owned by their recording goroutine (no locks,
// no sharing); only the low-frequency GC/watermark events (reclaims,
// write-backs, broadcasts) go through a mutex because reclamation may run
// on the grace-period detector's goroutine.
//
// Every event carries a ticket from one global atomic sequence counter.
// The sequence is NOT a logical clock of the engine — engines order by
// timestamps — but it gives the checker a sound real-time order for the
// few cross-thread rules that need one (an observation sequenced after
// the observed version's reclamation is a use-after-free; a section
// provably open across a watermark scan must bound that scan's minimum).
// Stamp placement is chosen so that every such rule can only fire on a
// genuine violation; see the soundness notes on Checker.
package check

import "sync/atomic"

// seq is the global event sequence counter. Tickets start at 1 so that 0
// can mean "no event".
var seq atomic.Uint64

// nextSeq draws the next event ticket.
func nextSeq() uint64 { return seq.Add(1) }
