package server

import (
	"bufio"
	"strconv"
	"strings"

	"mvrlu/internal/kvstore"
)

// This file is the wire surface over the transaction and ordered-index
// capabilities: the MULTI/EXEC/DISCARD transaction state machine
// (kvstore.TxnSession, every build) and the helpers behind the RANGE
// table entry (kvstore.OrderedSession, the -idx builds).
//
// The transaction contract mirrors the store's: every queued mutation of
// one MULTI body executes inside ONE engine commit — one Execute body,
// one commit timestamp, one WAL record group — so a reader either sees
// all of the transaction or none of it, and recovery can never replay it
// torn. Over a sharded store that contract is only affordable when the
// body stays on one shard (a cross-shard transaction would need a
// distributed commit protocol the engines do not have), so EXEC rejects
// bodies whose keys hash to different shards; see DESIGN.md §12.

// Transaction error-reply texts. msgExecAbort deliberately carries
// Redis's EXECABORT prefix so existing clients classify it correctly.
const (
	msgNestedMulti    = "ERR MULTI calls can not be nested"
	msgExecNoMulti    = "ERR EXEC without MULTI"
	msgDiscardNoMulti = "ERR DISCARD without MULTI"
	msgExecAbort      = "EXECABORT Transaction discarded because of previous errors."
	msgNotOrdered     = "ERR this store build has no ordered index; run an -idx build (mvrlu-idx, rlu-idx, vanilla-idx)"
	msgCrossShard     = "ERR CROSSSHARD keys of a MULTI body must hash to one shard"
)

// notQueueableMsg rejects a command inside MULTI: only SET and DEL queue
// (reads inside a transaction would need the queued writes applied to
// answer, which the one-commit model deliberately does not do).
func notQueueableMsg(word []byte) string {
	return "ERR '" + strings.ToLower(string(word)) + "' is not allowed inside MULTI (only SET and DEL queue)"
}

// txnCmd is one queued command of an open MULTI body: a SET (key, val)
// or a DEL (keys). Kept per command, not per engine op, because EXEC's
// reply array has one element per queued command.
type txnCmd struct {
	del  bool
	keys []string // DEL keys
	key  string   // SET key
	val  string   // SET value
}

// txnState is a connection's open transaction. Only the connection
// goroutine touches it (commands are planned there, in submission
// order), so it needs no synchronization. aborted latches a queue-time
// error; EXEC then refuses with EXECABORT instead of executing half a
// body.
type txnState struct {
	active  bool
	aborted bool
	cmds    []txnCmd
}

func (ts *txnState) reset() { *ts = txnState{} }

// planQueued plans a command that arrived inside an open MULTI body and
// is not itself MULTI/EXEC/DISCARD: a well-formed queueable command
// (one whose table entry has a queue hook) joins the body and answers
// +QUEUED; anything else is an error reply that also latches aborted.
// cmd is nil for an unknown command word.
func (c *conn) planQueued(sl *slot, cmd *command, args [][]byte) {
	switch {
	case cmd == nil || cmd.queue == nil:
		sl.errmsg = notQueueableMsg(args[0])
	case !cmd.arity(len(args)):
		sl.errmsg = arityMsg(cmd.name)
	default:
		c.txn.cmds = append(c.txn.cmds, cmd.queue(args))
		sl.queued = true
		return
	}
	c.txn.aborted = true
}

// planExec is EXEC's plan hook. It always ends the open body, then
// compiles it into ONE shard op, so the transaction executes on a single
// session inside a single engine commit. A body whose keys hash to
// different shards is rejected here, at plan time, with the store
// untouched: single-shard MULTI is the documented contract (DESIGN.md
// §12). EXEC is the one write whose degraded-WAL refusal is not
// planSlot's generic one: the body must be taken, and an aborted or
// empty body answered as such, before the refusal applies.
func planExec(c *conn, sl *slot, _ [][]byte) {
	if !c.txn.active {
		sl.errmsg = msgExecNoMulti
		return
	}
	cmds, aborted := c.txn.cmds, c.txn.aborted
	c.txn.reset()
	switch {
	case aborted:
		sl.errmsg = msgExecAbort
		return
	case len(cmds) == 0:
		return // renders the empty array
	}
	if sl.errmsg = c.walRefusal(); sl.errmsg != "" {
		return
	}
	ops := flattenTxn(cmds)
	shard := c.srv.shardFor(ops[0].Key)
	for _, op := range ops[1:] {
		if c.srv.shardFor(op.Key) != shard {
			sl.errmsg = msgCrossShard
			return
		}
	}
	sl.txnCmds = cmds
	c.op(sl, shard).ops = ops
}

// flattenTxn compiles queued commands into the engine's op list, in
// queue order (a DEL of n keys contributes n ops).
func flattenTxn(cmds []txnCmd) []kvstore.TxnOp {
	var ops []kvstore.TxnOp
	for _, cmd := range cmds {
		if cmd.del {
			for _, k := range cmd.keys {
				ops = append(ops, kvstore.TxnOp{Del: true, Key: k})
			}
		} else {
			ops = append(ops, kvstore.TxnOp{Key: cmd.key, Value: cmd.val})
		}
	}
	return ops
}

// renderExec writes EXEC's reply: one element per queued command — +OK
// for a SET, the removed count for a DEL — from the engine's per-op
// removed flags (indexed in flattenTxn's op order).
func renderExec(w *bufio.Writer, cmds []txnCmd, removed []bool) bool {
	if writeArrayHeader(w, len(cmds)) != nil {
		return false
	}
	i := 0
	for _, cmd := range cmds {
		if cmd.del {
			n := int64(0)
			for range cmd.keys {
				if i < len(removed) && removed[i] {
					n++
				}
				i++
			}
			if writeInt(w, n) != nil {
				return false
			}
			continue
		}
		if writeSimple(w, "OK") != nil {
			return false
		}
		i++
	}
	return true
}

// parseRangeOpts validates RANGE's [LIMIT n] [REV] tail; errmsg is "" on
// success. Bounds are inclusive; LIMIT and REV compose in either order. A
// start above stop is legal and yields an empty array.
func parseRangeOpts(tail [][]byte) (limit int, rev bool, errmsg string) {
	limit = -1
	for i := 0; i < len(tail); {
		switch strings.ToUpper(string(tail[i])) {
		case "LIMIT":
			if i+1 >= len(tail) {
				return 0, false, "ERR syntax error"
			}
			n, err := strconv.Atoi(string(tail[i+1]))
			if err != nil || n < 0 {
				return 0, false, "ERR invalid LIMIT"
			}
			limit = n
			i += 2
		case "REV":
			rev = true
			i++
		default:
			return 0, false, "ERR syntax error"
		}
	}
	return limit, rev, ""
}

// collectRange walks [lo, hi] inside one snapshot critical section, in
// the reply's direction, and stops after limit pairs (-1 = no limit).
// Cutting per shard is exact: the n smallest keys overall are among the
// union of every shard's n smallest (and likewise the largest), so the
// render's merge and cut over at most shards×limit pairs returns what a
// merge of the unbounded walks would — LIMIT n REV is "the n largest
// keys, descending" on every build and shard count. A RANGE therefore
// costs the pairs it returns, not the keys its window spans.
func collectRange(sess kvstore.OrderedSession, lo, hi string, limit int, rev bool) []scanKV {
	if limit == 0 {
		return nil
	}
	var out []scanKV
	if limit > 0 {
		// Sized once for the common small LIMIT; capped because the
		// window may hold far fewer pairs than a large one.
		out = make([]scanKV, 0, min(limit, 64))
	}
	keep := func(k, v string) bool {
		out = append(out, scanKV{k, v})
		return len(out) != limit
	}
	if rev {
		sess.RangeDescend(lo, hi, keep)
	} else {
		sess.RangeAscend(lo, hi, keep)
	}
	return out
}
