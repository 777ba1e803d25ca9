package server

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"mvrlu/internal/kvstore"
)

// command is one entry of the command table: everything the server knows
// about a command lives here, so adding one is adding one entry. The
// batch pipeline (router.go) is command-agnostic — it looks the name up,
// applies the generic checks this entry declares, and calls the hooks:
//
//	plan   — on the connection goroutine, in submission order: parse the
//	         arguments into the slot and queue per-shard ops (c.op). A
//	         parse failure sets sl.errmsg and queues nothing.
//	exec   — on a shard's pooled session, possibly on a worker goroutine,
//	         once per queued op: touch the store, leave results in the
//	         part of the slot this op owns.
//	render — back on the connection goroutine after every shard joined:
//	         write the reply from the slot. Commands that never touch the
//	         store (INFO, PING, ...) do their work here.
//
// plan and exec are optional; render is not.
type command struct {
	// name is the canonical upper-case name. pooledSession.lastCmd points
	// at this field, so INFO reads it from other goroutines: it is never
	// written after init.
	name string
	// arity reports whether a command line of nargs words (name included)
	// is well-formed.
	arity func(nargs int) bool
	// write marks a store mutation: planSlot refuses it while the WAL is
	// degraded, and renderSlot marks the ack gate dirty before its reply.
	write bool
	// multi marks the transaction-control commands, which plan themselves
	// inside an open MULTI body; every other command is queued or refused
	// there (txn.go).
	multi bool
	// queue compiles the command into a MULTI body element; nil means the
	// command cannot be queued.
	queue func(args [][]byte) txnCmd

	plan   func(c *conn, sl *slot, args [][]byte)
	exec   func(op *shardOp, ps *pooledSession)
	render func(c *conn, sl *slot) bool
}

func exactly(n int) func(int) bool { return func(nargs int) bool { return nargs == n } }
func atLeast(n int) func(int) bool { return func(nargs int) bool { return nargs >= n } }

var commands = []command{
	{name: "PING", arity: atLeast(1),
		plan: func(c *conn, sl *slot, args [][]byte) {
			if len(args) > 1 {
				sl.ping = args[1]
			}
		},
		render: func(c *conn, sl *slot) bool {
			if sl.ping != nil {
				return writeBulk(c.bw, sl.ping) == nil
			}
			return writeSimple(c.bw, "PONG") == nil
		}},

	{name: "GET", arity: exactly(2),
		plan: func(c *conn, sl *slot, args [][]byte) {
			key := string(args[1])
			c.op(sl, c.srv.shardFor(key)).key = key
		},
		exec: func(op *shardOp, ps *pooledSession) {
			op.sl.val, op.sl.got = ps.sess.Get(op.key)
		},
		render: func(c *conn, sl *slot) bool {
			if sl.got {
				return writeBulkString(c.bw, sl.val) == nil
			}
			return writeNull(c.bw) == nil
		}},

	{name: "SET", arity: exactly(3), write: true,
		queue: func(args [][]byte) txnCmd {
			return txnCmd{key: string(args[1]), val: string(args[2])}
		},
		plan: func(c *conn, sl *slot, args [][]byte) {
			key := string(args[1])
			op := c.op(sl, c.srv.shardFor(key))
			op.key, op.val = key, string(args[2])
		},
		exec:   func(op *shardOp, ps *pooledSession) { ps.sess.Set(op.key, op.val) },
		render: renderOK},

	{name: "DEL", arity: atLeast(2), write: true,
		queue: func(args [][]byte) txnCmd {
			keys := make([]string, len(args)-1)
			for i, a := range args[1:] {
				keys[i] = string(a)
			}
			return txnCmd{del: true, keys: keys}
		},
		plan: planKeys,
		exec: func(op *shardOp, ps *pooledSession) {
			n := int64(0)
			for _, k := range op.keys {
				if ps.sess.Remove(k) {
					n++
				}
			}
			op.sl.n.Add(n)
		},
		render: renderCount},

	{name: "EXISTS", arity: atLeast(2),
		plan: planKeys,
		exec: func(op *shardOp, ps *pooledSession) {
			n := int64(0)
			for _, k := range op.keys {
				if _, ok := ps.sess.Get(k); ok {
					n++
				}
			}
			op.sl.n.Add(n)
		},
		render: renderCount},

	{name: "MGET", arity: atLeast(2),
		plan: func(c *conn, sl *slot, args [][]byte) {
			sl.vals = make([]mgetVal, len(args)-1)
			for i, a := range args[1:] {
				k := string(a)
				op := c.opFor(sl, c.srv.shardFor(k))
				op.iks = append(op.iks, idxKey{i, k})
			}
		},
		exec: func(op *shardOp, ps *pooledSession) {
			for _, ik := range op.iks {
				v, ok := ps.sess.Get(ik.k)
				op.sl.vals[ik.i] = mgetVal{v, ok}
			}
		},
		render: func(c *conn, sl *slot) bool {
			if writeArrayHeader(c.bw, len(sl.vals)) != nil {
				return false
			}
			for _, mv := range sl.vals {
				if mv.ok {
					if writeBulkString(c.bw, mv.v) != nil {
						return false
					}
				} else if writeNull(c.bw) != nil {
					return false
				}
			}
			return true
		}},

	{name: "MSET", arity: func(nargs int) bool { return nargs >= 3 && nargs%2 == 1 }, write: true,
		plan: func(c *conn, sl *slot, args [][]byte) {
			for i := 1; i < len(args); i += 2 {
				k := string(args[i])
				op := c.opFor(sl, c.srv.shardFor(k))
				op.pairs = append(op.pairs, [2]string{k, string(args[i+1])})
			}
		},
		exec: func(op *shardOp, ps *pooledSession) {
			for _, p := range op.pairs {
				ps.sess.Set(p[0], p[1])
			}
		},
		render: renderOK},

	// SCAN <prefix> [LIMIT n]: a consistent snapshot of every record whose
	// key starts with prefix, as a flat key,value,... array sorted by key.
	// This deliberately diverges from Redis's cursor SCAN — the point here
	// is the opposite of Redis's: ONE snapshot critical section per shard
	// over its whole keyspace, the long-lived reader that pins old
	// versions and exercises the multi-version GC.
	{name: "SCAN", arity: func(nargs int) bool { return nargs == 2 || nargs == 4 },
		plan: func(c *conn, sl *slot, args [][]byte) {
			limit, errmsg := parseScanLimit(args[2:])
			if errmsg != "" {
				sl.errmsg = errmsg
				return
			}
			sl.limit = limit
			c.fanOut(sl, string(args[1]), "")
		},
		exec: func(op *shardOp, ps *pooledSession) {
			op.sl.scan[op.shard] = collectScan(ps.sess, op.key)
		},
		render: func(c *conn, sl *slot) bool {
			// Hash-store walks come back in bucket order, so the sort is
			// needed at every shard count; it is also what makes the
			// reply independent of how the keyspace is partitioned.
			out := concatShards(sl.scan)
			sortByKey(out, false)
			return renderPairs(c.bw, out, sl.limit)
		}},

	// RANGE <start> <stop> [LIMIT n] [REV]: every record with start <= key
	// <= stop, each shard observed at ONE snapshot timestamp, as a flat
	// key,value,... array in key order. Requires an ordered-index build.
	{name: "RANGE", arity: atLeast(3),
		plan: func(c *conn, sl *slot, args [][]byte) {
			limit, rev, errmsg := parseRangeOpts(args[3:])
			switch {
			case errmsg != "":
				sl.errmsg = errmsg
			case !c.srv.ordered:
				sl.errmsg = msgNotOrdered
			default:
				sl.limit, sl.rev = limit, rev
				c.fanOut(sl, string(args[1]), string(args[2]))
			}
		},
		exec: func(op *shardOp, ps *pooledSession) {
			// lo rides in key, hi in val. ps.ordered is non-nil: plan only
			// queues range ops when the server probed the build as ordered.
			op.sl.scan[op.shard] = collectRange(ps.ordered, op.key, op.val, op.sl.limit, op.sl.rev)
		},
		render: func(c *conn, sl *slot) bool {
			// Each shard's walk is already in reply order and at most limit
			// long, but shards partition by hash, so only a merged sort
			// restores key order across several before the cut.
			out := concatShards(sl.scan)
			if len(sl.scan) > 1 {
				sortByKey(out, sl.rev)
			}
			return renderPairs(c.bw, out, sl.limit)
		}},

	{name: "MULTI", arity: atLeast(1), multi: true,
		plan: func(c *conn, sl *slot, _ [][]byte) {
			if c.txn.active {
				sl.errmsg = msgNestedMulti
				return
			}
			c.txn.active = true
		},
		render: renderOK},

	{name: "DISCARD", arity: atLeast(1), multi: true,
		plan: func(c *conn, sl *slot, _ [][]byte) {
			if !c.txn.active {
				sl.errmsg = msgDiscardNoMulti
				return
			}
			c.txn.reset()
		},
		render: renderOK},

	{name: "EXEC", arity: atLeast(1), write: true, multi: true,
		plan: planExec,
		exec: func(op *shardOp, ps *pooledSession) {
			op.sl.removed = ps.sess.ApplyTxn(op.ops)
		},
		render: func(c *conn, sl *slot) bool {
			return renderExec(c.bw, sl.txnCmds, sl.removed)
		}},

	// INFO → race-free sections only; INFO ALL → also the full engine
	// Stats behind a bounded pool quiesce (see infoText). Rendering runs
	// after every shard worker has joined and returned its session, so
	// the quiesce can collect whole pools.
	{name: "INFO", arity: atLeast(1),
		plan: func(c *conn, sl *slot, args [][]byte) {
			sl.full = len(args) > 1 && strings.EqualFold(string(args[1]), "ALL")
		},
		render: func(c *conn, sl *slot) bool {
			return writeBulkString(c.bw, c.srv.infoText(sl.full)) == nil
		}},

	// METRICS: the full Prometheus exposition over RESP — same registry
	// the /metrics endpoint serves, same always-safe atomic-read
	// discipline, so it never quiesces or blocks traffic. For deployments
	// without the HTTP listener.
	{name: "METRICS", arity: atLeast(1),
		render: func(c *conn, sl *slot) bool {
			var buf bytes.Buffer
			if err := c.srv.reg.WriteText(&buf); err != nil {
				return writeErrorReply(c.bw, "ERR metrics: "+err.Error()) == nil
			}
			return writeBulkString(c.bw, buf.String()) == nil
		}},

	// TRACELOG: the flight recorder over RESP (trace.go).
	{name: "TRACELOG", arity: atLeast(1),
		plan: func(c *conn, sl *slot, args [][]byte) {
			sl.tlog, sl.errmsg = parseTracelog(args)
		},
		render: func(c *conn, sl *slot) bool {
			return writeBulkString(c.bw, c.srv.tracelogText(sl.tlog)) == nil
		}},

	// QUIT and SHUTDOWN end the connection: collection stops at them (later
	// bytes are the next life's problem) and their render reports false.
	{name: "QUIT", arity: atLeast(1),
		plan: func(c *conn, _ *slot, _ [][]byte) { c.closing = true },
		render: func(c *conn, _ *slot) bool {
			writeSimple(c.bw, "OK")
			return false
		}},

	{name: "SHUTDOWN", arity: atLeast(1),
		plan: func(c *conn, _ *slot, _ [][]byte) { c.closing = true },
		render: func(c *conn, _ *slot) bool {
			// Acknowledge, then drain the whole server. The reply must be
			// flushed before this connection participates in the drain.
			writeSimple(c.bw, "OK")
			c.flush()
			go c.srv.Shutdown()
			return false
		}},
}

// commandTable indexes commands by canonical name.
var commandTable = func() map[string]*command {
	m := make(map[string]*command, len(commands))
	for i := range commands {
		m[commands[i].name] = &commands[i]
	}
	return m
}()

// lookupCommand resolves a command word case-insensitively, or nil. It
// upper-cases into a stack buffer and indexes the map with a converted
// slice, which the compiler does without allocating.
func lookupCommand(word []byte) *command {
	var buf [16]byte // longer than every table name
	if len(word) > len(buf) {
		return nil
	}
	for i, b := range word {
		if 'a' <= b && b <= 'z' {
			b -= 'a' - 'A'
		}
		buf[i] = b
	}
	return commandTable[string(buf[:len(word)])]
}

func arityMsg(name string) string {
	return fmt.Sprintf("ERR wrong number of arguments for '%s' command",
		strings.ToLower(name))
}

func renderOK(c *conn, _ *slot) bool { return writeSimple(c.bw, "OK") == nil }

// renderCount answers DEL / EXISTS from the count the shards accumulated.
func renderCount(c *conn, sl *slot) bool { return writeInt(c.bw, sl.n.Load()) == nil }

// planKeys queues one op per touched shard carrying that shard's keys,
// argument order preserved within each (same-key DEL arguments stay in
// order on their shard).
func planKeys(c *conn, sl *slot, args [][]byte) {
	for _, a := range args[1:] {
		k := string(a)
		op := c.opFor(sl, c.srv.shardFor(k))
		op.keys = append(op.keys, k)
	}
}

// scanKV is one SCAN / RANGE result pair.
type scanKV struct{ k, v string }

// parseScanLimit validates SCAN's optional [LIMIT n] tail; errmsg is ""
// on success and the error-reply text otherwise. -1 means no limit.
func parseScanLimit(tail [][]byte) (limit int, errmsg string) {
	if len(tail) == 0 {
		return -1, ""
	}
	if !strings.EqualFold(string(tail[0]), "LIMIT") {
		return 0, "ERR syntax error"
	}
	n, err := strconv.Atoi(string(tail[1]))
	if err != nil || n < 0 {
		return 0, "ERR invalid LIMIT"
	}
	return n, ""
}

// collectScan walks one session's keyspace slice inside a single
// snapshot critical section. Results are collected inside the snapshot
// and written after it, so the pin lasts the walk, not the client's
// drain of the reply.
//
// The walk is unbounded whatever the command's LIMIT: the hash builds
// walk in bucket order, so capping during the walk would keep whichever
// keys the buckets happened to hold first, making a truncating LIMIT
// non-deterministic across builds and shard counts. Collecting
// everything and cutting after the global sort makes LIMIT n mean "the
// n smallest matching keys" identically everywhere. (RANGE runs only on
// the ordered builds, whose walks are in key order, so it cuts per shard
// instead; see collectRange.)
func collectScan(sess kvstore.Session, prefix string) []scanKV {
	var out []scanKV
	sess.ForEachPrefix(prefix, func(k, v string) bool {
		out = append(out, scanKV{k, v})
		return true
	})
	return out
}

// sortByKey orders pairs by key, descending when desc.
func sortByKey(out []scanKV, desc bool) {
	slices.SortFunc(out, func(a, b scanKV) int { return strings.Compare(a.k, b.k) })
	if desc {
		slices.Reverse(out)
	}
}

// concatShards joins the per-shard walks in shard order.
func concatShards(parts [][]scanKV) []scanKV {
	if len(parts) == 1 {
		return parts[0]
	}
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	out := make([]scanKV, 0, total)
	for _, part := range parts {
		out = append(out, part...)
	}
	return out
}

// renderPairs cuts the ordered pairs at limit (-1 = all) and writes the
// flat key,value,... array.
func renderPairs(w *bufio.Writer, out []scanKV, limit int) bool {
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	if writeArrayHeader(w, 2*len(out)) != nil {
		return false
	}
	for _, p := range out {
		if writeBulkString(w, p.k) != nil || writeBulkString(w, p.v) != nil {
			return false
		}
	}
	return true
}
