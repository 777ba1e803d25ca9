package server

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
)

// This file is the batch pipeline: the one way a pipelined RESP batch is
// served, at every shard count. A batch goes through four stages —
//
//  1. collect: read every command the client has in flight (up to
//     maxBatch),
//  2. plan: look each command up in the command table (commands.go) and
//     let its entry compile it into an ordered slot plus per-shard ops,
//  3. execute: run each touched shard's ops on that shard's pooled
//     session — the first touched shard inline on the connection
//     goroutine, any further ones on worker goroutines, each holding
//     exactly one session, so executors can never deadlock against each
//     other,
//  4. render: walk the slots in submission order on the connection
//     goroutine and write each reply from the results the ops left
//     behind.
//
// An unsharded store is the one-shard case, not a different server:
// shardFor is constantly 0, there is one queue, and the "first touched
// shard runs inline" rule means the whole batch executes on the
// connection goroutine with no goroutine and no hand-off.
//
// The ordering invariant this preserves: replies appear in exactly the
// order commands were submitted (RESP pipelining's contract), and any
// two commands touching the same key execute in submission order,
// because the same key always maps to the same shard and a shard's
// queue runs in submission order on one session. Commands touching
// different shards may interleave arbitrarily — indistinguishable to the
// client, which only observes the ordered replies.

// maxBatch bounds how many commands one batch collects. Reading a command
// refills the read buffer from the socket, so without a bound a client
// that writes without ever reading would grow the batch forever and
// never be answered; with it the batch is served and flushed — and the
// flush is what pushes back on such a client — and the serve loop starts
// the next batch from the bytes still buffered. It also bounds the
// bookkeeping an idle connection keeps for reuse. Well above useful
// pipeline depths (tens), so real batches are never split.
const maxBatch = 256

// mgetVal is one MGET result cell.
type mgetVal struct {
	v  string
	ok bool
}

// slot is one command of a batch. Shard ops write results into disjoint
// parts of it (per-key cells for MGET, per-shard slices for SCAN, an
// atomic for the DEL/EXISTS counts); the render stage reads them after
// the WaitGroup join, which is the happens-before edge.
//
// Slots are reused across batches (conn.slots). They hold atomics, so
// reset one with a zero composite literal, never by copying another.
type slot struct {
	cmd *command // table entry; nil for an unknown command word
	// errmsg, when set at plan time, is the whole reply: arity, syntax,
	// unknown command, refusal. No ops were queued for the slot.
	errmsg string
	queued bool // joined an open MULTI body: the reply is +QUEUED

	ping  []byte      // PING payload (nil → PONG)
	full  bool        // INFO ALL
	limit int         // SCAN / RANGE limit (-1 unbounded)
	rev   bool        // RANGE REV
	tlog  tracelogReq // TRACELOG parsed request

	got  bool         // GET
	val  string       // GET
	n    atomic.Int64 // DEL / EXISTS accumulator across shards
	vals []mgetVal    // MGET, indexed by key position
	scan [][]scanKV   // SCAN / RANGE, indexed by shard

	// EXEC: the queued commands (for the reply shape) and the engine's
	// per-op removed flags. One shard op writes removed; render reads it
	// after the join.
	txnCmds []txnCmd
	removed []bool

	// panicked holds the recovered panic text if any shard op of this
	// slot panicked; render turns it into an error reply and closes the
	// connection.
	panicked atomic.Pointer[string]
}

// idxKey is one MGET key with its position in the reply array.
type idxKey struct {
	i int
	k string
}

// shardOp is one unit of per-shard work, stored as plain data — not a
// closure — so a queue of them is a single backing array with no
// per-op heap allocation. What it does is its slot's command's exec
// hook; the fields are that hook's operands.
type shardOp struct {
	sl    *slot
	shard int             // index into sl.scan
	key   string          // GET/SET key, SCAN prefix, RANGE lo
	val   string          // SET value, RANGE hi
	keys  []string        // DEL/EXISTS keys on this shard
	iks   []idxKey        // MGET cells on this shard
	pairs [][2]string     // MSET pairs on this shard
	ops   []kvstore.TxnOp // EXEC body (single shard by construction)
}

// op appends a fresh op for sl to shard's queue and returns it for the
// plan hook to fill in. The pointer is good until the next append.
func (c *conn) op(sl *slot, shard int) *shardOp {
	q := append(c.queues[shard], shardOp{sl: sl, shard: shard})
	c.queues[shard] = q
	return &q[len(q)-1]
}

// opFor returns sl's op on shard, appending one if the command has not
// touched that shard yet — how multi-key commands group their keys into
// exactly one op per touched shard. A slot's ops are all appended while
// it is being planned, so its op on a shard, if any, is that queue's tail.
func (c *conn) opFor(sl *slot, shard int) *shardOp {
	if q := c.queues[shard]; len(q) > 0 && q[len(q)-1].sl == sl {
		return &q[len(q)-1]
	}
	return c.op(sl, shard)
}

// fanOut queues one op per shard carrying (key, val) — the whole-keyspace
// walks, whose per-shard results land in sl.scan[shard].
func (c *conn) fanOut(sl *slot, key, val string) {
	sl.scan = make([][]scanKV, len(c.queues))
	for shard := range c.queues {
		op := c.op(sl, shard)
		op.key, op.val = key, val
	}
}

// runBatch serves one pipelined batch: the command already read plus
// every further command the client has in flight. Sessions are held only
// while a shard's queue executes (one checkout per shard per burst, not
// per command) and are back in their pools before the connection renders
// or blocks on the socket again, so a thousand mostly idle connections
// consume zero engine handles. Reports false when the connection must
// close.
func (c *conn) runBatch(first [][]byte) bool {
	var tr *obs.Trace
	if c.tr.Active() {
		tr = c.tr
	}
	readErr := c.collectBatch(tr, first)
	c.srv.commands.Add(uint64(c.nslots))
	c.execBatch(tr)
	keep := true
	for _, sl := range c.slots[:c.nslots] {
		if !c.renderSlot(sl) {
			keep = false
			break
		}
	}
	c.resetBatch()
	if readErr != nil {
		// Replies for everything collected before the bad bytes have
		// been rendered; now report the protocol error and close.
		c.reportReadError(readErr)
		return false
	}
	return keep
}

// collectBatch reads the in-flight batch (the command already read plus
// what is buffered, up to maxBatch) and plans each command into the
// connection's slots and queues. Collection also stops at QUIT/SHUTDOWN
// or at a read error, returned for reporting after render. ReadTimeout is
// armed once, before the second command: it bounds reading the rest of
// the batch, not each command.
func (c *conn) collectBatch(tr *obs.Trace, first [][]byte) error {
	c.planSlot(tr, first)
	if c.in.br.Buffered() > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.ReadTimeout))
	}
	for c.nslots < maxBatch && !c.closing && c.in.br.Buffered() > 0 && !c.srv.shutting.Load() {
		var t0 int64
		if tr != nil {
			t0 = obs.Now()
		}
		args, err := c.in.read()
		if tr != nil {
			tr.EndStage(obs.StageParse, t0)
		}
		if err != nil {
			return err
		}
		if len(args) == 0 {
			continue
		}
		c.planSlot(tr, args)
	}
	return nil
}

// planSlot takes the batch's next slot and plans one command into it:
// table lookup, the generic checks the entry declares (arity, degraded-
// WAL refusal of writes), then the entry's plan hook. Inside an open
// MULTI body everything but the transaction-control commands is queued
// instead (planQueued).
func (c *conn) planSlot(tr *obs.Trace, args [][]byte) {
	var t0 int64
	if tr != nil {
		t0 = obs.Now()
	}
	if c.nslots == len(c.slots) {
		c.slots = append(c.slots, new(slot))
	}
	sl := c.slots[c.nslots]
	c.nslots++
	cmd := lookupCommand(args[0])
	sl.cmd = cmd
	switch {
	case c.txn.active && (cmd == nil || !cmd.multi):
		c.planQueued(sl, cmd, args)
	case cmd == nil:
		sl.errmsg = fmt.Sprintf("ERR unknown command '%s'", strings.ToLower(string(args[0])))
	case !cmd.arity(len(args)):
		sl.errmsg = arityMsg(cmd.name)
	default:
		// EXEC (the one multi write) applies the refusal itself, after it
		// has taken the body: see planExec.
		if cmd.write && !cmd.multi {
			sl.errmsg = c.walRefusal()
		}
		if sl.errmsg == "" && cmd.plan != nil {
			cmd.plan(c, sl, args)
		}
	}
	if tr != nil {
		tr.EndStage(obs.StagePlan, t0)
		if cmd != nil {
			tr.SetCmd(cmd.name)
		}
		tr.AddCommands(1)
	}
}

// execBatch runs every touched shard's queue and joins.
//
// Queues running inline do so on the connection goroutine, which holds
// no session of its own and takes at most one at a time — so inline
// execution can never deadlock, only wait its turn at a pool like any
// worker would. The first touched shard always runs inline, so a batch
// confined to one shard — every batch of a one-shard server, and the
// dominant case for unpipelined single-key traffic on any — executes
// with no handoff at all. Each further touched shard gets a worker
// goroutine, except on one scheduler core, where there is no parallelism
// for workers to buy, only handoff churn to pay, and they run inline too.
func (c *conn) execBatch(tr *obs.Trace) {
	var start int64
	timed := obs.Enabled()
	if timed {
		start = obs.Now()
	}
	inline, procs := -1, 0
	for shard, ops := range c.queues {
		if len(ops) == 0 {
			continue
		}
		// Shard count is stamped here, on the connection goroutine (the
		// trace's plain counters are owner-only), before workers spawn.
		if tr != nil {
			tr.AddShard()
		}
		if inline < 0 {
			inline = shard
			continue
		}
		if procs == 0 {
			// Reading it takes the scheduler lock: at most once per batch,
			// and never for a batch confined to one shard.
			procs = runtime.GOMAXPROCS(0)
		}
		if procs == 1 {
			c.srv.runShardOps(shard, ops, tr)
		} else {
			c.wg.Add(1)
			go func() {
				// Done runs after runShardOps has returned its session and
				// closed its spans: the edge Trace.Finish synchronizes on.
				defer c.wg.Done()
				c.srv.runShardOps(shard, ops, tr)
			}()
		}
	}
	if inline >= 0 {
		c.srv.runShardOps(inline, c.queues[inline], tr)
		c.wg.Wait()
	}
	if timed {
		c.srv.batchHist.Observe(uint64(obs.Now() - start))
	}
}

// runShardOps executes one shard's share of a batch: check out the
// shard's pooled session, run the ops in submission order, return it.
func (s *Server) runShardOps(shard int, ops []shardOp, tr *obs.Trace) {
	var t0 int64
	if tr != nil {
		t0 = obs.Now()
	}
	ps := s.pools[shard].get()
	defer s.pools[shard].put(ps)
	if tr != nil {
		// Concurrent workers stamp the same trace: the stage cells and
		// span slots are built for that (atomics). Defers run LIFO, so
		// the engine span closes and the session's trace clears before
		// the session returns to the pool.
		tr.EndStage(obs.StageSessionWait, t0)
		ps.sess.SetTrace(tr)
		defer ps.sess.SetTrace(nil)
		t0 = obs.Now()
		defer func() { tr.EndStage(obs.StageEngine, t0) }()
	}
	s.shardCmds[shard].n.Add(uint64(len(ops)))
	ps.commands.Add(uint64(len(ops)))
	for i := range ops {
		ps.lastCmd.Store(&ops[i].sl.cmd.name)
		s.runOp(&ops[i], ps)
	}
}

// runOp runs one op under its own recover, so a store panic poisons only
// its slot (the engine has already rolled the write set back and the
// session stays usable): earlier replies of the batch are still
// delivered, then this slot's error, then the connection closes.
func (s *Server) runOp(op *shardOp, ps *pooledSession) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			msg := fmt.Sprint(r)
			op.sl.panicked.Store(&msg)
		}
	}()
	op.sl.cmd.exec(op, ps)
}

// renderSlot writes one command's reply. Reports false when the
// connection must close.
func (c *conn) renderSlot(sl *slot) bool {
	switch {
	case sl.errmsg != "":
		return writeErrorReply(c.bw, sl.errmsg) == nil
	case sl.queued:
		return writeSimple(c.bw, "QUEUED") == nil
	}
	// Every worker has joined, so all of this batch's commit records are
	// appended; mark before rendering the write's reply so the gate
	// barriers ahead of any flush carrying the ack.
	if sl.cmd.write {
		c.markDirty()
	}
	if p := sl.panicked.Load(); p != nil {
		writeErrorReply(c.bw, "ERR internal error: "+*p)
		return false
	}
	return sl.cmd.render(c, sl)
}

// resetBatch zeroes what the batch used, dropping every reference the
// slots and ops held (values, scan results, arguments), and keeps the
// memory for the next batch. The argument arena is reused from here on,
// so nothing planned may still point into it.
func (c *conn) resetBatch() {
	for _, sl := range c.slots[:c.nslots] {
		*sl = slot{}
	}
	c.nslots = 0
	for shard, q := range c.queues {
		clear(q)
		c.queues[shard] = q[:0]
	}
	c.in.reset()
}
