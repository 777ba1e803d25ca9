package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mvrlu/internal/obs"
	"mvrlu/internal/wal"
)

// conn is one client connection: a goroutine, two buffers, and no store
// session of its own — sessions are checked out per batch.
type conn struct {
	srv *Server
	nc  net.Conn
	// in parses commands from the socket's read buffer into the batch's
	// argument arena; resetBatch releases the arguments after render.
	in   cmdReader
	bw   *bufio.Writer
	gate *walGate // nil when the server runs without a WAL
	// tr is the connection's reusable request trace: armed per batch
	// when tracing is enabled (serve), stamped by the batch pipeline and
	// its shard workers, snapshotted into the flight recorder after the
	// reply flush. One allocation per connection, zero per batch.
	tr *obs.Trace
	// txn is the connection's open MULTI body (txn.go). It survives
	// across batches — MULTI and EXEC may arrive in separate bursts —
	// and dies with the connection.
	txn txnState

	// The current batch (router.go), kept on the connection and reset
	// rather than reallocated, so steady pipelined traffic allocates no
	// batch bookkeeping: slots[:nslots] are the batch's commands in
	// submission order (the pointers beyond nslots are zeroed spares),
	// queues[shard] the ops each touched shard will run, wg the join of
	// the shard workers.
	slots  []*slot
	nslots int
	queues [][]shardOp
	wg     sync.WaitGroup
	// closing is set when QUIT or SHUTDOWN is planned: collection stops
	// there and the connection closes once the batch has rendered.
	closing bool
}

// walGate sits between a connection's reply buffer and its socket and
// enforces "acknowledged implies durable": once any write command of the
// current batch has executed (dirty), no buffered bytes — which include
// that write's acknowledgment — may reach the socket before a WAL sync
// barrier covers the write's log record. Interposing on the writer
// rather than barriering in flush() is deliberate: bufio auto-flushes
// when a large batch overflows its 16 KiB buffer mid-render, and those
// early flushes must gate too. A barrier failure (the log died) aborts
// the flush with the error, so a failed WAL can never leak an ack.
//
// Only the connection goroutine touches the gate (bufio.Flush runs
// there), so dirty needs no synchronization.
type walGate struct {
	nc    net.Conn
	wal   *wal.Log
	dirty bool
	// tr is the connection's trace; the barrier stamps its duration as
	// the wal_barrier stage when the trace is armed. AddStage (no span
	// slot) because the gate cannot see batch boundaries — a mid-render
	// bufio overflow flushes, and barriers, outside the flush span.
	tr *obs.Trace
}

func (g *walGate) Write(p []byte) (int, error) {
	if g.dirty {
		if g.tr.Active() {
			t0 := obs.Now()
			err := g.wal.SyncBarrier()
			g.tr.AddStage(obs.StageWALBarrier, obs.Now()-t0)
			if err != nil {
				return 0, err
			}
		} else if err := g.wal.SyncBarrier(); err != nil {
			return 0, err
		}
		g.dirty = false
	}
	return g.nc.Write(p)
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{
		srv: s, nc: nc, in: cmdReader{br: bufio.NewReaderSize(nc, 16<<10)}, tr: &obs.Trace{},
		queues: make([][]shardOp, len(s.pools)),
	}
	var w io.Writer = nc
	if s.cfg.WAL != nil {
		c.gate = &walGate{nc: nc, wal: s.cfg.WAL, tr: c.tr}
		w = c.gate
	}
	c.bw = bufio.NewWriterSize(w, 16<<10)
	return c
}

// markDirty records that the current batch executed a write command, so
// the gate must barrier before the next socket write. renderSlot calls it
// after every shard worker has joined (so the commit hooks have appended
// the batch's records) and before writing the write's reply into the
// buffer.
func (c *conn) markDirty() {
	if c.gate != nil {
		c.gate.dirty = true
	}
}

// walRefusal is the degraded-mode check: a failed WAL means the server
// can no longer make writes durable, so write commands are refused with
// a RESP error (reads keep serving) until the operator restarts onto a
// healthy log. Returns the error-reply text, or "" to proceed.
func (c *conn) walRefusal() string {
	if w := c.srv.cfg.WAL; w != nil {
		if err := w.Err(); err != nil {
			return "ERR wal: log failed, writes disabled (" + err.Error() + ")"
		}
	}
	return ""
}

// nudge unblocks a connection parked in a blocking read so it can
// observe the shutting flag; an in-flight batch is unaffected (it is
// executing, not reading).
func (c *conn) nudge() {
	c.nc.SetReadDeadline(time.Now())
}

// serve is the connection loop. Panics anywhere below — a codec bug, a
// store bug the engine's own panic recovery re-raised — are isolated
// here: counted, reported to the client best-effort, and the connection
// closed, never the server. A panic inside a store op does not even get
// this far: runShardOps recovers it per op, so it poisons one slot of the
// batch and the session it ran on returns to its pool healthy (the engine
// has already rolled the write set back).
func (c *conn) serve() {
	defer c.srv.connWG.Done()
	defer func() {
		if r := recover(); r != nil {
			c.srv.panics.Add(1)
			writeErrorReply(c.bw, fmt.Sprintf("ERR internal error: %v", r))
		}
		c.bw.Flush()
		c.nc.Close()
		c.srv.removeConn(c)
		<-c.srv.sem
	}()
	for !c.srv.shutting.Load() {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
		args, err := c.in.read()
		if err != nil {
			c.reportReadError(err)
			return
		}
		if len(args) == 0 {
			continue // blank inline line
		}
		// Arm the trace per batch: the gate is read once here, so a
		// toggle mid-batch cannot leave half-stamped traces. The first
		// command's read time is idle wait, not attributed.
		if obs.TraceEnabled() {
			c.tr.Begin()
		}
		if !c.runBatch(args) {
			return
		}
		if c.tr.Active() {
			t0 := obs.Now()
			ok := c.flush()
			c.tr.EndStage(obs.StageFlush, t0)
			c.srv.flight.Record(c.tr.Finish())
			if !ok {
				return
			}
		} else if !c.flush() {
			return
		}
	}
}

// flush pushes buffered replies under the write timeout.
func (c *conn) flush() bool {
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
	return c.bw.Flush() == nil
}

// reportReadError answers a protocol error before closing; timeouts and
// EOF close silently.
func (c *conn) reportReadError(err error) {
	if errors.Is(err, errProtocol) {
		writeErrorReply(c.bw, "ERR "+err.Error())
	}
}
