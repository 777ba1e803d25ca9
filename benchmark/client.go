package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

var clockBase = time.Now()

// nowNs is the benchmark's monotonic clock.
func nowNs() int64 { return int64(time.Since(clockBase)) }

// client is one load connection: it turns its op stream into pipelined
// RESP batches, writes each batch with one Write, and checks every reply
// as it parses it. Nothing in batch() allocates (TestClientHotLoopAllocs).
type client struct {
	workerState
	id    int
	w     *workload
	nc    net.Conn
	rr    replyReader
	wbuf  []byte
	ops   []op
	pos   int
	seq   uint32
	peers [][txnKeys - 1]uint32 // nil unless the mix has transactions

	cur  [batchOps]op
	seqs [batchOps]uint32 // seq of each op's first SET

	// acked[key] is the seq of this connection's last acknowledged write
	// to key (0 = none) — what the durability audit holds recovery to.
	acked []uint32
	err   error // first connection or framing error; the client is dead after it
}

func newClient(id int, w *workload, nc net.Conn, ops []op, peers [][txnKeys - 1]uint32) *client {
	c := &client{id: id, w: w, nc: nc, ops: ops, peers: peers}
	c.rr.br = bufio.NewReaderSize(nc, 64<<10)
	c.wbuf = make([]byte, 0, 16<<10)
	if w.WAL {
		c.acked = make([]uint32, w.Keys)
	}
	return c
}

func (c *client) state() *workerState { return &c.workerState }

// batch sends the next batchOps ops as one pipelined write and checks
// their replies. A connection or framing error fails the rest of the
// batch and every later one.
func (c *client) batch() (t0, t1, t2 int64) {
	b := c.wbuf[:0]
	for i := range c.cur {
		o := c.ops[c.pos]
		if c.pos++; c.pos == len(c.ops) {
			c.pos = 0
		}
		c.cur[i] = o
		c.seqs[i] = c.seq + 1
		b = c.encode(b, o)
	}
	c.wbuf = b
	c.attempted += batchOps
	t0 = nowNs()
	if c.err != nil {
		c.failed += batchOps
		return t0, t0, t0
	}
	if _, err := c.nc.Write(b); err != nil {
		c.err = fmt.Errorf("conn %d write: %w", c.id, err)
		c.failed += batchOps
		return t0, t0, t0
	}
	t1 = nowNs()
	for i, o := range c.cur {
		ok, err := checkReply(&c.rr, c.w, o)
		if err != nil {
			c.err = fmt.Errorf("conn %d reply %d: %w", c.id, i, err)
			c.failed += uint64(batchOps - i)
			break
		}
		if !ok {
			c.failed++
			continue
		}
		if c.acked != nil {
			c.noteAck(o, c.seqs[i])
		}
	}
	return t0, t1, nowNs()
}

// noteAck records an acknowledged write for the durability audit.
func (c *client) noteAck(o op, seq uint32) {
	switch o.kind {
	case opSet:
		c.acked[o.key] = seq
	case opTxn:
		c.acked[o.key] = seq
		for j, k := range c.peers[o.key] {
			c.acked[k] = seq + 1 + uint32(j)
		}
	}
}

// encode appends op o as RESP commands, drawing fresh sequence numbers
// for its writes.
func (c *client) encode(b []byte, o op) []byte {
	switch o.kind {
	case opGet:
		b = append(b, "*2\r\n$3\r\nGET\r\n"...)
		b = appendKeyBulk(b, o.key)
	case opSet:
		c.seq++
		b = appendSet(b, o.key, c.id, c.seq)
	case opRange, opRangeRev:
		if o.kind == opRange {
			b = append(b, "*5\r\n$5\r\nRANGE\r\n"...)
		} else {
			b = append(b, "*6\r\n$5\r\nRANGE\r\n"...)
		}
		b = appendKeyBulk(b, o.key)
		b = appendKeyBulk(b, o.key+rangeSpan-1)
		b = append(b, "$5\r\nLIMIT\r\n$2\r\n16\r\n"...)
		if o.kind == opRangeRev {
			b = append(b, "$3\r\nREV\r\n"...)
		}
	case opTxn:
		b = append(b, "*1\r\n$5\r\nMULTI\r\n"...)
		c.seq++
		b = appendSet(b, o.key, c.id, c.seq)
		for _, k := range c.peers[o.key] {
			c.seq++
			b = appendSet(b, k, c.id, c.seq)
		}
		b = append(b, "*1\r\n$4\r\nEXEC\r\n"...)
	}
	return b
}

func appendKeyBulk(b []byte, key uint32) []byte {
	b = append(b, "$13\r\n"...)
	b = appendKey(b, key)
	return append(b, '\r', '\n')
}

func appendSet(b []byte, key uint32, conn int, seq uint32) []byte {
	b = append(b, "*3\r\n$3\r\nSET\r\n"...)
	b = appendKeyBulk(b, key)
	b = append(b, "$64\r\n"...)
	b = appendValue(b, key, conn, seq)
	return append(b, '\r', '\n')
}

// replyReader parses RESP replies in place: every slice it returns
// points into the bufio buffer and is valid until the next call.
type replyReader struct {
	br *bufio.Reader
}

// errDesync is a reply whose type does not fit the command it answers:
// the stream can no longer be trusted, so the connection is given up.
var errDesync = errors.New("unexpected reply type")

// header reads one reply's first line and returns its type byte and the
// rest of the line.
func (r *replyReader) header() (typ byte, rest []byte, err error) {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 3 || line[len(line)-2] != '\r' {
		return 0, nil, errDesync
	}
	return line[0], line[1 : len(line)-2], nil
}

// simple expects the status reply +want. An error reply is a failed op
// (ok=false) on an intact stream; any other type is a desync.
func (r *replyReader) simple(want string) (ok bool, err error) {
	typ, rest, err := r.header()
	if err != nil {
		return false, err
	}
	switch typ {
	case '+':
		return string(rest) == want, nil
	case '-':
		return false, nil
	}
	return false, errDesync
}

// bulk expects a bulk string; failed reports a nil or an error reply.
func (r *replyReader) bulk() (b []byte, failed bool, err error) {
	typ, rest, err := r.header()
	if err != nil {
		return nil, false, err
	}
	if typ == '-' {
		return nil, true, nil
	}
	if typ != '$' {
		return nil, false, errDesync
	}
	n, ok := atoi(rest)
	if !ok {
		return nil, false, errDesync
	}
	if n < 0 {
		return nil, true, nil
	}
	if n+2 > r.br.Size() {
		return nil, false, fmt.Errorf("bulk of %d bytes exceeds the read buffer", n)
	}
	buf, err := r.br.Peek(n + 2)
	if err != nil {
		return nil, false, err
	}
	if _, err := r.br.Discard(n + 2); err != nil {
		return nil, false, err
	}
	return buf[:n], false, nil
}

// array expects an array header and returns its length; failed reports
// an error reply.
func (r *replyReader) array() (n int, failed bool, err error) {
	typ, rest, err := r.header()
	if err != nil {
		return 0, false, err
	}
	if typ == '-' {
		return 0, true, nil
	}
	if typ != '*' {
		return 0, false, errDesync
	}
	n, ok := atoi(rest)
	if !ok {
		return 0, false, errDesync
	}
	return n, false, nil
}

// atoi parses a decimal integer without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	neg := b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int(ch-'0')
	}
	if neg {
		n = -n
	}
	return n, len(b) > 0
}

// checkReply reads and validates the reply (or replies) to op o. ok is
// the semantic verdict; err means the connection is unusable. Keys are
// never deleted, so every key of the preload is always present: a GET
// must find its key, and a RANGE must return exactly the first (or, REV,
// last) rangeLimit keys of its window, each carrying its own key's value.
func checkReply(r *replyReader, w *workload, o op) (ok bool, err error) {
	switch o.kind {
	case opGet:
		v, failed, err := r.bulk()
		if err != nil || failed {
			return false, err
		}
		return validValue(v, o.key), nil

	case opSet:
		return r.simple("OK")

	case opRange, opRangeRev:
		n, failed, err := r.array()
		if err != nil || failed {
			return false, err
		}
		first, step, want := rangeExpect(w.Keys, o)
		ok = n == 2*want
		for i := 0; i < n; i++ {
			b, failed, err := r.bulk()
			if err != nil {
				return false, err
			}
			if failed {
				ok = false
				continue
			}
			// Elements alternate key, value; pair p must be key
			// first + p·step — which makes the reply ordered, in bounds
			// and duplicate-free in one comparison.
			key := uint32(int(first) + (i/2)*step)
			if i%2 == 0 {
				var kb [keyLen]byte
				ok = ok && string(b) == string(appendKey(kb[:0], key))
			} else {
				ok = ok && validValue(b, key)
			}
		}
		return ok, nil

	case opTxn:
		ok, err = r.simple("OK")
		if err != nil {
			return false, err
		}
		for i := 0; i < txnKeys; i++ {
			q, err := r.simple("QUEUED")
			if err != nil {
				return false, err
			}
			ok = ok && q
		}
		n, failed, err := r.array()
		if err != nil || failed {
			return false, err
		}
		ok = ok && n == txnKeys // a short EXEC lost writes
		for i := 0; i < n; i++ {
			a, err := r.simple("OK")
			if err != nil {
				return false, err
			}
			ok = ok && a
		}
		return ok, nil
	}
	return false, fmt.Errorf("op kind %d has no wire form", o.kind)
}

// rangeExpect gives the first key, direction and pair count a RANGE over
// [o.key, o.key+rangeSpan-1] LIMIT rangeLimit must return when keys
// 0..keys-1 all exist.
func rangeExpect(keys int, o op) (first uint32, step, want int) {
	hi := int(o.key) + rangeSpan - 1
	if hi > keys-1 {
		hi = keys - 1
	}
	want = hi - int(o.key) + 1
	if want > rangeLimit {
		want = rangeLimit
	}
	if o.kind == opRangeRev {
		return uint32(hi), -1, want
	}
	return o.key, 1, want
}

// validValue reports whether v is a value some connection (or the
// preload) wrote for key.
func validValue(v []byte, key uint32) bool {
	conn, _, ok := parseValue(v, key)
	return ok && (conn < serverConns || conn == preloadConn)
}

func dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 5*time.Second)
}
