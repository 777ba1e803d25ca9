package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestInfoAllQuiesce: INFO ALL must emit one quiescent engine section per
// shard (INFO renders after its batch's workers have returned their
// sessions, so each shard's pool can be fully collected).
func TestInfoAllQuiesce(t *testing.T) {
	store := newKVStore(t, 3)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 6})
	defer srv.Shutdown()
	c := dialT(t, srv)
	for i := 0; i < 30; i++ {
		if r := c.cmd("SET", fmt.Sprintf("q:%02d", i), "x"); r.Str != "OK" {
			t.Fatal(r)
		}
	}
	all := c.cmd("INFO", "ALL")
	if strings.Contains(all.Str, "engine_stats:busy") {
		t.Fatalf("INFO ALL reported busy with no held sessions:\n%s", all.Str)
	}
	for i := 0; i < 3; i++ {
		if !strings.Contains(all.Str, fmt.Sprintf("# engine shard=%d", i)) {
			t.Fatalf("INFO ALL missing shard %d engine section:\n%s", i, all.Str)
		}
	}
}

// memConn is an in-memory net.Conn: reads drain a prepared request
// stream — all of it available at once, as from a client that writes
// without ever reading — and writes collect the reply stream. It counts
// the read deadlines it is given and the writes that reach it.
type memConn struct {
	r             io.Reader
	w             bytes.Buffer
	readDeadlines int
	writes        int
}

func (m *memConn) Read(p []byte) (int, error)       { return m.r.Read(p) }
func (m *memConn) Write(p []byte) (int, error)      { m.writes++; return m.w.Write(p) }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { m.readDeadlines++; return nil }
func (m *memConn) SetWriteDeadline(time.Time) error { return nil }

// requestStream encodes commands as one RESP byte stream.
func requestStream(cmds [][]string) *memConn {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, cmd := range cmds {
		WriteCommandStrings(bw, cmd...)
	}
	bw.Flush()
	return &memConn{r: &buf}
}

// serveStream runs the real connection loop over a prepared request
// stream until it is exhausted and returns the parsed replies.
func serveStream(t *testing.T, srv *Server, mc *memConn) []Reply {
	t.Helper()
	c := newConn(srv, mc)
	srv.sem <- struct{}{}
	if !srv.addConn(c) {
		t.Fatal("server refused the connection")
	}
	c.serve()
	var out []Reply
	br := bufio.NewReader(&mc.w)
	for {
		rep, err := ReadReply(br)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("reply %d: %v", len(out), err)
		}
		out = append(out, rep)
	}
}

// TestBatchCap: a client that keeps writing without reading must not
// grow one batch without limit (and so never be answered). Collection
// stops at maxBatch commands, the batch is served and flushed, and the
// serve loop starts the next from the still-buffered bytes — with
// replies in submission order across the splits and connection state
// (an open MULTI body) carried over them.
func TestBatchCap(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		store := newStore(t, "mvrlu-idx", shards)
		defer store.Close()
		srv := New(store, Config{Handles: 2 * shards})
		defer srv.Shutdown()

		const total = 10 * maxBatch
		sess := store.Session()
		gets := make([][]string, total)
		for i := range gets {
			k := fmt.Sprintf("g%05d", i)
			sess.Set(k, fmt.Sprint(i))
			gets[i] = []string{"GET", k}
		}
		sess.Close()

		// One collect takes exactly the cap, however much more is waiting.
		c := newConn(srv, requestStream(gets))
		first, err := c.in.read()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.collectBatch(nil, first); err != nil {
			t.Fatal(err)
		}
		if c.nslots != maxBatch {
			t.Fatalf("first batch collected %d commands, want the cap %d", c.nslots, maxBatch)
		}

		// Served through the real loop, every command is answered, in order.
		reps := serveStream(t, srv, requestStream(gets))
		if len(reps) != total {
			t.Fatalf("%d replies for %d commands", len(reps), total)
		}
		for i, rep := range reps {
			if rep.Str != fmt.Sprint(i) {
				t.Fatalf("reply %d = %v: out of submission order", i, rep)
			}
		}

		// MULTI ... EXEC straddling a batch boundary: the cap falls between
		// the two queued SETs, and the body still commits, once, whole.
		keys := sameShardKeys(store, "cap:", 2)
		script := append([][]string{}, gets[:maxBatch-2]...)
		script = append(script,
			[]string{"MULTI"},
			[]string{"SET", keys[0], "1"},
			[]string{"SET", keys[1], "2"},
			[]string{"EXEC"},
			[]string{"MGET", keys[0], keys[1]})
		reps = serveStream(t, srv, requestStream(script))
		if len(reps) != len(script) {
			t.Fatalf("%d replies for %d commands", len(reps), len(script))
		}
		tail := reps[maxBatch-2:]
		if tail[0].Str != "OK" || tail[1].Str != "QUEUED" || tail[2].Str != "QUEUED" {
			t.Fatalf("MULTI/queue replies across the split: %v", tail[:3])
		}
		if ex := tail[3]; ex.Kind != ArrayReply || len(ex.Elems) != 2 ||
			ex.Elems[0].Str != "OK" || ex.Elems[1].Str != "OK" {
			t.Fatalf("EXEC across the split: %v %v", ex, ex.Elems)
		}
		if mg := tail[4]; len(mg.Elems) != 2 || mg.Elems[0].Str != "1" || mg.Elems[1].Str != "2" {
			t.Fatalf("straddling transaction not committed whole: %v", mg.Elems)
		}
	})
}

// TestBatchAllocs is the codec's allocation gate. A batch of 16
// pipelined GETs goes through a connection's real path — read, collect,
// plan, execute, render, flush — on an unsharded mvrlu-kv. Parsing reuses
// the connection's arena and argument header and the batch reuses its
// slots and queues, so the only allocations left are the key strings the
// session API takes: at most one per GET, plus one spare. The collect
// loop arms the read deadline once for the whole batch, and the replies
// reach the socket in one write.
func TestBatchAllocs(t *testing.T) {
	const gets = 16
	store := newKVStore(t, 1)
	defer store.Close()
	srv := New(store, Config{Handles: 1})
	defer srv.Shutdown()

	var req bytes.Buffer
	bw := bufio.NewWriter(&req)
	sess := store.Session()
	for i := 0; i < gets; i++ {
		k := fmt.Sprintf("key:%02d", i)
		sess.Set(k, "v")
		WriteCommandStrings(bw, "GET", k)
	}
	sess.Close()
	bw.Flush()

	rd := bytes.NewReader(req.Bytes())
	mc := &memConn{r: rd}
	c := newConn(srv, mc)
	batch := func() {
		rd.Reset(req.Bytes())
		mc.w.Reset()
		mc.readDeadlines, mc.writes = 0, 0
		first, err := c.in.read()
		if err != nil {
			t.Fatal(err)
		}
		if !c.runBatch(first) || !c.flush() {
			t.Fatal("connection closed")
		}
	}
	batch()
	if want := strings.Repeat("$1\r\nv\r\n", gets); mc.w.String() != want {
		t.Fatalf("replies %q, want %q", mc.w.String(), want)
	}
	if mc.readDeadlines != 1 {
		t.Fatalf("collecting %d commands set %d read deadlines, want 1", gets, mc.readDeadlines)
	}
	if mc.writes != 1 {
		t.Fatalf("the %d replies reached the socket in %d writes, want 1", gets, mc.writes)
	}
	n := testing.AllocsPerRun(50, batch)
	t.Logf("%v allocations per %d-GET batch", n, gets)
	if n > gets+1 {
		t.Fatalf("%v allocations per %d-GET batch, want at most %d", n, gets, gets+1)
	}
}

// TestReadTimeoutBoundsBatch: ReadTimeout bounds reading the rest of a
// batch after its first command. A client that sends one whole command
// and half of the next, then stalls, is answered and closed once the
// timeout has run out: not before it, and long before the idle timeout.
// net.Pipe hands the server the whole write in one read, so the half
// command is part of the first command's batch.
func TestReadTimeoutBoundsBatch(t *testing.T) {
	const timeout = 100 * time.Millisecond
	store := newKVStore(t, 1)
	defer store.Close()
	srv := New(store, Config{Handles: 1, ReadTimeout: timeout})
	defer srv.Shutdown()

	client, server := net.Pipe()
	defer client.Close()
	c := newConn(srv, server)
	srv.sem <- struct{}{}
	if !srv.addConn(c) {
		t.Fatal("server refused the connection")
	}
	go c.serve()

	start := time.Now()
	if _, err := client.Write([]byte("*1\r\n$4\r\nPING\r\n*2\r\n$3\r\nGET\r\n$3\r\nke")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(client)
	if rep, err := ReadReply(br); err != nil || rep.Str != "PONG" {
		t.Fatalf("first reply %v, %v; want PONG", rep, err)
	}
	if _, err := ReadReply(br); err != io.EOF {
		t.Fatalf("after the stall: %v, want the connection closed", err)
	}
	if d := time.Since(start); d < timeout || d > 2*time.Second {
		t.Fatalf("closed after %v, want between %v and 2s", d, timeout)
	}
}
