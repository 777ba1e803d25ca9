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
// without ever reading — and writes collect the reply stream.
type memConn struct {
	r io.Reader
	w bytes.Buffer
}

func (m *memConn) Read(p []byte) (int, error)       { return m.r.Read(p) }
func (m *memConn) Write(p []byte) (int, error)      { return m.w.Write(p) }
func (m *memConn) Close() error                     { return nil }
func (m *memConn) LocalAddr() net.Addr              { return nil }
func (m *memConn) RemoteAddr() net.Addr             { return nil }
func (m *memConn) SetDeadline(time.Time) error      { return nil }
func (m *memConn) SetReadDeadline(time.Time) error  { return nil }
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
		first, err := ReadCommand(c.br)
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
