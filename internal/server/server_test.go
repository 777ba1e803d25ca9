package server

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"mvrlu/internal/kvstore"
)

// startServer runs an in-process server over store and returns it with
// the Serve error channel. The server does not own the store, so tests
// can inspect it after a drain.
func startServer(t *testing.T, store kvstore.Store, cfg Config) (*Server, chan error) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := New(store, cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve() }()
	return srv, errc
}

// tclient is a minimal test client over the exported codec.
type tclient struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialT(t *testing.T, srv *Server) *tclient {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &tclient{
		t:  t,
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
}

func (c *tclient) send(args ...string) {
	if err := WriteCommandStrings(c.bw, args...); err != nil {
		c.t.Fatal(err)
	}
}

func (c *tclient) flush() {
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *tclient) recv() Reply {
	c.t.Helper()
	rep, err := ReadReply(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return rep
}

// cmd is a synchronous round trip.
func (c *tclient) cmd(args ...string) Reply {
	c.t.Helper()
	c.send(args...)
	c.flush()
	return c.recv()
}

func newMVStore(t *testing.T) *kvstore.MVRLUStore {
	t.Helper()
	st, err := kvstore.New("mvrlu-kv", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*kvstore.MVRLUStore)
}

// shardCounts are the shard counts every shard-agnostic server test runs
// at: one shard and several are the same pipeline, and the tables below
// are what keeps it so.
var shardCounts = []int{1, 4}

// newStore builds an n-shard store of the named build — n independent
// domains, each with its own watermark, detector, and GC; n=1 is the
// plain store.
func newStore(t *testing.T, build string, n int) kvstore.Store {
	t.Helper()
	st, err := kvstore.NewSharded(build, n, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newKVStore(t *testing.T, n int) kvstore.Store { return newStore(t, "mvrlu-kv", n) }

// forShardCounts runs fn as one subtest per entry of shardCounts.
func forShardCounts(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, shards := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { fn(t, shards) })
	}
}

// TestServerCommands runs the command matrix at every shard count: the
// replies must not depend on it, and INFO/METRICS must surface the shard
// topology.
func TestServerCommands(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		store := newKVStore(t, shards)
		defer store.Close()
		srv, _ := startServer(t, store, Config{Handles: 2 * shards})
		defer srv.Shutdown()
		c := dialT(t, srv)

		if r := c.cmd("PING"); r.Kind != SimpleReply || r.Str != "PONG" {
			t.Fatalf("PING: %v", r)
		}
		if r := c.cmd("PING", "hello"); r.Kind != BulkReply || r.Str != "hello" {
			t.Fatalf("PING msg: %v", r)
		}
		if r := c.cmd("GET", "nope"); r.Kind != NullReply {
			t.Fatalf("GET missing: %v", r)
		}
		if r := c.cmd("SET", "k", "v1"); r.Str != "OK" {
			t.Fatalf("SET: %v", r)
		}
		if r := c.cmd("GET", "k"); r.Str != "v1" {
			t.Fatalf("GET: %v", r)
		}
		if r := c.cmd("EXISTS", "k", "nope", "k"); r.Int != 2 {
			t.Fatalf("EXISTS: %v", r)
		}
		if r := c.cmd("MSET", "a", "1", "b", "2"); r.Str != "OK" {
			t.Fatalf("MSET: %v", r)
		}
		r := c.cmd("MGET", "a", "nope", "b")
		if r.Kind != ArrayReply || len(r.Elems) != 3 ||
			r.Elems[0].Str != "1" || r.Elems[1].Kind != NullReply || r.Elems[2].Str != "2" {
			t.Fatalf("MGET: %v %v", r, r.Elems)
		}
		if r := c.cmd("DEL", "a", "nope"); r.Int != 1 {
			t.Fatalf("DEL: %v", r)
		}
		// Multi-key commands decompose across shards and merge: use enough
		// keys that several shards are touched.
		var msetArgs = []string{"MSET"}
		for i := 0; i < 16; i++ {
			msetArgs = append(msetArgs, fmt.Sprintf("m:%02d", i), fmt.Sprintf("val%d", i))
		}
		if r := c.cmd(msetArgs...); r.Str != "OK" {
			t.Fatalf("MSET: %v", r)
		}
		mgetArgs := []string{"MGET"}
		for i := 0; i < 16; i++ {
			mgetArgs = append(mgetArgs, fmt.Sprintf("m:%02d", i))
		}
		mgetArgs = append(mgetArgs, "absent")
		r = c.cmd(mgetArgs...)
		if r.Kind != ArrayReply || len(r.Elems) != 17 {
			t.Fatalf("MGET: %v", r)
		}
		for i := 0; i < 16; i++ {
			if r.Elems[i].Str != fmt.Sprintf("val%d", i) {
				t.Fatalf("MGET[%d] = %v", i, r.Elems[i])
			}
		}
		if r.Elems[16].Kind != NullReply {
			t.Fatalf("MGET absent: %v", r.Elems[16])
		}
		existsArgs := append([]string{"EXISTS"}, mgetArgs[1:]...)
		if r := c.cmd(existsArgs...); r.Int != 16 {
			t.Fatalf("EXISTS: %v", r)
		}
		if r := c.cmd("DEL", "m:00", "m:07", "m:13", "absent"); r.Int != 3 {
			t.Fatalf("DEL: %v", r)
		}
		if r := c.cmd(existsArgs...); r.Int != 13 {
			t.Fatalf("EXISTS after DEL: %v", r)
		}
		// SCAN merges per-shard walks sorted by key.
		r = c.cmd("SCAN", "m:")
		if r.Kind != ArrayReply || len(r.Elems) != 2*13 {
			t.Fatalf("SCAN: %d elems", len(r.Elems))
		}
		for i := 2; i+1 < len(r.Elems); i += 2 {
			if r.Elems[i].Str <= r.Elems[i-2].Str {
				t.Fatalf("SCAN not sorted: %q after %q", r.Elems[i].Str, r.Elems[i-2].Str)
			}
		}
		// A truncating LIMIT keeps the n smallest keys of the WHOLE
		// keyspace, not whatever each shard's walk met first.
		r = c.cmd("SCAN", "m:", "LIMIT", "5")
		if len(r.Elems) != 10 {
			t.Fatalf("SCAN LIMIT: %d elems", len(r.Elems))
		}
		for i, want := range []string{"m:01", "m:02", "m:03", "m:04", "m:05"} {
			if r.Elems[2*i].Str != want {
				t.Fatalf("SCAN LIMIT 5 key %d = %q, want %q", i, r.Elems[2*i].Str, want)
			}
		}
		if r := c.cmd("NOSUCH", "x"); !r.IsError() || !strings.Contains(r.Str, "unknown command") {
			t.Fatalf("unknown: %v", r)
		}
		if r := c.cmd("GET"); !r.IsError() || !strings.Contains(r.Str, "wrong number") {
			t.Fatalf("arity: %v", r)
		}

		// INFO: the one-shard server keeps the historical unlabelled
		// section names; more shards label every per-shard section.
		infoWant := []string{"build:mvrlu-kv", fmt.Sprintf("shards:%d", shards), "stalled:0"}
		allWant := []string{"commits:", "gc_runs:", "log_segment_allocs:", "log_segments_held:"}
		if shards == 1 {
			infoWant = append(infoWant, "# watermark\n", "\nhandle_0:")
			allWant = append(allWant, "# engine\n")
		} else {
			for _, i := range []int{0, shards - 1} {
				infoWant = append(infoWant,
					fmt.Sprintf("# watermark shard=%d\n", i),
					fmt.Sprintf("shard_%d_commands:", i),
					fmt.Sprintf("\nshard%d_handle_0:", i))
				allWant = append(allWant, fmt.Sprintf("# engine shard=%d\n", i))
			}
		}
		info := c.cmd("INFO")
		if info.Kind != BulkReply {
			t.Fatalf("INFO: %v", info)
		}
		for _, want := range infoWant {
			if !strings.Contains(info.Str, want) {
				t.Fatalf("INFO missing %q:\n%s", want, info.Str)
			}
		}
		all := c.cmd("INFO", "ALL")
		for _, want := range allWant {
			if !strings.Contains(all.Str, want) {
				t.Fatalf("INFO ALL missing %q:\n%s", want, all.Str)
			}
		}
		metrics := c.cmd("METRICS")
		for _, want := range []string{
			`server_shard_commands_total{shard="0"}`,
			fmt.Sprintf(`server_shard_commands_total{shard="%d"}`, shards-1),
			fmt.Sprintf("server_shards %d", shards),
		} {
			if !strings.Contains(metrics.Str, want) {
				t.Fatalf("METRICS missing %q", want)
			}
		}
	})
}

// TestServerPipelinedOracle is the ordering oracle and the tier-1 race
// target: 64 connections, multiplexed over a handful of pooled handles,
// each pipeline deep batches of mixed single- and multi-key commands over
// a private key namespace that scatters across every shard, and every
// reply must come back in submission order with the value the
// per-connection oracle predicts. Any reassembly bug — replies swapped
// across slots, a shard's queue applied out of order against a same-key
// successor — is a deterministic failure here, not a flake.
func TestServerPipelinedOracle(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		store := newKVStore(t, shards)
		defer store.Close()
		handles := 3 // 64 connections multiplexed over a 3-handle pool
		if shards > 1 {
			handles = 2 * shards
		}
		srv, _ := startServer(t, store, Config{Handles: handles})
		defer srv.Shutdown()

		const (
			conns   = 64
			batches = 25
			depth   = 8
		)
		var wg sync.WaitGroup
		errs := make(chan error, conns)
		for i := 0; i < conns; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if err := oracleConn(srv, id, batches, depth); err != nil {
					errs <- err
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// The work must have spread over every shard.
		for i := range srv.shardCmds {
			if srv.shardCmds[i].n.Load() == 0 {
				t.Errorf("shard %d executed no commands", i)
			}
		}
	})
}

// oracleConn is one connection of TestServerPipelinedOracle.
func oracleConn(srv *Server, id, batches, depth int) error {
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 64<<10)
	rng := rand.New(rand.NewSource(int64(id)*9901 + 17))
	prefix := fmt.Sprintf("r%02d:", id)
	oracle := map[string]string{}
	key := func() string { return prefix + fmt.Sprintf("k%02d", rng.Intn(24)) }
	type expect struct {
		op   string
		keys []string
		vals []string // oracle values at send time
		n    int64
	}
	for b := 0; b < batches; b++ {
		var exps []expect
		for d := 0; d < depth; d++ {
			switch rng.Intn(12) {
			case 0, 1, 2: // SET
				k := key()
				v := fmt.Sprintf("v%d.%d.%d", id, b, d)
				WriteCommandStrings(bw, "SET", k, v)
				oracle[k] = v
				exps = append(exps, expect{op: "SET"})
			case 3: // DEL of 3 keys (dup keys allowed)
				ks := []string{key(), key(), key()}
				WriteCommandStrings(bw, append([]string{"DEL"}, ks...)...)
				n := int64(0)
				for _, k := range ks {
					if _, ok := oracle[k]; ok {
						n++
						delete(oracle, k)
					}
				}
				exps = append(exps, expect{op: "DEL", n: n})
			case 4: // MSET of 3 pairs
				k1, k2, k3 := key(), key(), key()
				v := fmt.Sprintf("m%d.%d.%d", id, b, d)
				WriteCommandStrings(bw, "MSET", k1, v+"a", k2, v+"b", k3, v+"c")
				// Later pairs win on duplicate keys, matching
				// sequential Set application.
				oracle[k1] = v + "a"
				oracle[k2] = v + "b"
				oracle[k3] = v + "c"
				exps = append(exps, expect{op: "MSET"})
			case 5: // MGET of 3 keys
				ks := []string{key(), key(), key()}
				WriteCommandStrings(bw, append([]string{"MGET"}, ks...)...)
				vals := make([]string, len(ks))
				for i, k := range ks {
					vals[i] = oracle[k]
				}
				exps = append(exps, expect{op: "MGET", keys: ks, vals: vals})
			case 6: // EXISTS of 3 keys
				ks := []string{key(), key(), key()}
				WriteCommandStrings(bw, append([]string{"EXISTS"}, ks...)...)
				n := int64(0)
				for _, k := range ks {
					if _, ok := oracle[k]; ok {
						n++
					}
				}
				exps = append(exps, expect{op: "EXISTS", n: n})
			default: // GET
				k := key()
				WriteCommandStrings(bw, "GET", k)
				exps = append(exps, expect{op: "GET", keys: []string{k}, vals: []string{oracle[k]}})
			}
		}
		scan := b%6 == 5
		if scan {
			WriteCommandStrings(bw, "SCAN", prefix)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for _, e := range exps {
			rep, err := ReadReply(br)
			if err != nil {
				return err
			}
			switch e.op {
			case "SET", "MSET":
				if rep.Str != "OK" {
					return fmt.Errorf("conn %d %s: %v", id, e.op, rep)
				}
			case "DEL", "EXISTS":
				if rep.Kind != IntReply || rep.Int != e.n {
					return fmt.Errorf("conn %d %s: %v want %d", id, e.op, rep, e.n)
				}
			case "GET":
				switch {
				case e.vals[0] == "" && rep.Kind != NullReply:
					return fmt.Errorf("conn %d GET %s: %v want null", id, e.keys[0], rep)
				case e.vals[0] != "" && rep.Str != e.vals[0]:
					return fmt.Errorf("conn %d GET %s: %v want %q", id, e.keys[0], rep, e.vals[0])
				}
			case "MGET":
				if rep.Kind != ArrayReply || len(rep.Elems) != len(e.keys) {
					return fmt.Errorf("conn %d MGET: %v", id, rep)
				}
				for i := range e.keys {
					el := rep.Elems[i]
					switch {
					case e.vals[i] == "" && el.Kind != NullReply:
						return fmt.Errorf("conn %d MGET %s: %v want null", id, e.keys[i], el)
					case e.vals[i] != "" && el.Str != e.vals[i]:
						return fmt.Errorf("conn %d MGET %s: %v want %q", id, e.keys[i], el, e.vals[i])
					}
				}
			}
		}
		if scan {
			rep, err := ReadReply(br)
			if err != nil {
				return err
			}
			// The namespace is private to this connection and all our
			// earlier commands are acknowledged, so the snapshot must
			// equal the oracle exactly, in key order.
			if rep.Kind != ArrayReply || len(rep.Elems) != 2*len(oracle) {
				return fmt.Errorf("conn %d SCAN: %d elems, oracle %d keys",
					id, len(rep.Elems), len(oracle))
			}
			for i := 0; i+1 < len(rep.Elems); i += 2 {
				k, v := rep.Elems[i].Str, rep.Elems[i+1].Str
				if ov, ok := oracle[k]; !ok || ov != v {
					return fmt.Errorf("conn %d SCAN %s=%q, oracle %q (present %v)",
						id, k, v, ov, ok)
				}
				if i >= 2 && k <= rep.Elems[i-2].Str {
					return fmt.Errorf("conn %d SCAN unsorted: %q after %q",
						id, k, rep.Elems[i-2].Str)
				}
			}
		}
	}
	// Final consistency sweep against the oracle.
	for k, v := range oracle {
		WriteCommandStrings(bw, "GET", k)
		if err := bw.Flush(); err != nil {
			return err
		}
		rep, err := ReadReply(br)
		if err != nil {
			return err
		}
		if rep.Str != v {
			return fmt.Errorf("conn %d final GET %s: %v want %q", id, k, rep, v)
		}
	}
	return nil
}

// TestServerGracefulDrain shuts the server down under write load and
// verifies the drain invariant: every write the server acknowledged
// before the connection closed is present in the store afterwards.
func TestServerGracefulDrain(t *testing.T) {
	store := newMVStore(t)
	defer store.Close()
	srv, errc := startServer(t, store, Config{Handles: 2, DrainTimeout: 2 * time.Second})

	const writers = 8
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				return
			}
			defer nc.Close()
			br := bufio.NewReaderSize(nc, 32<<10)
			bw := bufio.NewWriterSize(nc, 32<<10)
			const depth = 4
			for seq := 0; ; seq += depth {
				keys := make([]string, depth)
				for d := 0; d < depth; d++ {
					keys[d] = fmt.Sprintf("drain:%d:%06d", id, seq+d)
					if WriteCommandStrings(bw, "SET", keys[d], "x") != nil {
						return
					}
				}
				if bw.Flush() != nil {
					return
				}
				for d := 0; d < depth; d++ {
					rep, err := ReadReply(br)
					if err != nil {
						return // unacknowledged tail is allowed to be lost
					}
					if rep.Str != "OK" {
						return
					}
					acked[id] = append(acked[id], keys[d])
				}
			}
		}(i)
	}

	time.Sleep(50 * time.Millisecond) // let writers get going
	srv.Shutdown()
	wg.Wait()
	if err := <-errc; err != nil {
		t.Fatalf("Serve returned %v", err)
	}

	// The server has drained but the store is ours: every acknowledged
	// write must be present.
	sess := store.Session()
	defer sess.Close()
	total := 0
	for id, keys := range acked {
		total += len(keys)
		for _, k := range keys {
			if _, ok := sess.Get(k); !ok {
				t.Fatalf("acked write lost after drain: writer %d key %s", id, k)
			}
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged before shutdown; test proved nothing")
	}
	t.Logf("drain preserved all %d acknowledged writes", total)
}

// TestServerAcceptBackpressure pins MaxConns=2 and checks the third
// connection is not served until a slot frees — backpressure by not
// accepting, rather than accept-then-reject.
func TestServerAcceptBackpressure(t *testing.T) {
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2, MaxConns: 2})
	defer srv.Shutdown()

	c1 := dialT(t, srv)
	c2 := dialT(t, srv)
	if r := c1.cmd("PING"); r.Str != "PONG" {
		t.Fatal(r)
	}
	if r := c2.cmd("PING"); r.Str != "PONG" {
		t.Fatal(r)
	}

	// Third client: the dial lands in the kernel backlog, but the server
	// must not serve it while both slots are held.
	nc3, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc3.Close()
	br3 := bufio.NewReader(nc3)
	bw3 := bufio.NewWriter(nc3)
	WriteCommandStrings(bw3, "PING")
	if err := bw3.Flush(); err != nil {
		t.Fatal(err)
	}
	nc3.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	if _, err := ReadReply(br3); err == nil {
		t.Fatal("third connection served while MaxConns=2 slots were both held")
	}

	// Release a slot; the backlogged connection must now be served.
	c1.cmd("QUIT")
	c1.nc.Close()
	nc3.SetReadDeadline(time.Now().Add(5 * time.Second))
	rep, err := ReadReply(br3)
	if err != nil {
		t.Fatalf("third connection still unserved after slot freed: %v", err)
	}
	if rep.Str != "PONG" {
		t.Fatalf("third conn: %v", rep)
	}
}

// panicStore wraps a real store with a session whose Get panics on a
// trigger key, standing in for an engine bug escaping a batch.
type panicStore struct{ kvstore.Store }

type panicSession struct{ kvstore.TxnSession }

func (p *panicStore) Session() kvstore.Session {
	return panicSession{p.Store.Session().(kvstore.TxnSession)}
}

func (s panicSession) Get(key string) (string, bool) {
	if key == "boom" {
		panic("injected store panic")
	}
	return s.TxnSession.Get(key)
}

// TestServerPanicIsolation: a store panic inside one command must be
// recovered where the op ran (on the connection goroutine or a shard
// worker), poison only that command's slot — replies queued ahead of it
// still arrive, in order, then the error — close only that connection,
// and leave every shard serving.
func TestServerPanicIsolation(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		inner := make([]kvstore.Store, shards)
		for i := range inner {
			st, err := kvstore.New("mvrlu-kv", 2, 64)
			if err != nil {
				t.Fatal(err)
			}
			inner[i] = &panicStore{st}
		}
		store := inner[0]
		if shards > 1 {
			store = kvstore.NewShardedStore(inner)
		}
		defer store.Close()
		srv, _ := startServer(t, store, Config{Handles: 2 * shards})
		defer srv.Shutdown()

		bad := dialT(t, srv)
		bad.send("SET", "ok1", "a")
		bad.send("GET", "boom")
		bad.send("SET", "ok2", "b")
		bad.flush()
		if r := bad.recv(); r.Str != "OK" {
			t.Fatalf("pre-panic SET: %v", r)
		}
		rep, err := ReadReply(bad.br)
		if err == nil && !rep.IsError() {
			t.Fatalf("panicking command returned %v", rep)
		}
		// The connection must be closed now.
		bad.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		for err == nil {
			_, err = ReadReply(bad.br)
		}

		// A fresh connection is served normally and the panic was counted.
		good := dialT(t, srv)
		if r := good.cmd("PING"); r.Str != "PONG" {
			t.Fatalf("server dead after store panic: %v", r)
		}
		if got := srv.panics.Load(); got != 1 {
			t.Fatalf("panics = %d, want 1", got)
		}
		// Every shard still serves writes (sessions returned healthy).
		for i := 0; i < 16; i++ {
			if r := good.cmd("SET", fmt.Sprintf("after%02d", i), "ok"); r.Str != "OK" {
				t.Fatalf("store unusable after panic: %v", r)
			}
		}
	})
}
