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

	"mvrlu/internal/kvstore"
)

// parityScript is a fixed command script covering every command-table
// entry — happy paths, arity and syntax errors, cross-shard multi-key
// commands, whole-keyspace walks with every LIMIT/REV shape, and the
// MULTI state machine — whose reply stream must not depend on the shard
// count. co are three keys that share a shard at 2 and at 4 shards, so
// MULTI bodies over them commit everywhere (the CROSSSHARD rejection,
// which is shard-count dependent by design, has its own test).
//
// INFO and METRICS report the topology and live counters, so their
// replies legitimately differ; TestServerCommands covers them at every
// shard count and parityExempt lists them. SHUTDOWN ends the script on a
// connection of its own (parityStream).
func parityScript(co []string) [][]string {
	var script [][]string
	add := func(args ...string) { script = append(script, args) }
	words := func(cmd, format string, n int) []string {
		out := []string{cmd}
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf(format, i))
		}
		return out
	}

	add("PING")
	add("ping", "hello")
	add("PING", "")
	add("NOSUCH", "x")
	add("GET")
	add("GET", "a", "b")
	add("GET", "nope")
	add("SET", "k")
	add("SET", "k", "v1")
	add("set", "k", "v2")
	add("GET", "k")

	// 40 keys that hash across shards out of lexicographic order: a
	// per-shard LIMIT would pick a different set at each shard count.
	mset := []string{"MSET"}
	for i := 0; i < 40; i++ {
		mset = append(mset, fmt.Sprintf("p:%02d", i), fmt.Sprintf("val-%02d", i*i))
	}
	add(mset...)
	add("MSET", "a")
	add("MSET", "a", "1", "b")
	add("SET", "other", "x") // never matches the p: walks
	add(append(words("MGET", "p:%02d", 40), "absent")...)
	add("MGET")
	add(append(words("EXISTS", "p:%02d", 40), "absent", "p:00")...)
	add("EXISTS")
	add("DEL", "p:00", "p:17", "p:33", "absent", "p:00")
	add("DEL")
	add(words("EXISTS", "p:%02d", 40)...)

	add("SCAN", "p:")
	for _, limit := range []string{"0", "1", "7", "36", "37", "1000"} {
		add("SCAN", "p:", "LIMIT", limit)
	}
	add("SCAN", "")
	add("SCAN", "zz")
	add("SCAN")
	add("SCAN", "p:", "LIMIT")
	add("SCAN", "p:", "BOGUS", "1")
	add("SCAN", "p:", "LIMIT", "-1")
	add("SCAN", "p:", "LIMIT", "x")

	add("RANGE", "", "\xff")
	add("RANGE", "p:10", "p:30")
	add("RANGE", "p:10", "p:30", "LIMIT", "1")
	add("RANGE", "p:10", "p:30", "LIMIT", "1", "REV")
	add("RANGE", "p:10", "p:30", "LIMIT", "7")
	add("RANGE", "p:10", "p:30", "REV")
	add("RANGE", "p:10", "p:30", "LIMIT", "3", "REV")
	add("RANGE", "p:10", "p:30", "rev", "limit", "3")
	add("RANGE", "p:30", "p:10")
	add("RANGE", "p:20", "p:20")
	add("RANGE", "p:20", "p:20", "REV")
	add("RANGE", "p:00", "p:99", "LIMIT", "0")
	add("RANGE", "a")
	add("RANGE", "a", "b", "LIMIT")
	add("RANGE", "a", "b", "LIMIT", "-1")
	add("RANGE", "a", "b", "BOGUS")

	add("EXEC")
	add("DISCARD")
	add("SET", co[2], "stale")
	add("MULTI")
	add("SET", co[0], "x")
	add("SET", co[1], "y")
	add("DEL", co[2], co[0])
	add("EXEC")
	add("MGET", co[0], co[1], co[2])
	// Nested MULTI errors but does not abort the body.
	add("MULTI")
	add("MULTI")
	add("SET", co[0], "z")
	add("EXEC")
	add("GET", co[0])
	// Queue-time errors latch EXECABORT and nothing commits.
	add("MULTI")
	add("SET", co[1], "never")
	add("SET", "lonely")
	add("EXEC")
	add("MULTI")
	add("GET", co[1])
	add("PING")
	add("NOSUCH")
	add("QUIT")
	add("EXEC")
	add("GET", co[1])
	add("MULTI")
	add("SET", co[1], "never")
	add("DISCARD")
	add("GET", co[1])
	add("MULTI")
	add("EXEC")

	// Arguments live in the connection's arena only until their batch
	// renders. A MULTI body outlives that: replayed one round trip at a
	// time, this MULTI, its SET and its EXEC are three batches, and the
	// SET's arguments are overwritten before EXEC commits them.
	add("MULTI")
	add("SET", co[0], "queued-across-batches")
	add("EXEC")
	add("GET", co[0])
	// A bulk larger than the server's 16 KiB read buffer (and the 64 KiB
	// an arena keeps), then — in the same write when pipelined — a PING
	// whose payload is read into the arena behind it.
	add("SET", "big", strings.Repeat("b", 80<<10))
	add("PING", "payload-after-big")
	add("GET", "big")

	add("TRACELOG", "bogus")
	add("TRACELOG", "GC", "1", "2")
	add("QUIT")
	return script
}

// parityExempt are the table entries whose replies depend on the shard
// count by design, so the parity script cannot carry them.
var parityExempt = map[string]bool{"INFO": true, "METRICS": true}

// parityKeys returns n keys that share a shard at 2 and at 4 shards.
func parityKeys(n int) []string {
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("co:%d", i)
		if kvstore.ShardOf(k, 2) == 0 && kvstore.ShardOf(k, 4) == 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestParityScriptCoversTable fails when a command-table entry has no
// line in the parity script: a new command must either be shown
// shard-count independent there or be listed, with its reason, as exempt.
func TestParityScriptCoversTable(t *testing.T) {
	seen := map[string]bool{"SHUTDOWN": true} // parityStream's epilogue
	for _, line := range parityScript(parityKeys(3)) {
		seen[strings.ToUpper(line[0])] = true
	}
	for i := range commands {
		if name := commands[i].name; !seen[name] && !parityExempt[name] {
			t.Errorf("command %s has no line in parityScript", name)
		}
	}
}

// parityStream replays the script against a fresh server over an n-shard
// store and returns the raw reply bytes. pipelined sends the whole script
// in one write (the server cuts it into batches however the bytes
// arrive); otherwise each command is its own round trip. The stream ends
// with SHUTDOWN's reply on a second connection.
func parityStream(t *testing.T, build string, shards int, pipelined bool) []byte {
	t.Helper()
	store := newStore(t, build, shards)
	defer store.Close()
	srv, errc := startServer(t, store, Config{Handles: 2 * shards})
	defer srv.Shutdown()

	var stream bytes.Buffer
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(io.TeeReader(nc, &stream))
	bw := bufio.NewWriter(nc)
	for _, line := range parityScript(parityKeys(3)) {
		WriteCommandStrings(bw, line...)
		if pipelined {
			continue
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadReply(br); err != nil {
			t.Fatalf("%v: %v", line, err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	// The script ends in QUIT: the server closes, and everything up to
	// EOF is the reply stream.
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}

	c := dialT(t, srv)
	if r := c.cmd("SHUTDOWN"); r.Str != "OK" {
		t.Fatalf("SHUTDOWN: %v", r)
	}
	stream.WriteString("+OK\r\n")
	if err := <-errc; err != nil {
		t.Fatalf("Serve after SHUTDOWN: %v", err)
	}
	return stream.Bytes()
}

// TestShardParityBytes is the byte-parity oracle: the whole command
// table, replayed at 1, 2 and 4 shards, pipelined and not, must produce
// byte-identical reply streams — one shard is the same server as
// several, and collect-unbounded / merge-globally / cut-after makes
// every walk independent of how the keyspace is partitioned. Every
// ordered build runs it, since the router's range merge and MULTI path
// are the only ones over a sharded index. On the plain hash build RANGE
// and EXEC answer "no ordered index", identically.
func TestShardParityBytes(t *testing.T) {
	for _, build := range []string{"mvrlu-idx", "rlu-idx", "vanilla-idx", "mvrlu-kv"} {
		t.Run(build, func(t *testing.T) {
			want := parityStream(t, build, 1, false)
			script := parityScript(parityKeys(3))
			if n := bytes.Count(want, []byte("\r\n")); n < len(script) {
				t.Fatalf("reference stream has %d lines for %d commands:\n%q", n, len(script), want)
			}
			for _, shards := range []int{1, 2, 4} {
				for _, pipelined := range []bool{false, true} {
					got := parityStream(t, build, shards, pipelined)
					if !bytes.Equal(got, want) {
						t.Fatalf("shards=%d pipelined=%v diverges from shards=1:\n%s",
							shards, pipelined, firstDiff(want, got))
					}
				}
			}
		})
	}
}

// firstDiff shows both streams around their first differing byte.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	window := func(s []byte) []byte {
		lo, hi := max(i-120, 0), min(i+120, len(s))
		return s[lo:hi]
	}
	return fmt.Sprintf("at byte %d (lengths %d, %d)\nwant ...%q...\ngot  ...%q...",
		i, len(a), len(b), window(a), window(b))
}
