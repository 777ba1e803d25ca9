package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"mvrlu/internal/kvstore"
	"mvrlu/internal/server"
)

// TestDurabilityAudit runs the crash audit's check and verify against an
// in-process server and plants one fault of each kind the verify must
// report: a one-key group's key removed (LOST), one key of a 4-key group
// overwritten with a higher value (TORN — only the uniformity test sees
// it, the value is not below the acked sequence) and a one-key group set
// below its acked sequence (STALE). Each fault is undone before the
// next, so every verify must name exactly that one fault.
func TestDurabilityAudit(t *testing.T) {
	for _, shards := range []int{1, 2} {
		for _, multi := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/multi=%v", shards, multi), func(t *testing.T) {
				st, err := kvstore.NewSharded("mvrlu-kv", shards, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				srv := server.New(st, server.Config{Addr: "127.0.0.1:0", Handles: 2 * shards, OwnsStore: true})
				if err := srv.Listen(); err != nil {
					t.Fatal(err)
				}
				served := make(chan error, 1)
				go func() { served <- srv.Serve() }()
				defer func() {
					srv.Shutdown()
					if err := <-served; err != nil {
						t.Error(err)
					}
				}()
				addr := srv.Addr().String()

				file := filepath.Join(t.TempDir(), "acked.json")
				if err := runDurCheck(addr, file, 4, 8, multi, 200*time.Millisecond); err != nil {
					t.Fatal(err)
				}
				df := readDurFile(t, file)
				if len(df.Groups) == 0 {
					t.Fatal("the check recorded no acknowledged group")
				}
				wantKeys := 1
				if multi {
					wantKeys = durTxnKeys
				}
				for name, g := range df.Groups {
					if len(g.Keys) != wantKeys || g.Seq == 0 {
						t.Fatalf("group %s = %+v, want %d keys and an acked sequence", name, g, wantKeys)
					}
				}
				if err := runDurVerify(addr, file); err != nil {
					t.Fatalf("verify of the untouched store: %v", err)
				}

				c := dialClient(t, addr)
				defer c.nc.Close()
				name, g := anyGroup(df)
				held := c.do("GET", g.Keys[0]).Str
				seq, err := strconv.ParseUint(held, 10, 64)
				if err != nil || seq < g.Seq {
					t.Fatalf("group %s holds %q, acked %d", name, held, g.Seq)
				}
				plant := func(fault string, args ...string) {
					t.Helper()
					c.do(args...)
					err := runDurVerify(addr, file)
					if err == nil || !strings.HasPrefix(err.Error(), fault) {
						t.Fatalf("verify after planting %v = %v, want %q", args, err, fault)
					}
				}
				if multi {
					plant("0 lost, 1 torn, 0 stale", "SET", g.Keys[2], strconv.FormatUint(seq+1, 10))
					c.do("SET", g.Keys[2], held)
				} else {
					plant("1 lost, 0 torn, 0 stale", "DEL", g.Keys[0])
					plant("0 lost, 0 torn, 1 stale", "SET", g.Keys[0], strconv.FormatUint(g.Seq-1, 10))
					c.do("SET", g.Keys[0], held)
				}
				if err := runDurVerify(addr, file); err != nil {
					t.Fatalf("verify after undoing the faults: %v", err)
				}
			})
		}
	}
}

func readDurFile(t *testing.T, file string) durFile {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var df durFile
	if err := json.Unmarshal(data, &df); err != nil {
		t.Fatal(err)
	}
	return df
}

func anyGroup(df durFile) (string, durGroup) {
	for name, g := range df.Groups {
		return name, g
	}
	return "", durGroup{}
}

type client struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{t: t, nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
}

// do sends one command and returns its reply, failing on an error reply.
func (c *client) do(args ...string) server.Reply {
	c.t.Helper()
	server.WriteCommandStrings(c.bw, args...)
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
	rep, err := server.ReadReply(c.br)
	if err != nil || rep.IsError() {
		c.t.Fatalf("%v: %v %v", args, rep, err)
	}
	return rep
}
