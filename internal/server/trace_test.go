package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"mvrlu/internal/obs"
)

func TestParseTracelog(t *testing.T) {
	toArgs := func(words ...string) [][]byte {
		out := make([][]byte, len(words))
		for i, w := range words {
			out[i] = []byte(w)
		}
		return out
	}
	cases := []struct {
		args []string
		want tracelogReq
		err  bool
	}{
		{[]string{"TRACELOG"}, tracelogReq{n: tracelogDefaultN}, false},
		{[]string{"TRACELOG", "5"}, tracelogReq{n: 5}, false},
		{[]string{"TRACELOG", "RESET"}, tracelogReq{reset: true, n: tracelogDefaultN}, false},
		{[]string{"TRACELOG", "reset"}, tracelogReq{reset: true, n: tracelogDefaultN}, false},
		{[]string{"TRACELOG", "GC"}, tracelogReq{gc: true, n: tracelogDefaultN}, false},
		{[]string{"TRACELOG", "gc", "77"}, tracelogReq{gc: true, n: 77}, false},
		{[]string{"TRACELOG", "RECENT"}, tracelogReq{recent: true, n: tracelogDefaultN}, false},
		{[]string{"TRACELOG", "RECENT", "3"}, tracelogReq{recent: true, n: 3}, false},
		{[]string{"TRACELOG", "0"}, tracelogReq{}, true},
		{[]string{"TRACELOG", "-2"}, tracelogReq{}, true},
		{[]string{"TRACELOG", "bogus"}, tracelogReq{}, true},
		{[]string{"TRACELOG", "GC", "x"}, tracelogReq{}, true},
		{[]string{"TRACELOG", "RESET", "1"}, tracelogReq{}, true},
		{[]string{"TRACELOG", "GC", "1", "2"}, tracelogReq{}, true},
	}
	for _, tc := range cases {
		got, errmsg := parseTracelog(toArgs(tc.args...))
		if tc.err {
			if errmsg == "" {
				t.Errorf("%v: accepted, want error", tc.args)
			}
			continue
		}
		if errmsg != "" {
			t.Errorf("%v: rejected: %s", tc.args, errmsg)
			continue
		}
		if got != tc.want {
			t.Errorf("%v: parsed %+v, want %+v", tc.args, got, tc.want)
		}
	}
}

// withTracing turns request tracing on for the test and restores the
// prior state (and drains the global event ring) afterwards.
func withTracing(t *testing.T) {
	t.Helper()
	prev := obs.TraceEnabled()
	obs.SetTraceEnabled(true)
	t.Cleanup(func() {
		obs.SetTraceEnabled(prev)
		obs.ResetEvents()
	})
}

// TestTracelogOverRESP drives the flight recorder through the wire at
// every shard count: the same pipeline stamps the same stages — plan and
// engine included — whether the batch ran inline on one shard or fanned
// out over several.
func TestTracelogOverRESP(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		withTracing(t)
		store := newKVStore(t, shards)
		defer store.Close()
		srv, _ := startServer(t, store, Config{Handles: 2 * shards})
		defer srv.Shutdown()
		c := dialT(t, srv)

		if r := c.cmd("SET", "k", "v"); r.Str != "OK" {
			t.Fatalf("SET: %v", r)
		}
		if r := c.cmd("GET", "k"); r.Str != "v" {
			t.Fatalf("GET: %v", r)
		}

		r := c.cmd("TRACELOG")
		if r.Kind != BulkReply {
			t.Fatalf("TRACELOG kind: %v", r)
		}
		lines := strings.Split(strings.TrimSpace(r.Str), "\n")
		if !strings.HasPrefix(lines[0], "tracing=on recorded=") {
			t.Fatalf("header: %q", lines[0])
		}
		if len(lines) < 3 {
			t.Fatalf("want >= 2 traces, got:\n%s", r.Str)
		}
		for _, line := range lines[1:] {
			for _, field := range []string{"id=", "cmd=", "total_ns=", "plan=", "engine=", "dominant="} {
				if !strings.Contains(line, field) {
					t.Fatalf("trace line missing %s: %q", field, line)
				}
			}
		}
		// The SET batch must count one shard and attribute plan and engine
		// time.
		found := false
		for _, line := range lines[1:] {
			if strings.Contains(line, "cmd=set") && strings.Contains(line, "shards=1") &&
				!strings.Contains(line, " plan=0 ") && !strings.Contains(line, " engine=0 ") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no set trace with shards=1 and plan/engine time in:\n%s", r.Str)
		}

		// One pipelined batch of keys that scatter over the shards.
		c.send("MSET", "a", "1", "b", "2", "c", "3", "d", "4")
		c.send("GET", "a")
		c.flush()
		if r := c.recv(); r.Str != "OK" {
			t.Fatalf("MSET: %v", r)
		}
		if r := c.recv(); r.Str != "1" {
			t.Fatalf("GET: %v", r)
		}
		r = c.cmd("TRACELOG", "5")
		if r.Kind != BulkReply || !strings.Contains(r.Str, "cmd=mset") {
			t.Fatalf("TRACELOG after pipelined batch:\n%s", r.Str)
		}
		for _, line := range strings.Split(r.Str, "\n") {
			if strings.Contains(line, "cmd=mset") && !strings.Contains(line, "cmds=2") {
				t.Fatalf("batch command count: %q", line)
			}
		}

		if r := c.cmd("TRACELOG", "RECENT", "1"); !strings.Contains(r.Str, "recent=1") {
			t.Fatalf("RECENT: %q", r.Str)
		}
		if r := c.cmd("TRACELOG", "bogus"); !r.IsError() {
			t.Fatalf("bad arg accepted: %v", r)
		}
		// The engine timeline (watermark/GP events emitted while tracing
		// is on).
		r = c.cmd("TRACELOG", "GC")
		if r.Kind != BulkReply || !strings.HasPrefix(r.Str, "events total=") {
			t.Fatalf("TRACELOG GC:\n%s", r.Str)
		}
		if r := c.cmd("TRACELOG", "RESET"); r.Str != "OK\n" {
			t.Fatalf("RESET: %q", r.Str)
		}
		// Post-reset, only the RESET batch itself (traced after this read)
		// may appear; the earlier SET/GET traces must be gone.
		if r := c.cmd("TRACELOG", "100"); strings.Contains(r.Str, "cmd=set") {
			t.Fatalf("reset left traces:\n%s", r.Str)
		}
	})
}

func TestTraceHandlerJSON(t *testing.T) {
	withTracing(t)
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	c := dialT(t, srv)
	if r := c.cmd("SET", "k", "v"); r.Str != "OK" {
		t.Fatalf("SET: %v", r)
	}
	// A batch's trace is recorded after its replies are flushed, so the
	// SET's may not be in the recorder yet; the connection serves batches
	// one after another, so once a second one is answered it is.
	if r := c.cmd("GET", "k"); r.Str != "v" {
		t.Fatalf("GET: %v", r)
	}
	obs.RecordEvent(obs.EvGCPass, 1, 5, 100)

	rec := httptest.NewRecorder()
	srv.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?gc=1&n=4", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var page struct {
		Tracing  bool   `json:"tracing"`
		Recorded uint64 `json:"recorded"`
		Slowest  []struct {
			ID       uint64           `json:"id"`
			Cmd      string           `json:"cmd"`
			TotalNs  int64            `json:"total_ns"`
			Stages   map[string]int64 `json:"stages"`
			Dominant string           `json:"dominant"`
			Spans    []struct {
				Stage string `json:"stage"`
				Dur   int64  `json:"dur_ns"`
			} `json:"spans"`
		} `json:"slowest"`
		Recent []json.RawMessage `json:"recent"`
		Events []struct {
			Kind  string `json:"kind"`
			Value uint64 `json:"value"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if !page.Tracing || page.Recorded == 0 || len(page.Slowest) == 0 || len(page.Recent) == 0 {
		t.Fatalf("page: %+v", page)
	}
	tr := page.Slowest[0]
	if tr.ID == 0 || tr.TotalNs <= 0 || tr.Dominant == "" || len(tr.Spans) == 0 {
		t.Fatalf("trace: %+v", tr)
	}
	if _, ok := tr.Stages["engine"]; !ok {
		t.Fatalf("no engine stage: %+v", tr.Stages)
	}
	foundGC := false
	for _, e := range page.Events {
		if e.Kind == "gc_pass" && e.Value == 5 {
			foundGC = true
		}
	}
	if !foundGC {
		t.Fatalf("gc event missing: %+v", page.Events)
	}

	// Without gc=1 the events list is omitted.
	rec = httptest.NewRecorder()
	srv.TraceHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if strings.Contains(rec.Body.String(), `"events"`) {
		t.Fatalf("events present without gc=1:\n%s", rec.Body.String())
	}
}

// TestTraceExemplarsOnScrape: with tracing on, a scrape of the server
// registry carries exemplar comments on server_batch_ns pointing at
// retained trace IDs.
func TestTraceExemplarsOnScrape(t *testing.T) {
	withTracing(t)
	obs.SetEnabled(true)
	defer obs.SetEnabled(true)
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	c := dialT(t, srv)
	if r := c.cmd("SET", "k", "v"); r.Str != "OK" {
		t.Fatalf("SET: %v", r)
	}
	r := c.cmd("METRICS")
	if r.Kind != BulkReply {
		t.Fatalf("METRICS: %v", r)
	}
	if !strings.Contains(r.Str, "# EXEMPLAR server_batch_ns_bucket") {
		t.Fatal("no exemplar lines on server_batch_ns")
	}
	if !strings.Contains(r.Str, "trace_id=") {
		t.Fatal("exemplar without trace_id")
	}
}

// TestTracingDisabledNoTraces: with the gate off, batches record
// nothing and TRACELOG reports tracing=off.
func TestTracingDisabledNoTraces(t *testing.T) {
	prev := obs.TraceEnabled()
	obs.SetTraceEnabled(false)
	defer obs.SetTraceEnabled(prev)
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	c := dialT(t, srv)
	if r := c.cmd("SET", "k", "v"); r.Str != "OK" {
		t.Fatalf("SET: %v", r)
	}
	r := c.cmd("TRACELOG")
	if !strings.HasPrefix(r.Str, "tracing=off recorded=0 slowest=0") {
		t.Fatalf("TRACELOG while off: %q", r.Str)
	}
}
