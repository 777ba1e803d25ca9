package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvrlu/internal/obs"
)

// TestMetricsCommand asserts METRICS returns a valid Prometheus text
// exposition containing both server and engine series, and that the
// command-counter series is monotone across calls.
func TestMetricsCommand(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
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
		t.Fatalf("METRICS reply kind %v", r.Kind)
	}
	for _, want := range []string{
		"# TYPE server_commands_total counter\n",
		"# TYPE server_batch_ns histogram\n",
		"# TYPE mvrlu_cs_ns histogram\n",
		"# TYPE mvrlu_cs_chain_max histogram\n",
		"# TYPE mvrlu_watermark gauge\n",
		"mvrlu_stall_events_total 0\n",
	} {
		if !strings.Contains(r.Str, want) {
			t.Errorf("METRICS missing %q", want)
		}
	}
	// Every non-comment line is "name[{label}] value" — the format the
	// CI smoke job greps for.
	for _, line := range strings.Split(strings.TrimSpace(r.Str), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	count := func(rep Reply) uint64 {
		for _, line := range strings.Split(rep.Str, "\n") {
			var v uint64
			if n, _ := fmt.Sscanf(line, "server_commands_total %d", &v); n == 1 {
				return v
			}
		}
		t.Fatal("server_commands_total not found")
		return 0
	}
	first := count(r)
	second := count(c.cmd("METRICS"))
	if second <= first {
		t.Fatalf("server_commands_total not monotone: %d then %d", first, second)
	}
	// The SET committed while telemetry was on, so the engine commit
	// histogram must be populated.
	if !strings.Contains(r.Str, "mvrlu_commit_ns_count") {
		t.Error("engine commit histogram absent")
	}
}

// TestBatchHistogramRecords asserts the per-batch service-time histogram
// fills while telemetry is enabled.
func TestBatchHistogramRecords(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	c := dialT(t, srv)
	for i := 0; i < 5; i++ {
		if r := c.cmd("PING"); r.Str != "PONG" {
			t.Fatalf("PING: %v", r)
		}
	}
	if n := srv.batchHist.Snapshot().Count(); n < 5 {
		t.Fatalf("batch histogram count %d, want >= 5", n)
	}
}

// TestInfoAllDegradesWhenPoolBusy pins one pool session past the quiesce
// budget and asserts INFO ALL still answers promptly — with the engine
// section degraded to engine_stats:busy — instead of blocking the server
// behind the held handle. The stats section needs every handle of the
// pool quiescent, and the directly checked-out session is not coming
// back, so the quiesce must time out.
func TestInfoAllDegradesWhenPoolBusy(t *testing.T) {
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()

	held := srv.pools[0].get() // a "long scan" that outlives the budget
	start := time.Now()
	c := dialT(t, srv)
	r := c.cmd("INFO", "ALL")
	elapsed := time.Since(start)
	if r.Kind != BulkReply {
		t.Fatalf("INFO ALL reply kind %v", r.Kind)
	}
	if !strings.Contains(r.Str, "engine_stats:busy") {
		t.Fatalf("INFO ALL under a held handle did not degrade:\n%s", r.Str)
	}
	if strings.Contains(r.Str, "commits:") {
		t.Fatal("degraded INFO ALL still rendered the stats section")
	}
	// Promptness: the degradation must be bounded by the quiesce budget,
	// not the held session's lifetime. Generous upper bound for CI noise.
	if elapsed < quiesceBudget {
		t.Fatalf("INFO ALL returned in %v, before the %v budget elapsed", elapsed, quiesceBudget)
	}
	if elapsed > quiesceBudget+4*time.Second {
		t.Fatalf("INFO ALL took %v, way past the %v budget", elapsed, quiesceBudget)
	}
	// The default sections must be intact even when degraded.
	for _, want := range []string{"build:", "watermark:", "handle_0:"} {
		if !strings.Contains(r.Str, want) {
			t.Errorf("degraded INFO ALL missing %q", want)
		}
	}

	srv.pools[0].put(held)
	if r := c.cmd("INFO", "ALL"); !strings.Contains(r.Str, "commits:") {
		t.Fatalf("INFO ALL after release still degraded:\n%s", r.Str)
	}
}
