package server

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"mvrlu/internal/kvstore"
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

// TestEngineExposition: every build with a core.Engine shows its
// watermark section in INFO, its engine section in INFO ALL and its
// mvrlu_* series in METRICS, and its handles name their engine threads;
// the rlu and vanilla builds show none of these. Labels follow the shard
// count alone, so a one-shard *kvstore.Sharded is served exactly like
// the plain store it wraps.
func TestEngineExposition(t *testing.T) {
	type shape struct {
		name   string
		shards int
		store  func(t *testing.T, build string) kvstore.Store
	}
	shapes := []shape{
		{"shards=1", 1, func(t *testing.T, build string) kvstore.Store { return newStore(t, build, 1) }},
		{"sharded-of-1", 1, func(t *testing.T, build string) kvstore.Store {
			return kvstore.NewShardedStore([]kvstore.Store{newStore(t, build, 1)})
		}},
		{"shards=4", 4, func(t *testing.T, build string) kvstore.Store { return newStore(t, build, 4) }},
	}
	for _, build := range []string{"mvrlu-kv", "mvrlu-idx", "rlu-kv", "vanilla"} {
		engine := strings.HasPrefix(build, "mvrlu")
		for _, sh := range shapes {
			t.Run(build+"/"+sh.name, func(t *testing.T) {
				store := sh.store(t, build)
				defer store.Close()
				srv, _ := startServer(t, store, Config{Handles: 2 * sh.shards})
				defer srv.Shutdown()
				c := dialT(t, srv)
				info, all, metrics := c.cmd("INFO").Str, c.cmd("INFO", "ALL").Str, c.cmd("METRICS").Str

				var sections, series []string
				if sh.shards == 1 {
					sections = []string{"\n# watermark\n", "\n# engine\n"}
					series = []string{"\nmvrlu_watermark "}
				} else {
					for i := 0; i < sh.shards; i++ {
						sections = append(sections,
							fmt.Sprintf("\n# watermark shard=%d\n", i), fmt.Sprintf("\n# engine shard=%d\n", i))
						series = append(series, fmt.Sprintf("\nmvrlu_watermark{shard=\"%d\"} ", i))
					}
				}
				for _, want := range sections {
					if got := strings.Contains(all, want); got != engine {
						t.Errorf("INFO ALL has %q: %v, want %v", strings.TrimSpace(want), got, engine)
					}
				}
				if got := strings.Contains(info, "# watermark"); got != engine {
					t.Errorf("INFO has a watermark section: %v, want %v", got, engine)
				}
				for _, want := range series {
					if got := strings.Contains(metrics, want); got != engine {
						t.Errorf("METRICS has %q: %v, want %v", strings.TrimSpace(want), got, engine)
					}
				}
				if strings.Contains(metrics, "\nmvrlu_") != engine {
					t.Errorf("METRICS mvrlu_* series present: %v, want %v", !engine, engine)
				}
				for _, line := range strings.Split(metrics, "\n") {
					if sh.shards == 1 && strings.HasPrefix(line, "mvrlu_") && strings.Contains(line, "shard=") {
						t.Fatalf("one-shard METRICS labels an engine series: %s", line)
					}
				}

				handles := 0
				for _, line := range strings.Split(info, "\n") {
					_, rest, ok := strings.Cut(line, ":thread_id=")
					if !ok {
						continue
					}
					handles++
					var id int
					fmt.Sscanf(rest, "%d", &id)
					if (id >= 0) != engine {
						t.Errorf("handle %q: thread_id %d on build %s", line, id, build)
					}
				}
				if handles != len(srv.pools)*len(srv.pools[0].all) {
					t.Errorf("INFO lists %d handles", handles)
				}
			})
		}
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
