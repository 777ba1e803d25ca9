package main

import "encoding/json"

// spec.go is the benchmark's contract in code: the four workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the end-to-end metric each is expected to move.
// BENCHMARK.json at the repository root repeats the names, units and
// bounds for the driver; it is the output of `go run ./benchmark spec`,
// and TestBenchmarkJSONIsGenerated keeps the two in step. What BENCHMARK.json's fixed schema has no room for — the frozen
// paced rates and the "should move" column — lives only here and in
// README.md.

// Op kinds. The server workloads use the first five, engine-hash the
// last three.
const (
	opGet = iota
	opSet
	opRange
	opRangeRev
	opTxn // MULTI + 4 co-located SETs + EXEC, counted as one op
	opLookup
	opInsert
	opRemove
	numKinds
)

var kindNames = [numKinds]string{"get", "set", "range", "range_rev", "txn", "lookup", "insert", "remove"}

const (
	batchOps    = 16   // ops per pipelined batch (server workloads)
	engineBatch = 256  // ops per paced batch (engine-hash; see README)
	clients     = 2    // load goroutines; never more than nproc
	valueSize   = 64   // bytes per value
	rangeSpan   = 1024 // RANGE k .. k+rangeSpan-1
	rangeLimit  = 16   // LIMIT of every RANGE
	txnKeys     = 4    // SETs per MULTI body
	serverConns = clients
)

// workload describes one traffic mix and the store it runs against.
type workload struct {
	Name string
	Why  string
	// Store is the kvstore build ("" for the in-process engine-hash).
	Store  string
	Shards int
	WAL    bool
	// Keys is the preloaded key count (engine-hash: the key range, of
	// which half is preloaded).
	Keys int
	// Zipf is the key-popularity skew; 0 means uniform.
	Zipf float64
	// Mix is the share of each op kind in percent.
	Mix [numKinds]int
	// PacedRate is the frozen open-loop offered rate in ops/s: about 40%
	// of the closed-loop ops_per_s measured on the build host (2 cores)
	// when this benchmark was defined, rounded to two digits. It is a
	// constant of the benchmark, not of the host: changing it makes
	// paced_* incomparable with history.jsonl.
	PacedRate float64
}

var workloads = []workload{
	{
		Name:  "kv-point-read",
		Why:   "95% GET / 5% SET, uniform, 100k keys, unsharded mvrlu-kv, no WAL: RESP codec, dispatch, session pool and engine deref do the work; index, router and WAL do none.",
		Store: "mvrlu-kv", Shards: 1, Keys: 100000,
		Mix:       [numKinds]int{opGet: 95, opSet: 5},
		PacedRate: 280000,
	},
	{
		Name:  "kv-write-wal",
		Why:   "50% SET / 50% GET, Zipf 0.99, 100k keys, mvrlu-kv with WAL sync=always: TryLock, commit and GC on hot chains, commit hook, WAL append, group-fsync barrier and ack gate dominate.",
		Store: "mvrlu-kv", Shards: 1, WAL: true, Keys: 100000, Zipf: 0.99,
		Mix:       [numKinds]int{opGet: 50, opSet: 50},
		PacedRate: 35000,
	},
	{
		Name:  "idx-range-txn",
		Why:   "60% GET, 20% RANGE of 1024 keys LIMIT 16 (a quarter REV), 10% SET, 10% MULTI of 4 SETs, mvrlu-idx, 2 shards: tower walk, range collect-sort-cut, index writer mutex, router and txn commit.",
		Store: "mvrlu-idx", Shards: 2, Keys: 20000,
		Mix:       [numKinds]int{opGet: 60, opRange: 15, opRangeRev: 5, opSet: 10, opTxn: 10},
		PacedRate: 10000,
	},
	{
		Name: "engine-hash",
		Why:  "80% Lookup / 10% Insert / 10% Remove on in-process mvrlu-hash (1000 buckets, 10k of 20k keys), no server: only clock, core and ds run, so an engine change shows undiluted by the serving tier.",
		Keys: 20000,
		Mix:  [numKinds]int{opLookup: 80, opInsert: 10, opRemove: 10},
		// Offered in ops/s like the others; one paced batch is
		// engineBatch ops.
		PacedRate: 3300000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before compare reports a
// regression; per-layer metrics have none. Moves says which end-to-end
// metric, on which workload, a change in this metric should show up in.
type metricSpec struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
	Moves  string
}

// endToEnd are the gated metrics. Three of the issue's six are not here.
//
// error_rate: the driver's contract forbids a metric that is normally 0,
// so failures are the result line's failed/attempted pair (and error_rate
// in the printed table and in result lines).
//
// paced_p50_us and paced_p95_us: moved to the ungated list below, by the
// issue's own rule for a metric that two sets of runs of one commit cannot
// repeat. On the 2-vCPU build host, three sets of ten runs per workload,
// taken over two hours, put the interquartile spread of paced_p95_us
// between 8% and 350% (kv-point-read 54%, kv-write-wal 46%, engine-hash
// 29% in the last set) and that of paced_p50_us at 2% to 35% on
// kv-point-read and 9% to 25% on kv-write-wal, whose median rides on
// whether fsync is in its 220 us or its 470 us mode after a checkpoint.
// No window length or sub-window statistic tried (README, "Steadiness")
// brought them under a tenth.
//
// The bounds of ops_per_s and setup_s are the widest the contract allows
// and wider than the issue's: the same host drifted by 18% in median
// ops_per_s between two sets twenty minutes apart, and a bound the host
// cannot hold gates nothing. compare's alternating pairs, not the bound,
// are the instrument for a small difference.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Higher: true, Bound: 0.25},
	{Name: "mem_per_user_byte", Unit: "ratio", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
}

// reported are measured by the untraced run, printed, stored in result
// lines and shown by compare, but gate nothing (see above).
var reported = []metricSpec{
	{Name: "paced_p50_us", Unit: "us"},
	{Name: "paced_p95_us", Unit: "us"},
}

// untracedMetrics is everything the untraced run measures.
var untracedMetrics = append(append([]metricSpec(nil), endToEnd...), reported...)

var perLayer = []metricSpec{
	{Name: "clock.now_ns", Unit: "ns", Moves: "ops_per_s on engine-hash"},

	{Name: "core.read_cs_ns", Unit: "ns", Moves: "ops_per_s on engine-hash, slightly on kv-point-read"},
	{Name: "core.write_cs_ns", Unit: "ns", Moves: "ops_per_s, paced_p95_us on kv-write-wal"},
	{Name: "core.commits", Unit: "count", Higher: true, Moves: "ops_per_s on kv-write-wal"},
	{Name: "core.aborts", Unit: "count", Moves: "ops_per_s, paced_p95_us on kv-write-wal"},
	{Name: "core.abort_ratio", Unit: "ratio", Moves: "ops_per_s, paced_p95_us on kv-write-wal"},
	{Name: "core.lock_fails", Unit: "count", Moves: "ops_per_s on kv-write-wal"},
	{Name: "core.chain_steps_per_deref", Unit: "ratio", Moves: "ops_per_s on kv-write-wal, engine-hash"},
	{Name: "core.gc_runs", Unit: "count", Moves: "paced_p95_us on kv-write-wal"},
	{Name: "core.reclaimed", Unit: "count", Higher: true, Moves: "mem_per_user_byte on kv-write-wal"},
	{Name: "core.writebacks", Unit: "count", Moves: "ops_per_s on kv-write-wal"},
	{Name: "core.capacity_blocks", Unit: "count", Moves: "paced_p95_us on kv-write-wal"},
	{Name: "core.watermark_scans", Unit: "count", Moves: "ops_per_s on kv-write-wal"},
	{Name: "core.max_chain_len", Unit: "count", Moves: "mem_per_user_byte on kv-write-wal"},
	{Name: "core.versions_per_record", Unit: "ratio", Moves: "mem_per_user_byte on kv-write-wal"},

	{Name: "kvstore.get_ns", Unit: "ns", Moves: "ops_per_s on kv-point-read"},
	{Name: "kvstore.set_ns", Unit: "ns", Moves: "ops_per_s on kv-write-wal"},
	{Name: "kvstore.get_allocs", Unit: "count", Moves: "paced_p95_us on kv-point-read"},
	{Name: "kvstore.set_allocs", Unit: "count", Moves: "paced_p95_us on kv-write-wal"},
	{Name: "kvstore.vanilla_get_ns", Unit: "ns", Moves: "none: the mutex+map reference"},
	{Name: "kvstore.vanilla_set_ns", Unit: "ns", Moves: "none: the mutex+map reference"},

	{Name: "index.get_ns", Unit: "ns", Moves: "ops_per_s on idx-range-txn"},
	{Name: "index.set_ns", Unit: "ns", Moves: "ops_per_s on idx-range-txn"},
	{Name: "index.range16_ns", Unit: "ns", Moves: "ops_per_s, paced_p95_us on idx-range-txn"},
	{Name: "index.range16_rev_ns", Unit: "ns", Moves: "ops_per_s, paced_p95_us on idx-range-txn"},
	{Name: "index.txn4_ns", Unit: "ns", Moves: "ops_per_s on idx-range-txn"},
	{Name: "index.range16_allocs", Unit: "count", Moves: "paced_p95_us on idx-range-txn"},

	{Name: "server.codec_cmd_ns", Unit: "ns", Moves: "ops_per_s, paced_p50_us on kv-point-read"},
	{Name: "server.codec_reply_ns", Unit: "ns", Moves: "ops_per_s, paced_p50_us on kv-point-read"},
	{Name: "server.added_ns_per_op", Unit: "ns", Moves: "ops_per_s, paced_p50_us on kv-point-read"},
	{Name: "server.router_added_ns_per_op", Unit: "ns", Moves: "ops_per_s on idx-range-txn"},
	{Name: "server.batch_ns_p50", Unit: "ns", Moves: "paced_p50_us on every server workload"},
	{Name: "server.socket_ns", Unit: "ns", Moves: "paced_p50_us on kv-point-read"},
	{Name: "server.allocs_per_op", Unit: "count", Moves: "paced_p95_us on every server workload"},
	{Name: "server.shard_imbalance", Unit: "ratio", Moves: "ops_per_s on idx-range-txn"},
	{Name: "server.stage.parse_ns", Unit: "ns", Moves: "ops_per_s on kv-point-read"},
	{Name: "server.stage.plan_ns", Unit: "ns", Moves: "ops_per_s on idx-range-txn"},
	{Name: "server.stage.session_wait_ns", Unit: "ns", Moves: "paced_p95_us on every server workload"},
	{Name: "server.stage.engine_ns", Unit: "ns", Moves: "ops_per_s on every server workload"},
	{Name: "server.stage.lock_wait_ns", Unit: "ns", Moves: "ops_per_s on idx-range-txn, kv-write-wal"},
	{Name: "server.stage.commit_ns", Unit: "ns", Moves: "ops_per_s on kv-write-wal"},
	{Name: "server.stage.wal_append_ns", Unit: "ns", Moves: "ops_per_s on kv-write-wal"},
	{Name: "server.stage.wal_barrier_ns", Unit: "ns", Moves: "paced_p50_us, paced_p95_us on kv-write-wal"},
	{Name: "server.stage.flush_ns", Unit: "ns", Moves: "paced_p50_us on kv-point-read"},

	{Name: "wal.append_ns", Unit: "ns", Moves: "ops_per_s on kv-write-wal"},
	{Name: "wal.barrier_ns", Unit: "ns", Moves: "paced_p50_us, paced_p95_us on kv-write-wal"},
	{Name: "wal.syncs", Unit: "count", Moves: "ops_per_s on kv-write-wal"},
	{Name: "wal.records", Unit: "count", Higher: true, Moves: "ops_per_s on kv-write-wal"},
	{Name: "wal.group_records", Unit: "ratio", Higher: true, Moves: "ops_per_s on kv-write-wal"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Moves: "ops_per_s on kv-write-wal"},
	{Name: "wal.fsync_ns_p50", Unit: "ns", Moves: "paced_p50_us on kv-write-wal"},
	{Name: "wal.append_wait_ns_p99", Unit: "ns", Moves: "paced_p95_us on kv-write-wal"},
	{Name: "wal.snapshots", Unit: "count", Moves: "paced_p95_us on kv-write-wal"},
	{Name: "wal.recover_s", Unit: "s", Moves: "setup_s of a restart; none of the gated metrics"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Moves: "none while tracing is off: that is the claim to keep true"},

	{Name: "client.batch_p50_us", Unit: "us", Moves: "the generator itself"},
	{Name: "client.batch_p99_us", Unit: "us", Moves: "the generator itself; ungated tail"},
	{Name: "client.paced_p50_us", Unit: "us", Moves: "the traced run's short paced window; the untraced run reports paced_p50_us"},
	{Name: "client.paced_p95_us", Unit: "us", Moves: "the traced run's short paced window; the untraced run reports paced_p95_us"},
	{Name: "client.paced_p99_us", Unit: "us", Moves: "the generator itself; ungated tail"},
	{Name: "client.late_p99_us", Unit: "us", Moves: "must stay < 1000 or the paced window is void"},
	{Name: "client.write_ns", Unit: "ns", Moves: "the generator itself"},
	{Name: "client.read_wait_ns", Unit: "ns", Moves: "paced_p50_us on every server workload"},

	{Name: "proc.cpu_us_per_op", Unit: "us", Moves: "ops_per_s everywhere"},
	{Name: "proc.gc_cycles", Unit: "count", Moves: "paced_p95_us everywhere"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Moves: "paced_p95_us everywhere"},
	{Name: "proc.heap_inuse_mb", Unit: "MB", Moves: "mem_per_user_byte everywhere"},
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, better(m.Higher), m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, better(m.Higher)})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers
	}
	return append(b, '\n')
}
