package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mvrlu/internal/core"
	"mvrlu/internal/obs"
	"mvrlu/internal/wal"
)

// counters is one snapshot of every counter the layers export, taken at
// an edge of the traced window while no worker is running.
type counters struct {
	ops  uint64
	core core.Stats
	wal  wal.LogStats
	prom promSnap
	mem  runtime.MemStats
	cpu  time.Duration // user+system CPU of the process
}

func (t *target) snapshot() counters {
	t.quiet.Lock()
	defer t.quiet.Unlock()
	var c counters
	for _, w := range t.workers {
		c.ops += w.state().done.Load()
	}
	c.core = t.coreStats()
	if t.wlog != nil {
		c.wal = t.wlog.Stats()
	}
	if t.srv != nil {
		var buf bytes.Buffer
		if err := t.srv.Metrics().WriteText(&buf); err == nil {
			c.prom = parseProm(buf.Bytes())
		}
	}
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return c
}

// promSnap is a parsed Prometheus text exposition: series (name with its
// label set, as printed) → value.
type promSnap map[string]float64

func parseProm(text []byte) promSnap {
	p := promSnap{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			p[line[:i]] = v
		}
	}
	return p
}

// histDelta returns the per-bucket counts histogram name gained between
// two snapshots, as (inclusive upper edge, count) pairs in edge order,
// summed over any labels other than le. The registry prints only the
// occupied prefix of a histogram's fixed bucket layout, so an edge missing
// from a snapshot lies above everything recorded by then and its
// cumulative count is that snapshot's total (the +Inf bucket).
func histDelta(a, b promSnap, name string) (edges, counts []float64) {
	prefix := name + "_bucket{"
	seen := map[float64]bool{}
	groups := map[string]bool{} // label sets, le removed
	for series := range b {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		groups[series[:i]] = true
		if le := series[i+4 : len(series)-2]; le != "+Inf" {
			if edge, err := strconv.ParseFloat(le, 64); err == nil {
				seen[edge] = true
			}
		}
	}
	for e := range seen {
		edges = append(edges, e)
	}
	sort.Float64s(edges)
	cumAt := func(p promSnap, group string, edge float64) float64 {
		if v, ok := p[group+`le="`+strconv.FormatFloat(edge, 'f', -1, 64)+`"}`]; ok {
			return v
		}
		return p[group+`le="+Inf"}`]
	}
	prev := 0.0
	for _, e := range edges {
		var cum float64
		for g := range groups {
			cum += cumAt(b, g, e) - cumAt(a, g, e)
		}
		counts = append(counts, cum-prev)
		prev = cum
	}
	return edges, counts
}

// histQuantile interpolates the p-quantile inside its bucket. The obs
// histograms have power-of-two buckets, so the bucket's upper edge alone
// can be off by 2×; a straight line across the bucket is the least
// assuming guess.
func histQuantile(edges, counts []float64, p float64) float64 {
	var total float64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := p * total
	var cum float64
	for i, c := range counts {
		if cum+c >= target && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = edges[i-1] + 1
			}
			return lo + (edges[i]-lo)*(target-cum)/c
		}
		cum += c
	}
	return edges[len(edges)-1]
}

// chainSampler polls the store's version-chain metrics while load runs:
// chains are only long while writers are ahead of reclamation, so a
// reading taken after the window would always say 1.
type chainSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	maxChain          int
	records, versions float64
}

type chainMetricser interface {
	ChainMetrics() (records, versions, maxChain int)
}

func startChainSampler(t *target) *chainSampler {
	s := &chainSampler{stop: make(chan struct{})}
	cm, ok := t.store.(chainMetricser)
	if !ok {
		return s
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				t.quiet.Lock()
				r, v, m := cm.ChainMetrics()
				t.quiet.Unlock()
				s.records += float64(r)
				s.versions += float64(v)
				if m > s.maxChain {
					s.maxChain = m
				}
			}
		}
	}()
	return s
}

func (s *chainSampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// runTraced produces the per-layer metrics of w. Its closed-loop numbers
// never become end-to-end metrics: the run is shorter, shares the process
// with a sampler, and half of it runs with tracing on.
func runTraced(w *workload, cfg *runConfig) (*result, error) {
	tcfg := *cfg
	tcfg.traced = true
	cfg = &tcfg
	t, err := setup(w, cfg)
	if err != nil {
		return nil, err
	}
	defer t.close()
	res := newResult(w, true)
	for _, m := range perLayer {
		res.Metrics[m.Name] = 0 // a layer off this workload's path reports 0
	}
	t.armDeadlines(cfg.phase(35))
	stream := t.firstStream()

	// Reference window (tracing off) then traced window, back to back on
	// the same warm target, so their ratio is the tracing overhead and
	// little else.
	sampler := startChainSampler(t)
	ref := closedLoop(t.workers, cfg.phase(5), cfg.phase(7.5), 1)[0]
	a := t.snapshot()
	obs.SetTraceEnabled(true)
	for _, wk := range t.workers {
		st := wk.state()
		st.tracing = true
		st.spans = make([]batchSpan, 0, int(ref*cfg.phase(7.5).Seconds()/float64(st.opsPerBatch)))
	}
	traced := closedLoop(t.workers, 0, cfg.phase(7.5), 1)[0]
	obs.SetTraceEnabled(false)
	sampler.finish()
	b := t.snapshot()
	for _, wk := range t.workers {
		wk.state().tracing = false
	}
	m := res.Metrics
	m["obs.trace_overhead_pct"] = (ref - traced) / ref * 100

	t.counterMetrics(res, a, b, sampler)
	t.spanMetrics(res)
	if t.srv != nil {
		t.stageMetrics(res, a, b)
	}

	// A short paced window, for the tail and generator-lateness figures
	// that stay ungated.
	lat, late := res.runPaced(t, pacedRate(w, cfg, ref), cfg.phase(5))
	m["client.paced_p50_us"] = float64(percentile(lat, 0.50)) / 1e3
	m["client.paced_p95_us"] = float64(percentile(lat, 0.95)) / 1e3
	m["client.paced_p99_us"] = float64(percentile(lat, 0.99)) / 1e3
	m["client.late_p99_us"] = float64(percentile(late, 0.99)) / 1e3
	for _, name := range []string{"client.paced_p50_us", "client.paced_p95_us", "client.paced_p99_us", "client.late_p99_us"} {
		res.Samples[name] = len(lat)
	}
	res.collect(t)

	if err := writeTraceFile(w, cfg, t, a, b); err != nil {
		return nil, err
	}
	if err := t.finish(res); err != nil {
		return nil, err
	}
	if err := t.close(); err != nil {
		return nil, err
	}

	// With the target gone and the machine quiet: the layer-cut probes,
	// and for the sharded workload a second short pass without the router.
	perOpNs := float64(len(t.workers)) / ref * 1e9
	cuts, err := runCuts(w, cfg, stream)
	if err != nil {
		return nil, err
	}
	for k, v := range cuts.metrics {
		m[k] = v
	}
	if t.srv != nil {
		m["server.added_ns_per_op"] = perOpNs - cuts.inProcessNs
	}
	if w.Shards > 1 {
		one := *w
		one.Shards = 1
		t1, err := setup(&one, cfg)
		if err != nil {
			return nil, err
		}
		t1.armDeadlines(cfg.phase(10))
		r1 := closedLoop(t1.workers, cfg.phase(2.5), cfg.phase(5), 1)[0]
		res.collect(t1)
		if err := t1.close(); err != nil {
			return nil, err
		}
		m["server.router_added_ns_per_op"] = perOpNs - float64(len(t1.workers))/r1*1e9
	}
	cuts.print(w, perOpNs)
	return res, nil
}

// firstStream returns worker 0's op stream, the one the cut probes
// replay.
func (t *target) firstStream() []op {
	if t.engine != nil {
		return t.engine.workers[0].ops
	}
	return t.clients[0].ops
}

// counterMetrics turns the counter deltas over the traced window into
// per-layer metrics.
func (t *target) counterMetrics(res *result, a, b counters, s *chainSampler) {
	m := res.Metrics
	ops := float64(b.ops - a.ops)
	if ops == 0 {
		ops = 1
	}
	cs, cb := a.core, b.core
	m["core.commits"] = float64(cb.Commits - cs.Commits)
	m["core.aborts"] = float64(cb.Aborts - cs.Aborts)
	if n := m["core.commits"] + m["core.aborts"]; n > 0 {
		m["core.abort_ratio"] = m["core.aborts"] / n
	}
	m["core.lock_fails"] = float64(cb.LockFails - cs.LockFails)
	if d := float64(cb.Derefs - cs.Derefs); d > 0 {
		m["core.chain_steps_per_deref"] = float64(cb.ChainSteps-cs.ChainSteps) / d
	}
	m["core.gc_runs"] = float64(cb.GCRuns - cs.GCRuns)
	m["core.reclaimed"] = float64(cb.Reclaimed - cs.Reclaimed)
	m["core.writebacks"] = float64(cb.Writebacks - cs.Writebacks)
	m["core.capacity_blocks"] = float64(cb.CapacityBlocks - cs.CapacityBlocks)
	m["core.watermark_scans"] = float64(cb.WatermarkScans - cs.WatermarkScans)
	m["core.max_chain_len"] = float64(s.maxChain)
	if s.records > 0 {
		m["core.versions_per_record"] = s.versions / s.records
	}

	m["proc.cpu_us_per_op"] = float64(b.cpu-a.cpu) / 1e3 / ops
	m["proc.gc_cycles"] = float64(b.mem.NumGC - a.mem.NumGC)
	m["proc.gc_pause_ms"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6
	m["proc.heap_inuse_mb"] = float64(b.mem.HeapInuse) / (1 << 20)

	if t.srv == nil {
		return
	}
	// The load workers do not allocate per batch, so the process's
	// mallocs over the window are the serving tier's.
	m["server.allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / ops
	var per []float64
	for i := 0; ; i++ {
		series := fmt.Sprintf(`server_shard_commands_total{shard="%d"}`, i)
		v, ok := b.prom[series]
		if !ok {
			break
		}
		per = append(per, v-a.prom[series])
	}
	if len(per) > 1 {
		var sum, max float64
		for _, v := range per {
			sum += v
			max = math.Max(max, v)
		}
		if sum > 0 {
			m["server.shard_imbalance"] = max/(sum/float64(len(per))) - 1
		}
	}

	if t.wlog == nil {
		return
	}
	recs := float64(b.wal.Records - a.wal.Records)
	m["wal.records"] = recs
	m["wal.syncs"] = float64(b.wal.Syncs - a.wal.Syncs)
	m["wal.snapshots"] = float64(b.wal.Snapshots - a.wal.Snapshots)
	if m["wal.syncs"] > 0 {
		m["wal.group_records"] = recs / m["wal.syncs"]
	}
	if recs > 0 {
		m["wal.bytes_per_user_byte"] = float64(b.wal.Bytes-a.wal.Bytes) / (recs * (keyLen + valueSize))
	}
	e, c := histDelta(a.prom, b.prom, "wal_fsync_ns")
	m["wal.fsync_ns_p50"] = histQuantile(e, c, 0.50)
	e, c = histDelta(a.prom, b.prom, "wal_append_wait_ns")
	m["wal.append_wait_ns_p99"] = histQuantile(e, c, 0.99)
}

// spanMetrics summarises the client spans of the traced window.
func (t *target) spanMetrics(res *result) {
	var batch, write, wait []int64
	for _, w := range t.workers {
		for _, s := range w.state().spans {
			batch = append(batch, s.T2-s.T0)
			write = append(write, s.T1-s.T0)
			wait = append(wait, s.T2-s.T1)
		}
	}
	sorted := sortedCopy(batch)
	m := res.Metrics
	m["client.batch_p50_us"] = float64(percentile(sorted, 0.50)) / 1e3
	m["client.batch_p99_us"] = float64(percentile(sorted, 0.99)) / 1e3
	res.Samples["client.batch_p50_us"], res.Samples["client.batch_p99_us"] = len(sorted), len(sorted)
	m["client.write_ns"] = meanInt64(write)
	m["client.read_wait_ns"] = meanInt64(wait)
}

// stageMetrics averages the server's own per-batch stage totals (the
// flight recorder's recent traces, nesting removed) and cross-checks them
// against the server's batch histogram: both claim to say how long a
// batch holds its session, by different instruments, and when they differ
// by more than a fifth one of them is lying.
func (t *target) stageMetrics(res *result, a, b counters) {
	m := res.Metrics
	e, c := histDelta(a.prom, b.prom, "server_batch_ns")
	m["server.batch_ns_p50"] = histQuantile(e, c, 0.50)
	m["server.socket_ns"] = m["client.batch_p50_us"]*1e3 - m["server.batch_ns_p50"]

	traces := t.srv.Flight().Recent(0)
	if len(traces) == 0 {
		res.note("DISAGREE: tracing was on but the flight recorder holds no trace")
		return
	}
	var sum [obs.NumStages]float64
	held := make([]int64, 0, len(traces))
	for i := range traces {
		adj := traces[i].AdjustedStages()
		for s, ns := range adj {
			sum[s] += float64(ns)
		}
		// The stages that run while the batch holds its session — what
		// server_batch_ns times.
		held = append(held, adj[obs.StageParse]+adj[obs.StagePlan]+adj[obs.StageEngine]+
			adj[obs.StageLockWait]+adj[obs.StageCommit]+adj[obs.StageWALAppend])
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		m["server.stage."+s.String()+"_ns"] = sum[s] / float64(len(traces))
	}
	res.Samples["server.stage"] = len(traces)
	stages := float64(percentile(sortedCopy(held), 0.50))
	if hist := m["server.batch_ns_p50"]; hist > 0 && math.Abs(stages-hist)/hist > 0.20 {
		res.note("DISAGREE: stage totals say a batch holds its session %.0f ns (median of %d traces), server_batch_ns says %.0f ns",
			stages, len(traces), hist)
	}
}

// traceFile is the on-disk form of a traced window.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Note     string      `json:"note"`
	Spans    []traceSpan `json:"spans"`
	Counters struct {
		Start traceCounters `json:"window_start"`
		End   traceCounters `json:"window_end"`
	} `json:"counters"`
}

// traceSpan is one span. Spans of one batch share ID; the batch span is
// the parent of its write and read_wait spans.
type traceSpan struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type traceCounters struct {
	Ops     uint64             `json:"ops"`
	Core    core.Stats         `json:"core"`
	WAL     wal.LogStats       `json:"wal"`
	Metrics map[string]float64 `json:"server_metrics,omitempty"`
	Mallocs uint64             `json:"mallocs"`
	NumGC   uint32             `json:"num_gc"`
	CPUNs   int64              `json:"cpu_ns"`
}

func (c counters) forFile() traceCounters {
	return traceCounters{Ops: c.ops, Core: c.core, WAL: c.wal, Metrics: c.prom,
		Mallocs: c.mem.Mallocs, NumGC: c.mem.NumGC, CPUNs: int64(c.cpu)}
}

// maxFileBatches caps the spans written per worker; the metrics above use
// every span, the file is for looking at.
const maxFileBatches = 20000

func writeTraceFile(w *workload, cfg *runConfig, t *target, a, b counters) error {
	tf := traceFile{Workload: w.Name, Seed: cfg.seed,
		Note: fmt.Sprintf("first %d batches per worker of the traced closed-loop window; times are ns since process start", maxFileBatches)}
	tf.Counters.Start, tf.Counters.End = a.forFile(), b.forFile()
	for wi, wk := range t.workers {
		spans := wk.state().spans
		if len(spans) > maxFileBatches {
			spans = spans[:maxFileBatches]
		}
		for i, s := range spans {
			id := fmt.Sprintf("w%d-b%d", wi, i)
			tf.Spans = append(tf.Spans, traceSpan{Name: "client.batch", ID: id, Start: s.T0, End: s.T2})
			if s.T1 != s.T0 { // in-process batches have no write/wait split
				tf.Spans = append(tf.Spans,
					traceSpan{Name: "client.write", ID: id, Parent: "client.batch", Start: s.T0, End: s.T1},
					traceSpan{Name: "client.read_wait", ID: id, Parent: "client.batch", Start: s.T1, End: s.T2})
			}
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(&tf); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
