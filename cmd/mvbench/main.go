// mvbench regenerates the concurrent-data-structure figures of the
// MV-RLU paper (§6.2): Figure 1 (hash table overview), Figure 4 (3×3
// structure/update-ratio grid), Figure 5 (abort ratios), Figure 6
// (data-set size sweep), and Figure 7 (Zipf contention sweep).
//
// Usage:
//
//	go run ./cmd/mvbench -fig 1 -threads 1,2,4,8 -duration 200ms
//	go run ./cmd/mvbench -fig 4
//	go run ./cmd/mvbench -fig 5
//	go run ./cmd/mvbench -fig 6
//	go run ./cmd/mvbench -fig 7 -threads 8
//	go run ./cmd/mvbench -fig 1 -format csv   # plot-ready output
//
// Thread counts are goroutines; on a box with fewer cores the absolute
// numbers compress, but the relative ordering between mechanisms — the
// paper's claim — is what the tables show.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/trace"
	"strconv"
	"strings"
	"time"

	"mvrlu/internal/bench"
	"mvrlu/internal/ds"
)

func main() {
	var (
		fig      = flag.Int("fig", 1, "figure to regenerate (1, 4, 5, 6, 7)")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated goroutine counts")
		duration = flag.Duration("duration", 200*time.Millisecond, "measurement duration per cell")
		format   = flag.String("format", "text", "output format: text or csv")
		jsonPath = flag.String("json", "", "also write machine-readable results (JSON) to this file")
		traceOut = flag.String("trace", "",
			"write a runtime execution trace to this file (view with go tool trace); critical sections and GC passes appear as mvrlu.cs/mvrlu.gc regions")
	)
	flag.Parse()
	if *format == "csv" {
		render = func(t *bench.Table) { t.RenderCSV(os.Stdout) }
	}
	if *jsonPath != "" {
		report = &jsonReport{}
		base := render
		render = func(t *bench.Table) {
			base(t)
			report.Tables = append(report.Tables, t.Data())
		}
	}
	th := parseThreads(*threads)

	stopTrace := startTrace(*traceOut)
	switch *fig {
	case 1:
		fig1(th, *duration)
	case 4:
		fig4(th, *duration)
	case 5:
		fig5(th, *duration)
	case 6:
		fig6(th, *duration)
	case 7:
		fig7(th[len(th)-1], *duration)
	default:
		stopTrace()
		fmt.Fprintf(os.Stderr, "unknown figure %d\n", *fig)
		os.Exit(1)
	}
	stopTrace()

	if *jsonPath != "" {
		if err := report.write(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}

// startTrace begins a runtime execution trace into path and returns the
// stop function. Deliberately not deferred by the caller: main has
// os.Exit error paths that would skip defers, and an unstopped trace is
// a truncated, unreadable file.
func startTrace(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	if err := trace.Start(f); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	return func() {
		trace.Stop()
		f.Close()
	}
}

// render emits a finished table; -format csv swaps it, -json tees it.
var render = func(t *bench.Table) { t.Render(os.Stdout) }

// report collects everything rendered when -json is set.
var report *jsonReport

// jsonReport is the machine-readable output of one mvbench invocation:
// the figure tables.
type jsonReport struct {
	Tables []bench.TableData `json:"tables,omitempty"`
}

func (r *jsonReport) write(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func parseThreads(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad thread count %q\n", part)
			os.Exit(1)
		}
		out = append(out, n)
	}
	return out
}

// measure builds a fresh set, runs the cell, closes the set.
func measure(name string, cfg ds.Config, w bench.Workload) bench.Result {
	set, err := ds.New(name, cfg)
	if err != nil {
		panic(err)
	}
	defer set.Close()
	return bench.Run(set, w)
}

// fig1 is the paper's Figure 1: hash table with 1,000 elements, load
// factor 1 (1,000 buckets), 80-20 Pareto access, 10% updates.
func fig1(threads []int, d time.Duration) {
	sets := []string{"mvrlu-hash", "rlu-hash", "rcu-hash", "harris-hash", "hp-harris-hash"}
	tab := bench.NewTable(
		"Figure 1: hash table, 1K items, load factor 1, 80-20 Pareto, 10% update (ops/µs)",
		"threads", sets...)
	for _, t := range threads {
		for _, name := range sets {
			w := bench.Workload{
				Threads:     t,
				UpdateRatio: 0.10,
				Initial:     1000,
				Dist:        bench.DistPareto8020,
				Duration:    d,
			}
			r := measure(name, ds.Config{Buckets: 1000}, w)
			tab.Add(fmt.Sprint(t), name, r.OpsPerUsec())
		}
	}
	render(tab)
}

// fig4 is the 3×3 grid: {list, hash, bst} × {read-mostly, read-intensive,
// write-intensive}, 10K items.
func fig4(threads []int, d time.Duration) {
	rows := []struct {
		structure string
		sets      []string
		buckets   int
	}{
		{"list", []string{"mvrlu-list", "rlu-list", "rlu-ordo-list", "rcu-list", "vp-list", "stm-list"}, 0},
		{"hash", []string{"mvrlu-hash", "rlu-hash", "rlu-ordo-hash", "rcu-hash", "hp-harris-hash"}, 1000},
		{"bst", []string{"mvrlu-bst", "rlu-bst", "rlu-ordo-bst", "rcu-bst", "vp-bst"}, 0},
	}
	updates := []struct {
		label string
		ratio float64
	}{
		{"read-mostly (2%)", 0.02},
		{"read-intensive (20%)", 0.20},
		{"write-intensive (80%)", 0.80},
	}
	initial := map[string]int{"list": 10000, "hash": 10000, "bst": 10000}
	for _, row := range rows {
		for _, u := range updates {
			tab := bench.NewTable(
				fmt.Sprintf("Figure 4: %s, 10K items, %s (ops/µs)", row.structure, u.label),
				"threads", row.sets...)
			for _, t := range threads {
				for _, name := range row.sets {
					w := bench.Workload{
						Threads:     t,
						UpdateRatio: u.ratio,
						Initial:     initial[row.structure],
						Duration:    d,
					}
					r := measure(name, ds.Config{Buckets: row.buckets}, w)
					tab.Add(fmt.Sprint(t), name, r.OpsPerUsec())
				}
			}
			render(tab)
		}
	}
}

// fig5 is the abort-ratio comparison: list and hash with 10K items (hash
// load factor 10), MV-RLU vs RLU vs STM. Goroutines on a few-core host
// overlap far less than the paper's hundreds of hardware threads, so the
// uniform-access cells stay near zero; a hot-key (80-20 Pareto) variant
// is emitted as well, where the ordering STM ≫ RLU ≥ MV-RLU the paper
// reports is visible at any core count.
func fig5(threads []int, d time.Duration) {
	for _, structure := range []string{"list", "hash"} {
		sets := []string{"mvrlu-" + structure, "rlu-" + structure, "stm-" + structure}
		for _, dist := range []struct {
			label string
			kind  bench.Distribution
		}{{"uniform", bench.DistUniform}, {"pareto-80-20", bench.DistPareto8020}} {
			for _, u := range []float64{0.02, 0.20, 0.80} {
				tab := bench.NewTable(
					fmt.Sprintf("Figure 5: abort ratio, %s 10K items, %s, %.0f%% update",
						structure, dist.label, u*100),
					"threads", sets...)
				for _, t := range threads {
					for _, name := range sets {
						w := bench.Workload{
							Threads:     t,
							UpdateRatio: u,
							Initial:     1000,
							Dist:        dist.kind,
							Duration:    d,
						}
						if structure == "hash" {
							w.Initial = 10000
						}
						r := measure(name, ds.Config{Buckets: 1000}, w)
						tab.Add(fmt.Sprint(t), name, r.AbortRatio)
					}
				}
				render(tab)
			}
		}
	}
}

// fig6 is the data-set size sweep: hash table, read-intensive (20%),
// 1K/10K/50K items at load factors 1/10/10.
func fig6(threads []int, d time.Duration) {
	sizes := []struct {
		items, buckets int
	}{{1000, 1000}, {10000, 1000}, {50000, 5000}}
	sets := []string{"mvrlu-hash", "rlu-hash", "rcu-hash", "hp-harris-hash"}
	for _, sz := range sizes {
		tab := bench.NewTable(
			fmt.Sprintf("Figure 6: hash, %d items (load factor %d), read-intensive (ops/µs)",
				sz.items, sz.items/sz.buckets),
			"threads", sets...)
		for _, t := range threads {
			for _, name := range sets {
				w := bench.Workload{
					Threads:     t,
					UpdateRatio: 0.20,
					Initial:     sz.items,
					Duration:    d,
				}
				r := measure(name, ds.Config{Buckets: sz.buckets}, w)
				tab.Add(fmt.Sprint(t), name, r.OpsPerUsec())
			}
		}
		render(tab)
	}
}

// fig7 is the contention sweep: hash with 10K items, load factor 10,
// fixed thread count, Zipf theta 0.2→1.0 (clamped to 0.99).
func fig7(threadCount int, d time.Duration) {
	sets := []string{"mvrlu-hash", "rlu-hash", "rcu-hash", "hp-harris-hash"}
	for _, u := range []float64{0.02, 0.20, 0.80} {
		tab := bench.NewTable(
			fmt.Sprintf("Figure 7: hash 10K items, %.0f%% update, %d threads, Zipf sweep (ops/µs)",
				u*100, threadCount),
			"theta", sets...)
		for _, theta := range []float64{0.2, 0.4, 0.6, 0.8, 0.99} {
			for _, name := range sets {
				w := bench.Workload{
					Threads:     threadCount,
					UpdateRatio: u,
					Initial:     10000,
					Dist:        bench.DistZipf,
					Theta:       theta,
					Duration:    d,
				}
				r := measure(name, ds.Config{Buckets: 1000}, w)
				tab.Add(fmt.Sprintf("%.2f", theta), name, r.OpsPerUsec())
			}
		}
		render(tab)
	}
}
