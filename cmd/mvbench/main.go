// mvbench prints the MV-RLU paper's evaluation (§6) from the one
// catalogue in internal/figures: Table 1, Figures 1 and 4–10, the
// YCSB-E range mix and the ablation sweeps.
//
// Usage:
//
//	go run ./cmd/mvbench -fig all
//	go run ./cmd/mvbench -fig 4 -threads 1,2,4,8,16 -duration 500ms
//	go run ./cmd/mvbench -fig fig9 -format csv   # plot-ready output
//
// -fig takes a figure ID (table1, fig1, fig4 … fig10, ycsb-e, ablation;
// a bare figure number works too) or all. Thread counts are goroutines;
// on a box with fewer cores the absolute numbers compress, but the
// relative ordering between mechanisms — the paper's claim — is what
// the tables show.
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
	"mvrlu/internal/figures"
)

func main() {
	var (
		fig      = flag.String("fig", "fig1", "figure ID to print (table1, fig1, fig4 … fig10, ycsb-e, ablation) or all")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated goroutine counts (Figures 7 and 8 run the last)")
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
	figs := selectFigures(*fig, figures.All(figures.Params{Threads: parseThreads(*threads), Duration: *duration}))

	stopTrace := startTrace(*traceOut)
	for _, f := range figs {
		for _, t := range f.Tables {
			for _, tab := range t.Measure() {
				render(tab)
			}
		}
	}
	stopTrace()

	if *jsonPath != "" {
		if err := report.write(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}

// selectFigures returns the figure id names ("4" is "fig4"), or every
// figure for "all".
func selectFigures(id string, all []figures.Figure) []figures.Figure {
	if id == "all" {
		return all
	}
	var ids []string
	for _, f := range all {
		if f.ID == id || f.ID == "fig"+id {
			return []figures.Figure{f}
		}
		ids = append(ids, f.ID)
	}
	fmt.Fprintf(os.Stderr, "unknown figure %q (have: all, %s)\n", id, strings.Join(ids, ", "))
	os.Exit(1)
	return nil
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
