// Command benchmark is the repository's one performance harness: four
// named workloads over the MV-RLU stack, three gated end-to-end metrics,
// two reported latencies and a failure count, per-layer cuts, and a traced
// run. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                         every workload, untraced then traced
//	go run ./benchmark -workload kv-point-read one workload; last stdout line is the driver's JSON
//	go run ./benchmark compare a.jsonl b.jsonl
//	go run ./benchmark spec > BENCHMARK.json   regenerate the driver's file from spec.go
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "spec":
			os.Stdout.Write(specJSON())
			return
		}
	}
	var (
		name    = flag.String("workload", "", "run only this workload and end with the driver's one-line JSON (default: all four, untraced then traced)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed generates the same op streams")
		seconds = flag.Float64("seconds", defaultSeconds, "measuring time of one run; warm-up, closed loop and paced window share it 5:20:10")
		trace   = flag.Int("trace", 0, "with -workload: 0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		quick   = flag.Bool("quick", false, "smoke mode: sub-second windows, one set-up, paced rate taken from the run itself; numbers mean nothing")
		out     = flag.String("out", "benchmark/out", "directory for scratch WAL dirs, trace files and result.jsonl")
		history = flag.Bool("history", false, "also append this run's result line to benchmark/history.jsonl")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	cfg := &runConfig{seed: *seed, seconds: *seconds, outDir: *out, quick: *quick}
	if *quick {
		cfg.seconds = quickSeconds
	}
	if *name != "" {
		os.Exit(runOne(*name, cfg, *trace != 0))
	}
	os.Exit(runAll(cfg, *history))
}

const (
	// defaultSeconds is BENCHMARK.json's run_seconds: the issue's 35 s
	// run scaled by 0.6 so that the driver's 92 runs fit its time cap,
	// which leaves the closed-loop window at 12 s.
	defaultSeconds = 21
	quickSeconds   = 0.5
)

// runOne is the driver's entry: one workload, one kind of run, and as the
// last line of standard output the result object the driver parses.
func runOne(name string, cfg *runConfig, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	res, err := runWorkload(w, cfg, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	printResult(res)
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		line.Metrics[s.Name] = metric{res.Metrics[s.Name], s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll runs every workload, untraced then traced, prints everything and
// appends one result line to <out>/result.jsonl (and, with -history, to
// benchmark/history.jsonl).
func runAll(cfg *runConfig, history bool) int {
	set := newResultSet(cfg)
	failed := false
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("== %s ==\n%s\n", w.Name, w.Why)
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, cfg, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			printResult(res)
			set.add(res)
			failed = failed || res.Failed > 0
		}
	}
	path := filepath.Join(cfg.outDir, "result.jsonl")
	if err := set.appendTo(path); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("\nresult appended to %s\n", path)
	if history {
		if err := set.appendTo(historyPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("result appended to %s\n", historyPath)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED: some operations failed their checks (see error_rate above)")
		return 1
	}
	return 0
}

// printResult prints every metric of one run by name with its unit, the
// sample count behind each percentile, and the run's notes.
func printResult(res *result) {
	kind, specs := "untraced", untracedMetrics
	if res.Traced {
		kind, specs = "traced", perLayer
	}
	fmt.Printf("\n%s, %s run\n", res.Workload, kind)
	for _, s := range specs {
		line := fmt.Sprintf("  %-32s %16.4f %-6s", s.Name, res.Metrics[s.Name], s.Unit)
		if n, ok := res.Samples[s.Name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Println(line)
	}
	if n, ok := res.Samples["server.stage"]; ok {
		fmt.Printf("  server.stage.* are means over n=%d traces\n", n)
	}
	fmt.Printf("  %-32s %16.6f %-6s (%d failed of %d attempted)\n", "error_rate", res.errorRate(), "ratio", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}
