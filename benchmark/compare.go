package main

import (
	"fmt"
	"os"
)

// compareMain implements `benchmark compare base.jsonl change.jsonl`:
// one row per workload × end-to-end metric with both medians, their ratio
// (base = the first file), the metric's bound and a verdict. Each file
// holds one line per full run; with several lines a side is summarised by
// its median, and its run-to-run spread decides whether a difference can
// be told from noise at all. Exit status 1 means some row regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare base.jsonl change.jsonl")
		return 2
	}
	var sides [2][]resultSet
	for i, path := range args {
		sets, err := readSets(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		sides[i] = sets
	}
	base, change := sides[0], sides[1]
	rows, regressed := compareSets(base, change)
	fmt.Printf("base: %s (%d runs, commit %s)   change: %s (%d runs, commit %s)\n",
		args[0], len(base), base[0].Commit, args[1], len(change), change[0].Commit)
	fmt.Printf("%-14s %-18s %14s %14s %18s %7s  %s\n",
		"workload", "metric", "base", "change", "change/base", "bound", "verdict")
	for _, r := range rows {
		bound := "-"
		if r.bound > 0 {
			bound = fmt.Sprintf("%.0f%%", r.bound*100)
		}
		fmt.Printf("%-14s %-18s %14.4f %14.4f %18s %7s  %s\n",
			r.workload, r.metric, r.base, r.change, r.ratio, bound, r.verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

type compareRow struct {
	workload, metric string
	base, change     float64
	ratio            string
	bound            float64
	verdict          string
}

// compareSets judges change against base. A metric is "regressed" when
// the change's median is worse than the base's by more than the bound,
// "unresolved" when either side's own spread is wider than the bound —
// then the runs cannot support either answer — and "ok" otherwise. The
// reported-only metrics get their row and both spreads but no verdict.
// error_rate has no bound: any rise is a regression.
func compareSets(base, change []resultSet) (rows []compareRow, regressed bool) {
	values := func(sets []resultSet, workload, metric string) []float64 {
		var vs []float64
		for _, s := range sets {
			if v, ok := s.Workloads[workload][metric]; ok {
				vs = append(vs, v)
			}
		}
		return vs
	}
	for _, w := range workloads {
		for _, m := range untracedMetrics {
			a, b := values(base, w.Name, m.Name), values(change, w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			row := compareRow{workload: w.Name, metric: m.Name, base: ma, change: mb, bound: m.Bound, verdict: "ok"}
			if ma != 0 {
				row.ratio = fmt.Sprintf("%.4f", mb/ma)
			}
			worse := (mb - ma) / ma
			if m.Higher {
				worse = -worse
			}
			switch {
			case m.Bound == 0:
				row.verdict = fmt.Sprintf("ungated (spread %.1f%% / %.1f%%)", spread(a)*100, spread(b)*100)
			case spread(a) > m.Bound || spread(b) > m.Bound:
				row.verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", spread(a)*100, spread(b)*100)
			case worse > m.Bound:
				row.verdict = "regressed"
				regressed = true
			}
			rows = append(rows, row)
		}
		a, b := values(base, w.Name, "error_rate"), values(change, w.Name, "error_rate")
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		row := compareRow{workload: w.Name, metric: "error_rate", base: maxOf(a), change: maxOf(b), ratio: "(max of runs)", verdict: "ok"}
		if row.change > row.base {
			row.verdict = "regressed"
			regressed = true
		}
		rows = append(rows, row)
	}
	return rows, regressed
}
