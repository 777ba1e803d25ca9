// Package main_test holds BenchmarkFigures, the testing.B run of the
// paper's evaluation (§6): every cell of the internal/figures catalogue
// as one sub-benchmark, e.g. fig4/list/u20/mvrlu-list, reporting the
// metric its figure plots as a custom unit (ops/µs, txn/µs, abort-ratio,
// read-amplification) so `go test -bench=. -benchmem` reproduces every
// artifact in one run.
package main_test

import (
	"path"
	"testing"
	"time"

	"mvrlu/internal/figures"
)

// BenchmarkFigures runs each cell at 4 goroutines for 100 ms, short
// enough that the full sweep finishes in minutes; cmd/mvbench runs the
// same cells over a thread range with larger budgets.
func BenchmarkFigures(b *testing.B) {
	for _, f := range figures.All(figures.Params{Threads: []int{4}, Duration: 100 * time.Millisecond}) {
		for _, t := range f.Tables {
			for _, c := range t.Cells {
				b.Run(path.Join(f.ID, t.Name, c.Name), func(b *testing.B) {
					var s figures.Sample
					for i := 0; i < b.N; i++ {
						s = c.Run()
					}
					b.ReportMetric(t.Metric.Of(s), t.Metric.Unit)
					if t.AuxTitle != "" {
						b.ReportMetric(s.AbortRatio, "abort-ratio")
					}
				})
			}
		}
	}
}
