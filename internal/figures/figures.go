// Package figures is the one catalogue of the paper's evaluation (§6):
// Table 1, Figures 1 and 4–10, the YCSB-E range mix and the ablation
// sweeps. Every cell parameter — builds, update ratios, sizes,
// distributions, θ points, factor rungs, ablation settings — is written
// here once; cmd/mvbench prints the catalogue and the root package's
// BenchmarkFigures runs it.
package figures

import (
	"fmt"
	"time"

	"mvrlu/internal/bench"
	"mvrlu/internal/core"
	"mvrlu/internal/db"
	"mvrlu/internal/ds"
	"mvrlu/internal/kvstore"

	// Register the ordered-index builds (mvrlu-idx, rlu-idx, vanilla-idx).
	_ "mvrlu/internal/index"
)

// Params are a run's free parameters; the catalogue fixes everything
// else.
type Params struct {
	// Threads are the x points of every thread sweep; the last one is
	// the thread count of Figures 7 and 8.
	Threads []int
	// Duration is each cell's measured window.
	Duration time.Duration
	// Shrink divides every data-set size (items, buckets, rows,
	// records), so a test can run every cell in seconds; 0 or 1 runs
	// the catalogue's sizes.
	Shrink int
}

// Figure is one paper table or figure: the tables it prints.
type Figure struct {
	ID     string // what mvbench -fig selects and BenchmarkFigures names
	Tables []Table
}

// Table is one printed table. Its title is formatted from its cells'
// parameters.
type Table struct {
	Name     string // path under the figure's ID ("list/u20"); empty for a figure's only table
	Title    string
	XLabel   string
	Columns  []string
	Metric   Metric
	AuxTitle string // when set, a second table of the same runs' abort ratios
	Cells    []Cell
}

// Cell is one measured point: one build or factor rung on its workload.
type Cell struct {
	Name      string // path under the table's: the column, after the x value off a thread sweep
	X, Column string
	Build     string  // the ds, db or kvstore name it constructs
	Items     int     // data-set size it loads: items, rows or records
	Update    float64 // fraction of operations (of accesses, in Figure 9) that write
	Run       func() Sample
}

// Sample is what one run of a cell measured.
type Sample struct {
	Throughput float64 // operations (Figure 9: committed transactions) per µs
	AbortRatio float64
	ReadAmp    float64 // objects read per dereference; Table 1 only
}

// Metric is what a table plots from its cells' samples.
type Metric struct {
	Unit string
	Of   func(Sample) float64
}

var (
	opsPerUsec = Metric{"ops/µs", func(s Sample) float64 { return s.Throughput }}
	txnPerUsec = Metric{"txn/µs", func(s Sample) float64 { return s.Throughput }}
	abortRatio = Metric{"abort-ratio", func(s Sample) float64 { return s.AbortRatio }}
	readAmp    = Metric{"read-amplification", func(s Sample) float64 { return s.ReadAmp }}
)

// Measure runs every cell once and returns the tables to print: the
// plotted metric, then the abort ratios when AuxTitle is set.
func (t Table) Measure() []*bench.Table {
	plot := bench.NewTable(t.Title, t.XLabel, t.Columns...)
	aux := bench.NewTable(t.AuxTitle, t.XLabel, t.Columns...)
	for _, c := range t.Cells {
		s := c.Run()
		plot.Add(c.X, c.Column, t.Metric.Of(s))
		aux.Add(c.X, c.Column, s.AbortRatio)
	}
	if t.AuxTitle == "" {
		return []*bench.Table{plot}
	}
	return []*bench.Table{plot, aux}
}

// All returns the catalogue in print order.
func All(p Params) []Figure {
	return []Figure{table1(p), fig1(p), fig4(p), fig5(p), fig6(p), fig7(p),
		fig8(p), fig9(p), fig10(p), ycsbE(p), ablation(p)}
}

// mixes are the paper's three update ratios.
var mixes = []struct {
	label string
	ratio float64
}{{"read-mostly", 0.02}, {"read-intensive", 0.20}, {"write-intensive", 0.80}}

func table1(p Params) Figure {
	items, update := p.size(200), 0.20
	amp := Table{
		Name:    "amplification",
		Title:   fmt.Sprintf("Table 1: read amplification, mvrlu-list %d items (objects read per dereference)", items),
		XLabel:  "threads",
		Columns: []string{"mvrlu", "read-only-baseline"},
		Metric:  readAmp,
	}
	for _, th := range p.Threads {
		// MV-RLU under updates: 1 + 1/V from chain traversal. Read-only:
		// chains from the load drain via write-back and every
		// dereference reads exactly one object — the RCU/RLU row's 1.
		for i, u := range []float64{update, 0} {
			w := bench.Workload{Threads: th, UpdateRatio: u, Range: 2 * items, Duration: p.Duration}
			amp.add(fmt.Sprint(th), amp.Columns[i], "mvrlu-list", items, u,
				func() Sample { return readAmplification(w) })
		}
	}
	mech := Table{
		Name:   "mechanisms",
		Title:  fmt.Sprintf("Table 1: every list mechanism, %d items, %.0f%% update (ops/µs)", items, update*100),
		XLabel: "threads",
		Columns: []string{"mvrlu-list", "rlu-list", "rcu-list", "harris-list", "hp-harris-list",
			"stm-list", "vp-list", "ffwd-list", "nr-list", "mvrlu-dlist"},
		Metric: opsPerUsec,
	}
	p.setSweep(&mech, ds.Config{}, bench.Workload{UpdateRatio: update, Initial: items})
	return Figure{ID: "table1", Tables: []Table{amp, mech}}
}

func fig1(p Params) Figure {
	items, buckets, update := p.size(1000), p.size(1000), 0.10
	t := Table{
		Title: fmt.Sprintf("Figure 1: hash table, %s items, load factor %d, 80-20 Pareto, %.0f%% update (ops/µs)",
			kilo(items), items/buckets, update*100),
		XLabel:  "threads",
		Columns: []string{"mvrlu-hash", "rlu-hash", "rcu-hash", "harris-hash", "hp-harris-hash"},
		Metric:  opsPerUsec,
	}
	p.setSweep(&t, ds.Config{Buckets: buckets},
		bench.Workload{UpdateRatio: update, Initial: items, Dist: bench.DistPareto8020})
	return Figure{ID: "fig1", Tables: []Table{t}}
}

func fig4(p Params) Figure {
	items := p.size(10000)
	rows := []struct {
		structure string
		sets      []string
		buckets   int
	}{
		{"list", []string{"mvrlu-list", "rlu-list", "rlu-ordo-list", "rcu-list", "vp-list", "stm-list"}, 0},
		{"hash", []string{"mvrlu-hash", "rlu-hash", "rlu-ordo-hash", "rcu-hash", "hp-harris-hash"}, p.size(1000)},
		{"bst", []string{"mvrlu-bst", "rlu-bst", "rlu-ordo-bst", "rcu-bst", "vp-bst"}, 0},
	}
	f := Figure{ID: "fig4"}
	for _, row := range rows {
		for _, mix := range mixes {
			t := Table{
				Name: row.structure + "/" + u(mix.ratio),
				Title: fmt.Sprintf("Figure 4: %s, %s items, %s (%.0f%%) (ops/µs)",
					row.structure, kilo(items), mix.label, mix.ratio*100),
				XLabel:  "threads",
				Columns: row.sets,
				Metric:  opsPerUsec,
			}
			p.setSweep(&t, ds.Config{Buckets: row.buckets}, bench.Workload{UpdateRatio: mix.ratio, Initial: items})
			f.Tables = append(f.Tables, t)
		}
	}
	return f
}

// fig5 is the abort-ratio comparison. Goroutines on a few-core host
// overlap far less than the paper's hundreds of hardware threads, so the
// uniform-access cells stay near zero; the hot-key (80-20 Pareto)
// variant shows the ordering STM ≫ RLU ≥ MV-RLU the paper reports at
// any core count.
func fig5(p Params) Figure {
	f := Figure{ID: "fig5"}
	for _, st := range []struct {
		structure string
		items     int
	}{{"list", p.size(1000)}, {"hash", p.size(10000)}} {
		for _, dist := range []struct {
			label string
			kind  bench.Distribution
		}{{"uniform", bench.DistUniform}, {"pareto-80-20", bench.DistPareto8020}} {
			for _, mix := range mixes {
				t := Table{
					Name: st.structure + "/" + dist.label + "/" + u(mix.ratio),
					Title: fmt.Sprintf("Figure 5: abort ratio, %s %s items, %s, %.0f%% update",
						st.structure, kilo(st.items), dist.label, mix.ratio*100),
					XLabel:  "threads",
					Columns: []string{"mvrlu-" + st.structure, "rlu-" + st.structure, "stm-" + st.structure},
					Metric:  abortRatio,
				}
				p.setSweep(&t, ds.Config{Buckets: p.size(1000)},
					bench.Workload{UpdateRatio: mix.ratio, Initial: st.items, Dist: dist.kind})
				f.Tables = append(f.Tables, t)
			}
		}
	}
	return f
}

func fig6(p Params) Figure {
	f := Figure{ID: "fig6"}
	for _, sz := range []struct{ items, buckets int }{{1000, 1000}, {10000, 1000}, {50000, 5000}} {
		items, buckets := p.size(sz.items), p.size(sz.buckets)
		t := Table{
			Name: fmt.Sprintf("items%d", items),
			Title: fmt.Sprintf("Figure 6: hash, %d items (load factor %d), read-intensive (ops/µs)",
				items, items/buckets),
			XLabel:  "threads",
			Columns: []string{"mvrlu-hash", "rlu-hash", "rcu-hash", "hp-harris-hash"},
			Metric:  opsPerUsec,
		}
		p.setSweep(&t, ds.Config{Buckets: buckets}, bench.Workload{UpdateRatio: 0.20, Initial: items})
		f.Tables = append(f.Tables, t)
	}
	return f
}

// fig7 is the contention sweep at a fixed thread count: Zipf θ
// 0.2 → 1.0, clamped to 0.99.
func fig7(p Params) Figure {
	items, threads := p.size(10000), p.Threads[len(p.Threads)-1]
	cfg := ds.Config{Buckets: p.size(1000)}
	f := Figure{ID: "fig7"}
	for _, mix := range mixes {
		t := Table{
			Name: u(mix.ratio),
			Title: fmt.Sprintf("Figure 7: hash %s items, %.0f%% update, %d threads, Zipf sweep (ops/µs)",
				kilo(items), mix.ratio*100, threads),
			XLabel:  "theta",
			Columns: []string{"mvrlu-hash", "rlu-hash", "rcu-hash", "hp-harris-hash"},
			Metric:  opsPerUsec,
		}
		for _, theta := range []float64{0.2, 0.4, 0.6, 0.8, 0.99} {
			w := bench.Workload{Threads: threads, UpdateRatio: mix.ratio, Initial: items,
				Dist: bench.DistZipf, Theta: theta, Duration: p.Duration}
			for _, name := range t.Columns {
				t.add(fmt.Sprintf("%.2f", theta), name, name, items, mix.ratio,
					func() Sample { return runSet(name, cfg, w) })
			}
		}
		f.Tables = append(f.Tables, t)
	}
	return f
}

// fig8 is the factor analysis: starting from RLU, features are enabled
// cumulatively until the full MV-RLU design is reached.
func fig8(p Params) Figure {
	items, threads := p.size(1000), p.Threads[len(p.Threads)-1]
	concGC := core.DefaultOptions()
	concGC.HighCapacity, concGC.LowCapacity, concGC.DerefRatio = 1.0, 0, 0
	singleGC := concGC
	singleGC.GCMode = core.GCSingleCollector
	capWM := core.DefaultOptions()
	capWM.DerefRatio = 0
	rungs := []struct {
		name, set string
		opts      core.Options
	}{
		{"rlu", "rlu-list", core.Options{}},                         // original RLU (global clock)
		{"+ordo", "rlu-ordo-list", core.Options{}},                  // RLU with the scalable clock
		{"+multi-version", "mvrlu-list", singleGC},                  // versions, single GC collector thread
		{"+concurrent-gc", "mvrlu-list", concGC},                    // every thread reclaims its own log, on log-full only
		{"+capacity-wm", "mvrlu-list", capWM},                       // low-capacity watermark triggers early collection
		{"+deref-wm (MV-RLU)", "mvrlu-list", core.DefaultOptions()}, // dereference watermark
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 8: factor analysis, linked list %d items, %d threads (ops/µs)", items, threads),
		XLabel: "workload",
		Metric: opsPerUsec,
	}
	for _, r := range rungs {
		t.Columns = append(t.Columns, r.name)
	}
	for _, mix := range mixes {
		w := bench.Workload{Threads: threads, UpdateRatio: mix.ratio, Initial: items, Duration: p.Duration}
		for _, r := range rungs {
			t.add(mix.label, r.name, r.set, items, mix.ratio,
				func() Sample { return runSet(r.set, ds.Config{Core: r.opts}, w) })
		}
	}
	return Figure{ID: "fig8", Tables: []Table{t}}
}

// fig9 is DBx1000's YCSB over every concurrency control implemented:
// the paper's quartet plus NO_WAIT two-phase locking and basic
// timestamp ordering.
func fig9(p Params) Figure {
	rows, theta := p.size(100000), 0.7
	f := Figure{ID: "fig9"}
	for _, mix := range mixes {
		t := Table{
			Name:     u(mix.ratio),
			Title:    fmt.Sprintf("Figure 9: YCSB, %d rows, Zipf %.1f, %.0f%% update (txn/µs)", rows, theta, mix.ratio*100),
			XLabel:   "threads",
			Columns:  db.AllEngineNames(),
			Metric:   txnPerUsec,
			AuxTitle: fmt.Sprintf("Figure 9 (aux): abort ratio at %.0f%% update", mix.ratio*100),
		}
		p.sweep(&t, rows, mix.ratio, func(name string, threads int) func() Sample {
			cfg := db.YCSBConfig{Records: rows, Threads: threads, TxnSize: 16,
				UpdateRatio: mix.ratio, Theta: theta, Duration: p.Duration}
			return func() Sample { return runEngine(name, cfg) }
		})
		f.Tables = append(f.Tables, t)
	}
	return f
}

// fig10 is the KyotoCabinet-style cache database: the stock global
// readers-writer lock ("vanilla") against the RLU and MV-RLU ports, and
// the ordered-index builds.
func fig10(p Params) Figure {
	records, value := p.size(20000), 512
	f := Figure{ID: "fig10"}
	for _, update := range []float64{0.02, 0.20} {
		t := Table{
			Name: u(update),
			Title: fmt.Sprintf("Figure 10: cache DB, %d records × %dB, %.0f%% update (ops/µs)",
				records, value, update*100),
			XLabel:  "threads",
			Columns: kvstore.Names(),
			Metric:  opsPerUsec,
		}
		p.sweep(&t, records, update, func(name string, threads int) func() Sample {
			w := kvWorkload{Records: records, ValueSize: value, Threads: threads,
				UpdateRatio: update, Duration: p.Duration}
			return func() Sample { return runStore(name, w) }
		})
		f.Tables = append(f.Tables, t)
	}
	return f
}

// ycsbE is the YCSB-E-style scan-heavy mix on the ordered-index builds,
// next to the internal/ds MV-RLU BST on the same mix (integer keys, same
// record count and scan length) as the structure-level baseline.
func ycsbE(p Params) Figure {
	records, value, scan, scanLen, update := p.size(20000), 512, 0.95, 16, 0.05
	t := Table{
		Title: fmt.Sprintf("YCSB-E: %d records × %dB, %.0f%% scan × %d keys, %.0f%% update (ops/µs)",
			records, value, scan*100, scanLen, update*100),
		XLabel:  "threads",
		Columns: []string{"mvrlu-idx", "rlu-idx", "vanilla-idx", "mvrlu-bst"},
		Metric:  opsPerUsec,
	}
	p.sweep(&t, records, update, func(name string, threads int) func() Sample {
		if name == "mvrlu-bst" {
			w := bench.Workload{Threads: threads, UpdateRatio: update, Initial: records, Range: records,
				RangeRatio: scan, RangeLen: scanLen, Duration: p.Duration}
			return func() Sample { return runSet(name, ds.Config{}, w) }
		}
		w := kvWorkload{Records: records, ValueSize: value, Threads: threads, UpdateRatio: update,
			RangeRatio: scan, RangeLen: scanLen, Duration: p.Duration}
		return func() Sample { return runStore(name, w) }
	})
	return Figure{ID: "ycsb-e", Tables: []Table{t}}
}

// ablation holds the workload fixed (MV-RLU linked list, read-intensive
// unless noted) and varies one engine knob per table.
func ablation(p Params) Figure {
	type setting struct {
		name string
		set  func(*core.Options)
	}
	sweeps := []struct {
		name, about string
		update      float64
		settings    []setting
	}{
		// Too small a log and writers stall on reclamation; past a point
		// extra slots only defer write-backs (the V in Table 1's 1+1/V).
		{"log-size", "log size", 0.20, []setting{
			{"slots256", func(o *core.Options) { o.LogSlots = 256 }},
			{"slots1024", func(o *core.Options) { o.LogSlots = 1024 }},
			{"slots4096", func(o *core.Options) { o.LogSlots = 4096 }},
			{"slots16384", func(o *core.Options) { o.LogSlots = 16384 }},
		}},
		// Placements around the paper's 75/50/50 configuration.
		{"watermarks", "watermarks", 0.20, []setting{
			{"paper-75-50-50", func(o *core.Options) {}},
			{"late-95-80", func(o *core.Options) { o.HighCapacity, o.LowCapacity = 0.95, 0.80 }},
			{"eager-50-25", func(o *core.Options) { o.HighCapacity, o.LowCapacity = 0.50, 0.25 }},
			{"no-deref-wm", func(o *core.Options) { o.DerefRatio = 0 }},
			{"deref-only", func(o *core.Options) { o.LowCapacity = 0 }},
		}},
		// The decoupled detector should be largely insensitive: threads
		// refresh the watermark on demand when pressed.
		{"gp-interval", "grace-period interval", 0.20, []setting{
			{"50µs", func(o *core.Options) { o.GPInterval = 50 * time.Microsecond }},
			{"200µs", func(o *core.Options) { o.GPInterval = 200 * time.Microsecond }},
			{"2ms", func(o *core.Options) { o.GPInterval = 2 * time.Millisecond }},
		}},
		// Ambiguity aborts grow with the window (§3.9's cost had the
		// hardware clocks been skewed).
		{"ordo-window", "ORDO window", 0.20, []setting{
			{"window0ns", func(o *core.Options) { o.OrdoWindow = 0 }},
			{"window1000ns", func(o *core.Options) { o.OrdoWindow = 1000 }},
			{"window10000ns", func(o *core.Options) { o.OrdoWindow = 10000 }},
			{"window100000ns", func(o *core.Options) { o.OrdoWindow = 100000 }},
		}},
		// The paper's static log against the dynamic-log extension under
		// a deliberately undersized log.
		{"dynamic-log", "static vs dynamic log, 128 slots", 0.80, []setting{
			{"static", func(o *core.Options) { o.LogSlots = 128 }},
			{"dynamic", func(o *core.Options) { o.LogSlots, o.DynamicLog = 128, true }},
		}},
		// The engine-level view of Figure 8's +ordo rung.
		{"clock", "clock", 0.20, []setting{
			{"ordo", func(o *core.Options) { o.ClockMode = core.ClockOrdo }},
			{"global-counter", func(o *core.Options) { o.ClockMode = core.ClockGlobal }},
		}},
		// Figure 8's +concurrent-gc step, isolated.
		{"gc-mode", "GC mode", 0.80, []setting{
			{"concurrent", func(o *core.Options) { o.GCMode = core.GCConcurrent }},
			{"single-collector", func(o *core.Options) { o.GCMode = core.GCSingleCollector }},
		}},
	}
	items := p.size(1000)
	f := Figure{ID: "ablation"}
	for _, sw := range sweeps {
		t := Table{
			Name: sw.name,
			Title: fmt.Sprintf("Ablation: %s, mvrlu-list %d items, %.0f%% update (ops/µs)",
				sw.about, items, sw.update*100),
			XLabel:   "threads",
			Metric:   opsPerUsec,
			AuxTitle: fmt.Sprintf("Ablation (aux): abort ratio, %s, %.0f%% update", sw.about, sw.update*100),
		}
		for _, s := range sw.settings {
			t.Columns = append(t.Columns, s.name)
		}
		for _, th := range p.Threads {
			w := bench.Workload{Threads: th, UpdateRatio: sw.update, Initial: items, Duration: p.Duration}
			for _, s := range sw.settings {
				opts := core.DefaultOptions()
				s.set(&opts)
				t.add(fmt.Sprint(th), s.name, "mvrlu-list", items, sw.update,
					func() Sample { return runSet("mvrlu-list", ds.Config{Core: opts}, w) })
			}
		}
		f.Tables = append(f.Tables, t)
	}
	return f
}

// add appends one cell; off a thread sweep its x value joins its name.
func (t *Table) add(x, column, build string, items int, update float64, run func() Sample) {
	name := column
	if t.XLabel != "threads" {
		name = x + "/" + column
	}
	t.Cells = append(t.Cells, Cell{Name: name, X: x, Column: column, Build: build,
		Items: items, Update: update, Run: run})
}

// sweep adds one cell per thread count and column, each column naming
// the build it runs; cell(column, threads) returns that cell's run.
func (p Params) sweep(t *Table, items int, update float64, cell func(column string, threads int) func() Sample) {
	for _, th := range p.Threads {
		for _, name := range t.Columns {
			t.add(fmt.Sprint(th), name, name, items, update, cell(name, th))
		}
	}
}

// setSweep is sweep over internal/ds sets, each running w.
func (p Params) setSweep(t *Table, cfg ds.Config, w bench.Workload) {
	p.sweep(t, w.Initial, w.UpdateRatio, func(name string, threads int) func() Sample {
		w := w
		w.Threads, w.Duration = threads, p.Duration
		return func() Sample { return runSet(name, cfg, w) }
	})
}

func (p Params) size(n int) int {
	if p.Shrink > 1 {
		return max(n/p.Shrink, 1)
	}
	return n
}

// kilo writes a size as the paper's captions do: 10000 → "10K".
func kilo(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return fmt.Sprintf("%dK", n/1000)
	}
	return fmt.Sprint(n)
}

// u names an update ratio in a path: 0.2 → "u20".
func u(ratio float64) string { return fmt.Sprintf("u%.0f", ratio*100) }
