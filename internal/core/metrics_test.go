package core

import (
	"testing"
	"time"

	"mvrlu/internal/obs"
)

// runObservedWorkload drives one handle through derefs, try-locks,
// commits and an abort — every per-thread record site.
func runObservedWorkload(t *testing.T, h *Thread[payload], o *Object[payload]) {
	t.Helper()
	for i := 0; i < 10; i++ {
		h.Execute(func(h *Thread[payload]) bool {
			c, ok := h.TryLock(o)
			if !ok {
				return false
			}
			c.A++
			return true
		})
		h.ReadLock()
		_ = h.Deref(o)
		h.ReadUnlock()
	}
	h.ReadLock()
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("uncontended TryLock failed")
	}
	h.Abort()
}

// TestHistogramsRecordWhenEnabled asserts every per-thread record site
// fires under obs.Enabled: section duration and longest chain walk,
// TryLock and commit latency.
func TestHistogramsRecordWhenEnabled(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	defer h.Unregister()
	o := NewObject(payload{A: 1})
	runObservedWorkload(t, h, o)

	for _, k := range []HistKind{HistCS, HistCSChainMax, HistTryLock, HistCommit} {
		if n := d.HistogramSnapshot(k).Count(); n == 0 {
			t.Errorf("%s recorded nothing", k.MetricName())
		}
	}
	// Section durations and chain maxima: one each per ReadLock pairing —
	// at least the 10 Execute commits, 10 read sections, and the aborted
	// section.
	for _, k := range []HistKind{HistCS, HistCSChainMax} {
		if n := d.HistogramSnapshot(k).Count(); n < 21 {
			t.Errorf("%s count %d, want >= 21", k.MetricName(), n)
		}
	}
	// Every read section derefed o after a commit gave it a chain, so
	// the sections' maxima sum to at least one step each.
	if s := d.HistogramSnapshot(HistCSChainMax).Sum; s < 10 {
		t.Errorf("cs_chain_max sum %d, want >= 10", s)
	}
	if n := d.HistogramSnapshot(HistCommit).Count(); n != 10 {
		t.Errorf("commit_ns count %d, want 10", n)
	}
}

// TestSectionTimeFromEntryTimestamp: a section that sleeps 1 ms records
// one HistCS value between 1 ms and the elapsed time measured around it.
// On a hardware clock the start is the section's entry timestamp, so a
// unit or base mismatch between clock.Hardware and obs.Now fails this.
func TestSectionTimeFromEntryTimestamp(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	for _, mode := range []ClockMode{ClockOrdo, ClockGlobal} {
		opts := DefaultOptions()
		opts.ClockMode = mode
		d := newTestDomain(t, opts)
		h := d.Register()
		start := time.Now()
		h.ReadLock()
		time.Sleep(time.Millisecond)
		h.ReadUnlock()
		elapsed := time.Since(start)
		h.Unregister()
		s := d.HistogramSnapshot(HistCS)
		if s.Count() != 1 || s.Sum < uint64(time.Millisecond) || s.Sum > uint64(elapsed) {
			t.Errorf("clock mode %d: %d sections summing %d ns, want one of 1 ms..%d ns",
				mode, s.Count(), s.Sum, elapsed.Nanoseconds())
		}
	}
}

// TestHistogramsSilentWhenDisabled asserts the gate: the same workload
// with telemetry off records nothing.
func TestHistogramsSilentWhenDisabled(t *testing.T) {
	obs.SetEnabled(false)
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	defer h.Unregister()
	o := NewObject(payload{A: 1})
	runObservedWorkload(t, h, o)

	for k := HistKind(0); k < numThreadHists; k++ {
		if n := d.HistogramSnapshot(k).Count(); n != 0 {
			t.Errorf("%s recorded %d observations while disabled", k.MetricName(), n)
		}
	}
}

// TestChainHighTracedWithoutMetrics asserts the tracing-only path: with
// metrics off, a section's longest chain walk still reaches the domain's
// chain high-water mark and the timeline — once, when the section ends —
// while the histograms stay silent.
func TestChainHighTracedWithoutMetrics(t *testing.T) {
	obs.SetTraceEnabled(true)
	defer obs.SetTraceEnabled(false)
	obs.ResetEvents()
	d := newTestDomain(t, DefaultOptions())
	w, reader := d.Register(), d.Register()
	defer w.Unregister()
	defer reader.Unregister()
	o := NewObject(payload{})

	reader.ReadLock()
	for i := 1; i <= 3; i++ {
		w.Execute(func(w *Thread[payload]) bool {
			c, ok := w.TryLock(o)
			if ok {
				c.A = i
			}
			return ok
		})
	}
	if got := reader.Deref(o).A; got != 0 {
		t.Fatalf("pinned reader saw A=%d, want the master's 0", got)
	}
	if hw := d.chainHigh.Load(); hw != 0 {
		t.Fatalf("chain high-water %d noted before the section ended", hw)
	}
	reader.ReadUnlock()
	if hw := d.chainHigh.Load(); hw != 3 {
		t.Fatalf("chain high-water %d after walking 3 newer versions, want 3", hw)
	}
	noted := false
	for _, e := range obs.EventsSnapshot(64) {
		noted = noted || (e.Kind == obs.EvChainHigh && e.Value == 3)
	}
	if !noted {
		t.Error("no EvChainHigh event for the 3-step walk")
	}
	for k := HistKind(0); k < numThreadHists; k++ {
		if n := d.HistogramSnapshot(k).Count(); n != 0 {
			t.Errorf("%s recorded %d observations with metrics off", k.MetricName(), n)
		}
	}
}

// TestDepartedHistogramFold asserts a handle's distributions survive
// Unregister into the domain aggregate, like threadStats.
func TestDepartedHistogramFold(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	o := NewObject(payload{A: 1})
	runObservedWorkload(t, h, o)

	before := d.HistogramSnapshot(HistCommit)
	h.Unregister()
	after := d.HistogramSnapshot(HistCommit)
	if before.Count() == 0 || after != before {
		t.Fatalf("commit histogram changed across Unregister: %d -> %d observations",
			before.Count(), after.Count())
	}
}

// TestStallEpisodeHistogram pins a reader long enough to declare a
// stall, releases it, and asserts the completed episode landed in the
// stall histogram — the durable record Stalled() forgets on recovery.
func TestStallEpisodeHistogram(t *testing.T) {
	opts := DefaultOptions()
	opts.GPInterval = time.Millisecond
	opts.StallThreshold = 3
	d := newTestDomain(t, opts)
	reader := d.Register()
	reader.ReadLock()
	eventually(t, 5*time.Second, func() bool {
		return d.Stats().StallEvents >= 1
	}, "stall never declared for a pinned reader")
	reader.ReadUnlock()
	eventually(t, 5*time.Second, func() bool {
		_, active := d.Stalled()
		return !active
	}, "stall episode did not clear after the reader exited")

	s := d.Stats()
	if s.StallEpisodes < 1 {
		t.Fatalf("StallEpisodes = %d after a recovered stall", s.StallEpisodes)
	}
	if s.StallTotal <= 0 {
		t.Fatalf("StallTotal = %v after a recovered stall", s.StallTotal)
	}
	if n := d.HistogramSnapshot(HistStall).Count(); n != s.StallEpisodes {
		t.Fatalf("stall histogram count %d != StallEpisodes %d", n, s.StallEpisodes)
	}
}

// TestGPAgeSampled asserts the detector samples grace-period age while
// telemetry is on.
func TestGPAgeSampled(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	opts := DefaultOptions()
	opts.GPInterval = time.Millisecond
	d := newTestDomain(t, opts)
	h := d.Register()
	defer h.Unregister()
	h.ReadLock() // a pinned reader guarantees now > watermark
	defer h.ReadUnlock()
	eventually(t, 5*time.Second, func() bool {
		return d.HistogramSnapshot(HistGPAge).Count() > 0
	}, "detector never sampled grace-period age")
}

// TestRegisterMetricsScrapeUnderLoad registers the domain's metrics and
// scrapes the registry while a writer runs full tilt — the discipline
// /metrics depends on; run under -race this proves scrape safety.
func TestRegisterMetricsScrapeUnderLoad(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	d := newTestDomain(t, DefaultOptions())
	reg := obs.NewRegistry()
	d.RegisterMetrics(reg, "")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := d.Register()
		defer h.Unregister()
		o := NewObject(payload{})
		for {
			select {
			case <-stop:
				return
			default:
			}
			h.Execute(func(h *Thread[payload]) bool {
				c, ok := h.TryLock(o)
				if !ok {
					return false
				}
				c.A++
				return true
			})
		}
	}()
	var last uint64
	for i := 0; i < 200; i++ {
		s := d.HistogramSnapshot(HistCommit)
		if n := s.Count(); n < last {
			t.Fatalf("scrape went backwards: %d -> %d", last, n)
		} else {
			last = n
		}
		var sink discardWriter
		if err := reg.WriteText(&sink); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
	}
	close(stop)
	<-done
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
