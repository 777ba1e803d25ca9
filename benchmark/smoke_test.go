package main

import (
	"testing"
)

// TestQuickSmoke is `go run ./benchmark -quick` in-process: every
// workload, untraced and traced, with sub-second windows. It asserts no
// timing — only that every metric BENCHMARK.json names comes out, that no
// operation fails its check, and that the durability audit passes.
func TestQuickSmoke(t *testing.T) {
	cfg := &runConfig{seed: 1, seconds: quickSeconds, outDir: t.TempDir(), quick: true}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			res, err := runWorkload(w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, s := range specs {
				if _, ok := res.Metrics[s.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, s.Name)
				}
			}
			if !traced {
				for _, s := range untracedMetrics {
					if res.Metrics[s.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, s.Name, res.Metrics[s.Name])
					}
				}
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d failed of %d attempted; notes %v", w.Name, traced, res.Failed, res.Attempted, res.Notes)
			}
		}
	}
}

// TestAuditCatchesLostAck plants the failure the durability audit exists
// for: a write the client was told is durable that recovery does not have.
func TestAuditCatchesLostAck(t *testing.T) {
	w := findWorkload("kv-write-wal")
	cfg := &runConfig{seed: 1, seconds: quickSeconds, outDir: t.TempDir(), quick: true}
	tg, err := setup(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	for i := 0; i < 50; i++ {
		tg.clients[0].batch()
	}
	if tg.clients[0].failed != 0 || tg.clients[0].err != nil {
		t.Fatalf("plain batches failed: %d, %v", tg.clients[0].failed, tg.clients[0].err)
	}
	if err := tg.stopServing(); err != nil {
		t.Fatal(err)
	}
	checked, missed, _, err := auditWAL(tg)
	if err != nil || missed != 0 || checked != uint64(w.Keys) {
		t.Fatalf("honest run: audit checked %d, missed %d, err %v", checked, missed, err)
	}
	// Claim an acknowledgment for a write that was never made: one on a
	// key conn 0 did write (recovered seq is older), one on a key nobody
	// wrote (recovered value is the preload).
	var written, untouched = -1, -1
	for k, s := range tg.clients[0].acked {
		if s != 0 && written < 0 {
			written = k
		}
		if s == 0 && untouched < 0 {
			untouched = k
		}
	}
	tg.clients[0].acked[written] += 1000
	tg.clients[0].acked[untouched] = 5
	if _, missed, _, err = auditWAL(tg); err != nil || missed != 2 {
		t.Errorf("two planted lost acks: audit missed %d (err %v), want 2", missed, err)
	}
}
