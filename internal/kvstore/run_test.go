package kvstore_test

import (
	"testing"
	"time"

	"mvrlu/internal/figures"
	"mvrlu/internal/kvstore"
)

// TestRunSmoke runs every build through the measured Set/Get mix of
// Figure 10 and the scan mix of YCSB-E, at shrunken sizes, and checks
// each run measures operations.
func TestRunSmoke(t *testing.T) {
	isStore := map[string]bool{}
	for _, name := range kvstore.Names() {
		isStore[name] = true
	}
	ran := map[string]bool{}
	for _, f := range figures.All(figures.Params{Threads: []int{2}, Duration: 10 * time.Millisecond, Shrink: 100}) {
		if f.ID != "fig10" && f.ID != "ycsb-e" {
			continue
		}
		for _, tab := range f.Tables {
			for _, c := range tab.Cells {
				if !isStore[c.Build] {
					continue
				}
				ran[c.Build] = true
				if s := c.Run(); s.Throughput <= 0 {
					t.Errorf("%s %s/%s: no ops measured", f.ID, tab.Name, c.Name)
				}
			}
		}
	}
	for name := range isStore {
		if !ran[name] {
			t.Errorf("%s: no run", name)
		}
	}
}
