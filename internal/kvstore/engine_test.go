package kvstore_test

import (
	"testing"

	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"

	_ "mvrlu/internal/index"
)

// nonEngine lists the builds with no core.Engine: no MV-RLU domain backs
// them, so INFO and METRICS show no engine sections for them.
var nonEngine = map[string]bool{
	"vanilla":     true,
	"rlu-kv":      true,
	"rlu-idx":     true,
	"vanilla-idx": true,
}

// TestEngineBuilds: every build either exposes its domain as a
// core.Engine or is listed in nonEngine, so a new engine build that
// forgets the embed fails here instead of silently vanishing from INFO
// and METRICS.
func TestEngineBuilds(t *testing.T) {
	engines := 0
	for _, name := range kvstore.Names() {
		st, err := kvstore.New(name, 2, 16)
		if err != nil {
			t.Fatal(err)
		}
		_, isEngine := st.(core.Engine)
		st.Close()
		if isEngine == nonEngine[name] {
			t.Errorf("%s: core.Engine %v, but nonEngine lists it %v", name, isEngine, nonEngine[name])
		}
		if isEngine {
			engines++
		}
	}
	if engines < 2 {
		t.Errorf("%d engine builds among %v, want mvrlu-kv and mvrlu-idx", engines, kvstore.Names())
	}
}
