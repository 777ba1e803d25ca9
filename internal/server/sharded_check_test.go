package server

import (
	"fmt"
	"sync"
	"testing"

	"mvrlu/internal/check"
	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
)

// TestShardedPerShardChecker attaches one PR-5 execution history per
// shard domain, drives mixed routed traffic, and validates each shard's
// record independently: snapshot isolation and GC safety must hold
// within every domain, each judged against its own ORDO boundary. This
// is the checker's sharded attachment mode — one recorder per domain,
// no cross-shard event interleaving to confuse the rules.
func TestShardedPerShardChecker(t *testing.T) {
	const nShards = 4
	hists := make([]*check.History, nShards)
	shards := make([]kvstore.Store, nShards)
	for i := range shards {
		hists[i] = check.NewHistory(0)
		opts := core.DefaultOptions()
		opts.Check = hists[i]
		shards[i] = kvstore.NewMVRLUStore(2, 64, opts)
	}
	store := kvstore.NewShardedStore(shards)
	defer store.Close()

	srv, _ := startServer(t, store, Config{Handles: 8})

	const conns = 8
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := dialT(t, srv)
			for b := 0; b < 20; b++ {
				sent := 0
				for d := 0; d < 6; d++ {
					k := fmt.Sprintf("chk:%d:%d", id, (b*6+d)%40)
					c.send("SET", k, fmt.Sprintf("v%d.%d", b, d))
					c.send("GET", k)
					sent += 2
				}
				if b%5 == 4 {
					c.send("SCAN", fmt.Sprintf("chk:%d:", id))
					sent++
				}
				if b%7 == 6 {
					c.send("DEL", fmt.Sprintf("chk:%d:%d", id, b%40))
					sent++
				}
				c.flush()
				for j := 0; j < sent; j++ {
					c.recv()
				}
			}
		}(i)
	}
	wg.Wait()
	// Drain: unregisters every pooled session, so each shard's history
	// is complete and quiescent before checking.
	srv.Shutdown()

	for i := range shards {
		boundary := shards[i].(*kvstore.MVRLUStore).Boundary()
		rep := check.Check(hists[i], check.Opts{Boundary: boundary})
		if !rep.Ok() {
			t.Errorf("shard %d: %d violations, first: %v",
				i, rep.Total, rep.Violations[0])
		}
		if rep.Commits == 0 {
			t.Errorf("shard %d recorded no commits; routing starved it", i)
		}
		t.Logf("shard %d: sections=%d derefs=%d commits=%d reclaims=%d ok=%v",
			i, rep.Sections, rep.Derefs, rep.Commits, rep.Reclaims, rep.Ok())
	}
}
