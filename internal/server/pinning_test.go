package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
)

// TestServerSlowReaderPinning is the server-level version of the paper's
// central tension: one slow snapshot reader pins the watermark while
// writers churn, so version chains grow; the stall detector must name
// the pinned session; and once the snapshot is released, writer-driven
// GC writes versions back and the chains shrink again. The pin is
// deterministic, as in TestShardedScanBlastRadius: a pooled session sits
// inside a ForEachPrefix callback — inside the walk's snapshot critical
// section, where a SCAN in flight would be — until the test releases it,
// so nothing depends on how long a real SCAN happens to take. Every wait
// is a poll with a deadline.
func TestServerSlowReaderPinning(t *testing.T) {
	opts := core.DefaultOptions()
	opts.LogSlots = 512
	opts.DynamicLog = true // writers must not livelock behind the pin
	opts.GPInterval = 200 * time.Microsecond
	opts.StallThreshold = 1 // declare on the first flat-watermark tick
	var stallEpisodes atomic.Int64
	opts.OnStall = func(core.StallInfo) { stallEpisodes.Add(1) }
	store := kvstore.NewMVRLUStore(8, 64, opts)
	defer store.Close()
	sess := store.Session()
	for i := 0; i < 64; i++ {
		sess.Set(fmt.Sprintf("p:%03d", i), "seed")
	}
	sess.Close()

	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	deadline := time.Now().Add(10 * time.Second)
	poll := func(what string, done func() bool) {
		t.Helper()
		for !done() {
			if time.Now().After(deadline) {
				t.Fatalf("%s (stall episodes=%d)", what, stallEpisodes.Load())
			}
			time.Sleep(200 * time.Microsecond) // poll pacing only
		}
	}

	// A writer connection churns a small hot set so pinned-down version
	// chains form: each acknowledged batch (counted in batches) gives
	// every hot key one more version. The returned stop waits for the
	// in-flight batch, so after it returns the engine has no writers.
	const hotKeys = 64
	var batches atomic.Int64
	startWriter := func() (stopWriter func()) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer nc.Close()
			br := bufio.NewReaderSize(nc, 64<<10)
			w := bufio.NewWriterSize(nc, 64<<10)
			for seq := 0; ; {
				select {
				case <-stop:
					return
				default:
				}
				for k := 0; k < hotKeys; k++ {
					WriteCommandStrings(w, "SET", fmt.Sprintf("hot:%03d", k), fmt.Sprintf("v%d", seq))
					seq++
				}
				if w.Flush() != nil {
					return
				}
				for k := 0; k < hotKeys; k++ {
					if _, err := ReadReply(br); err != nil {
						return
					}
				}
				batches.Add(1)
			}
		}()
		var once sync.Once
		return func() { once.Do(func() { close(stop) }); wg.Wait() }
	}

	// Pin: the session leaves the pool, as it would for a batch, labelled
	// with the command it stands in for, and goes to the walking
	// goroutine by the go statement; it comes back over walked.
	ps := srv.pools[0].get()
	ps.lastCmd.Store(&commandTable["SCAN"].name)
	entered, release, walked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(walked)
		ps.sess.ForEachPrefix("", func(string, string) bool {
			close(entered)
			<-release
			return false
		})
	}()
	var once sync.Once
	unpin := func() {
		once.Do(func() {
			close(release)
			<-walked
			srv.pools[0].put(ps)
		})
	}
	defer unpin()
	<-entered

	stopWriter := startWriter()
	defer stopWriter()
	poll("stall detector never named the pinned session", func() bool {
		si, stalled := store.Stalled()
		return stalled && si.ThreadID == ps.threadID && batches.Load() >= 4
	})
	// The engine's stall diagnosis and the server's handle bookkeeping
	// agree on who is pinning; INFO must say the same, remotely visible.
	info := srv.infoText(false)
	if !strings.Contains(info, "stalled:1") ||
		!strings.Contains(info, fmt.Sprintf("stall_thread_id:%d", ps.threadID)) ||
		!strings.Contains(info, fmt.Sprintf("thread_id=%d,in_use=1,", ps.threadID)) {
		t.Errorf("INFO does not surface the stall:\n%s", info)
	}
	stopWriter()
	_, _, maxDuring := store.ChainMetrics()
	if maxDuring < 2 {
		t.Fatalf("pinned scan built no chains (maxChain=%d) over %d writer batches", maxDuring, batches.Load())
	}

	// Release phase: the pin is gone, so fresh churn on the same keys
	// advances the watermark past the piled-up versions and
	// capacity-triggered GC writes them back. Chain depth must fall.
	unpin()
	maxAfter := maxDuring
	poll(fmt.Sprintf("version chains did not shrink after the pin ended (maxChain %d)", maxDuring), func() bool {
		stopWriter := startWriter()
		from := batches.Load()
		for batches.Load() < from+4 && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
		stopWriter()
		_, _, maxAfter = store.ChainMetrics()
		return maxAfter < maxDuring
	})
	t.Logf("maxChain %d while pinned, %d after release (stall episodes=%d)",
		maxDuring, maxAfter, stallEpisodes.Load())
}

// TestShardedScanBlastRadius is the sharding payoff test: a long snapshot
// walk over one shard pins that shard's watermark only. Shard 0 is pinned
// deterministically — a session checked out of its pool sits inside a
// ForEachPrefix callback, i.e. inside the walk's snapshot critical
// section, until the test releases it — while pipelined cross-shard SET
// churn through the server drives every shard's commits. Shard 0's
// detector must blame the pinned handle and its watermark must stay at
// or below the pin's entry timestamp, while the watermarks of shards 1
// and 2 pass clock readings taken after the pin began: something no
// pinned domain's watermark can do. On the pre-sharding single-domain
// server the same walk pinned the one global watermark, stalling
// reclamation for every key.
func TestShardedScanBlastRadius(t *testing.T) {
	opts := core.DefaultOptions()
	opts.LogSlots = 512
	opts.DynamicLog = true // writers must not livelock behind the pin
	opts.GPInterval = 200 * time.Microsecond
	opts.StallThreshold = 1
	shards := make([]kvstore.Store, 3)
	for i := range shards {
		shards[i] = kvstore.NewMVRLUStore(4, 64, opts)
	}
	store := kvstore.NewShardedStore(shards)
	defer store.Close()
	mv := func(i int) *kvstore.MVRLUStore { return shards[i].(*kvstore.MVRLUStore) }

	// A hot set with keys on every shard, so each shard has something to
	// walk and commit traffic driving its clock and watermark.
	var hot []string
	var perShard [3]int
	for i := 0; len(hot) < 3*32; i++ {
		k := fmt.Sprintf("p:%05d", i)
		if sh := store.ShardFor(k); perShard[sh] < 32 {
			perShard[sh]++
			hot = append(hot, k)
		}
	}
	sess := store.Session()
	for _, k := range hot {
		sess.Set(k, "seed")
	}
	sess.Close()

	srv, _ := startServer(t, store, Config{Handles: 6})
	defer srv.Shutdown()

	// Pin shard 0. The session goes to the walking goroutine by the go
	// statement and comes back over walked, the hand-offs the Session
	// contract asks for; the deferred release also unblocks a failed test.
	ps := srv.pools[0].get()
	entered, release, walked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(walked)
		ps.sess.ForEachPrefix("", func(string, string) bool {
			close(entered)
			<-release
			return false
		})
	}()
	var once sync.Once
	unpin := func() {
		once.Do(func() {
			close(release)
			<-walked
			srv.pools[0].put(ps)
		})
	}
	defer unpin()
	<-entered
	base1, base2 := mv(1).Now(), mv(2).Now()

	// Churn: one connection pipelining SETs over the hot set until told
	// to stop, so the server's own write path is what drives the shards.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Error(err)
			return
		}
		defer nc.Close()
		br := bufio.NewReaderSize(nc, 64<<10)
		w := bufio.NewWriterSize(nc, 64<<10)
		for seq := 0; ; {
			select {
			case <-stop:
				return
			default:
			}
			const depth = 64
			for d := 0; d < depth; d++ {
				WriteCommandStrings(w, "SET", hot[seq%len(hot)], fmt.Sprintf("v%d", seq))
				seq++
			}
			if w.Flush() != nil {
				return
			}
			for d := 0; d < depth; d++ {
				if _, err := ReadReply(br); err != nil {
					return
				}
			}
		}
	}()
	defer func() { close(stop); churn.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		info, stalled := mv(0).Stalled()
		w0, w1, w2 := mv(0).Watermark(), mv(1).Watermark(), mv(2).Watermark()
		blamed := stalled && info.ThreadID == ps.threadID
		if blamed && w0 > info.EntryTS {
			t.Fatalf("shard 0 watermark %d passed the pinned snapshot's entry %d", w0, info.EntryTS)
		}
		if blamed && w1 > base1 && w2 > base2 {
			t.Logf("shard 0 pinned by handle thread %d at wm %d; shard 1 wm %d > %d, shard 2 wm %d > %d",
				info.ThreadID, w0, w1, base1, w2, base2)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blast radius not confined: shard 0 stalled=%v (thread %d, pinned handle %d); "+
				"shard 1 wm %d (pin-time clock %d), shard 2 wm %d (pin-time clock %d)",
				stalled, info.ThreadID, ps.threadID, w1, base1, w2, base2)
		}
		time.Sleep(200 * time.Microsecond) // poll pacing only
	}

	// Releasing the pin is what lets shard 0 move again.
	pinned := mv(0).Watermark()
	unpin()
	for mv(0).Watermark() <= pinned {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 watermark still %d after the pin was released", pinned)
		}
		time.Sleep(200 * time.Microsecond)
	}
}
