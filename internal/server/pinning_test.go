package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
)

// TestServerSlowReaderPinning is the server-level version of the paper's
// central tension: one slow snapshot reader (a whole-keyspace SCAN) pins
// the watermark while writers churn, so version chains grow; the stall
// detector must name the session running the scan; and once the scan's
// snapshot is released, writer-driven GC writes versions back and the
// chains shrink again.
func TestServerSlowReaderPinning(t *testing.T) {
	// The SCAN's critical section is CPU-bound, so on a single-P
	// schedule the detector goroutine only runs when the scan is
	// preempted (~10ms slices) and its ticks cluster outside the pin.
	// Widen GOMAXPROCS so the detector timeshares at OS granularity and
	// reliably ticks while the pin is held.
	old := runtime.GOMAXPROCS(0)
	if old < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(old)
	}

	opts := core.DefaultOptions()
	opts.LogSlots = 512
	opts.DynamicLog = true // writers must not livelock behind the pin
	opts.GPInterval = 200 * time.Microsecond
	opts.StallThreshold = 1 // declare on the first flat-watermark tick
	var stallEpisodes atomic.Int64
	opts.OnStall = func(core.StallInfo) { stallEpisodes.Add(1) }
	store := kvstore.NewMVRLUStore(8, 64, opts)
	defer store.Close()

	// Populate enough data that the SCAN's snapshot section lasts tens
	// of milliseconds: long enough for the detector to tick inside the
	// pin and for the test to stop the writers and measure chain depth
	// before the pin is released. Fat values make the walk's collection
	// phase do real memory work.
	const seedKeys = 32000
	seedVal := strings.Repeat("s", 512)
	sess := store.Session()
	for i := 0; i < seedKeys; i++ {
		sess.Set(fmt.Sprintf("p:%06d", i), seedVal)
	}
	sess.Close()

	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()

	// Writer connections churn a small hot set so pinned-down version
	// chains form quickly. Returns a stop function that waits for the
	// writer to finish its in-flight batch, so after it returns the
	// engine has no writers.
	const hotKeys = 64
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
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				const depth = 64
				for d := 0; d < depth; d++ {
					k := fmt.Sprintf("hot:%03d", seq%hotKeys)
					seq++
					WriteCommandStrings(w, "SET", k, fmt.Sprintf("v%d", seq))
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
		var once sync.Once
		return func() { once.Do(func() { close(stop) }); wg.Wait() }
	}

	// attempt runs one full-keyspace SCAN under writer churn. A poller
	// watches for the stall detector to blame the handle whose last
	// command is SCAN; the moment it does, the writers are stopped and
	// chain depth is measured while the scan still holds its snapshot
	// pin (once released, the watermark advances and versions below it
	// stop counting).
	attempt := func() (named bool, maxDuring int) {
		stopWriter := startWriter()
		defer stopWriter()

		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		br := bufio.NewReaderSize(nc, 1<<20)
		bw := bufio.NewWriter(nc)
		done := make(chan struct{})
		go func() {
			defer close(done)
			WriteCommandStrings(bw, "SCAN", "")
			if err := bw.Flush(); err != nil {
				t.Error(err)
				return
			}
			if _, err := ReadReply(br); err != nil {
				t.Error(err)
			}
		}()
		for {
			select {
			case <-done:
				return false, 0
			default:
			}
			si, ok := store.Stalled()
			if !ok {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			for _, ps := range srv.pools[0].all {
				if ps.threadID == si.ThreadID && ps.inUse.Load() &&
					*ps.lastCmd.Load() == "SCAN" {
					// The engine's stall diagnosis and the server's
					// handle bookkeeping agree on who is pinning.
					// INFO must say the same, remotely visible.
					info := srv.infoText(false)
					if !strings.Contains(info, "stalled:1") ||
						!strings.Contains(info, fmt.Sprintf("stall_thread_id:%d", si.ThreadID)) {
						t.Errorf("INFO does not surface the stall:\n%s", info)
					}
					stopWriter()
					_, _, maxDuring = store.ChainMetrics()
					<-done
					return true, maxDuring
				}
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	named, maxDuring := false, 0
	for i := 0; i < 5 && !(named && maxDuring >= 2); i++ {
		named, maxDuring = attempt()
		t.Logf("attempt %d: stall named scanner=%v, maxChain during pin=%d (episodes=%d)",
			i, named, maxDuring, stallEpisodes.Load())
	}
	if !named {
		t.Fatalf("stall detector never named the SCAN session (episodes=%d)",
			stallEpisodes.Load())
	}
	if maxDuring < 2 {
		t.Fatalf("pinned scan built no chains (maxChain=%d); writer churn ineffective", maxDuring)
	}

	// Release phase: the pin is gone, so fresh churn on the same keys
	// advances the watermark past the piled-up versions and
	// capacity-triggered GC writes them back. Chain depth must fall.
	maxAfter := maxDuring
	for round := 0; round < 10 && maxAfter >= maxDuring; round++ {
		stopWriter := startWriter()
		time.Sleep(30 * time.Millisecond)
		stopWriter()
		_, _, maxAfter = store.ChainMetrics()
	}
	t.Logf("released: maxChain %d -> %d", maxDuring, maxAfter)
	if maxAfter >= maxDuring {
		t.Fatalf("version chains did not shrink after the scan ended: %d -> %d",
			maxDuring, maxAfter)
	}
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
