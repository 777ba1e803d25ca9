// mvkvload is a closed-loop load generator for mvkvd: each connection
// keeps -pipeline commands in flight (write burst, flush, read the
// replies back), which is both the throughput shape the server's
// batch-scoped session checkout is built for and a latency probe —
// batch round-trip times are recorded per burst.
//
// Usage:
//
//	go run ./cmd/mvkvload -addr 127.0.0.1:6399 -conns 64 -pipeline 16 \
//	    -readpct 90 -duration 10s -json run.json
//
// It drives a daemon by hand; the repository's measured numbers come
// from benchmark/ (go run ./benchmark) and their trajectory is
// benchmark/history.jsonl.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/kvstore"
	"mvrlu/internal/server"
)

// numKeys and valSize shape the load loop's keyspace: GETs and SETs on
// key00000000…key00009999 with 64-byte values, preloaded by MSET.
const (
	numKeys = 10000
	valSize = 64
)

type result struct {
	Addr      string  `json:"addr"`
	Build     string  `json:"build"`
	Shards    int     `json:"shards"`
	Conns     int     `json:"conns"`
	Pipeline  int     `json:"pipeline"`
	ReadPct   int     `json:"readpct"`
	DurationS float64 `json:"duration_s"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Batches   int     `json:"batches"`
	P50us     float64 `json:"batch_p50_us"`
	P95us     float64 `json:"batch_p95_us"`
	P99us     float64 `json:"batch_p99_us"`
	Errors    uint64  `json:"errors"`
	// ShardOps is the per-shard command count over the measured window
	// (difference of the server's server_shard_commands_total counters),
	// present when the server exposes shard counters over METRICS. It is
	// the routing-balance observable: a skewed distribution here means
	// the hash is not spreading this workload's keys.
	ShardOps []uint64 `json:"shard_ops,omitempty"`
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6399", "server address")
		conns    = flag.Int("conns", 8, "concurrent connections")
		pipeline = flag.Int("pipeline", 16, "commands in flight per connection")
		readpct  = flag.Int("readpct", 90, "percentage of GETs (rest are SETs)")
		duration = flag.Duration("duration", 5*time.Second, "measurement duration")
		preload  = flag.Bool("preload", true, "MSET the keyspace before measuring")
		jsonOut  = flag.String("json", "", "write the result as JSON to this file")
		shutdown = flag.Bool("shutdown", false, "send SHUTDOWN to the server when done")
		oneShot  = flag.String("cmd", "",
			"send one command (space-separated args), print the reply, exit; skips probe/preload/load")
		durCheck = flag.String("durability-check", "",
			"run a write burst and record every acknowledged write to this JSON file (survives the server being SIGKILLed mid-burst); verify after restart with -durability-verify")
		durVerify = flag.String("durability-verify", "",
			"read a -durability-check file and assert every acknowledged write is present on the (restarted) server; exits 1 on any lost write")
		durMulti = flag.Bool("multi", false,
			"with -durability-check/-durability-verify: burst MULTI/EXEC transactions (same-shard key groups, one value per group) and audit them all-or-nothing — a torn group after restart is a failure")
		txnKeys = flag.Int("txn-keys", 4, "keys per MULTI transaction group in -multi mode")
	)
	flag.Parse()

	if *oneShot != "" {
		if err := runOneShot(*addr, strings.Fields(*oneShot)); err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *durVerify != "" {
		var err error
		if *durMulti {
			err = runDurVerifyMulti(*addr, *durVerify)
		} else {
			err = runDurVerify(*addr, *durVerify)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: durability-verify: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *durCheck != "" {
		var err error
		if *durMulti {
			err = runDurCheckMulti(*addr, *durCheck, *conns, *pipeline, *txnKeys, *duration)
		} else {
			err = runDurCheck(*addr, *durCheck, *conns, *pipeline, *duration)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: durability-check: %v\n", err)
			os.Exit(1)
		}
		return
	}

	build, shards, err := probeServer(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mvkvload: cannot reach %s: %v\n", *addr, err)
		os.Exit(1)
	}
	if *preload {
		if err := doPreload(*addr); err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: preload: %v\n", err)
			os.Exit(1)
		}
	}
	preShardOps, _ := scrapeShardOps(*addr)

	var (
		totalOps  atomic.Uint64
		totalErrs atomic.Uint64
		wg        sync.WaitGroup
		lats      = make([][]int64, *conns)
		stop      = time.Now().Add(*duration)
		val       = strings.Repeat("v", valSize)
	)
	start := time.Now()
	for i := 0; i < *conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			nc, err := net.Dial("tcp", *addr)
			if err != nil {
				totalErrs.Add(1)
				return
			}
			defer nc.Close()
			br := bufio.NewReaderSize(nc, 64<<10)
			bw := bufio.NewWriterSize(nc, 64<<10)
			rng := rand.New(rand.NewSource(int64(id)*2654435761 + 1))
			for time.Now().Before(stop) {
				t0 := time.Now()
				for j := 0; j < *pipeline; j++ {
					k := fmt.Sprintf("key%08d", rng.Intn(numKeys))
					if rng.Intn(100) >= *readpct {
						server.WriteCommandStrings(bw, "SET", k, val)
					} else {
						server.WriteCommandStrings(bw, "GET", k)
					}
				}
				if err := bw.Flush(); err != nil {
					totalErrs.Add(1)
					return
				}
				bad := false
				for j := 0; j < *pipeline; j++ {
					rep, err := server.ReadReply(br)
					if err != nil {
						totalErrs.Add(1)
						return
					}
					if rep.IsError() {
						bad = true
					}
				}
				if bad {
					totalErrs.Add(1)
				}
				lats[id] = append(lats[id], time.Since(t0).Nanoseconds())
				totalOps.Add(uint64(*pipeline))
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var shardOps []uint64
	if post, err := scrapeShardOps(*addr); err == nil && len(post) > 0 {
		shardOps = make([]uint64, len(post))
		for i, v := range post {
			shardOps[i] = v
			if i < len(preShardOps) && preShardOps[i] <= v {
				shardOps[i] = v - preShardOps[i]
			}
		}
	}

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := result{
		Addr:      *addr,
		Build:     build,
		Shards:    shards,
		Conns:     *conns,
		Pipeline:  *pipeline,
		ReadPct:   *readpct,
		DurationS: elapsed.Seconds(),
		Ops:       totalOps.Load(),
		OpsPerSec: float64(totalOps.Load()) / elapsed.Seconds(),
		Batches:   len(all),
		P50us:     pctile(all, 0.50),
		P95us:     pctile(all, 0.95),
		P99us:     pctile(all, 0.99),
		Errors:    totalErrs.Load(),
		ShardOps:  shardOps,
	}
	fmt.Printf("%s shards=%d conns=%d pipeline=%d read=%d%%: %.0f ops/s, batch p50=%.0fµs p95=%.0fµs p99=%.0fµs (%d ops, %d errors)\n",
		res.Build, res.Shards, res.Conns, res.Pipeline, res.ReadPct,
		res.OpsPerSec, res.P50us, res.P95us, res.P99us, res.Ops, res.Errors)
	if len(shardOps) > 1 {
		fmt.Printf("  shard ops: %v\n", shardOps)
	}
	if *jsonOut != "" {
		data, _ := json.MarshalIndent(res, "", "  ")
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: %v\n", err)
			os.Exit(1)
		}
	}
	if *shutdown {
		if err := sendShutdown(*addr); err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
	if res.Errors > 0 {
		os.Exit(1)
	}
}

// runOneShot sends one command and prints its reply — the smoke-test
// client (curl for RESP): `mvkvload -cmd "INFO ALL"`, `-cmd METRICS`.
func runOneShot(addr string, args []string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br, bw := bufio.NewReaderSize(nc, 1<<20), bufio.NewWriter(nc)
	if err := server.WriteCommandStrings(bw, args...); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	rep, err := server.ReadReply(br)
	if err != nil {
		return err
	}
	if rep.IsError() {
		return fmt.Errorf("%s", rep.Str)
	}
	printReply(rep)
	return nil
}

func printReply(rep server.Reply) {
	switch rep.Kind {
	case server.IntReply:
		fmt.Println(rep.Int)
	case server.NullReply:
		fmt.Println("(nil)")
	case server.ArrayReply:
		for _, e := range rep.Elems {
			printReply(e)
		}
	default:
		fmt.Println(rep.Str)
	}
}

// pctile returns the p-quantile of sorted ns latencies, in µs.
func pctile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e3
}

// probeServer reads the build name and shard count from INFO.
func probeServer(addr string) (build string, shards int, err error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return "", 0, err
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	server.WriteCommandStrings(bw, "INFO")
	if err := bw.Flush(); err != nil {
		return "", 0, err
	}
	rep, err := server.ReadReply(br)
	if err != nil {
		return "", 0, err
	}
	build, shards = "unknown", 1
	for _, line := range strings.Split(rep.Str, "\n") {
		if b, ok := strings.CutPrefix(line, "build:"); ok {
			build = b
		}
		if s, ok := strings.CutPrefix(line, "shards:"); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(s)); err == nil && n > 0 {
				shards = n
			}
		}
	}
	return build, shards, nil
}

// scrapeShardOps reads the per-shard command counters from the METRICS
// exposition: server_shard_commands_total{shard="i"} lines, returned
// indexed by shard. An empty slice means the server predates shard
// counters.
func scrapeShardOps(addr string) ([]uint64, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	br, bw := bufio.NewReaderSize(nc, 1<<20), bufio.NewWriter(nc)
	server.WriteCommandStrings(bw, "METRICS")
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	rep, err := server.ReadReply(br)
	if err != nil {
		return nil, err
	}
	if rep.IsError() {
		return nil, fmt.Errorf("%s", rep.Str)
	}
	byShard := map[int]uint64{}
	maxShard := -1
	for _, line := range strings.Split(rep.Str, "\n") {
		rest, ok := strings.CutPrefix(line, `server_shard_commands_total{shard="`)
		if !ok {
			continue
		}
		idStr, valStr, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		id, err1 := strconv.Atoi(idStr)
		val, err2 := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err1 != nil || err2 != nil || id < 0 {
			continue
		}
		byShard[id] = uint64(val)
		if id > maxShard {
			maxShard = id
		}
	}
	out := make([]uint64, maxShard+1)
	for id, v := range byShard {
		out[id] = v
	}
	return out, nil
}

// doPreload MSETs the keyspace in batches so measurement starts against
// a populated store.
func doPreload(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 64<<10)
	bw := bufio.NewWriterSize(nc, 1<<20)
	val := strings.Repeat("v", valSize)
	const batch = 512
	for i := 0; i < numKeys; i += batch {
		args := []string{"MSET"}
		for j := i; j < i+batch && j < numKeys; j++ {
			args = append(args, fmt.Sprintf("key%08d", j), val)
		}
		server.WriteCommandStrings(bw, args...)
		if err := bw.Flush(); err != nil {
			return err
		}
		rep, err := server.ReadReply(br)
		if err != nil {
			return err
		}
		if rep.IsError() {
			return fmt.Errorf("MSET: %s", rep.Str)
		}
	}
	return nil
}

// durFile is the artifact -durability-check writes and
// -durability-verify reads: every write the server acknowledged, as
// key → the last acknowledged sequence value for that key. Keys are
// disjoint per connection (dur<conn>:<slot>), so the merged map needs no
// cross-connection ordering.
type durFile struct {
	Acked map[string]uint64 `json:"acked"`
	// Txns is the -multi mode artifact: group name → the group's key
	// set and the last acknowledged transaction sequence. Every key of
	// one group is written with the same sequence value inside one
	// MULTI/EXEC body, so after recovery the group must be uniform —
	// all keys present, all equal, all >= the acked sequence. A mixed
	// group is a torn transaction replay.
	Txns map[string]txnGroup `json:"txns,omitempty"`
}

type txnGroup struct {
	Keys []string `json:"keys"`
	Seq  uint64   `json:"seq"`
}

// durKeysPerConn bounds each connection's keyspace slice so keys are
// rewritten many times during a burst — re-acks of the same key must
// monotonically raise its recorded sequence, which is what makes the
// verify's ">= recorded" assertion meaningful under overwrites.
const durKeysPerConn = 1000

// runDurCheck drives a write-only burst and records, client-side, every
// write the server acknowledged: key → sequence value, updated only when
// the OK for that exact SET has been read back. The server being killed
// mid-burst is the expected outcome — the dead connection just stops,
// keeping everything acknowledged so far — so connection errors are
// reported but do not fail the run. The file is the ground truth a
// restarted server is audited against with -durability-verify.
func runDurCheck(addr, file string, conns, pipeline int, duration time.Duration) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]uint64{}
		dead  atomic.Uint64
		nacks atomic.Uint64
		stop  = time.Now().Add(duration)
	)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := map[string]uint64{}
			defer func() {
				mu.Lock()
				for k, v := range local {
					acked[k] = v
				}
				mu.Unlock()
			}()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				dead.Add(1)
				return
			}
			defer nc.Close()
			br := bufio.NewReaderSize(nc, 64<<10)
			bw := bufio.NewWriterSize(nc, 64<<10)
			seq := uint64(0)
			type pend struct {
				key string
				seq uint64
			}
			pending := make([]pend, 0, pipeline)
			for time.Now().Before(stop) {
				pending = pending[:0]
				for j := 0; j < pipeline; j++ {
					seq++
					key := fmt.Sprintf("dur%03d:%06d", id, seq%durKeysPerConn)
					server.WriteCommandStrings(bw, "SET", key, strconv.FormatUint(seq, 10))
					pending = append(pending, pend{key, seq})
				}
				if err := bw.Flush(); err != nil {
					dead.Add(1)
					return
				}
				for j := 0; j < pipeline; j++ {
					rep, err := server.ReadReply(br)
					if err != nil {
						// The server died mid-burst: replies j.. were never
						// received, so those writes stay unrecorded — they may
						// or may not be durable, and the verify only demands
						// what was acknowledged.
						dead.Add(1)
						return
					}
					if rep.IsError() {
						nacks.Add(1)
						continue
					}
					local[pending[j].key] = pending[j].seq
				}
			}
		}(i)
	}
	wg.Wait()
	data, err := json.MarshalIndent(durFile{Acked: acked}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("durability-check: %d acked keys recorded to %s (%d dead conns, %d refused writes)\n",
		len(acked), file, dead.Load(), nacks.Load())
	return nil
}

// sameShardTxnKeys picks k keys named <prefix>:<n> that all hash to one
// shard of an nshards store — MULTI bodies must not cross shards, and
// the client-side placement (kvstore.ShardOf) is exactly the router's.
func sameShardTxnKeys(prefix string, k, nshards int) []string {
	keys := []string{prefix + ":0"}
	want := kvstore.ShardOf(keys[0], nshards)
	for n := 1; len(keys) < k; n++ {
		cand := fmt.Sprintf("%s:%d", prefix, n)
		if kvstore.ShardOf(cand, nshards) == want {
			keys = append(keys, cand)
		}
	}
	return keys
}

// runDurCheckMulti is runDurCheck for transactions: each connection owns
// one same-shard key group and bursts MULTI bodies writing the whole
// group to a single sequence value, recording the sequence only once the
// EXEC reply — the atomic commit's ack — has been read back. The file is
// audited after a kill -9 restart with -durability-verify -multi.
func runDurCheckMulti(addr, file string, conns, pipeline, txnKeys int, duration time.Duration) error {
	_, shards, err := probeServer(addr)
	if err != nil {
		return err
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		txns  = map[string]txnGroup{}
		dead  atomic.Uint64
		nacks atomic.Uint64
		stop  = time.Now().Add(duration)
	)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			group := fmt.Sprintf("txn%03d", id)
			keys := sameShardTxnKeys(group, txnKeys, shards)
			acked := uint64(0)
			defer func() {
				if acked > 0 {
					mu.Lock()
					txns[group] = txnGroup{Keys: keys, Seq: acked}
					mu.Unlock()
				}
			}()
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				dead.Add(1)
				return
			}
			defer nc.Close()
			br := bufio.NewReaderSize(nc, 64<<10)
			bw := bufio.NewWriterSize(nc, 64<<10)
			seq := uint64(0)
			for time.Now().Before(stop) {
				first := seq + 1
				for j := 0; j < pipeline; j++ {
					seq++
					val := strconv.FormatUint(seq, 10)
					server.WriteCommandStrings(bw, "MULTI")
					for _, k := range keys {
						server.WriteCommandStrings(bw, "SET", k, val)
					}
					server.WriteCommandStrings(bw, "EXEC")
				}
				if err := bw.Flush(); err != nil {
					dead.Add(1)
					return
				}
				for j := 0; j < pipeline; j++ {
					ok := true
					// +OK for MULTI, +QUEUED per SET, then the EXEC array.
					for r := 0; r < len(keys)+2; r++ {
						rep, err := server.ReadReply(br)
						if err != nil {
							// Server died mid-burst: this transaction's ack
							// never arrived, so it stays unrecorded.
							dead.Add(1)
							return
						}
						if rep.IsError() {
							ok = false
						}
					}
					if ok {
						acked = first + uint64(j)
					} else {
						nacks.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	data, err := json.MarshalIndent(durFile{Txns: txns}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("durability-check(multi): %d groups × %d keys recorded to %s (%d dead conns, %d refused txns)\n",
		len(txns), txnKeys, file, dead.Load(), nacks.Load())
	return nil
}

// runDurVerifyMulti audits transaction groups after recovery: every key
// of a group must be present, hold the SAME sequence value, and that
// value must be >= the acknowledged sequence. A group whose keys differ
// was torn in half by recovery — the all-or-nothing guarantee failed.
func runDurVerifyMulti(addr, file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var df durFile
	if err := json.Unmarshal(data, &df); err != nil {
		return err
	}
	groups := make([]string, 0, len(df.Txns))
	for g := range df.Txns {
		groups = append(groups, g)
	}
	sort.Strings(groups)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 1<<20)
	bw := bufio.NewWriterSize(nc, 1<<20)

	torn, lost, stale := 0, 0, 0
	for _, g := range groups {
		tg := df.Txns[g]
		for _, k := range tg.Keys {
			server.WriteCommandStrings(bw, "GET", k)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		vals := make([]uint64, 0, len(tg.Keys))
		missing := false
		for range tg.Keys {
			rep, err := server.ReadReply(br)
			if err != nil {
				return err
			}
			if rep.Kind == server.NullReply {
				missing = true
				continue
			}
			v, perr := strconv.ParseUint(rep.Str, 10, 64)
			if perr != nil {
				missing = true
				continue
			}
			vals = append(vals, v)
		}
		uniform := !missing
		for _, v := range vals {
			if v != vals[0] {
				uniform = false
			}
		}
		switch {
		case missing && len(vals) == 0:
			lost++
			if lost <= 10 {
				fmt.Printf("LOST %s: acked seq %d, whole group absent\n", g, tg.Seq)
			}
		case !uniform:
			torn++
			if torn <= 10 {
				fmt.Printf("TORN %s: acked seq %d, group values %v (missing=%v)\n", g, tg.Seq, vals, missing)
			}
		case vals[0] < tg.Seq:
			stale++
			if stale <= 10 {
				fmt.Printf("STALE %s: acked seq %d, group holds %d\n", g, tg.Seq, vals[0])
			}
		}
	}
	if torn > 0 || lost > 0 || stale > 0 {
		return fmt.Errorf("%d torn, %d lost, %d stale of %d transaction groups", torn, lost, stale, len(groups))
	}
	fmt.Printf("durability-verify(multi): all %d transaction groups uniform and current\n", len(groups))
	return nil
}

// runDurVerify audits a restarted server against a -durability-check
// file: every acknowledged key must be present with a sequence value at
// least the recorded one (a later write to the same key may have become
// durable without its ack being received — that is allowed; absence or
// an older value is a lost acknowledged write).
func runDurVerify(addr, file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var df durFile
	if err := json.Unmarshal(data, &df); err != nil {
		return err
	}
	keys := make([]string, 0, len(df.Acked))
	for k := range df.Acked {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 1<<20)
	bw := bufio.NewWriterSize(nc, 1<<20)

	lost, stale := 0, 0
	const batch = 256
	for i := 0; i < len(keys); i += batch {
		end := i + batch
		if end > len(keys) {
			end = len(keys)
		}
		for _, k := range keys[i:end] {
			server.WriteCommandStrings(bw, "GET", k)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for _, k := range keys[i:end] {
			rep, err := server.ReadReply(br)
			if err != nil {
				return err
			}
			want := df.Acked[k]
			switch {
			case rep.Kind == server.NullReply:
				lost++
				if lost <= 10 {
					fmt.Printf("LOST %s: acked seq %d, key absent\n", k, want)
				}
			default:
				got, perr := strconv.ParseUint(rep.Str, 10, 64)
				if perr != nil || got < want {
					stale++
					if stale <= 10 {
						fmt.Printf("STALE %s: acked seq %d, found %q\n", k, want, rep.Str)
					}
				}
			}
		}
	}
	if lost > 0 || stale > 0 {
		return fmt.Errorf("%d acked keys lost, %d stale of %d checked", lost, stale, len(keys))
	}
	fmt.Printf("durability-verify: all %d acked keys present with current values\n", len(keys))
	return nil
}

// sendShutdown issues SHUTDOWN and waits for the server to close the
// connection (the drain completing).
func sendShutdown(addr string) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	server.WriteCommandStrings(bw, "SHUTDOWN")
	if err := bw.Flush(); err != nil {
		return err
	}
	rep, err := server.ReadReply(br)
	if err != nil {
		return err
	}
	if rep.IsError() {
		return fmt.Errorf("%s", rep.Str)
	}
	server.ReadReply(br) // blocks until the server closes the conn
	return nil
}
