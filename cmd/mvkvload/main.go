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
//
// It also holds the crash audit behind "acknowledged implies durable"
// (scripts/crash_check.sh). -durability-check bursts writes over key
// groups and records each group's last acknowledged sequence; the
// daemon is killed mid-burst and restarted; -durability-verify then
// fails any group that recovery lost, tore or left stale. A group is
// either one key written by SET (plain mode, 1000 per connection) or,
// with -multi, four same-shard keys written by one MULTI/EXEC body (one
// per connection). Verify reads the shapes from the file.
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
			"run a write burst and record every acknowledged key group to this JSON file (survives the server being SIGKILLed mid-burst); verify after restart with -durability-verify")
		durVerify = flag.String("durability-verify", "",
			"read a -durability-check file and assert every acknowledged group is present, uniform and current on the (restarted) server; exits 1 on any lost, torn or stale group")
		durMulti = flag.Bool("multi", false,
			"with -durability-check: write one same-shard group of 4 keys per connection with MULTI/EXEC bodies instead of 1000 one-key groups with SETs")
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
		if err := runDurVerify(*addr, *durVerify); err != nil {
			fmt.Fprintf(os.Stderr, "mvkvload: durability-verify: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *durCheck != "" {
		if err := runDurCheck(*addr, *durCheck, *conns, *pipeline, *durMulti, *duration); err != nil {
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
// -durability-verify reads: every key group the server acknowledged,
// as group name → the group's keys and its last acknowledged sequence
// value. One command writes every key of a group to the same value (a
// SET for a one-key group, a MULTI/EXEC body otherwise), so after
// recovery a group must be uniform — all keys present and equal — and
// at least its acked sequence. Groups are disjoint per connection, so
// the merged map needs no cross-connection ordering.
type durFile struct {
	Groups map[string]durGroup `json:"groups"`
}

type durGroup struct {
	Keys []string `json:"keys"`
	Seq  uint64   `json:"seq"`
}

const (
	// durKeysPerConn is each connection's count of one-key groups in
	// plain mode: keys are rewritten many times during a burst, and
	// re-acks of the same key must raise its recorded sequence, which is
	// what makes the verify's ">= acked" assertion meaningful under
	// overwrites.
	durKeysPerConn = 1000
	// durTxnKeys is the size of each connection's one group in -multi
	// mode.
	durTxnKeys = 4
)

// durGroups returns connection id's groups. Plain mode: durKeysPerConn
// one-key groups named after their key, dur<conn>:<n>. -multi mode: one
// group txn<conn> of durTxnKeys keys that all live on one shard of an
// nshards store, because a MULTI body must not cross shards.
func durGroups(id int, multi bool, nshards int) (names []string, groups []durGroup) {
	if multi {
		name := fmt.Sprintf("txn%03d", id)
		return []string{name}, []durGroup{{Keys: sameShardTxnKeys(name, durTxnKeys, nshards)}}
	}
	for n := 0; n < durKeysPerConn; n++ {
		key := fmt.Sprintf("dur%03d:%06d", id, n)
		names = append(names, key)
		groups = append(groups, durGroup{Keys: []string{key}})
	}
	return names, groups
}

// sameShardTxnKeys picks k keys named <prefix>:<n> that all hash to one
// shard of an nshards store; the client-side placement (kvstore.ShardOf)
// is exactly the router's.
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

// runDurCheck drives a write-only burst over each connection's groups
// and records, client-side, every group write the server acknowledged:
// a group's sequence is raised only once the whole reply for that write
// has been read back without an error — one reply for a SET, k+2 for a
// MULTI body of k SETs. The server being killed mid-burst is the
// expected outcome — the dead connection just stops, keeping everything
// acknowledged so far — so connection errors are reported but do not
// fail the run. The file is the ground truth a restarted server is
// audited against with -durability-verify.
func runDurCheck(addr, file string, conns, pipeline int, multi bool, duration time.Duration) error {
	shards := 1
	if multi {
		var err error
		if _, shards, err = probeServer(addr); err != nil {
			return err
		}
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		acked = map[string]durGroup{}
		dead  atomic.Uint64
		nacks atomic.Uint64
		stop  = time.Now().Add(duration)
	)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			names, groups := durGroups(id, multi, shards)
			defer func() {
				mu.Lock()
				for j, g := range groups {
					if g.Seq > 0 {
						acked[names[j]] = g
					}
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
			for time.Now().Before(stop) {
				first := seq + 1
				for j := 0; j < pipeline; j++ {
					seq++
					keys, val := groups[seq%uint64(len(groups))].Keys, strconv.FormatUint(seq, 10)
					if len(keys) == 1 {
						server.WriteCommandStrings(bw, "SET", keys[0], val)
					} else {
						server.WriteCommandStrings(bw, "MULTI")
						for _, k := range keys {
							server.WriteCommandStrings(bw, "SET", k, val)
						}
						server.WriteCommandStrings(bw, "EXEC")
					}
				}
				if err := bw.Flush(); err != nil {
					dead.Add(1)
					return
				}
				for s := first; s <= seq; s++ {
					g := &groups[s%uint64(len(groups))]
					replies := 1
					if len(g.Keys) > 1 {
						replies = len(g.Keys) + 2 // +OK, +QUEUED per SET, the EXEC array
					}
					ok := true
					for r := 0; r < replies; r++ {
						rep, err := server.ReadReply(br)
						if err != nil {
							// The server died mid-burst: this write's ack and
							// the rest never arrived, so they stay unrecorded —
							// they may or may not be durable, and the verify
							// only demands what was acknowledged.
							dead.Add(1)
							return
						}
						ok = ok && !rep.IsError()
					}
					if ok {
						g.Seq = s
					} else {
						nacks.Add(1)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	data, err := json.MarshalIndent(durFile{Groups: acked}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("durability-check: %d acked groups recorded to %s (%d dead conns, %d refused writes)\n",
		len(acked), file, dead.Load(), nacks.Load())
	return nil
}

// runDurVerify audits a restarted server against a -durability-check
// file. It GETs every group's keys in pipelined batches and fails a
// group that is
//
//   - LOST: every key absent;
//   - TORN: some keys absent, or the keys disagree — recovery split one
//     all-or-nothing write;
//   - STALE: uniform, but below the acked sequence.
//
// A value above the acked sequence is allowed: a later write may have
// become durable without its ack being received.
func runDurVerify(addr, file string) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	var df durFile
	if err := json.Unmarshal(data, &df); err != nil {
		return err
	}
	names := make([]string, 0, len(df.Groups))
	for g := range df.Groups {
		names = append(names, g)
	}
	sort.Strings(names)

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer nc.Close()
	br := bufio.NewReaderSize(nc, 1<<20)
	bw := bufio.NewWriterSize(nc, 1<<20)

	const batchKeys = 256
	counts := map[string]int{}
	var reps []server.Reply
	for i := 0; i < len(names); {
		end := i
		for nkeys := 0; end < len(names) && nkeys < batchKeys; end++ {
			for _, k := range df.Groups[names[end]].Keys {
				server.WriteCommandStrings(bw, "GET", k)
			}
			nkeys += len(df.Groups[names[end]].Keys)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		for _, name := range names[i:end] {
			g := df.Groups[name]
			reps = reps[:0]
			for range g.Keys {
				rep, err := server.ReadReply(br)
				if err != nil {
					return err
				}
				reps = append(reps, rep)
			}
			if fault := auditGroup(reps, g.Seq); fault != "" {
				if counts[fault]++; counts[fault] <= 10 {
					fmt.Printf("%s %s: acked seq %d, group holds %s\n", fault, name, g.Seq, replyValues(reps))
				}
			}
		}
		i = end
	}
	if len(counts) > 0 {
		return fmt.Errorf("%d lost, %d torn, %d stale of %d groups",
			counts["LOST"], counts["TORN"], counts["STALE"], len(names))
	}
	fmt.Printf("durability-verify: all %d acked groups uniform and current\n", len(names))
	return nil
}

// auditGroup classifies one group's GET replies against its acked
// sequence: "" when the group holds, else LOST, TORN or STALE.
func auditGroup(reps []server.Reply, seq uint64) string {
	absent := 0
	for _, r := range reps {
		if r.Kind == server.NullReply {
			absent++
		}
	}
	switch {
	case absent == len(reps):
		return "LOST"
	case absent > 0:
		return "TORN"
	}
	for _, r := range reps[1:] {
		if r.Str != reps[0].Str {
			return "TORN"
		}
	}
	if v, err := strconv.ParseUint(reps[0].Str, 10, 64); err != nil || v < seq {
		return "STALE"
	}
	return ""
}

// replyValues renders GET replies for a failure line, (nil) for absent.
func replyValues(reps []server.Reply) string {
	vals := make([]string, len(reps))
	for i, r := range reps {
		vals[i] = r.Str
		if r.Kind == server.NullReply {
			vals[i] = "(nil)"
		}
	}
	return "[" + strings.Join(vals, " ") + "]"
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
