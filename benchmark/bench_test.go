package main

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"mvrlu/internal/kvstore"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.51, 60}, {0.95, 100}, {0.90, 90}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	// An even count takes the mean of the middle two; one outlier among
	// four set-up times does not move it.
	if got := median([]float64{100, 104, 20, 102}); got != 101 {
		t.Errorf("median of four = %v, want 101", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	var vs []float64
	for i := 1; i <= 10; i++ {
		vs = append(vs, float64(i))
	}
	want := (8.25 - 2.75) / 5.5
	if got := spread(vs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

// virtualClock lets the paced scheduler run in made-up time.
type virtualClock struct{ t int64 }

func (c *virtualClock) now() int64 { return c.t }
func (c *virtualClock) waitUntil(t int64) {
	if t > c.t {
		c.t = t
	}
}

func TestPacedLoopChargesStallToBatchesBehind(t *testing.T) {
	clk := &virtualClock{}
	const interval, service = 100, 10
	i := 0
	batch := func() (int64, int64, int64) {
		t0 := clk.t
		if i == 1 {
			clk.t += 350 // the second batch stalls for 3.5 intervals
		} else {
			clk.t += service
		}
		i++
		return t0, t0, clk.t
	}
	r := pacedLoop(clk, 0, 0, interval, 600, batch)
	if r.offered != 6 {
		t.Fatalf("offered = %d, want 6", r.offered)
	}
	// Batch 1 is due at 100 and done at 450. Batches 2, 3 and 4 were due
	// at 200, 300 and 400 and could only go once it was done: their
	// latency, counted from when they were due, carries the stall.
	wantLat := []int64{10, 350, 260, 170, 80, 10}
	if !reflect.DeepEqual(r.lat, wantLat) {
		t.Errorf("latencies = %v, want %v", r.lat, wantLat)
	}
	// The generator itself was never late: every batch went the moment it
	// was both due and possible.
	for j, l := range r.late {
		if l != 0 {
			t.Errorf("batch %d: generator lateness %d, want 0", j, l)
		}
	}
}

func TestPacedLoopGivesUpWhenHopelesslyBehind(t *testing.T) {
	clk := &virtualClock{}
	batch := func() (int64, int64, int64) {
		t0 := clk.t
		clk.t += 1000 // ten times slower than offered
		return t0, t0, clk.t
	}
	r := pacedLoop(clk, 0, 0, 100, 1000, batch)
	if r.offered != 10 || len(r.lat) >= r.offered {
		t.Fatalf("offered %d, answered %d: want 10 offered and fewer answered", r.offered, len(r.lat))
	}
	_, _, offered, unanswered := pacedSummary([]pacedResult{r})
	if unanswered != offered {
		t.Errorf("overloaded window: %d of %d batches failed, want all", unanswered, offered)
	}
}

// replyOf returns a reader over canned reply bytes.
func replyOf(s string) *replyReader {
	return &replyReader{br: bufio.NewReaderSize(strings.NewReader(s), 64<<10)}
}

func bulkOf(s string) string { return "$" + itoa(len(s)) + "\r\n" + s + "\r\n" }

func itoa(n int) string { return string(appendPadded(nil, uint64(n), 1)) }

func rangeReply(keys []uint32, valueKeys []uint32) string {
	var b strings.Builder
	b.WriteString("*" + itoa(2*len(keys)) + "\r\n")
	for i, k := range keys {
		b.WriteString(bulkOf(keyString(k)))
		b.WriteString(bulkOf(valueString(valueKeys[i], 0, 7)))
	}
	return b.String()
}

func seq(first uint32, n int, step int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(int(first) + i*step)
	}
	return out
}

func TestValidator(t *testing.T) {
	w := findWorkload("idx-range-txn")
	good := seq(100, rangeLimit, 1)
	swapped := append([]uint32(nil), good...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	execOK := correctReply(w, op{opTxn, 9})
	execShort := "+OK\r\n" + strings.Repeat("+QUEUED\r\n", txnKeys) + "*3\r\n" + strings.Repeat("+OK\r\n", 3)

	for _, c := range []struct {
		name  string
		o     op
		reply string
		want  bool
	}{
		{"get own value", op{opGet, 5}, bulkOf(valueString(5, 1, 42)), true},
		{"get preload value", op{opGet, 5}, bulkOf(valueString(5, preloadConn, 0)), true},
		{"get foreign value", op{opGet, 5}, bulkOf(valueString(6, 1, 42)), false},
		{"get garbage", op{opGet, 5}, bulkOf(strings.Repeat("z", valueSize)), false},
		{"get missing", op{opGet, 5}, "$-1\r\n", false},
		{"get error", op{opGet, 5}, "-ERR boom\r\n", false},
		{"set ok", op{opSet, 5}, "+OK\r\n", true},
		{"set refused", op{opSet, 5}, "-ERR wal: log failed\r\n", false},
		{"range ok", op{opRange, 100}, rangeReply(good, good), true},
		{"range out of order", op{opRange, 100}, rangeReply(swapped, swapped), false},
		{"range short", op{opRange, 100}, rangeReply(good[:15], good[:15]), false},
		{"range foreign value", op{opRange, 100}, rangeReply(good, seq(101, rangeLimit, 1)), false},
		{"range below window", op{opRange, 100}, rangeReply(seq(99, rangeLimit, 1), seq(99, rangeLimit, 1)), false},
		{"rev ok", op{opRangeRev, 100}, rangeReply(seq(1123, rangeLimit, -1), seq(1123, rangeLimit, -1)), true},
		{"rev ascending", op{opRangeRev, 100}, rangeReply(good, good), false},
		{"range at the end of the keyspace", op{opRange, uint32(w.Keys - 3)},
			rangeReply(seq(uint32(w.Keys-3), 3, 1), seq(uint32(w.Keys-3), 3, 1)), true},
		{"exec ok", op{opTxn, 9}, execOK, true},
		{"exec short", op{opTxn, 9}, execShort, false},
		{"exec aborted", op{opTxn, 9}, "+OK\r\n" + strings.Repeat("+QUEUED\r\n", txnKeys) + "-EXECABORT\r\n", false},
	} {
		r := replyOf(c.reply)
		got, err := checkReply(r, w, c.o)
		if err != nil {
			t.Errorf("%s: unexpected stream error %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("%s: verdict %v, want %v", c.name, got, c.want)
		}
		if r.br.Buffered() != 0 {
			t.Errorf("%s: %d reply bytes left unread, the next reply would be misparsed", c.name, r.br.Buffered())
		}
	}

	// A reply of the wrong type means the stream is out of step.
	if _, err := checkReply(replyOf(":1\r\n"), w, op{opGet, 5}); err == nil {
		t.Error("integer reply to GET: want a stream error")
	}
}

func TestParseValueRoundTrip(t *testing.T) {
	v := valueString(12345, 1, 4000000000)
	if len(v) != valueSize {
		t.Fatalf("value is %d bytes, want %d", len(v), valueSize)
	}
	conn, s, ok := parseValue([]byte(v), 12345)
	if !ok || conn != 1 || s != 4000000000 {
		t.Errorf("parseValue = (%d, %d, %v), want (1, 4000000000, true)", conn, s, ok)
	}
}

// discardConn is a net.Conn whose writes vanish; nothing else is called.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// correctReply is what a correct server answers to o.
func correctReply(w *workload, o op) string {
	switch o.kind {
	case opGet:
		return bulkOf(valueString(o.key, 0, 1))
	case opRange, opRangeRev:
		first, step, want := rangeExpect(w.Keys, o)
		ks := seq(first, want, step)
		return rangeReply(ks, ks)
	case opTxn:
		return "+OK\r\n" + strings.Repeat("+QUEUED\r\n", txnKeys) + "*4\r\n" + strings.Repeat("+OK\r\n", 4)
	}
	return "+OK\r\n"
}

// TestClientHotLoopAllocs pins the load generator's cost model: encoding
// a batch and parsing and checking its replies allocate nothing, so the
// process's mallocs during a run are the system's (server.allocs_per_op).
func TestClientHotLoopAllocs(t *testing.T) {
	w := findWorkload("idx-range-txn") // the mix with every wire op
	var ops []op
	for i := 0; i < batchOps; i++ {
		ops = append(ops, op{kind: uint8(i % (opTxn + 1)), key: uint32(1000 + 37*i)})
	}
	c := newClient(0, w, discardConn{}, ops, txnPeers(w.Keys, w.Shards))

	// One batch's worth of correct replies, replayed from memory.
	var replies []byte
	for _, o := range ops {
		replies = append(replies, correctReply(w, o)...)
	}
	rd := bytes.NewReader(replies)
	c.rr.br = bufio.NewReaderSize(rd, 64<<10)

	allocs := testing.AllocsPerRun(200, func() {
		c.pos = 0
		rd.Reset(replies)
		c.rr.br.Reset(rd)
		c.batch()
	})
	if allocs != 0 {
		t.Errorf("client batch allocates %.1f times, want 0", allocs)
	}
	if c.failed != 0 || c.err != nil {
		t.Errorf("replayed correct replies: %d failed, err %v", c.failed, c.err)
	}
}

func TestGenStreamDeterministic(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := genStream(w, 7, 1, 20000), genStream(w, 7, 1, 20000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different streams", w.Name)
		}
		if c := genStream(w, 8, 1, 20000); reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same stream", w.Name)
		}
		var count [numKinds]int
		for _, o := range a {
			count[o.kind]++
			if int(o.key) >= w.Keys {
				t.Fatalf("%s: key %d outside 0..%d", w.Name, o.key, w.Keys-1)
			}
		}
		for k, share := range w.Mix {
			got := float64(count[k]) / float64(len(a)) * 100
			if math.Abs(got-float64(share)) > 1.5 {
				t.Errorf("%s: %s is %.1f%% of the stream, want %d%%", w.Name, kindNames[k], got, share)
			}
		}
	}
}

func TestTxnPeersStayOnOneShard(t *testing.T) {
	peers := txnPeers(2000, 2)
	shard := func(k uint32) int { return kvstore.ShardOf(keyString(k), 2) }
	for k, ps := range peers {
		seen := map[uint32]bool{uint32(k): true}
		for _, p := range ps {
			if shard(p) != shard(uint32(k)) {
				t.Fatalf("key %d on shard %d, peer %d on shard %d", k, shard(uint32(k)), p, shard(p))
			}
			if seen[p] {
				t.Fatalf("key %d: peer %d repeated", k, p)
			}
			seen[p] = true
		}
	}
}

// TestBenchmarkJSONIsGenerated keeps BENCHMARK.json, which the driver
// reads, in step with spec.go, which the benchmark runs from.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; run: go run ./benchmark spec > BENCHMARK.json")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, is %d", w.Name, len(w.Why))
		}
	}
}

// TestHistDeltaTrimmedBuckets: the registry prints only a histogram's
// occupied buckets, so a bucket first occupied inside the window is absent
// from the earlier snapshot and must be read there as "everything so far",
// not as zero.
func TestHistDeltaTrimmedBuckets(t *testing.T) {
	before := parseProm([]byte(`h_bucket{le="1"} 10
h_bucket{le="3"} 100
h_bucket{le="+Inf"} 100
`))
	after := parseProm([]byte(`h_bucket{le="1"} 12
h_bucket{le="3"} 150
h_bucket{le="7"} 151
h_bucket{le="+Inf"} 151
`))
	edges, counts := histDelta(before, after, "h")
	if !reflect.DeepEqual(edges, []float64{1, 3, 7}) || !reflect.DeepEqual(counts, []float64{2, 48, 1}) {
		t.Fatalf("delta = %v %v, want edges [1 3 7] counts [2 48 1]", edges, counts)
	}
	// 51 observations: the median is the 25.5th, the 23.5th of the 48 in
	// bucket (1,3], i.e. 2 + (3-2)·23.5/48.
	if got, want := histQuantile(edges, counts, 0.5), 2+23.5/48; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(ops, mem, p95, errRate float64) resultSet {
		return resultSet{Workloads: map[string]map[string]float64{
			"kv-point-read": {"ops_per_s": ops, "mem_per_user_byte": mem, "paced_p95_us": p95, "error_rate": errRate},
		}}
	}
	verdict := func(rows []compareRow, metric string) string {
		for _, r := range rows {
			if r.metric == metric {
				return r.verdict
			}
		}
		return "missing"
	}
	base := []resultSet{set(1000, 3.00, 100, 0), set(1010, 3.01, 101, 0), set(990, 2.99, 99, 0), set(1005, 3.00, 100, 0)}

	rows, regressed := compareSets(base, []resultSet{set(900, 3.1, 100, 0), set(905, 3.1, 100, 0), set(895, 3.1, 100, 0), set(902, 3.1, 100, 0)})
	if regressed || verdict(rows, "ops_per_s") != "ok" || verdict(rows, "mem_per_user_byte") != "ok" {
		t.Errorf("10%% slower, 3%% more memory: want ok/ok, got %q/%q (regressed=%v)",
			verdict(rows, "ops_per_s"), verdict(rows, "mem_per_user_byte"), regressed)
	}

	rows, regressed = compareSets(base, []resultSet{set(700, 3, 100, 0), set(705, 3, 100, 0), set(695, 3, 100, 0), set(702, 3, 100, 0)})
	if !regressed || verdict(rows, "ops_per_s") != "regressed" {
		t.Errorf("30%% slower: want regressed, got %q", verdict(rows, "ops_per_s"))
	}

	rows, regressed = compareSets(base, []resultSet{set(1000, 2, 100, 0), set(1000, 3, 100, 0), set(1000, 4, 100, 0), set(1000, 5, 100, 0)})
	if regressed || !strings.HasPrefix(verdict(rows, "mem_per_user_byte"), "unresolved") {
		t.Errorf("memory all over the place: want unresolved, got %q (regressed=%v)", verdict(rows, "mem_per_user_byte"), regressed)
	}

	rows, regressed = compareSets(base, []resultSet{set(1000, 3, 900, 0), set(1000, 3, 900, 0)})
	if regressed || !strings.HasPrefix(verdict(rows, "paced_p95_us"), "ungated") {
		t.Errorf("p95 nine times worse: it is reported, not gated; got %q (regressed=%v)", verdict(rows, "paced_p95_us"), regressed)
	}

	rows, regressed = compareSets(base, []resultSet{set(1000, 3, 100, 0), set(1000, 3, 100, 1e-6)})
	if !regressed || verdict(rows, "error_rate") != "regressed" {
		t.Errorf("one failed op: want error_rate regressed, got %q", verdict(rows, "error_rate"))
	}
}
