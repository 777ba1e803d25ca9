package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mvrlu/internal/clock"
	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/server"
	"mvrlu/internal/wal"
)

// cuts.go — the layer-cut probes. The first cutOps ops of a workload's
// generated stream are replayed, on one goroutine, against successive
// cuts through the stack: the clock alone, the engine alone, the store
// session in-process, the RESP codec through a buffer, the WAL alone.
// Each cut is timed per op kind over the stream's own keys, and allocation
// counts come from the runtime's malloc counter, testing.AllocsPerRun's
// method. The table that comes out says what each layer adds on the way
// up to the per-op time measured over loopback TCP.
//
// A cut runs only where its layer is on the workload's path; elsewhere
// its metrics stay 0.

const cutOps = 200000

// cutBudget caps one probe loop, so slow ops (range scans, fsyncs) are
// sampled rather than replayed in full.
const cutBudget = 400 * time.Millisecond

type cutRow struct {
	name   string
	ns     float64
	allocs float64
	n      int
	stack  bool // one step of the clock → engine → store → codec ladder
}

type cutResult struct {
	metrics map[string]float64
	rows    []cutRow
	// inProcessNs is the mix-weighted per-op cost of the workload's
	// store session called in-process: the top of what is not server.
	inProcessNs float64
}

var cutSink uint64

// measure times fn over the ops of the stream that sel accepts, in
// stream order, and returns ns and mallocs per call.
func measure(ops []op, sel func(op) bool, fn func(o op)) (ns, allocs float64, n int) {
	var picked []op
	for _, o := range ops {
		if sel(o) {
			picked = append(picked, o)
		}
	}
	if len(picked) == 0 {
		return 0, 0, 0
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i, o := range picked {
		fn(o)
		n++
		if i&255 == 255 && time.Since(t0) > cutBudget {
			break
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), n
}

func isRead(o op) bool {
	return o.kind == opGet || o.kind == opLookup || o.kind == opRange || o.kind == opRangeRev
}
func isWrite(o op) bool          { return !isRead(o) }
func anyOp(op) bool              { return true }
func ofKind(k int) func(op) bool { return func(o op) bool { return int(o.kind) == k } }

// cost pairs a per-call figure with how many calls it was measured over.
func cost(per float64, n int) [2]float64 { return [2]float64{per, float64(n)} }

// weighted is the per-op mean of per-kind costs under the stream's mix.
func weighted(parts ...[2]float64) float64 {
	var sum, n float64
	for _, p := range parts {
		sum += p[0] * p[1]
		n += p[1]
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

type cutRec struct{ v uint64 }

func runCuts(w *workload, cfg *runConfig, stream []op) (*cutResult, error) {
	n := cutOps
	if cfg.quick {
		n = 4000
	}
	if n > len(stream) {
		n = len(stream)
	}
	ops := stream[:n]
	r := &cutResult{metrics: map[string]float64{}}
	add := func(name string, ns, allocs float64, n int, stack bool) {
		r.rows = append(r.rows, cutRow{name, ns, allocs, n, stack})
	}

	// clock
	var clk clock.Hardware
	ns, al, cnt := measure(ops, anyOp, func(op) { cutSink += clk.Now() })
	r.metrics["clock.now_ns"] = ns
	add("clock.Hardware.Now", ns, al, cnt, true)

	// core: a bare domain with as many objects as the workload has keys.
	d := core.NewDomain[cutRec](core.DefaultOptions())
	objs := make([]*core.Object[cutRec], w.Keys)
	for i := range objs {
		objs[i] = d.Alloc(cutRec{})
	}
	th := d.Register()
	rns, ral, rn := measure(ops, isRead, func(o op) {
		th.ReadLock()
		cutSink += th.Deref(objs[o.key]).v
		th.ReadUnlock()
	})
	var cur *core.Object[cutRec]
	body := func(t *core.Thread[cutRec]) bool {
		p, ok := t.TryLock(cur)
		if !ok {
			return false
		}
		p.v++
		return true
	}
	wns, wals, wn := measure(ops, isWrite, func(o op) {
		cur = objs[o.key]
		th.Execute(body)
	})
	th.Unregister()
	d.Close()
	r.metrics["core.read_cs_ns"], r.metrics["core.write_cs_ns"] = rns, wns
	add("core ReadLock+Deref (reads) / Execute+TryLock (writes)",
		weighted(cost(rns, rn), cost(wns, wn)), weighted(cost(ral, rn), cost(wals, wn)), rn+wn, true)
	add("  core read-cs", rns, ral, rn, false)
	add("  core write-cs", wns, wals, wn, false)

	if w.Store == "" {
		return r, nil
	}
	keys := make([]string, w.Keys+rangeSpan)
	for i := range keys {
		keys[i] = keyString(uint32(i))
	}
	val := valueString(0, 0, 1)

	switch w.Store {
	case "mvrlu-kv":
		for _, build := range []string{"mvrlu-kv", "vanilla"} {
			st, err := kvstore.New(build, kvstore.DefaultSlots, kvstore.DefaultBucketsPerSlot)
			if err != nil {
				return nil, err
			}
			preload(st, w.Keys)
			sess := st.Session()
			gns, gal, gn := measure(ops, ofKind(opGet), func(o op) {
				v, _ := sess.Get(keys[o.key])
				cutSink += uint64(len(v))
			})
			sns, sal, sn := measure(ops, ofKind(opSet), func(o op) { sess.Set(keys[o.key], val) })
			sess.Close()
			st.Close()
			mix := weighted(cost(gns, gn), cost(sns, sn))
			mixAl := weighted(cost(gal, gn), cost(sal, sn))
			if build == "vanilla" {
				r.metrics["kvstore.vanilla_get_ns"], r.metrics["kvstore.vanilla_set_ns"] = gns, sns
				add("kvstore.Session vanilla (reference, not on the path)", mix, mixAl, gn+sn, false)
				continue
			}
			r.metrics["kvstore.get_ns"], r.metrics["kvstore.set_ns"] = gns, sns
			r.metrics["kvstore.get_allocs"], r.metrics["kvstore.set_allocs"] = gal, sal
			r.inProcessNs = mix
			add("kvstore.Session mvrlu-kv", mix, mixAl, gn+sn, true)
			add("  Get", gns, gal, gn, false)
			add("  Set", sns, sal, sn, false)
		}
	case "mvrlu-idx":
		if err := r.indexCuts(w, ops, keys, val, add); err != nil {
			return nil, err
		}
	}

	r.codecCuts(w, ops, keys, val, add)
	if w.WAL {
		if err := r.walCuts(cfg, ops, keys, val, add); err != nil {
			return nil, err
		}
	}
	return r, nil
}

type addRow func(name string, ns, allocs float64, n int, stack bool)

// indexCuts probes the ordered index in-process, unsharded: the index
// layer itself, without the router's fan-out and merge. The range probes
// stop at rangeLimit pairs, which is all the command asks for; that the
// server walks the whole window anyway is the server's cost and shows up
// in server.added_ns_per_op.
func (r *cutResult) indexCuts(w *workload, ops []op, keys []string, val string, add addRow) error {
	st, err := kvstore.New("mvrlu-idx", 0, 0)
	if err != nil {
		return err
	}
	defer st.Close()
	preload(st, w.Keys)
	sess := st.Session()
	defer sess.Close()
	osess, ok := sess.(kvstore.OrderedSession)
	if !ok {
		return fmt.Errorf("store %s has no ordered sessions", st.Name())
	}
	var seen int
	first16 := func(k, v string) bool {
		seen++
		return seen < rangeLimit
	}
	gns, gal, gn := measure(ops, ofKind(opGet), func(o op) {
		v, _ := sess.Get(keys[o.key])
		cutSink += uint64(len(v))
	})
	sns, sal, sn := measure(ops, ofKind(opSet), func(o op) { sess.Set(keys[o.key], val) })
	ans, aal, an := measure(ops, ofKind(opRange), func(o op) {
		seen = 0
		osess.RangeAscend(keys[o.key], keys[o.key+rangeSpan-1], first16)
	})
	dns, dal, dn := measure(ops, ofKind(opRangeRev), func(o op) {
		seen = 0
		osess.RangeDescend(keys[o.key], keys[o.key+rangeSpan-1], first16)
	})
	body := make([]kvstore.TxnOp, txnKeys)
	tns, tal, tn := measure(ops, ofKind(opTxn), func(o op) {
		for j := range body {
			body[j] = kvstore.TxnOp{Key: keys[(int(o.key)+j)%w.Keys], Value: val}
		}
		osess.ApplyTxn(body) // unsharded: cannot return ErrCrossShard
	})
	m := r.metrics
	m["index.get_ns"], m["index.set_ns"] = gns, sns
	m["index.range16_ns"], m["index.range16_rev_ns"], m["index.txn4_ns"] = ans, dns, tns
	m["index.range16_allocs"] = aal
	r.inProcessNs = weighted(cost(gns, gn), cost(sns, sn), cost(ans, an), cost(dns, dn), cost(tns, tn))
	add("index OrderedSession mvrlu-idx", r.inProcessNs,
		weighted(cost(gal, gn), cost(sal, sn), cost(aal, an), cost(dal, dn), cost(tal, tn)),
		gn+sn+an+dn+tn, true)
	add("  Get", gns, gal, gn, false)
	add("  Set", sns, sal, sn, false)
	add("  RangeAscend, stop at 16", ans, aal, an, false)
	add("  RangeDescend, stop at 16", dns, dal, dn, false)
	add("  ApplyTxn, 4 SETs", tns, tal, tn, false)
	return nil
}

// codecCuts times the wire format alone, through the server's public
// codec: each op's commands encoded by WriteCommand and parsed back by
// ReadCommand, and its replies parsed by ReadReply, all through memory.
func (r *cutResult) codecCuts(w *workload, ops []op, keys []string, val string, add addRow) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	br := bufio.NewReader(&buf)
	limit := []byte("LIMIT")
	lim16 := []byte("16")
	var ncmd int
	send := func(args ...[]byte) {
		server.WriteCommand(bw, args...)
		ncmd++
	}
	valb := []byte(val)
	cns, cal, cn := measure(ops, anyOp, func(o op) {
		k := []byte(keys[o.key])
		before := ncmd
		switch o.kind {
		case opGet:
			send([]byte("GET"), k)
		case opSet:
			send([]byte("SET"), k, valb)
		case opRange:
			send([]byte("RANGE"), k, []byte(keys[o.key+rangeSpan-1]), limit, lim16)
		case opRangeRev:
			send([]byte("RANGE"), k, []byte(keys[o.key+rangeSpan-1]), limit, lim16, []byte("REV"))
		case opTxn:
			send([]byte("MULTI"))
			for j := 0; j < txnKeys; j++ {
				send([]byte("SET"), []byte(keys[(int(o.key)+j)%w.Keys]), valb)
			}
			send([]byte("EXEC"))
		}
		bw.Flush()
		for i := before; i < ncmd; i++ {
			args, err := server.ReadCommand(br)
			if err != nil {
				panic(fmt.Sprintf("codec cut: ReadCommand rejected WriteCommand's output: %v", err))
			}
			cutSink += uint64(len(args))
		}
	})
	perCmd := cns * float64(cn) / float64(ncmd)
	r.metrics["server.codec_cmd_ns"] = perCmd

	// Replies: built by hand (the server's reply writers are private),
	// outside the timed loop.
	var reply []byte
	nrep := 0
	rns, ral, rn := measure(ops, anyOp, func(o op) {
		reply = cannedReply(reply[:0], w, o, keys, val)
		buf.Reset()
		buf.Write(reply)
		br.Reset(&buf)
		for buf.Len() > 0 || br.Buffered() > 0 {
			rep, err := server.ReadReply(br)
			if err != nil {
				panic(fmt.Sprintf("codec cut: ReadReply rejected a canned reply: %v", err))
			}
			cutSink += uint64(len(rep.Elems))
			nrep++
		}
	})
	r.metrics["server.codec_reply_ns"] = rns * float64(rn) / float64(nrep)
	add("RESP codec per op (commands out+in, replies in)", cns+rns, cal+ral, cn, true)
	add("  per command (WriteCommand+ReadCommand)", perCmd, cal*float64(cn)/float64(ncmd), ncmd, false)
	add("  per reply (ReadReply)", r.metrics["server.codec_reply_ns"], ral*float64(rn)/float64(nrep), nrep, false)
}

// cannedReply appends the reply bytes a correct server sends for op o.
func cannedReply(b []byte, w *workload, o op, keys []string, val string) []byte {
	bulk := func(s string) {
		b = append(b, '$')
		b = append(b, fmt.Sprint(len(s))...)
		b = append(b, "\r\n"...)
		b = append(b, s...)
		b = append(b, "\r\n"...)
	}
	switch o.kind {
	case opGet:
		bulk(val)
	case opSet:
		b = append(b, "+OK\r\n"...)
	case opRange, opRangeRev:
		first, step, want := rangeExpect(w.Keys, o)
		b = append(b, fmt.Sprintf("*%d\r\n", 2*want)...)
		for i := 0; i < want; i++ {
			bulk(keys[int(first)+i*step])
			bulk(val)
		}
	case opTxn:
		b = append(b, "+OK\r\n"...)
		b = append(b, strings.Repeat("+QUEUED\r\n", txnKeys)...)
		b = append(b, fmt.Sprintf("*%d\r\n", txnKeys)...)
		b = append(b, strings.Repeat("+OK\r\n", txnKeys)...)
	}
	return b
}

// walCuts times the log alone on a scratch directory: Append (enqueue
// only) and Append+SyncBarrier (one group commit per write, the cost a
// lone writer pays).
func (r *cutResult) walCuts(cfg *runConfig, ops []op, keys []string, val string, add addRow) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "walcut-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wlog, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer wlog.Close()
	var ts uint64
	var werr error
	appendOne := func(o op) {
		ts++
		if err := wlog.Append(wal.Record{TS: ts, Key: keys[o.key], Value: val}); err != nil {
			werr = err
		}
	}
	ans, aal, an := measure(ops, ofKind(opSet), appendOne)
	if err := wlog.SyncBarrier(); err != nil {
		return err
	}
	barriers := ops
	if max := 300; len(barriers) > max {
		barriers = barriers[:max]
	}
	bns, bal, bn := measure(barriers, anyOp, func(o op) {
		appendOne(o)
		if err := wlog.SyncBarrier(); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	r.metrics["wal.append_ns"], r.metrics["wal.barrier_ns"] = ans, bns
	add("wal.Append (enqueue)", ans, aal, an, false)
	add("wal.Append+SyncBarrier (fsync, one writer)", bns, bal, bn, false)
	return nil
}

// print writes the layer-cut table: the ladder rows with what each adds
// over the one before, ending at the per-op time of the whole system
// over loopback, then the detail rows.
func (r *cutResult) print(w *workload, loopbackNs float64) {
	fmt.Printf("\nlayer cuts, %s (single goroutine, workload's own op stream)\n", w.Name)
	fmt.Printf("  %-58s %12s %10s %12s %8s\n", "cut", "ns/op", "allocs/op", "added ns/op", "ops")
	prev := 0.0
	for _, row := range r.rows {
		if !row.stack {
			continue
		}
		// The codec is a sibling of the store, not a wrapper around it:
		// its cost adds to the ladder rather than containing the rungs
		// below.
		total := row.ns
		if strings.HasPrefix(row.name, "RESP codec") {
			total += prev
		}
		fmt.Printf("  %-58s %12.1f %10.2f %+12.1f %8d\n", row.name, total, row.allocs, total-prev, row.n)
		prev = total
	}
	top := "loopback TCP, whole system (2 / ops_per_s)"
	if w.Store == "" {
		top = "ds mvrlu-hash in-process, whole workload (2 / ops_per_s)"
	}
	fmt.Printf("  %-58s %12.1f %10s %+12.1f\n", top, loopbackNs, "", loopbackNs-prev)
	fmt.Printf("  detail:\n")
	for _, row := range r.rows {
		if !row.stack {
			fmt.Printf("  %-58s %12.1f %10.2f %12s %8d\n", row.name, row.ns, row.allocs, "", row.n)
		}
	}
}
