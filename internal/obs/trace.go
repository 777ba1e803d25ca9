package obs

// trace.go — the request-scoped span recorder. One Trace lives on each
// server connection and is reused batch after batch: Begin resets it,
// stage sites stamp durations into fixed cells, Finish snapshots it into
// a plain TraceData for the flight recorder. The discipline mirrors the
// histogram layer: a single package-level atomic gate (TraceEnabled),
// zero allocations on the record path, and per-stage cells that are
// atomics only because routed batches stamp session-wait/engine spans
// from shard worker goroutines concurrently.

import (
	"sync/atomic"
)

// traceEnabled gates every tracing record site, independent of the
// metrics gate: histograms can stay on while tracing is off and vice
// versa. Same cost contract as Enabled — one atomic load and a branch
// when off (see TestDisabledTraceSiteCost).
var traceEnabled atomic.Bool

// TraceEnabled reports whether request tracing is on.
func TraceEnabled() bool { return traceEnabled.Load() }

// SetTraceEnabled turns request tracing on or off. Toggling mid-batch is
// safe: a batch begun before the toggle finishes its trace (or never
// started one); the flight recorder only ever accumulates.
func SetTraceEnabled(on bool) { traceEnabled.Store(on) }

// Stage enumerates the request lifecycle stages a trace can attribute
// time to. Engine contains lock-wait/commit/WAL-append; flush contains
// the WAL group-fsync barrier — AdjustedStages un-nests them so a
// dominant-stage readout compares disjoint time.
type Stage uint8

const (
	// StageParse is time spent reading and decoding follow-on pipelined
	// commands off the socket buffer (the first command of a batch is
	// read while the connection is idle and is not attributed).
	StageParse Stage = iota
	// StagePlan is batch planning: looking each command up, compiling it
	// into a slot and bucketing its keys by shard.
	StagePlan
	// StageSessionWait is time blocked checking an engine session out of
	// the bounded pool — queueing delay behind other batches.
	StageSessionWait
	// StageEngine is the store-call span: running one shard's op list
	// against a checked-out session, nested stages included.
	StageEngine
	// StageLockWait is time blocked on a store slot/index writer mutex.
	StageLockWait
	// StageCommit is the engine critical section: the MV-RLU Execute
	// (try-lock, write, commit-publish) for one operation.
	StageCommit
	// StageWALAppend is time enqueueing commit records onto the WAL's
	// bounded group-commit queue (includes backpressure waits).
	StageWALAppend
	// StageWALBarrier is the ack gate's group-fsync barrier: waiting for
	// the WAL logger to report every record this batch appended durable,
	// before reply bytes reach the socket.
	StageWALBarrier
	// StageFlush is the reply flush: draining the buffered reply bytes to
	// the socket (the WAL barrier runs inside it on WAL-backed servers).
	StageFlush
	// NumStages is the number of stages; Trace holds one cell per stage.
	NumStages
)

var stageNames = [NumStages]string{
	"parse", "plan", "session_wait", "engine", "lock_wait",
	"commit", "wal_append", "wal_barrier", "flush",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// MaxSpans bounds the per-trace span slots. A batch stamping more spans
// than this keeps accurate per-stage totals (the cells accumulate) but
// drops the extra span records, counting them in DroppedSpans.
const MaxSpans = 32

// SpanSlot is one recorded span: a stage with its start offset (relative
// to the trace start) and duration. Slots are claimed by an atomic
// counter so concurrent shard workers never contend on a lock or tear
// each other's slots.
type SpanSlot struct {
	Stage Stage
	Start int64 // ns since trace start
	Dur   int64 // ns
}

// Trace is the live per-connection recorder. It is reused across
// batches (Begin resets it) and must never be copied — snapshot with
// Finish instead. All methods are allocation-free.
type Trace struct {
	id     uint64
	start  int64
	active bool
	cmd    string
	cmds   uint32
	shards uint32
	stages [NumStages]atomic.Int64
	nspans atomic.Uint32
	spans  [MaxSpans]SpanSlot
}

// traceID hands out process-unique trace IDs.
var traceID atomic.Uint64

// Begin resets the trace for a new batch and arms it. Only the owning
// connection goroutine calls Begin, before any worker can see the trace.
func (t *Trace) Begin() {
	t.id = traceID.Add(1)
	t.start = Now()
	t.active = true
	t.cmd = ""
	t.cmds = 0
	t.shards = 0
	for i := range t.stages {
		t.stages[i].Store(0)
	}
	t.nspans.Store(0)
}

// Active reports whether Begin has armed the trace for the current
// batch. Record sites use the tighter "trace pointer is non-nil"
// convention where they can; Active covers sites that hold the conn.
func (t *Trace) Active() bool { return t != nil && t.active }

// ID returns the trace's process-unique ID (0 before the first Begin).
func (t *Trace) ID() uint64 { return t.id }

// SetCmd records the batch's leading command name; later calls keep the
// first. Owning-goroutine only.
func (t *Trace) SetCmd(name string) {
	if t.cmd == "" {
		t.cmd = name
	}
}

// AddCommands counts commands into the batch. Owning-goroutine only.
func (t *Trace) AddCommands(n int) { t.cmds += uint32(n) }

// AddShard counts a shard the batch dispatched to. Owning-goroutine only.
func (t *Trace) AddShard() { t.shards++ }

// EndStage records one span of stage s that began at startNs (an
// obs.Now() reading). Safe to call from multiple goroutines: the stage
// cell accumulates atomically and the span slot is claimed by an atomic
// counter, each slot written by exactly one claimer.
func (t *Trace) EndStage(s Stage, startNs int64) {
	dur := Now() - startNs
	if dur < 0 {
		dur = 0
	}
	t.stages[s].Add(dur)
	if i := t.nspans.Add(1) - 1; i < MaxSpans {
		t.spans[i] = SpanSlot{Stage: s, Start: startNs - t.start, Dur: dur}
	}
}

// AddStage accumulates a pre-measured duration into stage s without
// claiming a span slot — for sub-spans measured by code that cannot see
// the trace boundaries (the WAL barrier inside a flush).
func (t *Trace) AddStage(s Stage, dur int64) {
	if dur > 0 {
		t.stages[s].Add(dur)
	}
}

// Finish disarms the trace and snapshots it into a plain TraceData. The
// caller (the owning connection goroutine) must have joined every worker
// that could stamp this trace first — the batch WaitGroup provides that
// happens-before edge.
func (t *Trace) Finish() TraceData {
	t.active = false
	d := TraceData{
		ID:      t.id,
		Cmd:     t.cmd,
		Cmds:    t.cmds,
		Shards:  t.shards,
		StartNs: t.start,
		TotalNs: Now() - t.start,
	}
	for i := range d.Stages {
		d.Stages[i] = t.stages[i].Load()
	}
	n := t.nspans.Load()
	if n > MaxSpans {
		d.DroppedSpans = int(n - MaxSpans)
		n = MaxSpans
	}
	d.NSpans = int(n)
	d.Spans = t.spans
	return d
}

// TraceData is a completed trace: a plain, copyable value (no atomics,
// no pointers beyond the command-name string) suitable for the flight
// recorder's fixed rings and for JSON rendering.
type TraceData struct {
	ID           uint64
	Cmd          string
	Cmds         uint32
	Shards       uint32
	StartNs      int64 // obs.Now() timeline (ns since process start)
	TotalNs      int64
	Stages       [NumStages]int64
	NSpans       int
	DroppedSpans int
	Spans        [MaxSpans]SpanSlot
}

// AdjustedStages returns per-stage durations with nesting removed, so
// the stages compare as disjoint time:
//
//   - the WAL barrier runs inside the reply flush (and, when a 16 KiB
//     buffer overflow forces a mid-dispatch flush, inside engine), so
//     its time is subtracted from flush first and any excess from
//     engine;
//   - lock-wait, commit, and WAL-append all run inside the engine span
//     and are subtracted from it.
//
// Unattributed time (total minus every adjusted stage) remains implicit.
func (d *TraceData) AdjustedStages() [NumStages]int64 {
	adj := d.Stages
	barrier := adj[StageWALBarrier]
	if barrier <= adj[StageFlush] {
		adj[StageFlush] -= barrier
	} else {
		adj[StageEngine] -= barrier - adj[StageFlush]
		adj[StageFlush] = 0
	}
	adj[StageEngine] -= adj[StageLockWait] + adj[StageCommit] + adj[StageWALAppend]
	if adj[StageEngine] < 0 {
		adj[StageEngine] = 0
	}
	return adj
}

// Dominant returns the stage the trace spent the most (adjusted) time
// in — the one-word answer to "where did this batch's latency go".
func (d *TraceData) Dominant() Stage {
	adj := d.AdjustedStages()
	best := Stage(0)
	for s := Stage(1); s < NumStages; s++ {
		if adj[s] > adj[best] {
			best = s
		}
	}
	return best
}
