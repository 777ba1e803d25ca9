package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mvrlu/internal/failpoint"
	"mvrlu/internal/obs"
)

// SyncMode selects the logger's durability policy per batch.
type SyncMode int

const (
	// SyncAlways fsyncs every batch before releasing its waiters — the
	// policy under which "acknowledged implies durable" actually holds.
	SyncAlways SyncMode = iota
	// SyncNone skips the fsync: durability degrades to "acknowledged
	// implies in the kernel page cache". A benchmarking mode that
	// isolates the fsync cost; a power loss can drop acked writes.
	SyncNone
)

// ParseSyncMode maps the -wal-sync flag values.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync mode %q (always, none)", s)
}

func (m SyncMode) String() string {
	if m == SyncNone {
		return "none"
	}
	return "always"
}

// Options configures a Log.
type Options struct {
	// Dir is the log directory (created if missing).
	Dir string
	// Sync is the per-batch durability policy (default SyncAlways).
	Sync SyncMode
	// MaxQueueBytes bounds the encoded records waiting for the logger;
	// past it Append blocks until the logger drains (group-commit
	// backpressure). Default 4 MiB.
	MaxQueueBytes int64
	// MaxLiveBytes is the installer trigger: once this many log bytes
	// accumulate since the last snapshot, the installer is poked, and at
	// 4× this the appenders block until it catches up (the log must not
	// outrun the installer without bound). Default 64 MiB. The hard
	// block engages only while an installer is running.
	MaxLiveBytes int64
}

func (o *Options) sanitize() {
	if o.MaxQueueBytes <= 0 {
		o.MaxQueueBytes = 4 << 20
	}
	if o.MaxLiveBytes <= 0 {
		o.MaxLiveBytes = 64 << 20
	}
}

// ErrInjectedCrash is the sticky error after a failpoint-simulated
// logger crash: the Log refuses all further work, exactly as a dead
// process would, and the test re-opens the directory to recover.
var ErrInjectedCrash = errors.New("wal: injected crash")

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: closed")

// DumpFunc feeds the installer's snapshot: it must emit every key/value
// currently in the store, after first making sure that every commit with
// a timestamp ≤ minTS[shard] is visible to its walk (the MV-RLU build
// waits out the ORDO boundary: a just-committed record carries a
// timestamp up to `boundary` in the future of the clock). It returns
// per-shard replay cutoffs, written into the snapshot's meta frame:
// replay skips same-epoch records with ts ≤ cutoff[shard]. The store
// builds return nil — "skip nothing" — because each logs every key in
// commit order (see kvstore.WALCutoffs); replay keeps honouring the
// cutoffs that snapshots written by earlier binaries carry.
type DumpFunc func(minTS map[uint32]uint64, emit func(key, value string) error) (cutoffs map[uint32]uint64, err error)

// Log is the group-committed write-ahead log. One logger goroutine owns
// the segment file; appenders only touch the in-memory queue under mu.
type Log struct {
	opt Options
	dir *os.File // held open for directory fsyncs

	mu        sync.Mutex
	condWork  *sync.Cond // logger waits here for a demand (see demandLocked), a rotation or close
	condSync  *sync.Cond // appenders wait here for durability / rotation done
	condSpace *sync.Cond // appenders wait here for queue drain / installer
	buf       []byte     // encoded frames not yet handed to the logger
	spare     []byte     // recycled batch buffer
	bufRecs   int
	appendSeq uint64
	syncedSeq uint64
	wantSeq   uint64 // highest seq a barrier has asked the logger to sync
	err       error  // sticky: first write/sync error, or injected crash
	closed    bool

	f         *os.File
	segBase   uint64 // current segment number
	epoch     uint64 // this process lifetime's epoch
	syncedOff int64  // durable offset within the current segment
	liveBytes int64  // log bytes since the last completed rotation
	lastTS    map[uint32]uint64
	appends   uint64 // records appended since the last checkpoint
	rotating  bool
	rotateGen uint64

	ckptMu     sync.Mutex // one checkpoint at a time
	loggerDone chan struct{}

	installerStop chan struct{}
	installerDone chan struct{}
	snapReq       chan struct{}

	// counters/gauges for /metrics — atomics so scrapes never take mu.
	records    atomic.Uint64
	bytes      atomic.Uint64
	syncs      atomic.Uint64
	errorsN    atomic.Uint64
	snapshots  atomic.Uint64
	queueBytes atomic.Int64
	liveGauge  atomic.Int64
	fsyncHist  obs.Histogram
	groupHist  obs.Histogram
	// appendWaitHist records how long appenders blocked on condSpace
	// backpressure (logger behind on fsync, installer behind on
	// snapshots) — the queue-wait component of a write's latency that
	// the fsync histogram alone cannot show.
	appendWaitHist obs.Histogram
}

// LogStats is a consistent snapshot of the log's progress counters, for
// the INFO wal section.
type LogStats struct {
	AppendSeq  uint64
	SyncedSeq  uint64
	Records    uint64
	Bytes      uint64
	Syncs      uint64
	Snapshots  uint64
	Errors     uint64
	QueueBytes int64
	LiveBytes  int64
	Segment    uint64
	Epoch      uint64
	Err        error
}

// Stats reads the progress counters.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LogStats{
		AppendSeq:  l.appendSeq,
		SyncedSeq:  l.syncedSeq,
		Records:    l.records.Load(),
		Bytes:      l.bytes.Load(),
		Syncs:      l.syncs.Load(),
		Snapshots:  l.snapshots.Load(),
		Errors:     l.errorsN.Load(),
		QueueBytes: l.queueBytes.Load(),
		LiveBytes:  l.liveBytes,
		Segment:    l.segBase,
		Epoch:      l.epoch,
		Err:        l.err,
	}
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.opt.Dir }

// Err returns the sticky error, if any — the server's degraded-mode
// check: a non-nil Err means writes must be refused, not acked.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// drainBytes caps how much the queue holds before the logger drains it
// unasked (the drain size is min(drainBytes, MaxQueueBytes)). It keeps
// a barrier-free burst — a preload, a replay — streaming to disk in
// bounded batches, and it is the largest buffer the log keeps once its
// queue runs dry.
const drainBytes = 64 << 10

func (l *Log) drainAt() int { return int(min(drainBytes, l.opt.MaxQueueBytes)) }

// Append enqueues one commit record, assigning its sequence number. It
// blocks while the queue is over MaxQueueBytes (the logger is behind on
// fsync) or — with an installer attached — while the live log is over
// 4×MaxLiveBytes (the installer is behind on snapshotting). It neither
// waits for durability nor wakes the logger below the drain size; pair
// it with SyncBarrier before acking. It is AppendGroup of one record.
//
// Append is safe from any goroutine; store commit hooks call it inside
// the commit's writer locks, which is what makes per-key log order equal
// per-key commit order on every store build.
func (l *Log) Append(rec Record) error {
	return l.AppendGroup([]Record{rec})
}

// AppendGroup enqueues one multi-key transaction as an atomic record
// group: every record goes into the queue under ONE lock hold, in
// order, with TxnCont chaining all but the last. Because the logger
// drains the entire queue per batch and rotates only at batch
// boundaries with the queue empty, a group can never split across
// fsync batches or segment files — so after a crash either the whole
// group is on disk or recovery truncates the unterminated remainder
// (scanSegment), and replay can never apply a torn transaction.
func (l *Log) AppendGroup(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	hardLive := 4 * l.opt.MaxLiveBytes
	var wait0 int64
	for l.err == nil && !l.closed &&
		(int64(len(l.buf)) >= l.opt.MaxQueueBytes ||
			(l.installerStop != nil && l.liveBytes >= hardLive)) {
		if wait0 == 0 && obs.Enabled() {
			wait0 = obs.Now()
		}
		l.pokeInstallerLocked()
		// With no barrier pending, nothing else would drain the queue
		// this appender waits on.
		l.condWork.Signal()
		l.condSpace.Wait()
	}
	if wait0 != 0 {
		l.appendWaitHist.Observe(uint64(obs.Now() - wait0))
	}
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	n := len(l.buf)
	for i, rec := range recs {
		rec.TxnCont = i < len(recs)-1
		l.appendSeq++
		rec.Seq = l.appendSeq
		l.buf = rec.appendFrame(l.buf)
		l.bufRecs++
		l.appends++
		if rec.TS > l.lastTS[rec.Shard] {
			l.lastTS[rec.Shard] = rec.TS
		}
	}
	grew := int64(len(l.buf) - n)
	l.liveBytes += grew
	l.records.Add(uint64(len(recs)))
	l.bytes.Add(uint64(grew))
	l.queueBytes.Store(int64(len(l.buf)))
	l.liveGauge.Store(l.liveBytes)
	if l.liveBytes >= l.opt.MaxLiveBytes {
		l.pokeInstallerLocked()
	}
	if len(l.buf) >= l.drainAt() {
		l.condWork.Signal()
	}
	return nil
}

// SyncBarrier blocks until every record appended before the call is
// durable (per the sync mode), or returns the sticky error. It is what
// makes the logger write: it raises wantSeq to the last appended record
// and wakes the logger if that record is not yet synced. The server runs
// it between executing a batch's writes and letting their acks reach
// the socket.
func (l *Log) SyncBarrier() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appendSeq
	if l.syncedSeq < target && l.wantSeq < target {
		l.wantSeq = target
		l.condWork.Signal()
	}
	for l.syncedSeq < target && l.err == nil {
		l.condSync.Wait()
	}
	return l.err
}

// demandLocked reports whether a queued record must be written now: a
// barrier waits on it, or the queue reached the drain size (which every
// appender blocked on MaxQueueBytes implies).
func (l *Log) demandLocked() bool {
	return len(l.buf) > 0 && (l.wantSeq > l.syncedSeq || len(l.buf) >= l.drainAt())
}

// logger is the single goroutine owning the segment file. It sleeps
// until a write is demanded — by a barrier, by the drain size, by a
// rotation or by Close — then drains the whole queue as one batch,
// writes it, syncs once, publishes syncedSeq, and wakes the waiters.
// Appends alone never wake it, so every record a server batch enqueues
// before its barrier shares that barrier's fsync: group commit on
// demand, the write-up-to-what-Flush-asked-for shape of go-journal's
// logger (SNIPPETS.md Snippet 2). Rotation requests are honored at
// batch boundaries only, so a snapshot taken after a rotation provably
// covers every byte of the old segments.
func (l *Log) logger() {
	defer close(l.loggerDone)
	l.mu.Lock()
	for {
		for l.err == nil && !l.closed && !l.rotating && !l.demandLocked() {
			l.condWork.Wait()
		}
		if l.err != nil {
			break
		}
		if len(l.buf) == 0 {
			if l.rotating {
				l.rotateLocked()
				continue
			}
			break // closed and drained
		}
		batch := l.buf
		nrecs := l.bufRecs
		target := l.appendSeq
		l.buf = l.spare[:0]
		l.spare = nil
		l.bufRecs = 0
		l.queueBytes.Store(0)
		l.condSpace.Broadcast()
		l.mu.Unlock()

		err := l.writeAndSync(batch, nrecs)

		l.mu.Lock()
		l.spare = batch[:0]
		if len(l.buf) == 0 {
			// The queue ran dry, so any burst is over: drop buffers it
			// grew past drainAt rather than keep them for the log's
			// lifetime. While it lasts they are recycled, so appenders
			// outpacing the fsync never regrow the queue from empty.
			if cap(l.buf) > l.drainAt() {
				l.buf = nil
			}
			if cap(l.spare) > l.drainAt() {
				l.spare = nil
			}
		}
		if err != nil {
			l.setErrLocked(err)
		} else {
			l.syncedSeq = target
		}
		l.condSync.Broadcast()
	}
	// Sticky error or close: nothing more will be written. Wake everyone
	// so no appender or barrier stays parked.
	l.condSync.Broadcast()
	l.condSpace.Broadcast()
	if l.f != nil {
		l.f.Close()
	}
	l.mu.Unlock()
}

// writeAndSync writes one batch to the current segment and makes it
// durable. Called without mu; the logger is the only writer of l.f. The
// three WAL failpoints carve the batch into its crash windows:
// torn-write (a mid-frame prefix becomes durable), before-fsync (the
// write happened but the "page cache" is lost — the file rolls back to
// the durable offset), after-fsync (durable, but the waiters are never
// released with success).
func (l *Log) writeAndSync(batch []byte, nrecs int) error {
	if failpoint.Enabled() && injectCrash(failpoint.WALTornWrite) {
		tear := len(batch) - 5
		if tear < 1 {
			tear = 1
		}
		l.f.Write(batch[:tear])
		l.f.Sync()
		return ErrInjectedCrash
	}
	if _, err := l.f.Write(batch); err != nil {
		return fmt.Errorf("wal: segment write: %w", err)
	}
	if failpoint.Enabled() && injectCrash(failpoint.WALBeforeFsync) {
		// The batch reached the file but never the platter: roll the
		// file back to the durable prefix, as a power cut would.
		l.f.Truncate(l.syncedOff)
		l.f.Sync()
		return ErrInjectedCrash
	}
	if l.opt.Sync == SyncAlways {
		start := time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		dur := time.Since(start)
		if obs.Enabled() {
			l.fsyncHist.Observe(uint64(dur))
		}
		if obs.TraceEnabled() {
			obs.RecordEvent(obs.EvWALFsync, 0, uint64(dur), uint64(nrecs))
		}
	}
	l.syncs.Add(1)
	if obs.Enabled() {
		l.groupHist.Observe(uint64(nrecs))
	}
	l.syncedOff += int64(len(batch))
	if failpoint.Enabled() && injectCrash(failpoint.WALAfterFsync) {
		return ErrInjectedCrash
	}
	return nil
}

// injectCrash evaluates a WAL failpoint armed with the panic action and
// reports whether it fired, converting the injected panic into a crash
// decision instead of unwinding the logger.
func injectCrash(p failpoint.Point) (fired bool) {
	defer func() {
		if r := recover(); r != nil {
			if failpoint.IsInjected(r) {
				fired = true
				return
			}
			panic(r)
		}
	}()
	failpoint.Inject(p)
	return false
}

func (l *Log) setErrLocked(err error) {
	if l.err == nil {
		l.err = err
		l.errorsN.Add(1)
	}
	l.condSync.Broadcast()
	l.condSpace.Broadcast()
	l.condWork.Broadcast()
}

// rotateLocked opens the next segment (same epoch — rotation happens
// within one process lifetime) and retires the old file. Runs on the
// logger with mu held and the queue empty, so every enqueued record is
// already in the old segments when the new one starts.
func (l *Log) rotateLocked() {
	nf, err := createSegment(l.opt.Dir, l.segBase+1, l.epoch)
	if err != nil {
		l.rotating = false
		l.rotateGen++
		l.setErrLocked(err)
		return
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		l.rotating = false
		l.rotateGen++
		l.setErrLocked(err)
		return
	}
	l.f.Close()
	l.f = nf
	l.segBase++
	l.syncedOff = segHeaderLen
	l.liveBytes = 0
	l.liveGauge.Store(0)
	// The rotation is the dirty-tracking watershed: everything enqueued
	// before it lands in the pruned segments the upcoming snapshot covers,
	// everything after is new work for the NEXT pass. Zeroing here (not in
	// Checkpoint, which reacquires mu later) keeps the count in lockstep
	// with liveBytes — an appender that refills the log between this
	// rotation and Checkpoint's reacquisition must not have its appends
	// erased, or the installer would skip the pass that unblocks it.
	l.appends = 0
	l.rotating = false
	l.rotateGen++
	l.condSync.Broadcast()
	l.condSpace.Broadcast()
}

// Checkpoint runs one installer pass: rotate to a fresh segment, dump
// the store into a snapshot covering everything up to the rotation, and
// prune the segments (and older snapshots) the new snapshot supersedes.
// Appends continue concurrently throughout — only the rotation itself
// synchronizes with the logger, at a batch boundary.
//
// Correctness: every record enqueued before the rotation completed lives
// in a pruned segment, and each such record's store mutation
// happened-before its enqueue (hooks run at commit). The dump begins
// after the rotation, so with the minTS visibility wait its walk
// observes every one of those mutations; nothing pruned is lost.
func (l *Log) Checkpoint(dump DumpFunc) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	minTS := make(map[uint32]uint64, len(l.lastTS))
	for sh, ts := range l.lastTS {
		minTS[sh] = ts
	}
	epoch := l.epoch
	l.rotating = true
	gen := l.rotateGen
	l.condWork.Broadcast()
	for l.rotateGen == gen && l.err == nil {
		l.condSync.Wait()
	}
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	snapBase := l.segBase
	l.mu.Unlock()

	if err := writeSnapshot(l.opt.Dir, l.dir, snapBase, epoch, minTS, dump); err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.snapshots.Add(1)
	if err := prune(l.opt.Dir, l.dir, snapBase); err != nil {
		return fmt.Errorf("wal: prune: %w", err)
	}
	return nil
}

// StartInstaller runs the snapshot/truncation loop in the background:
// every interval, and whenever the live log crosses MaxLiveBytes, it
// checkpoints — if anything was appended since the last pass. onErr
// (optional) observes checkpoint failures; the log keeps running and the
// next tick retries.
func (l *Log) StartInstaller(interval time.Duration, dump DumpFunc, onErr func(error)) {
	l.mu.Lock()
	if l.installerStop != nil || l.closed {
		l.mu.Unlock()
		return
	}
	l.installerStop = make(chan struct{})
	l.installerDone = make(chan struct{})
	stop, done := l.installerStop, l.installerDone
	l.mu.Unlock()

	go func() {
		defer close(done)
		var tick <-chan time.Time
		if interval > 0 {
			t := time.NewTicker(interval)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-stop:
				return
			case <-tick:
			case <-l.snapReq:
			}
			l.mu.Lock()
			// liveBytes is checked as well as appends so a log reopened
			// over a large recovered tail (bytes but no appends yet) still
			// gets compacted — and can never strand an appender parked on
			// the hard-live backpressure gate.
			dirty := l.appends > 0 || l.liveBytes >= l.opt.MaxLiveBytes
			l.mu.Unlock()
			if !dirty {
				continue
			}
			if err := l.Checkpoint(dump); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}()
}

// pokeInstallerLocked nudges the installer without blocking.
func (l *Log) pokeInstallerLocked() {
	select {
	case l.snapReq <- struct{}{}:
	default:
	}
}

// Close stops the installer, drains and syncs the remaining queue, and
// closes the files. Safe to call once; Append/Checkpoint after Close
// return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	stop, done := l.installerStop, l.installerDone
	l.installerStop = nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}

	l.mu.Lock()
	l.closed = true
	err := l.err
	l.condWork.Broadcast()
	l.mu.Unlock()
	<-l.loggerDone
	if l.dir != nil {
		l.dir.Close()
	}
	if err != nil && !errors.Is(err, ErrInjectedCrash) {
		return err
	}
	return nil
}

// RegisterMetrics exposes the log's observability under the wal_ prefix:
// the fsync-latency and group-size histograms, the queue-depth and
// live-bytes gauges, and the progress counters — wal_errors_total is the
// one operators alert on (non-zero means the server is in degraded mode,
// refusing writes).
func (l *Log) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("wal_records_total", "commit records appended", l.records.Load)
	reg.Counter("wal_bytes_total", "encoded record bytes appended", l.bytes.Load)
	reg.Counter("wal_syncs_total", "logger batches made durable", l.syncs.Load)
	reg.Counter("wal_snapshots_total", "installer snapshots completed", l.snapshots.Load)
	reg.Counter("wal_errors_total", "sticky log failures (degraded mode)", l.errorsN.Load)
	reg.Gauge("wal_queue_depth_bytes", "encoded bytes waiting for the logger",
		func() float64 { return float64(l.queueBytes.Load()) })
	reg.Gauge("wal_live_bytes", "log bytes since the last snapshot",
		func() float64 { return float64(l.liveGauge.Load()) })
	reg.Histogram("wal_fsync_ns", "per-batch fsync latency in nanoseconds",
		l.fsyncHist.Snapshot)
	reg.Histogram("wal_group_records", "records per group-committed batch",
		l.groupHist.Snapshot)
	reg.Histogram("wal_append_wait_ns", "appender backpressure wait in nanoseconds",
		l.appendWaitHist.Snapshot)
}

// --- segment files ---

const (
	segMagic     = "MVRLUWAL"
	segVersion   = 1
	segHeaderLen = 8 + 4 + 8 // magic, version, epoch
)

func segName(base uint64) string { return fmt.Sprintf("wal-%016x.log", base) }

func createSegment(dir string, base, epoch uint64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(base)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, segVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, epoch)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(dir *os.File) error {
	if dir == nil {
		return nil
	}
	return dir.Sync()
}
