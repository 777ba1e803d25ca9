package wal

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mvrlu/internal/failpoint"
	"mvrlu/internal/obs"
)

// mapApplier is the reference store for replay tests: last-writer-wins
// over a plain map.
type mapApplier struct {
	mu sync.Mutex
	m  map[string]string
}

func newMapApplier() *mapApplier { return &mapApplier{m: map[string]string{}} }

func (a *mapApplier) Set(key, value string) {
	a.mu.Lock()
	a.m[key] = value
	a.mu.Unlock()
}

func (a *mapApplier) Remove(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.m[key]
	delete(a.m, key)
	return ok
}

// mapDump adapts a mapApplier to the installer's DumpFunc; cutoffs nil
// (the map "store" applies mutations before the hook would run, like the
// engine builds).
func (a *mapApplier) dump(minTS map[uint32]uint64, emit func(k, v string) error) (map[uint32]uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for k, v := range a.m {
		if err := emit(k, v); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func openT(t *testing.T, dir string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func appendT(t *testing.T, l *Log, ts uint64, key, value string) {
	t.Helper()
	if err := l.Append(Record{TS: ts, Key: key, Value: value}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendBarrierReopen(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir)
	if !rec.Empty() {
		t.Fatalf("fresh dir not empty: %+v", rec)
	}
	for i := 0; i < 100; i++ {
		appendT(t, l, uint64(i+1), fmt.Sprintf("k%03d", i%10), fmt.Sprintf("v%d", i))
	}
	if err := l.Append(Record{TS: 101, Del: true, Key: "k000"}); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Records != 101 || st.SyncedSeq != st.AppendSeq {
		t.Fatalf("stats after barrier: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openT(t, dir)
	defer l2.Close()
	if rec2.Records != 101 || rec2.TornBytes != 0 {
		t.Fatalf("reopen recovery: %+v", rec2)
	}
	a := newMapApplier()
	rec2.Apply(a)
	if len(a.m) != 9 { // k000 deleted
		t.Fatalf("replayed %d keys, want 9", len(a.m))
	}
	if a.m["k009"] != "v99" {
		t.Fatalf("k009 = %q, want v99 (last writer)", a.m["k009"])
	}
	if _, ok := a.m["k000"]; ok {
		t.Fatal("k000 survived its delete")
	}
	// Epochs advance monotonically across process lifetimes.
	if rec2.Epoch != 2 {
		t.Fatalf("second lifetime epoch = %d, want 2", rec2.Epoch)
	}
}

func TestGroupCommitBatches(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	defer l.Close()

	// Concurrent appenders all waiting on one barrier: the logger must
	// batch multiple records per fsync (syncs strictly less than records
	// is not guaranteed on a fast disk, but every record must be durable
	// and the group histogram must account for all of them).
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(Record{TS: uint64(w*per + i + 1), Key: fmt.Sprintf("w%dk%d", w, i), Value: "v"}); err != nil {
					t.Error(err)
					return
				}
				if err := l.SyncBarrier(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Records != writers*per {
		t.Fatalf("records = %d, want %d", st.Records, writers*per)
	}
	if st.SyncedSeq != st.AppendSeq {
		t.Fatalf("synced %d < appended %d after all barriers", st.SyncedSeq, st.AppendSeq)
	}
	if st.Syncs == 0 || st.Syncs > st.Records {
		t.Fatalf("syncs = %d out of range (records %d)", st.Syncs, st.Records)
	}
}

func TestQueueBackpressure(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, MaxQueueBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Values near the queue bound force Append to block on the logger's
	// drain; everything must still land durably.
	big := strings.Repeat("x", 200)
	for i := 0; i < 50; i++ {
		appendT(t, l, uint64(i+1), fmt.Sprintf("k%d", i), big)
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Records != 50 {
		t.Fatalf("records = %d, want 50", st.Records)
	}
}

// TestAppendsWaitForBarrier: appends alone never start a write; the
// barrier after them makes all of them durable under exactly one fsync.
func TestAppendsWaitForBarrier(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	l, _ := openT(t, t.TempDir())
	defer l.Close()
	syncs0 := l.Stats().Syncs
	const n = 20
	for i := 0; i < n; i++ {
		appendT(t, l, uint64(i+1), fmt.Sprintf("k%d", i), "v")
	}
	// Room for a logger woken by Append to have synced, were it woken.
	time.Sleep(20 * time.Millisecond)
	if st := l.Stats(); st.Syncs != syncs0 || st.SyncedSeq == st.AppendSeq {
		t.Fatalf("appends without a barrier were synced: %+v", st)
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Syncs != syncs0+1 || st.SyncedSeq != st.AppendSeq {
		t.Fatalf("barrier over %d appends: syncs %d → %d, stats %+v", n, syncs0, st.Syncs, st)
	}
	if g := l.groupHist.Snapshot(); g.Count() != 1 || g.Sum != n {
		t.Fatalf("group histogram: %d batches, %d records; want 1 batch of %d", g.Count(), g.Sum, n)
	}
}

// TestBlockedAppenderDrains: with no barrier ever issued, an appender
// blocked on MaxQueueBytes must still get the queue drained.
func TestBlockedAppenderDrains(t *testing.T) {
	l, _, err := Open(Options{Dir: t.TempDir(), MaxQueueBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	val := strings.Repeat("x", 200)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			if err := l.Append(Record{TS: uint64(i + 1), Key: fmt.Sprintf("k%d", i), Value: val}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("appenders stuck on backpressure with no barrier: %+v", l.Stats())
	}
	if st := l.Stats(); st.Records != 50 || st.Syncs == 0 {
		t.Fatalf("stats after blocked appends: %+v", st)
	}
}

// TestCloseSyncsUnbarrieredRecords: Close is a drain point — records no
// barrier asked for still reach the segment.
func TestCloseSyncsUnbarrieredRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	const n = 30
	for i := 0; i < n; i++ {
		appendT(t, l, uint64(i+1), fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	appendGroupT(t, l, n+1, "ga", "gb")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.Records != n+2 || rec.TornBytes != 0 {
		t.Fatalf("recovery after Close with no barrier: %+v", rec)
	}
	a := newMapApplier()
	rec.Apply(a)
	if len(a.m) != n+2 || a.m["k29"] != "v29" || a.m["gb"] != "ggb" {
		t.Fatalf("recovered %d keys: %v", len(a.m), a.m)
	}
}

// TestCheckpointCoversUnbarrieredRecords: a rotation is a drain point,
// so records no barrier asked for land in the segments the snapshot
// supersedes, not in the segment after it.
func TestCheckpointCoversUnbarrieredRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	a := newMapApplier()
	const n = 30
	for i := 0; i < n; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		a.Set(k, v)
		appendT(t, l, uint64(i+1), k, v)
	}
	if err := l.Checkpoint(a.dump); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncedSeq != st.AppendSeq {
		t.Fatalf("checkpoint left records unsynced: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.SnapshotKeys != n || rec.Records != 0 {
		t.Fatalf("snapshot keys %d, replay records %d; want %d, 0", rec.SnapshotKeys, rec.Records, n)
	}
	b := newMapApplier()
	rec.Apply(b)
	if !reflect.DeepEqual(a.m, b.m) {
		t.Fatalf("recovered %d keys, want %d", len(b.m), len(a.m))
	}
}

// TestBurstBuffersReleased: a burst that grows the queue far past the
// drain size must not pin its buffers for the log's lifetime.
func TestBurstBuffersReleased(t *testing.T) {
	defer failpoint.Reset()
	l, _ := openT(t, t.TempDir())
	defer l.Close()
	// Hold every fsync so the queue fills toward MaxQueueBytes (4 MiB)
	// while the logger is busy with the batch before it.
	if err := failpoint.Enable(failpoint.WALBeforeFsync.Name()+"=sleep(5ms)", 0); err != nil {
		t.Fatal(err)
	}
	val := strings.Repeat("x", 4<<10)
	for i := 0; i < 1024; i++ {
		appendT(t, l, uint64(i+1), fmt.Sprintf("k%d", i), val)
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	failpoint.Reset()
	l.mu.Lock()
	held := cap(l.buf) + cap(l.spare)
	l.mu.Unlock()
	if held > 2*l.drainAt() {
		t.Fatalf("after a 4 MiB burst the log retains %d buffer bytes, want ≤ %d", held, 2*l.drainAt())
	}
}

func TestCheckpointPrunesAndBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	a := newMapApplier()
	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		a.Set(k, v) // the "store" applies first, as a commit hook would see
		appendT(t, l, uint64(i+1), k, v)
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(a.dump); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint writes land in the new segment and survive next to
	// the snapshot.
	a.Set("late", "yes")
	appendT(t, l, 21, "late", "yes")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.SnapshotKeys != 20 {
		t.Fatalf("snapshot keys = %d, want 20", rec.SnapshotKeys)
	}
	if rec.Records != 1 {
		t.Fatalf("replay records = %d, want 1 (only the post-checkpoint write)", rec.Records)
	}
	b := newMapApplier()
	rec.Apply(b)
	if len(b.m) != 21 || b.m["late"] != "yes" {
		t.Fatalf("recovered %d keys, late=%q", len(b.m), b.m["late"])
	}
}

func TestInstallerTriggersOnSize(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, MaxLiveBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := newMapApplier()
	l.StartInstaller(0, a.dump, func(err error) { t.Error(err) }) // size-triggered only

	for i := 0; i < 200; i++ {
		k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)
		a.Set(k, v)
		appendT(t, l, uint64(i+1), k, v)
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Snapshots == 0 {
		if time.Now().After(deadline) {
			t.Fatal("installer never snapshotted past MaxLiveBytes")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{TS: 1, Key: "k"}); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestParseSyncMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncMode
		err  bool
	}{
		{"always", SyncAlways, false},
		{"", SyncAlways, false},
		{"none", SyncNone, false},
		{"maybe", 0, true},
	} {
		got, err := ParseSyncMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseSyncMode(%q) = %v, %v", tc.in, got, err)
		}
	}
}
