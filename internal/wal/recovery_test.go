package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mvrlu/internal/failpoint"
)

// segFiles lists the directory's segment files in base order.
func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestRecoverEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir)
	if !rec.Empty() {
		t.Fatalf("fresh dir: %+v", rec)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A second lifetime that also wrote nothing: still empty, epochs still
	// advance (the header-only segments carry them).
	l2, rec2 := openT(t, dir)
	if !rec2.Empty() || rec2.Epoch != 2 {
		t.Fatalf("reopen of empty log: %+v", rec2)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSnapshotOnly(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	a := newMapApplier()
	for _, kv := range [][2]string{{"x", "1"}, {"y", "2"}, {"z", "3"}} {
		a.Set(kv[0], kv[1])
		appendT(t, l, 1, kv[0], kv[1])
	}
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(a.dump); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.SnapshotKeys != 3 || rec.Records != 0 {
		t.Fatalf("snapshot-only recovery: %+v", rec)
	}
	b := newMapApplier()
	rec.Apply(b)
	if !reflect.DeepEqual(a.m, b.m) {
		t.Fatalf("recovered %v, want %v", b.m, a.m)
	}
}

func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "a", "1")
	appendT(t, l, 2, "b", "2")
	appendT(t, l, 3, "c", "3")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop bytes off the final frame, as a crash mid-write
	// would. Recovery must truncate it and keep the intact prefix.
	segs := segFiles(t, dir)
	seg := segs[len(segs)-1]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	if rec.Records != 2 || rec.TornBytes == 0 {
		t.Fatalf("torn-tail recovery: %+v", rec)
	}
	a := newMapApplier()
	rec.Apply(a)
	if len(a.m) != 2 || a.m["b"] != "2" {
		t.Fatalf("recovered %v", a.m)
	}
	if _, ok := a.m["c"]; ok {
		t.Fatal("torn record c must not be replayed")
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// The truncation is physical: the next recovery sees a clean tail.
	l3, rec3 := openT(t, dir)
	defer l3.Close()
	if rec3.Records != 2 || rec3.TornBytes != 0 {
		t.Fatalf("second recovery after torn truncation: %+v", rec3)
	}
}

func TestRecoverRefusesCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "a", "1")
	appendT(t, l, 2, "b", "2")
	appendT(t, l, 3, "c", "3")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte inside the FIRST frame — a complete frame with
	// a CRC mismatch, not a torn tail. Recovery must refuse, loudly:
	// records past the flip may be acknowledged writes.
	segs := segFiles(t, dir)
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+8+9] ^= 0xff // inside the first frame's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("Open on corrupt middle: %v, want CRC refusal", err)
	}
	// Refusal must not mutate the directory: a second attempt fails the
	// same way (no silent truncation of acknowledged data).
	_, _, err2 := Open(Options{Dir: dir})
	if err2 == nil || !strings.Contains(err2.Error(), "CRC mismatch") {
		t.Fatalf("second Open on corrupt middle: %v", err2)
	}
}

func TestReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "k", "v1")
	appendT(t, l, 2, "k", "v2")
	if err := l.Append(Record{TS: 3, Del: true, Key: "gone"}); err != nil {
		t.Fatal(err)
	}
	appendT(t, l, 4, "k2", "x")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	defer l2.Close()
	a, b := newMapApplier(), newMapApplier()
	rec.Apply(a)
	rec.Apply(b) // same Recovery replayed twice
	if !reflect.DeepEqual(a.m, b.m) {
		t.Fatalf("two replays diverge: %v vs %v", a.m, b.m)
	}
	rec.Apply(a) // and replaying on top of an already-recovered store
	if !reflect.DeepEqual(a.m, b.m) {
		t.Fatalf("replay on top of recovered state diverges: %v vs %v", a.m, b.m)
	}
	if a.m["k"] != "v2" || a.m["k2"] != "x" || len(a.m) != 2 {
		t.Fatalf("recovered state %v", a.m)
	}
}

func TestEpochOrdersAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	// Lifetime 1 commits k at a HIGH raw timestamp; lifetime 2's clock
	// restarts and commits k at a LOW one. The later lifetime must win —
	// replay orders by (epoch, ts), never raw ts across epochs.
	l1, _ := openT(t, dir)
	appendT(t, l1, 1000, "k", "old-lifetime")
	if err := l1.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec2 := openT(t, dir)
	if rec2.Records != 1 {
		t.Fatalf("lifetime 2 recovery: %+v", rec2)
	}
	appendT(t, l2, 1, "k", "new-lifetime")
	if err := l2.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	l3, rec3 := openT(t, dir)
	defer l3.Close()
	a := newMapApplier()
	rec3.Apply(a)
	if a.m["k"] != "new-lifetime" {
		t.Fatalf("k = %q: later epoch lost to a higher raw timestamp", a.m["k"])
	}
}

// frameStarts walks a segment's frames and returns the file offset of
// each frame start, plus the clean end offset as the final element.
func frameStarts(t *testing.T, path string) []int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int{}
	off := segHeaderLen
	for off < len(data) {
		offs = append(offs, off)
		_, next, res := readFrame(data, off)
		if res != frameOK {
			t.Fatalf("frame at %d: result %d", off, res)
		}
		off = next
	}
	return append(offs, off)
}

func appendGroupT(t *testing.T, l *Log, ts uint64, keys ...string) {
	t.Helper()
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = Record{TS: ts, Key: k, Value: "g" + k}
	}
	if err := l.AppendGroup(recs); err != nil {
		t.Fatal(err)
	}
}

func TestGroupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "a", "1")
	appendGroupT(t, l, 2, "b", "c", "d")
	appendT(t, l, 3, "e", "5")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	defer l2.Close()
	if rec.Records != 5 || rec.TornBytes != 0 {
		t.Fatalf("group round-trip recovery: %+v", rec)
	}
	a := newMapApplier()
	rec.Apply(a)
	want := map[string]string{"a": "1", "b": "gb", "c": "gc", "d": "gd", "e": "5"}
	if !reflect.DeepEqual(a.m, want) {
		t.Fatalf("recovered %v, want %v", a.m, want)
	}
}

func TestGroupTornTailDropsWholeGroup(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "a", "1")
	appendGroupT(t, l, 2, "b", "c", "d")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the LAST frame of the group mid-write. The group's fsync never
	// returned, so nothing in it was acknowledged — recovery must drop
	// ALL THREE records back to the group's first frame, not just the
	// torn one: replaying b and c without d would be a torn transaction.
	seg := segFiles(t, dir)[0]
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	if rec.Records != 1 || rec.TornBytes == 0 {
		t.Fatalf("torn-group recovery: %+v", rec)
	}
	a := newMapApplier()
	rec.Apply(a)
	if !reflect.DeepEqual(a.m, map[string]string{"a": "1"}) {
		t.Fatalf("recovered %v, want only a", a.m)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// The truncation is physical and the next lifetime sees a clean tail.
	l3, rec3 := openT(t, dir)
	defer l3.Close()
	if rec3.Records != 1 || rec3.TornBytes != 0 {
		t.Fatalf("second recovery after torn group: %+v", rec3)
	}
}

func TestGroupUnterminatedAtCleanEOF(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "a", "1")
	appendGroupT(t, l, 2, "b", "c", "d")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Remove exactly the group's closing frame: the segment now ends
	// cleanly on a frame whose TxnCont flag is set. That is the same
	// crash artifact as a torn frame (the batch tore at a frame
	// boundary) and the whole group must go.
	seg := segFiles(t, dir)[0]
	offs := frameStarts(t, seg)
	if err := os.Truncate(seg, int64(offs[len(offs)-2])); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	if rec.Records != 1 || rec.TornBytes == 0 {
		t.Fatalf("unterminated-group recovery: %+v", rec)
	}
	a := newMapApplier()
	rec.Apply(a)
	if !reflect.DeepEqual(a.m, map[string]string{"a": "1"}) {
		t.Fatalf("recovered %v, want only a", a.m)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupNeverAckedWhenTorn(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendT(t, l, 1, "a", "1")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	// Arm the torn-write failpoint: the logger's next batch write loses
	// its last bytes and the "process" dies. The barrier covering the
	// group must report the failure — never an ack — and recovery must
	// replay none of the group.
	if err := failpoint.Enable(failpoint.WALTornWrite.Name()+"=panic", 0); err != nil {
		t.Fatal(err)
	}
	appendGroupT(t, l, 2, "b", "c", "d")
	if err := l.SyncBarrier(); err == nil {
		t.Fatal("barrier over a torn group batch must fail, not ack")
	}
	failpoint.Reset()

	l2, rec := openT(t, dir)
	defer l2.Close()
	a := newMapApplier()
	rec.Apply(a)
	if !reflect.DeepEqual(a.m, map[string]string{"a": "1"}) {
		t.Fatalf("recovered %v: torn group partially replayed", a.m)
	}
}

func TestGroupRefusesMidLogUnterminated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	appendGroupT(t, l, 1, "b", "c", "d")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Leave segment 1 ending mid-group, then fabricate a later segment so
	// the unterminated group sits in a NON-final segment. Groups are
	// enqueued contiguously and rotation happens only at batch
	// boundaries, so this cannot be a crash artifact — recovery must
	// refuse rather than silently truncate records mid-log.
	seg := segFiles(t, dir)[0]
	offs := frameStarts(t, seg)
	if err := os.Truncate(seg, int64(offs[len(offs)-2])); err != nil {
		t.Fatal(err)
	}
	f, err := createSegment(dir, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "unterminated transaction group") {
		t.Fatalf("Open on mid-log unterminated group: %v, want refusal", err)
	}
}

func TestSnapshotCutoffSkipsCoveredRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir)
	// Snapshots written by earlier binaries carry per-shard cutoffs
	// (their vanilla builds logged after unlocking, so a record could be
	// enqueued after a dump already walked its mutation). Replay must
	// still skip same-epoch records at or below them and keep everything
	// above.
	dump := func(minTS map[uint32]uint64, emit func(k, v string) error) (map[uint32]uint64, error) {
		if err := emit("k", "snapval"); err != nil {
			return nil, err
		}
		return map[uint32]uint64{0: 10}, nil
	}
	if err := l.Checkpoint(dump); err != nil {
		t.Fatal(err)
	}
	appendT(t, l, 5, "k", "stale-below-cutoff") // snapshot already reflects this
	appendT(t, l, 15, "k2", "fresh")
	if err := l.SyncBarrier(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir)
	defer l2.Close()
	a := newMapApplier()
	rec.Apply(a)
	if a.m["k"] != "snapval" {
		t.Fatalf("k = %q: record under the cutoff was replayed over the snapshot", a.m["k"])
	}
	if a.m["k2"] != "fresh" {
		t.Fatalf("k2 = %q: record above the cutoff was skipped", a.m["k2"])
	}
}
