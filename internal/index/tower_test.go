package index

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/rlu"
)

// unitTowers is a rand.Source under which randHeight always draws 1.
type unitTowers struct{}

func (unitTowers) Int63() int64 { return math.MaxInt64 }
func (unitTowers) Seed(int64)   {}

// skiplistOf returns the writer half of an engine skiplist build, nil
// for vanilla-idx.
func skiplistOf(s kvstore.Store) *skiplist {
	switch st := s.(type) {
	case *MVIndex:
		return &st.skiplist
	case *RLUIndex:
		return &st.skiplist
	}
	return nil
}

// TestNodeSize is the counted cost of an index node, in the pattern of
// kvstore's TestObjectSize: key, value, level-0 link and the up slice
// header behind the engine's object header. A node's upper levels are
// in its own up array (8 B a level, none at height 1); an MV-RLU log
// slot holding a node is core's 72-B version header plus mvNode.
func TestNodeSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"core.Object[mvNode]", unsafe.Sizeof(core.Object[mvNode]{}), 80},
		{"rlu.Object[rNode]", unsafe.Sizeof(rlu.Object[rNode]{}), 72},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d B, want %d", c.name, c.got, c.want)
		}
	}
}

// TestInsertAllocs is the counted cost of a fresh-key insert, over that
// of an update-Set, which like each insert here locks one object (the
// rest is the engine's per-commit bookkeeping: 0 on MV-RLU, 3 on RLU).
// At height 1 the insert allocates the node only. At maxHeight, into an
// index whose predecessors are all the head, it allocates the node, its
// up array and ONE clone of the head's up: a locked predecessor is
// cloned once per splice, not once per level it links.
func TestInsertAllocs(t *testing.T) {
	const runs = 200
	for _, build := range []string{"mvrlu-idx", "rlu-idx"} {
		for _, c := range []struct {
			name string
			src  rand.Source
			want float64
		}{
			{"height1", unitTowers{}, 1},
			{"maxHeight", maxTowers{}, 3},
		} {
			t.Run(build+"/"+c.name, func(t *testing.T) {
				s := newStore(t, build)
				sess := ordered(t, s)
				sess.Set("z", "v")
				update := testing.AllocsPerRun(runs, func() { sess.Set("z", "w") })
				// Descending keys below "z": each sorts first, so at
				// maxHeight every predecessor is the head.
				keys := make([]string, runs+1)
				for i := range keys {
					keys[i] = fmt.Sprintf("k%04d", len(keys)-i)
				}
				skiplistOf(s).rng = rand.New(c.src)
				i := 0
				insert := testing.AllocsPerRun(runs, func() {
					sess.Set(keys[i], "v")
					i++
				})
				t.Logf("%s %s: %v allocs per insert, %v per update-Set", build, c.name, insert, update)
				if got := insert - update; got != c.want {
					t.Errorf("an insert allocates %v more than an update-Set, want %v", got, c.want)
				}
			})
		}
	}
}

// cowView is what TestTowerCopyOnWrite reads of one session's skiplist
// tower, inside that session's own critical sections.
type cowView[P comparable] struct {
	tw tower
	// find is findPreds: the first level-0 node with key >= key, and
	// whether its key is key.
	find func(key string, preds *[maxHeight]P) (at P, hit bool)
	// tower is the head's links as the open section sees them.
	tower func() links[P]
}

func mvView(sess kvstore.Session) cowView[*core.Object[mvNode]] {
	tw := sess.(*session).tw.(*mvTower)
	return cowView[*core.Object[mvNode]]{
		tw: tw,
		find: func(key string, preds *[maxHeight]*core.Object[mvNode]) (*core.Object[mvNode], bool) {
			at, d := tw.findPreds(key, preds)
			return at, at != nil && d.key == key
		},
		tower: func() links[*core.Object[mvNode]] { return tw.h.Deref(tw.head).links },
	}
}

func rluView(sess kvstore.Session) cowView[*rlu.Object[rNode]] {
	tw := sess.(*session).tw.(*rluTower)
	return cowView[*rlu.Object[rNode]]{
		tw: tw,
		find: func(key string, preds *[maxHeight]*rlu.Object[rNode]) (*rlu.Object[rNode], bool) {
			at, d := tw.findPreds(key, preds)
			return at, at != nil && d.key == key
		},
		tower: func() links[*rlu.Object[rNode]] { return tw.h.Deref(tw.head).links },
	}
}

// TestTowerCopyOnWrite pins the rule that an up array is never written
// once a version or master can reach it. A section opened before an
// insert that links the head at every level must see none of it: not
// through findPreds, and not in the head's up array it read before the
// commit, whose entries must stay as they were. A splice that stored
// into the up array its locked copy shares with the head's committed
// version would show the new node at every upper level to that section.
func TestTowerCopyOnWrite(t *testing.T) {
	t.Run("mvrlu-idx", func(t *testing.T) { checkTowerCOW(t, "mvrlu-idx", mvView) })
	t.Run("rlu-idx", func(t *testing.T) { checkTowerCOW(t, "rlu-idx", rluView) })
}

func checkTowerCOW[P comparable](t *testing.T, build string, view func(kvstore.Session) cowView[P]) {
	s := newStore(t, build)
	writer := ordered(t, s)
	for i := 1; i <= 8; i++ { // default heights: some of the head's upper levels are set
		writer.Set(fmt.Sprintf("k%d", i), "v")
	}
	old, poll, fresh := view(ordered(t, s)), view(ordered(t, s)), view(ordered(t, s))

	old.tw.ReadLock()
	before := old.tower()
	want := slices.Clone(before.up)

	// "a" sorts first on a maxHeight tower, so the head is its
	// predecessor at every level and the splice writes all of them.
	skiplistOf(s).rng = rand.New(maxTowers{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		writer.Set("a", "new")
	}()
	// An RLU commit waits for the open section; it is visible to a new
	// section once stamped, which is where the commit then waits.
	var preds [maxHeight]P
	var node P
	for {
		poll.tw.ReadLock()
		at, hit := poll.find("a", &preds)
		poll.tw.ReadUnlock()
		if hit {
			node = at
			break
		}
		runtime.Gosched()
	}

	for _, key := range []string{"a", "k8", "k9"} {
		at, hit := old.find(key, &preds)
		if key == "a" && hit || at == node {
			t.Errorf("the open section's findPreds(%q) returns the node inserted after it began", key)
		}
		var levels []int
		for l, p := range preds {
			if p == node {
				levels = append(levels, l)
			}
		}
		if levels != nil {
			t.Errorf("the open section's findPreds(%q) has the new node as its predecessor at levels %v", key, levels)
		}
	}
	if got := old.tower().up; !slices.Equal(got, want) {
		t.Errorf("the open section's head tower changed under it: %v, was %v", got, want)
	}
	if !slices.Equal(before.up, want) {
		t.Errorf("the head's committed up array was written: %v, was %v", before.up, want)
	}
	old.tw.ReadUnlock()
	<-done

	// The premise: the insert did link the head at every level.
	fresh.tw.ReadLock()
	defer fresh.tw.ReadUnlock()
	if at, hit := fresh.find("a", &preds); !hit || at != node {
		t.Fatalf("a fresh section does not find the insert")
	}
	if h := fresh.tower(); h.next != node || slices.ContainsFunc(h.up, func(p P) bool { return p != node }) {
		t.Fatalf("the insert is not linked at every head level: next %v, up %v", h.next, h.up)
	}
}
