package figures

import (
	"math"
	"regexp"
	"strconv"
	"testing"
	"time"

	"mvrlu/internal/db"
	"mvrlu/internal/ds"
	"mvrlu/internal/kvstore"
)

var (
	titleItems  = regexp.MustCompile(`(\d+)(K?) (?:items|rows|records)`)
	titleUpdate = regexp.MustCompile(`(\d+)% update|\((\d+)%\)`)
)

// TestEveryCell runs every cell of every figure once, at shrunken sizes,
// and checks that the catalogue covers every build and that each title's
// item count and update percentage are the ones its cells run.
func TestEveryCell(t *testing.T) {
	built := map[string]bool{}
	for _, f := range All(Params{Threads: []int{1}, Duration: 5 * time.Millisecond, Shrink: 100}) {
		for _, tab := range f.Tables {
			checkTitle(t, tab.Title, tab.Cells, true)
			if tab.AuxTitle != "" {
				checkTitle(t, tab.AuxTitle, tab.Cells, false)
			}
			for _, c := range tab.Cells {
				built[c.Build] = true
				s := c.Run()
				v := tab.Metric.Of(s)
				if math.IsNaN(v) || v < 0 || s.AbortRatio < 0 || s.AbortRatio > 1 {
					t.Errorf("%s %s/%s: implausible sample %+v", f.ID, tab.Name, c.Name, s)
				}
				if tab.Metric.Unit != "abort-ratio" && v == 0 {
					t.Errorf("%s %s/%s: measured nothing", f.ID, tab.Name, c.Name)
				}
			}
		}
	}
	var names []string
	names = append(names, ds.Names()...)
	names = append(names, db.AllEngineNames()...)
	names = append(names, kvstore.Names()...)
	for _, name := range names {
		if !built[name] {
			t.Errorf("no figure runs %s", name)
		}
	}
}

// checkTitle asserts that the item count and update percentage a title
// states are the ones every cell runs; a table title must state a count.
func checkTitle(t *testing.T, title string, cells []Cell, needItems bool) {
	t.Helper()
	if m := titleItems.FindStringSubmatch(title); m != nil {
		n, _ := strconv.Atoi(m[1])
		if m[2] == "K" {
			n *= 1000
		}
		for _, c := range cells {
			if c.Items != n {
				t.Errorf("%q: cell %s loads %d", title, c.Name, c.Items)
			}
		}
	} else if needItems {
		t.Errorf("%q states no item count", title)
	}
	if m := titleUpdate.FindStringSubmatch(title); m != nil {
		pct := m[1] + m[2]
		for _, c := range cells {
			if got := strconv.FormatFloat(c.Update*100, 'f', 0, 64); got != pct {
				t.Errorf("%q: cell %s updates %s%%", title, c.Name, got)
			}
		}
	}
}
