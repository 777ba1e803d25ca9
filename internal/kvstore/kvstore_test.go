package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func stores(t *testing.T) []Store {
	t.Helper()
	var out []Store
	for _, name := range Names() {
		s, err := New(name, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func TestGetSetRemove(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			defer s.Close()
			sess := s.Session()
			if _, ok := sess.Get("a"); ok {
				t.Fatal("empty store has 'a'")
			}
			sess.Set("a", "1")
			sess.Set("b", "2")
			if v, ok := sess.Get("a"); !ok || v != "1" {
				t.Fatalf("Get(a) = %q,%v", v, ok)
			}
			sess.Set("a", "3") // overwrite
			if v, _ := sess.Get("a"); v != "3" {
				t.Fatalf("overwrite lost: %q", v)
			}
			if !sess.Remove("a") || sess.Remove("a") {
				t.Fatal("remove semantics broken")
			}
			if _, ok := sess.Get("a"); ok {
				t.Fatal("'a' present after remove")
			}
			if v, _ := sess.Get("b"); v != "2" {
				t.Fatal("'b' damaged")
			}
		})
	}
}

func TestSequentialOracle(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			defer s.Close()
			sess := s.Session()
			ref := map[string]string{}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3000; i++ {
				k := fmt.Sprintf("k%02d", rng.Intn(60))
				switch rng.Intn(3) {
				case 0:
					v := fmt.Sprintf("v%d", i)
					sess.Set(k, v)
					ref[k] = v
				case 1:
					_, inRef := ref[k]
					if got := sess.Remove(k); got != inRef {
						t.Fatalf("op %d: Remove(%s)=%v want %v", i, k, got, inRef)
					}
					delete(ref, k)
				default:
					want, inRef := ref[k]
					got, ok := sess.Get(k)
					if ok != inRef || (ok && got != want) {
						t.Fatalf("op %d: Get(%s)=%q,%v want %q,%v", i, k, got, ok, want, inRef)
					}
				}
			}
		})
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			defer s.Close()
			const perWriter = 300
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					sess := s.Session()
					for i := 0; i < perWriter; i++ {
						sess.Set(fmt.Sprintf("w%d-%04d", id, i), fmt.Sprintf("%d", i))
					}
				}(g)
			}
			wg.Wait()
			sess := s.Session()
			for g := 0; g < 4; g++ {
				for i := 0; i < perWriter; i++ {
					k := fmt.Sprintf("w%d-%04d", g, i)
					if v, ok := sess.Get(k); !ok || v != fmt.Sprintf("%d", i) {
						t.Fatalf("lost key %s (got %q,%v)", k, v, ok)
					}
				}
			}
		})
	}
}

// TestConcurrentReadersSeeStableValues: readers must never observe a half
// state while a writer overwrites values.
func TestConcurrentReadersSeeStableValues(t *testing.T) {
	for _, s := range stores(t) {
		t.Run(s.Name(), func(t *testing.T) {
			defer s.Close()
			sess := s.Session()
			for i := 0; i < 50; i++ {
				sess.Set(keyName(i), "AA")
			}
			stop := time.Now().Add(80 * time.Millisecond)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := s.Session()
				toggle := false
				for time.Now().Before(stop) {
					v := "AA"
					if toggle {
						v = "BB"
					}
					toggle = !toggle
					for i := 0; i < 50; i++ {
						w.Set(keyName(i), v)
					}
				}
			}()
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rd := s.Session()
					rng := rand.New(rand.NewSource(seed))
					for time.Now().Before(stop) {
						v, ok := rd.Get(keyName(rng.Intn(50)))
						if !ok || (v != "AA" && v != "BB") {
							t.Errorf("torn value %q ok=%v", v, ok)
							return
						}
					}
				}(int64(r))
			}
			wg.Wait()
		})
	}
}

func keyName(i int) string { return fmt.Sprintf("key%010d", i) }
