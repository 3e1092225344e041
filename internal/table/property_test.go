package table

import (
	"fmt"
	"math/rand"
	"testing"

	"p2/internal/tuple"
	"p2/internal/val"
)

// Property test guarding the cached-key refactor: rows cache their
// rendered primary and per-index key strings at add time, and removal
// paths (explicit delete, TTL expiry, FIFO eviction, primary-key
// replacement) trust those caches. A stale or wrongly-shared cached key
// would leave a ghost row in some index bucket or strand a live row
// outside its bucket — exactly what this test hunts: after every
// operation, every secondary index's contents must match ground truth
// derived from a full Scan.

type propClock struct{ now float64 }

func (c *propClock) Now() float64 { return c.now }

// checkIndexes compares each index against a Scan-derived ground truth:
// for every key ever probed, the multiset of tuples the index returns
// must equal the tuples whose rendered key matches. probeKeys
// accumulates all keys that ever existed so vanished buckets are probed
// too.
func checkIndexes(t *testing.T, tb *Table, ixs []*Index, probeKeys []map[string]bool) {
	t.Helper()
	scan := tb.Scan()
	for i, ix := range ixs {
		want := make(map[string][]*tuple.Tuple)
		for _, row := range scan {
			k := row.Key(ix.Positions())
			want[k] = append(want[k], row)
			probeKeys[i][k] = true
		}
		for k := range probeKeys[i] {
			got := rowsAt(tb, ix.Positions(), k)
			if len(got) != len(want[k]) {
				t.Fatalf("index %v key %q: %d rows via index, %d via scan",
					ix.Positions(), k, len(got), len(want[k]))
			}
			matched := make([]bool, len(want[k]))
			for _, g := range got {
				found := false
				for wi, w := range want[k] {
					if !matched[wi] && g == w {
						matched[wi] = true
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("index %v key %q returned %v not present in scan", ix.Positions(), k, g)
				}
			}
		}
	}
}

// TestIndexContentsMatchScanUnderRandomOps drives long random
// insert/replace/refresh/delete/expire/evict sequences over a table
// with a TTL, a size bound, and two secondary indices (one sharing a
// field with the primary key), checking every index against ground
// truth after each operation.
func TestIndexContentsMatchScanUnderRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := &propClock{}
			tb := New("p", 40, 8, []int{0, 1}, clk) // finite TTL + FIFO bound
			ixs := []*Index{
				tb.EnsureIndex([]int{1}),
				tb.EnsureIndex([]int{2, 0}),
			}
			probeKeys := []map[string]bool{{}, {}}

			mk := func(a, b, c int64) *tuple.Tuple {
				return tuple.New("p",
					val.Str(fmt.Sprintf("a%d", a)), val.Int(b), val.Int(c))
			}

			for step := 0; step < 400; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // insert (new pk, replacement, or refresh)
					tb.Insert(mk(rng.Int63n(6), rng.Int63n(4), rng.Int63n(3)))
				case 4: // guaranteed refresh of an existing row, if any
					if scan := tb.Scan(); len(scan) > 0 {
						tb.Insert(scan[rng.Intn(len(scan))])
					}
				case 5: // guaranteed replacement of an existing pk, if any
					if scan := tb.Scan(); len(scan) > 0 {
						old := scan[rng.Intn(len(scan))]
						tb.Insert(tuple.New("p", old.Field(0), old.Field(1), val.Int(rng.Int63n(100)+10)))
					}
				case 6: // explicit delete
					tb.Delete(mk(rng.Int63n(6), rng.Int63n(4), 0))
				case 7: // time passes; TTLs expire
					clk.now += float64(rng.Intn(25))
					tb.Expire()
				case 8: // burst insert to force FIFO eviction
					for i := 0; i < 10; i++ {
						tb.Insert(mk(rng.Int63n(12), rng.Int63n(4), rng.Int63n(3)))
					}
				case 9: // late index creation over live rows
					if step == 37 { // once per run, mid-sequence
						ixs = append(ixs, tb.EnsureIndex([]int{2}))
						probeKeys = append(probeKeys, map[string]bool{})
					}
				}
				checkIndexes(t, tb, ixs, probeKeys)
				if tb.Len() > 8 {
					t.Fatalf("table exceeded maxSize: %d", tb.Len())
				}
			}
		})
	}
}

// TestMidProbeRemovalAfterBucketRealloc is the nastiest probe corner:
// the visitor's side effects first grow the probed bucket past its
// capacity (reallocating the backing array) and then delete a
// not-yet-visited row. The tombstone lands in the new array, so the
// probe must re-read the bucket or it would still visit the retracted
// row from its stale view.
func TestMidProbeRemovalAfterBucketRealloc(t *testing.T) {
	clk := &propClock{}
	tb := New("p", Infinity, 0, []int{0}, clk)
	ix := tb.EnsureIndex([]int{1})
	for i := int64(1); i <= 3; i++ {
		tb.Insert(tuple.New("p", val.Int(i), val.Str("k")))
	}
	key := []byte(tuple.New("x", val.Str("k")).Key([]int{0}))

	var visited []int64
	ix.Each(key, func(m *tuple.Tuple) bool {
		id := m.Field(0).AsInt()
		visited = append(visited, id)
		if id == 1 {
			// Grow the bucket (likely reallocating), then retract row 3.
			tb.Insert(tuple.New("p", val.Int(4), val.Str("k")))
			tb.Insert(tuple.New("p", val.Int(5), val.Str("k")))
			tb.Delete(tuple.New("p", val.Int(3)))
		}
		return true
	})
	for _, id := range visited {
		if id == 3 {
			t.Fatalf("probe visited retracted row 3: visited=%v", visited)
		}
		if id >= 4 {
			t.Fatalf("probe visited mid-visit insert %d: visited=%v", id, visited)
		}
	}
}

// TestIndexConsistentUnderMidProbeMutation drives the tombstone path:
// rows removed while a probe is visiting their bucket must vanish from
// the visit without any row being visited twice, and the bucket must
// compact afterwards.
func TestIndexConsistentUnderMidProbeMutation(t *testing.T) {
	clk := &propClock{}
	tb := New("p", Infinity, 0, []int{0}, clk)
	ix := tb.EnsureIndex([]int{1})
	for i := 0; i < 8; i++ {
		tb.Insert(tuple.New("p", val.Int(int64(i)), val.Str("g")))
	}
	key := []byte(tuple.New("k", val.Str("g")).Key([]int{0}))

	visited := map[int64]int{}
	ix.Each(key, func(m *tuple.Tuple) bool {
		visited[m.Field(0).AsInt()]++
		// Delete two other rows mid-visit, and insert a new one (which
		// must not be visited: the probe sees the bucket at entry).
		tb.Delete(tuple.New("p", val.Int((m.Field(0).AsInt()+3)%8)))
		tb.Insert(tuple.New("p", val.Int(100+m.Field(0).AsInt()), val.Str("g")))
		return true
	})
	for id, n := range visited {
		if n > 1 {
			t.Fatalf("row %d visited %d times", id, n)
		}
		if id >= 100 {
			t.Fatalf("mid-probe insert %d was visited", id)
		}
	}
	// After the probe, buckets are compacted: index and scan agree.
	scan := tb.Scan()
	got := rowsAt(tb, ix.Positions(), string(key))
	if len(got) != len(scan) {
		t.Fatalf("post-probe index has %d rows, scan %d", len(got), len(scan))
	}
}
