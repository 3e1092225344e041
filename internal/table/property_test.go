package table

import (
	"fmt"
	"math/rand"
	"testing"

	"p2/internal/tuple"
	"p2/internal/val"
)

// Property tests guarding removal: rows cache no key, so every removal
// path (explicit delete, TTL expiry, FIFO eviction, primary-key
// replacement) renders the row's primary and index keys again from its
// tuple and finds the map entries by those bytes. A key rendered from
// the wrong positions, or a bucket written back under the wrong key,
// would leave a ghost row in some index bucket or strand a live row
// outside its bucket — exactly what these tests hunt: after every
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
			k := row.Key(ix.positions)
			want[k] = append(want[k], row)
			probeKeys[i][k] = true
		}
		for k := range probeKeys[i] {
			got := rowsAt(tb, ix.positions, k)
			if len(got) != len(want[k]) {
				t.Fatalf("index %v key %q: %d rows via index, %d via scan",
					ix.positions, k, len(got), len(want[k]))
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
					t.Fatalf("index %v key %q returned %v not present in scan", ix.positions, k, g)
				}
			}
		}
	}
}

// TestIndexContentsMatchScanUnderRandomOps drives long random
// insert/replace/refresh/delete/expire/evict sequences over a table
// with a TTL, a size bound, two secondary indices (one sharing a field
// with the primary key) and the primary-key index, checking every index
// against ground truth after each operation — so each key a removal
// renders again must name the bucket the row was added to.
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
				tb.EnsureIndex([]int{0, 1}),
			}
			probeKeys := []map[string]bool{{}, {}, {}}

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
	got := rowsAt(tb, ix.positions, string(key))
	if len(got) != len(scan) {
		t.Fatalf("post-probe index has %d rows, scan %d", len(got), len(scan))
	}
}

// FuzzTableOps decodes its input, four bytes per operation, into
// inserts, replacements, refreshes, deletes, clock advances and FIFO
// eviction bursts on a table with a TTL, a size bound, two secondary
// indexes and the primary-key index, which has no buckets of its own
// and probes the rows map. A probe operation runs Index.Each through
// one of the three over a live key and issues the next one to three
// operations from inside the visit, one per visited row, so removals
// hit the tombstone path and compact when the probe ends; probes nest
// when one of those is a probe too. The probe must visit only resident
// rows, none twice, and every index is checked against a Scan after
// each operation, inside a visit or not.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 0, 0, 0, 6, 0, 0, 0, 3, 1, 2, 0})
	f.Add([]byte{5, 3, 0, 0, 6, 1, 1, 0, 6, 0, 1, 0, 1, 2, 0, 0, 4, 30, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 6, 0, 0, 0, 5, 7, 0, 0, 6, 1, 2, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		clk := &propClock{}
		tb := New("p", 40, 8, []int{0, 1}, clk)
		ixs := []*Index{tb.EnsureIndex([]int{1}), tb.EnsureIndex([]int{2, 0}), tb.EnsureIndex([]int{0, 1})}
		probeKeys := []map[string]bool{{}, {}, {}}
		mk := func(a, b, c byte) *tuple.Tuple {
			return tuple.New("p", val.Str(fmt.Sprintf("a%d", a%6)), val.Int(int64(b%4)), val.Int(int64(c%3)))
		}
		// pick returns a resident row chosen by b, or nil.
		pick := func(b byte) *tuple.Tuple {
			if scan := tb.Scan(); len(scan) > 0 {
				return scan[int(b)%len(scan)]
			}
			return nil
		}
		var step func() bool
		step = func() bool {
			if len(data) < 4 {
				return false
			}
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			switch op % 7 {
			case 0: // insert: a new key, a replacement or a refresh
				tb.Insert(mk(a, b, c))
			case 1: // replacement of a resident row
				if old := pick(a); old != nil {
					tb.Insert(tuple.New("p", old.Field(0), old.Field(1), val.Int(int64(b)+10)))
				}
			case 2: // refresh of a resident row
				if old := pick(a); old != nil {
					tb.Insert(old)
				}
			case 3: // explicit delete by primary key
				tb.Delete(mk(a, b, 0))
			case 4: // time passes; TTLs expire
				clk.now += float64(a % 50)
				tb.Expire()
			case 5: // burst of inserts past the size bound: FIFO eviction
				for i := byte(0); i < 3+a%8; i++ {
					tb.Insert(mk(a+i, b+i/6, c))
				}
			case 6: // the next operation runs inside a live probe
				if at := pick(a); at != nil {
					ix := ixs[b%3]
					key := at.AppendKey(nil, ix.positions)
					seen := map[*tuple.Tuple]bool{}
					nested := int(c%3) + 1
					ix.Each(key, func(m *tuple.Tuple) bool {
						if r := tb.rows[m.Key(tb.pk)]; r == nil || r.t != m || seen[m] {
							t.Fatalf("probe visited %v: resident %v, seen before %v", m, r != nil && r.t == m, seen[m])
						}
						seen[m] = true
						if nested > 0 {
							nested--
							step()
						}
						return true
					})
				}
			}
			checkIndexes(t, tb, ixs, probeKeys)
			if n := tb.Len(); n > 8 {
				t.Fatalf("table exceeded maxSize: %d", n)
			}
			return true
		}
		for step() {
		}
	})
}
