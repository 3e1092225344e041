package table

import (
	"math/rand"
	"testing"
	"testing/quick"

	"p2/internal/eventloop"
	"p2/internal/tuple"
	"p2/internal/val"
)

func mk(name string, vs ...val.Value) *tuple.Tuple { return tuple.New(name, vs...) }

func member(addr string, seq int64) *tuple.Tuple {
	return mk("member", val.Str("n1"), val.Str(addr), val.Int(seq))
}

// rowsAt collects what an Each probe of the index over positions visits
// for a rendered key, creating the index on first use.
func rowsAt(tb *Table, positions []int, key string) []*tuple.Tuple {
	var out []*tuple.Tuple
	tb.EnsureIndex(positions).Each([]byte(key), func(t *tuple.Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// rowAtPK returns the live row with the given rendered primary key, or
// nil.
func rowAtPK(tb *Table, key string) *tuple.Tuple {
	if rows := rowsAt(tb, tb.pk, key); len(rows) == 1 {
		return rows[0]
	}
	return nil
}

func TestInsertAndLookupPK(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("member", Infinity, 0, []int{1}, loop)
	replaced := 0
	tb.OnReplace(func(*tuple.Tuple) { replaced++ })
	if !tb.Insert(member("a", 1)) || replaced != 0 {
		t.Fatalf("first insert: no delta or %d replaced", replaced)
	}
	if tb.Len() != 1 {
		t.Fatalf("len = %d", tb.Len())
	}
	got := rowAtPK(tb, member("a", 1).Key([]int{1}))
	if got == nil || got.Field(2).AsInt() != 1 {
		t.Fatalf("primary-key probe = %v", got)
	}
	if rowAtPK(tb, member("zz", 0).Key([]int{1})) != nil {
		t.Error("missing key should be nil")
	}
}

// TestPrimaryKeyIndexHasNoBuckets: an index over exactly the primary
// key is one handle served by the rows map, with no bucket map and no
// place among the indexes a row is added to; the same positions in
// another order are an ordinary index.
func TestPrimaryKeyIndexHasNoBuckets(t *testing.T) {
	tb := New("member", Infinity, 0, []int{0, 1}, eventloop.NewSim())
	tb.Insert(member("a", 1))
	pk := tb.EnsureIndex([]int{0, 1})
	if again := tb.EnsureIndex(tb.pk); again != pk {
		t.Fatal("EnsureIndex(pk) returned two handles")
	}
	if pk.m != nil || len(tb.indices) != 0 {
		t.Fatalf("the primary-key index keeps buckets: m=%v, %d indexes", pk.m, len(tb.indices))
	}
	key := member("a", 1).Key([]int{0, 1})
	if got := rowsAt(tb, []int{0, 1}, key); len(got) != 1 || !got[0].Equal(member("a", 1)) {
		t.Fatalf("primary-key probe = %v", got)
	}
	if !pk.Contains([]byte(key)) || pk.Contains([]byte(member("b", 1).Key([]int{0, 1}))) {
		t.Fatal("primary-key Contains disagrees with the rows")
	}

	swapped := tb.EnsureIndex([]int{1, 0})
	if swapped == pk || swapped.m == nil || len(tb.indices) != 1 || tb.EnsureIndex([]int{1, 0}) != swapped {
		t.Fatal("pk positions in another order did not get one ordinary index")
	}
	if got := rowsAt(tb, []int{1, 0}, member("a", 1).Key([]int{1, 0})); len(got) != 1 {
		t.Fatalf("reordered-pk probe = %v", got)
	}
}

func TestPrimaryKeyReplacement(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("member", Infinity, 0, []int{1}, loop)
	var replaced *tuple.Tuple
	tb.OnReplace(func(old *tuple.Tuple) { replaced = old })
	tb.Insert(member("a", 1))
	if delta := tb.Insert(member("a", 2)); !delta || replaced == nil || replaced.Field(2).AsInt() != 1 {
		t.Fatalf("replacement: delta %v, replaced %v", delta, replaced)
	}
	if tb.Len() != 1 {
		t.Fatalf("len after replace = %d", tb.Len())
	}
}

func TestIdenticalRefreshNoDelta(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("member", 10, 0, []int{1}, loop)
	inserts := 0
	tb.OnInsert(func(*tuple.Tuple) { inserts++ })
	tb.Insert(member("a", 1))
	loop.Run(5)
	if tb.Insert(member("a", 1)) {
		t.Error("identical reinsert must not be a delta")
	}
	if refreshes := tb.Stats().Refreshes; inserts != 1 || refreshes != 1 {
		t.Errorf("inserts=%d refreshes=%d", inserts, refreshes)
	}
	// Refresh must extend the lifetime: at t=12 the original would have
	// expired but the refresh at t=5 keeps it until t=15.
	loop.Run(12)
	if tb.Len() != 1 {
		t.Error("refresh did not extend TTL")
	}
	loop.Run(15.1)
	if tb.Len() != 0 {
		t.Error("tuple should expire after refreshed TTL")
	}
}

func TestTTLExpiryFiresDelete(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("member", 120, 0, []int{1}, loop)
	var deleted []*tuple.Tuple
	tb.OnDelete(func(tp *tuple.Tuple) { deleted = append(deleted, tp) })
	tb.Insert(member("a", 1))
	loop.Run(60)
	tb.Insert(member("b", 2))
	loop.Run(120.5) // "a" expired at 120, "b" lives to 180.5
	if n := tb.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if len(deleted) != 1 || deleted[0].Field(1).AsStr() != "a" {
		t.Fatalf("deleted = %v", deleted)
	}
}

func TestFIFOEviction(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("succ", Infinity, 3, []int{1}, loop)
	var evicted []string
	tb.OnDelete(func(tp *tuple.Tuple) { evicted = append(evicted, tp.Field(1).AsStr()) })
	for _, a := range []string{"a", "b", "c", "d", "e"} {
		tb.Insert(member(a, 1))
	}
	if tb.Len() != 3 {
		t.Fatalf("len = %d, want 3", tb.Len())
	}
	if len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "b" {
		t.Fatalf("evicted = %v (want oldest first)", evicted)
	}
}

func TestSingletonTable(t *testing.T) {
	// materialize(sequence, infinity, 1, keys(2)) — new values replace
	// via FIFO eviction even though primary keys differ.
	loop := eventloop.NewSim()
	tb := New("sequence", Infinity, 1, []int{1}, loop)
	tb.Insert(mk("sequence", val.Str("n1"), val.Int(0)))
	tb.Insert(mk("sequence", val.Str("n1"), val.Int(1)))
	tb.Insert(mk("sequence", val.Str("n1"), val.Int(2)))
	rows := tb.Scan()
	if len(rows) != 1 || rows[0].Field(1).AsInt() != 2 {
		t.Fatalf("singleton = %v", rows)
	}
}

func TestExplicitDelete(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("neighbor", Infinity, 0, []int{1}, loop)
	var deleted int
	tb.OnDelete(func(*tuple.Tuple) { deleted++ })
	tb.Insert(member("a", 1))
	if !tb.Delete(member("a", 99)) { // pk match suffices; payload differs
		t.Fatal("delete by pk failed")
	}
	if tb.Delete(member("a", 1)) {
		t.Fatal("second delete should find nothing")
	}
	if deleted != 1 || tb.Len() != 0 {
		t.Fatalf("deleted=%d len=%d", deleted, tb.Len())
	}
}

func TestSecondaryIndex(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("finger", Infinity, 0, []int{1}, loop)
	tb.EnsureIndex([]int{2})
	ins := func(i int64, who string) {
		tb.Insert(mk("finger", val.Str("n1"), val.Int(i), val.Str(who)))
	}
	ins(0, "alice")
	ins(1, "alice")
	ins(2, "bob")
	key := mk("k", val.Str("alice")).Key([]int{0})
	got := rowsAt(tb, []int{2}, key)
	if len(got) != 2 {
		t.Fatalf("index lookup = %v", got)
	}
	// Replacement must keep the index in sync.
	ins(0, "bob")
	got = rowsAt(tb, []int{2}, key)
	if len(got) != 1 {
		t.Fatalf("after replace, alice rows = %v", got)
	}
	// Deletion too.
	tb.Delete(mk("finger", val.Str("n1"), val.Int(1)))
	if len(rowsAt(tb, []int{2}, key)) != 0 {
		t.Fatal("index not updated on delete")
	}
}

func TestEnsureIndexBackfills(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("m", Infinity, 0, []int{1}, loop)
	tb.Insert(member("a", 7))
	tb.Insert(member("b", 7))
	tb.EnsureIndex([]int{2}) // created after rows exist
	key := mk("k", val.Int(7)).Key([]int{0})
	if got := rowsAt(tb, []int{2}, key); len(got) != 2 {
		t.Fatalf("backfilled index lookup = %v", got)
	}
	tb.EnsureIndex([]int{2}) // idempotent
}

func TestIndexLookupSkipsExpired(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("m", 10, 0, []int{1}, loop)
	tb.EnsureIndex([]int{2})
	tb.Insert(member("a", 7))
	loop.Run(5)
	tb.Insert(member("b", 7))
	loop.Run(10.5) // "a" dead, "b" alive
	key := mk("k", val.Int(7)).Key([]int{0})
	got := rowsAt(tb, []int{2}, key)
	if len(got) != 1 || got[0].Field(1).AsStr() != "b" {
		t.Fatalf("lookup after expiry = %v", got)
	}
}

func TestScanOrders(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("m", Infinity, 0, []int{1}, loop)
	tb.Insert(member("c", 1))
	tb.Insert(member("a", 2))
	scan := tb.Scan()
	if scan[0].Field(1).AsStr() != "c" {
		t.Error("Scan must preserve insertion order")
	}
	sorted := tb.ScanSorted()
	if sorted[0].Field(1).AsStr() != "a" {
		t.Error("ScanSorted must order deterministically")
	}
}

func TestAccessors(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("m", 120, 5, []int{1, 2}, loop)
	if tb.ttl != 120 || tb.maxSize != 5 {
		t.Error("accessors wrong")
	}
	if pk := tb.pk; len(pk) != 2 || pk[0] != 1 {
		t.Error("pk accessor wrong")
	}
	// ttl <= 0 normalizes to Infinity.
	if New("x", 0, 0, nil, loop).ttl != Infinity {
		t.Error("zero ttl should mean infinity")
	}
}

// Property: under arbitrary insert/delete sequences the table never
// exceeds maxSize, primary keys stay unique, and every indexed lookup
// agrees with a full scan.
func TestTableInvariants(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		loop := eventloop.NewSim()
		r := rand.New(rand.NewSource(seed))
		tb := New("m", 50, 4, []int{1}, loop)
		tb.EnsureIndex([]int{2})
		for _, op := range ops {
			addr := string(rune('a' + int(op)%6))
			seq := int64(op) % 3
			switch op % 4 {
			case 0, 1:
				tb.Insert(member(addr, seq))
			case 2:
				tb.Delete(member(addr, 0))
			case 3:
				loop.Run(loop.Now() + float64(r.Intn(30)))
			}
			scan := tb.Scan()
			if tb.maxSize > 0 && len(scan) > tb.maxSize {
				return false
			}
			seen := map[string]bool{}
			for _, row := range scan {
				k := row.Key([]int{1})
				if seen[k] {
					return false // duplicate primary key
				}
				seen[k] = true
			}
			// Index agreement.
			for s := int64(0); s < 3; s++ {
				key := mk("k", val.Int(s)).Key([]int{0})
				viaIndex := rowsAt(tb, []int{2}, key)
				count := 0
				for _, row := range tb.Scan() {
					if row.Field(2).AsInt() == s {
						count++
					}
				}
				if len(viaIndex) != count {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsertReplace(b *testing.B) {
	loop := eventloop.NewSim()
	tb := New("m", Infinity, 0, []int{1}, loop)
	tuples := []*tuple.Tuple{member("a", 1), member("a", 2)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Insert(tuples[i%2])
	}
}
