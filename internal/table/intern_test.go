package table

// Interning regression coverage: the table's compact row storage runs
// rendered keys and string fields through the global interner, and the
// contract is that nothing observable changes — replacement, TTL
// expiry, and FIFO eviction behave identically whether a key string
// arrives as the canonical interned copy or as a private runtime-built
// allocation that happens to hold the same bytes.

import (
	"fmt"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/tuple"
	"p2/internal/val"
)

// privStr returns a fresh private allocation of s — never the canonical
// interned copy — so operations below cross the intern boundary.
func privStr(s string) string { return string(append([]byte(nil), s...)) }

func privMember(addr string, seq int64) *tuple.Tuple {
	return tuple.New("member", val.Str(privStr("n1")), val.Str(privStr(addr)), val.Int(seq))
}

// TestInternedReplaceIsExact: a replacement keyed by a private copy of
// an interned address must hit the same row, not insert a sibling.
func TestInternedReplaceIsExact(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("member", Infinity, 0, []int{1}, loop)
	var replaced *tuple.Tuple
	tb.OnReplace(func(old *tuple.Tuple) { replaced = old })
	tb.Insert(tuple.New("member", val.Str("n1"), val.Str(val.InternBytes([]byte("a"))), val.Int(1)))
	if delta := tb.Insert(privMember("a", 2)); !delta || replaced == nil || replaced.Field(2).AsInt() != 1 {
		t.Fatalf("private-copy replacement missed the interned row: delta %v, replaced %v", delta, replaced)
	}
	if tb.Len() != 1 {
		t.Fatalf("len after replace = %d; interning split the primary key", tb.Len())
	}
	if got := rowAtPK(tb, privMember("a", 0).Key([]int{1})); got == nil || got.Field(2).AsInt() != 2 {
		t.Fatalf("primary-key probe via private key = %v", got)
	}
}

// TestInternedExpireAndEvict walks one table through all three removal
// paths — FIFO eviction at cap, TTL expiry, primary-key replacement —
// with every string a distinct private allocation, and checks the
// delete stream and survivor set match the plain-string semantics the
// rest of table_test.go pins.
func TestInternedExpireAndEvict(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("member", 120, 3, []int{1}, loop)
	var deleted []string
	tb.OnDelete(func(tp *tuple.Tuple) { deleted = append(deleted, tp.Field(1).AsStr()) })
	replaced := 0
	tb.OnReplace(func(*tuple.Tuple) { replaced++ })

	for i, a := range []string{"a", "b", "c", "d", "e"} {
		tb.Insert(privMember(a, int64(i)))
	}
	// Cap 3: a and b evicted oldest-first.
	if len(deleted) != 2 || deleted[0] != "a" || deleted[1] != "b" {
		t.Fatalf("evictions = %v (want [a b])", deleted)
	}
	// Refresh d via a private copy so only c and e expire at t=120.
	loop.Run(60)
	if tb.Insert(privMember("d", 99)); replaced != 1 {
		t.Fatalf("refresh of d replaced %d rows, want 1", replaced)
	}
	loop.Run(120.5)
	if tb.Len() != 1 {
		t.Fatalf("len after expiry = %d, want 1 (only refreshed d alive)", tb.Len())
	}
	if got := rowAtPK(tb, privMember("d", 0).Key([]int{1})); got == nil || got.Field(2).AsInt() != 99 {
		t.Fatalf("survivor = %v, want refreshed d", got)
	}
	if len(deleted) != 4 {
		t.Fatalf("delete stream %v, want evictions a,b then expiries c,e", deleted)
	}
}

// TestInternerBoundedUnderKeyChurn streams far more distinct keys
// through insert/replace/delete cycles than the interner can hold and
// checks occupancy stays bounded while the table stays exact — the
// soft-state regime (event IDs, timestamps) a long soak produces.
func TestInternerBoundedUnderKeyChurn(t *testing.T) {
	loop := eventloop.NewSim()
	tb := New("ev", Infinity, 0, []int{1}, loop)
	for i := 0; i < 200000; i++ {
		tp := tuple.New("ev", val.Str(privStr("n1")),
			val.Str(privStr(fmt.Sprintf("event-%d-%d", i, i*7919))), val.Int(int64(i)))
		if !tb.Insert(tp) {
			t.Fatalf("insert %d changed nothing", i)
		}
		if tb.Len() != 1 {
			t.Fatalf("len = %d at %d", tb.Len(), i)
		}
		tb.Delete(tp)
		if tb.Len() != 0 {
			t.Fatalf("delete %d left %d rows", i, tb.Len())
		}
	}
	entries, _ := val.InternStats()
	// 64 shards x 16384 cap; churning 200k distinct keys must not pin
	// more than the hard ceiling (flushing keeps it bounded).
	if entries > 64*16384 {
		t.Fatalf("interner grew to %d entries under key churn", entries)
	}
}
