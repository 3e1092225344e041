package table

import (
	"fmt"
	"testing"
	"unsafe"

	"p2/internal/tuple"
	"p2/internal/val"
)

// The probe path is the innermost loop of OverLog execution: every
// strand trigger probes at least one index. These benchmarks pin its
// cost, and the AllocsPerRun tests turn the zero-allocation claims into
// regressions rather than observations.

type benchClock struct{ now float64 }

func (c *benchClock) Now() float64 { return c.now }

func benchTable(n int) (*Table, *Index, *benchClock) {
	clk := &benchClock{}
	tb := New("bench", Infinity, 0, []int{0, 1}, clk)
	ix := tb.EnsureIndex([]int{1})
	for i := 0; i < n; i++ {
		tb.Insert(tuple.New("bench",
			val.Str(fmt.Sprintf("n%d", i)), val.Int(int64(i%16)), val.Int(int64(i))))
	}
	return tb, ix, clk
}

// TestIndexEachZeroAlloc pins the visitor probe at zero allocations:
// key render into a scratch buffer, bucket consult in place, no result
// slice. The visiting closure must stay on the stack, so the test
// mirrors how Join.Push captures state.
func TestIndexEachZeroAlloc(t *testing.T) {
	_, ix, _ := benchTable(256)
	var buf []byte
	probe := tuple.New("probe", val.Str("x"), val.Int(3))
	count := 0
	allocs := testing.AllocsPerRun(200, func() {
		buf = probe.AppendKey(buf[:0], []int{1})
		ix.Each(buf, func(m *tuple.Tuple) bool {
			count++
			return true
		})
	})
	if count == 0 {
		t.Fatal("probe visited no rows")
	}
	if allocs != 0 {
		t.Fatalf("Index.Each allocated %.1f/op, want 0", allocs)
	}
}

// TestRefreshZeroAlloc pins the pure-refresh path — the steady state of
// periodic re-derivation — at zero allocations: the primary key renders
// into the table's scratch buffer and no row state changes.
func TestRefreshZeroAlloc(t *testing.T) {
	tb, _, _ := benchTable(64)
	row := tuple.New("bench", val.Str("n7"), val.Int(7%16), val.Int(7))
	allocs := testing.AllocsPerRun(200, func() {
		if tb.Insert(row) {
			t.Fatal("refresh produced a delta")
		}
	})
	if allocs != 0 {
		t.Fatalf("refresh allocated %.1f/op, want 0", allocs)
	}
}

// TestDeleteNoRerender exercises removal, which renders the victim's
// keys again from its tuple: deleting must take the row out of its
// shared index bucket and leave every other row of that bucket, and
// the table, intact.
func TestDeleteNoRerender(t *testing.T) {
	tb, ix, _ := benchTable(64)
	victim := tuple.New("bench", val.Str("n9"), val.Int(9%16), val.Int(9))
	if !tb.Delete(victim) {
		t.Fatal("delete missed")
	}
	key := victim.Key([]int{1})
	for _, m := range rowsAt(tb, ix.positions, key) {
		if m.Equal(victim) {
			t.Fatal("deleted row still indexed")
		}
	}
	if got := tb.Len(); got != 63 {
		t.Fatalf("len = %d, want 63", got)
	}
}

// pinAddr renders to a 38-byte key: long enough that converting the
// render buffer to a string would allocate (the runtime's stack buffer
// for that conversion is 32 bytes), short enough to be interned.
const pinAddr = "10.200.30.40:10000/chord-node-0000001"

// pinTable is a table with two secondary indexes whose rendered keys,
// like its primary key, are longer than 32 bytes. Every row shares both
// index buckets, so no removal below empties a bucket and no add has to
// allocate a new one: what is left to allocate is whatever removal
// itself does.
func pinTable(ttl float64, maxSize int) (*Table, *benchClock) {
	clk := &benchClock{}
	tb := New("pin", ttl, maxSize, []int{0, 1}, clk)
	tb.EnsureIndex([]int{0})
	tb.EnsureIndex([]int{2, 0})
	return tb, clk
}

func pinRow(seq, v int64) *tuple.Tuple {
	return tuple.New("pin", val.Str(pinAddr), val.Int(seq), val.Str("succ"), val.Int(v))
}

// TestRemovalZeroAlloc pins every way a row leaves a table at zero
// allocations, although removal renders the row's keys again: a
// primary-key replacement, an explicit Delete, TTL expiry and FIFO
// eviction. Each run re-adds what it removed; the pins cover that too.
func TestRemovalZeroAlloc(t *testing.T) {
	pin := func(name string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s allocated %.1f/op, want 0", name, allocs)
		}
	}

	tb, _ := pinTable(Infinity, 0)
	for i := int64(0); i < 8; i++ {
		tb.Insert(pinRow(i, 0))
	}
	alt := []*tuple.Tuple{pinRow(3, 1), pinRow(3, 2)}
	n, replaced := 0, 0
	tb.OnReplace(func(*tuple.Tuple) { replaced++ })
	pin("replacement", func() {
		n++
		if tb.Insert(alt[n%2]); replaced != n {
			t.Fatal("insert did not replace")
		}
	})
	victim := pinRow(5, 0)
	pin("Delete", func() {
		if !tb.Delete(victim) {
			t.Fatal("delete missed")
		}
		tb.Insert(victim)
	})

	// TTL 10: the victim lives one 10 s period; the residents are
	// refreshed twice per period, so only the victim expires.
	tb, clk := pinTable(10, 0)
	residents := []*tuple.Tuple{pinRow(0, 0), pinRow(1, 0), pinRow(2, 0)}
	for _, r := range residents {
		tb.Insert(r)
	}
	refresh := func(dt float64) {
		clk.now += dt
		for _, r := range residents {
			tb.Insert(r)
		}
	}
	pin("TTL expiry", func() {
		tb.Insert(victim)
		refresh(1)
		refresh(5)
		clk.now += 4
		if n := tb.Expire(); n != 1 {
			t.Fatalf("expired %d rows, want 1", n)
		}
	})

	// Nine rows cycle through a table of eight: each insert evicts the
	// oldest, the row the next insert but one brings back.
	tb, _ = pinTable(Infinity, 8)
	var ring []*tuple.Tuple
	for i := int64(0); i < 9; i++ {
		ring = append(ring, pinRow(i, 0))
	}
	for _, r := range ring[:8] {
		tb.Insert(r)
	}
	n = 8
	pin("FIFO eviction", func() {
		tb.Insert(ring[n%9])
		n++
		if tb.Len() != 8 {
			t.Fatalf("len = %d, want 8", tb.Len())
		}
	})
}

// TestRowIsFourWords pins a resident row at its tuple, its expiry and
// two links. A field added to row is paid once per row of every table
// on every node.
func TestRowIsFourWords(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(row{}); got > 32 {
		t.Fatalf("unsafe.Sizeof(row{}) = %d, want at most 32", got)
	}
}

func BenchmarkInsertRefresh(b *testing.B) {
	tb, _, _ := benchTable(256)
	row := tuple.New("bench", val.Str("n7"), val.Int(7%16), val.Int(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Insert(row)
	}
}

func BenchmarkIndexEach(b *testing.B) {
	_, ix, _ := benchTable(256)
	probe := tuple.New("probe", val.Str("x"), val.Int(3))
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = probe.AppendKey(buf[:0], []int{1})
		ix.Each(buf, func(*tuple.Tuple) bool { return true })
	}
}

func BenchmarkScanSorted(b *testing.B) {
	tb, _, _ := benchTable(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.ScanSorted()
	}
}
