package table

import (
	"fmt"
	"testing"

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
		if res := tb.Insert(row); res.Delta {
			t.Fatal("refresh produced a delta")
		}
	})
	if allocs != 0 {
		t.Fatalf("refresh allocated %.1f/op, want 0", allocs)
	}
}

// TestDeleteNoRerender exercises removal through cached keys: deleting
// and re-adding must not disturb any index (contents verified against a
// scan) regardless of bucket sharing.
func TestDeleteNoRerender(t *testing.T) {
	tb, ix, _ := benchTable(64)
	victim := tuple.New("bench", val.Str("n9"), val.Int(9%16), val.Int(9))
	if !tb.Delete(victim) {
		t.Fatal("delete missed")
	}
	key := victim.Key([]int{1})
	for _, m := range rowsAt(tb, ix.Positions(), key) {
		if m.Equal(victim) {
			t.Fatal("deleted row still indexed")
		}
	}
	if got := tb.Len(); got != 63 {
		t.Fatalf("len = %d, want 63", got)
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
