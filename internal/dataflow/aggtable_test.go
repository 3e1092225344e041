package dataflow

// Tests and benchmarks for AggTable's incremental maintenance: deltas
// must cost O(group touched) while emitting exactly what the old
// full-scan recompute emitted.

import (
	"fmt"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/table"
	"p2/internal/tuple"
	"p2/internal/val"
)

// sumRig builds load(@N, Item, Cost) with sum<Cost> grouped by node.
func sumRig(fn AggFunc) (*table.Table, *[]*tuple.Tuple) {
	loop := eventloop.NewSim()
	tb := table.New("load", table.Infinity, 0, []int{1}, loop)
	var got []*tuple.Tuple
	agg := NewAggTable(tb, fn, []int{0}, 2, "total")
	agg.Connect(collect(&got))
	return tb, &got
}

func TestAggTableIncrementalSum(t *testing.T) {
	tb, got := sumRig(AggSum)
	tb.Insert(tp("load", val.Str("n1"), val.Str("a"), val.Int(10)))
	tb.Insert(tp("load", val.Str("n1"), val.Str("b"), val.Int(5)))
	if len(*got) != 2 || (*got)[1].Field(1).AsFloat() != 15 {
		t.Fatalf("running sum = %v", *got)
	}
	// Deleting one row subtracts it.
	tb.Delete(tp("load", val.Str("n1"), val.Str("a"), val.Int(10)))
	if len(*got) != 3 || (*got)[2].Field(1).AsFloat() != 5 {
		t.Fatalf("after delete = %v", *got)
	}
	// Deleting the last row forgets the group silently (soft state).
	tb.Delete(tp("load", val.Str("n1"), val.Str("b"), val.Int(5)))
	if len(*got) != 3 {
		t.Fatalf("vanished group must not emit: %v", *got)
	}
	// A reborn group starts fresh.
	tb.Insert(tp("load", val.Str("n1"), val.Str("c"), val.Int(7)))
	if len(*got) != 4 || (*got)[3].Field(1).AsFloat() != 7 {
		t.Fatalf("reborn group = %v", *got)
	}
}

// TestAggTablePrimaryKeyReplacement covers the displacement path: a
// primary-key overwrite must retract the old row's contribution and
// emit at most one change per affected group — including when the
// replacement moves the row to a different group.
func TestAggTablePrimaryKeyReplacement(t *testing.T) {
	tb, got := sumRig(AggSum)
	tb.Insert(tp("load", val.Str("n1"), val.Str("a"), val.Int(10)))
	tb.Insert(tp("load", val.Str("n1"), val.Str("b"), val.Int(5)))
	// Same group, new cost: one emission with the adjusted sum.
	tb.Insert(tp("load", val.Str("n1"), val.Str("a"), val.Int(20)))
	if len(*got) != 3 || (*got)[2].Field(1).AsFloat() != 25 {
		t.Fatalf("replacement sum = %v", *got)
	}
	// Same cost replacement: the sum is unchanged, so nothing emits.
	tb.Insert(tp("load", val.Str("n1"), val.Str("b"), val.Int(5)))
	if len(*got) != 3 {
		t.Fatalf("no-op replacement emitted: %v", *got)
	}
	// The row migrates to group n2: both groups change.
	tb.Insert(tp("load", val.Str("n2"), val.Str("a"), val.Int(20)))
	if len(*got) != 5 {
		t.Fatalf("group migration = %v", *got)
	}
	if (*got)[3].Field(0).AsStr() != "n1" || (*got)[3].Field(1).AsFloat() != 5 {
		t.Fatalf("old group after migration = %v", (*got)[3])
	}
	if (*got)[4].Field(0).AsStr() != "n2" || (*got)[4].Field(1).AsFloat() != 20 {
		t.Fatalf("new group after migration = %v", (*got)[4])
	}
}

func TestAggTableMinExtremumDeleteRescans(t *testing.T) {
	tb, got := sumRig(AggMin)
	for i, c := range []int64{30, 10, 10, 50} {
		tb.Insert(tp("load", val.Str("n1"), val.Str(fmt.Sprintf("r%d", i)), val.Int(c)))
	}
	if last := (*got)[len(*got)-1]; last.Field(1).AsInt() != 10 {
		t.Fatalf("min = %v", last)
	}
	n := len(*got)
	// Deleting one of two equal extrema leaves the min at 10: no emission.
	tb.Delete(tp("load", val.Str("n1"), val.Str("r1"), val.Int(10)))
	if len(*got) != n {
		t.Fatalf("duplicate-extremum delete emitted: %v", *got)
	}
	// Deleting the last 10 re-raises the min to 30.
	tb.Delete(tp("load", val.Str("n1"), val.Str("r2"), val.Int(10)))
	if len(*got) != n+1 || (*got)[n].Field(1).AsInt() != 30 {
		t.Fatalf("extremum delete = %v", *got)
	}
}

// TestAggTableExtremumReplacementStaysConsistent is the regression
// test for a review finding: a primary-key replacement of the MIN row
// must not double-count the new row (the old code rescanned the group
// with the replacement already in the table, then folded it again),
// which later surfaced as a null aggregate from a drained group.
func TestAggTableExtremumReplacementStaysConsistent(t *testing.T) {
	tb, got := sumRig(AggMin)
	tb.Insert(tp("load", val.Str("n1"), val.Str("a"), val.Int(10)))
	tb.Insert(tp("load", val.Str("n1"), val.Str("b"), val.Int(30)))
	tb.Insert(tp("load", val.Str("n1"), val.Str("a"), val.Int(40))) // replace the extremum
	if len(*got) != 2 || (*got)[1].Field(1).AsInt() != 30 {
		t.Fatalf("after extremum replacement = %v", *got)
	}
	tb.Delete(tp("load", val.Str("n1"), val.Str("a")))
	if len(*got) != 2 {
		t.Fatalf("deleting the non-min row emitted: %v", *got)
	}
	tb.Delete(tp("load", val.Str("n1"), val.Str("b")))
	// The group is gone: soft state decays silently — in particular no
	// null aggregate from a corrupted row count.
	if len(*got) != 2 {
		t.Fatalf("drained group emitted (null aggregate?): %v", *got)
	}
	if tb.Len() != 0 {
		t.Fatalf("table not drained: %d", tb.Len())
	}
}

// TestAggTableFifoEviction covers the other half-applied-mutation path:
// an insert that evicts a row fires the delete notification while the
// new row is stored but unannounced. The whole mutation must emit at
// most one change per group — none at FIFO steady state for COUNT.
func TestAggTableFifoEviction(t *testing.T) {
	loop := eventloop.NewSim()
	tb := table.New("load", table.Infinity, 3, []int{1}, loop)
	var got []*tuple.Tuple
	agg := NewAggTable(tb, AggCount, []int{0}, 2, "size")
	agg.Connect(collect(&got))
	for i := 0; i < 3; i++ {
		tb.Insert(tp("load", val.Str("n1"), val.Str(fmt.Sprintf("k%d", i)), val.Int(int64(i))))
	}
	if len(got) != 3 || got[2].Field(1).AsInt() != 3 {
		t.Fatalf("fill = %v", got)
	}
	// Steady state: each insert evicts one row; the count is unchanged
	// and nothing may emit.
	for i := 3; i < 8; i++ {
		tb.Insert(tp("load", val.Str("n1"), val.Str(fmt.Sprintf("k%d", i)), val.Int(int64(i))))
	}
	if len(got) != 3 {
		t.Fatalf("steady-state FIFO churn emitted: %v", got)
	}

	// Exemplar flavor: evicting the MIN row emits the new minimum once.
	tb2 := table.New("load", table.Infinity, 3, []int{1}, loop)
	var got2 []*tuple.Tuple
	agg2 := NewAggTable(tb2, AggMin, []int{0}, 2, "best")
	agg2.Connect(collect(&got2))
	for i, c := range []int64{10, 30, 50} {
		tb2.Insert(tp("load", val.Str("n1"), val.Str(fmt.Sprintf("k%d", i)), val.Int(c)))
	}
	n := len(got2)                                                    // emitted 10 once
	tb2.Insert(tp("load", val.Str("n1"), val.Str("k9"), val.Int(70))) // evicts the 10
	if len(got2) != n+1 || got2[n].Field(1).AsInt() != 30 {
		t.Fatalf("min after evicting extremum = %v", got2)
	}
}

// TestAggTableMatchesFullRecompute is a differential check: after a
// random-ish workload of inserts, replacements, and deletes, the
// incremental state must agree with a from-scratch recompute.
func TestAggTableMatchesFullRecompute(t *testing.T) {
	for _, fn := range []AggFunc{AggCount, AggSum, AggMin, AggMax, AggAvg} {
		loop := eventloop.NewSim()
		tb := table.New("load", table.Infinity, 0, []int{1}, loop)
		var got []*tuple.Tuple
		agg := NewAggTable(tb, fn, []int{0}, 2, "out")
		agg.Connect(collect(&got))
		for i := 0; i < 200; i++ {
			g := fmt.Sprintf("g%d", i%7)
			k := fmt.Sprintf("k%d", i%31) // collisions force replacements
			tb.Insert(tp("load", val.Str(g), val.Str(k), val.Int(int64(i*13%97))))
			if i%5 == 0 {
				tb.Delete(tp("load", val.Str(g), val.Str(fmt.Sprintf("k%d", (i+3)%31))))
			}
		}
		incremental := map[string]val.Value{}
		for _, tu := range got {
			incremental[tu.Field(0).AsStr()] = tu.Field(1)
		}
		// Rebuild from scratch and compare the final value per group.
		got = got[:0]
		agg.last = map[string]val.Value{}
		agg.Recompute()
		for _, tu := range got {
			g := tu.Field(0).AsStr()
			if want := tu.Field(1); !want.Equal(incremental[g]) {
				t.Fatalf("%v: group %s incremental=%v recompute=%v", fn, g, incremental[g], want)
			}
		}
	}
}

// aggBenchTable seeds rows rows across 16 groups.
func aggBenchTable(rows int) *table.Table {
	loop := eventloop.NewSim()
	tb := table.New("load", table.Infinity, 0, []int{1}, loop)
	for i := 0; i < rows; i++ {
		tb.Insert(tp("load",
			val.Str(fmt.Sprintf("g%d", i%16)),
			val.Str(fmt.Sprintf("k%d", i)),
			val.Int(int64(i))))
	}
	return tb
}

// BenchmarkAggTableIncrementalDelta measures one insert+delete pair
// against a 1k-row table under incremental maintenance — the hot path
// every table delta takes.
func BenchmarkAggTableIncrementalDelta(b *testing.B) {
	tb := aggBenchTable(1000)
	var got []*tuple.Tuple
	agg := NewAggTable(tb, AggSum, []int{0}, 2, "total")
	agg.Connect(collect(&got))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row := tp("load", val.Str("g1"), val.Str("hot"), val.Int(int64(i)))
		tb.Insert(row)
		tb.Delete(row)
		got = got[:0]
	}
}

// BenchmarkAggTableFullRecompute is the pre-incremental cost of the
// same delta: a full O(table) scan per change, for comparison.
func BenchmarkAggTableFullRecompute(b *testing.B) {
	tb := aggBenchTable(1000)
	var got []*tuple.Tuple
	agg := NewAggTable(tb, AggSum, []int{0}, 2, "total")
	agg.Connect(collect(&got))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Recompute()
		got = got[:0]
	}
}
