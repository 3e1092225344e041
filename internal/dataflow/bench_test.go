package dataflow

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"p2/internal/id"
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/tuple"
	"p2/internal/val"
)

// Join.Push is the hottest element in OverLog execution. The pinned
// budget is two allocations per *emitted* match — the concatenated
// field slice and the tuple header — with the probe itself (key render,
// index consult, filter evaluation) allocation-free.

type dfClock struct{ now float64 }

func (c *dfClock) Now() float64 { return c.now }

func joinFixture(rows, fanout int) (*Join, *table.Table) {
	tb := table.New("t", table.Infinity, 0, []int{0, 1}, &dfClock{})
	for i := 0; i < rows; i++ {
		tb.Insert(tuple.New("t",
			val.Str(fmt.Sprintf("addr%d", i%(rows/fanout))), val.Int(int64(i)), val.Int(int64(i*3))))
	}
	j := NewJoin(tb, []int{0}, []int{0}, "w")
	j.Connect(discard())
	return j, tb
}

// TestJoinPushAllocBudget pins the equijoin at two allocations per
// emitted match and zero for the probe itself.
func TestJoinPushAllocBudget(t *testing.T) {
	const fanout = 8
	j, _ := joinFixture(64, fanout)
	event := tuple.New("e", val.Str("addr3"), val.Str("payload"))
	allocs := testing.AllocsPerRun(200, func() {
		j.Push(event)
	})
	if allocs > 2*fanout {
		t.Fatalf("Join.Push allocated %.1f per event (%d matches), want <= %d",
			allocs, fanout, 2*fanout)
	}
}

// TestJoinPushMissZeroAlloc pins the no-match probe — the common case
// on sparse indices — at zero allocations.
func TestJoinPushMissZeroAlloc(t *testing.T) {
	j, _ := joinFixture(64, 8)
	event := tuple.New("e", val.Str("nobody"), val.Str("payload"))
	allocs := testing.AllocsPerRun(200, func() {
		j.Push(event)
	})
	if allocs != 0 {
		t.Fatalf("no-match Join.Push allocated %.1f/op, want 0", allocs)
	}
}

// TestJoinFilteredMatchesDoNotAllocate verifies the fused-selection
// path: matches killed by the predicate must never materialize a
// concatenated tuple.
func TestJoinFilteredMatchesDoNotAllocate(t *testing.T) {
	j, _ := joinFixture(64, 8)
	// Predicate over the concatenation e(loc, pay) ++ t(loc, i, i*3):
	// field 3 (t's i) < 0 is always false, so every match is filtered.
	prog := pel.NewBuilder().Field(3).Const(val.Int(0)).Op(pel.OpLt).Build()
	j.AddFilter(prog, &pel.Env{})
	event := tuple.New("e", val.Str("addr3"), val.Str("payload"))
	allocs := testing.AllocsPerRun(200, func() {
		j.Push(event)
	})
	if allocs != 0 {
		t.Fatalf("fully-filtered Join.Push allocated %.1f/op, want 0", allocs)
	}
}

// TestJoinFusionMatchesUnfusedChain checks that a join with fused
// filter+assigns emits exactly what the unfused Join→Select→MultiAssign
// chain emits.
func TestJoinFusionMatchesUnfusedChain(t *testing.T) {
	env := &pel.Env{}
	sel := pel.NewBuilder().Field(3).Const(val.Int(30)).Op(pel.OpLt).Build()
	asn := pel.NewBuilder().Field(3).Const(val.Int(100)).Op(pel.OpAdd).Build()

	run := func(fused bool) []*tuple.Tuple {
		tb := table.New("t", table.Infinity, 0, []int{0, 1}, &dfClock{})
		for i := 0; i < 64; i++ {
			tb.Insert(tuple.New("t",
				val.Str(fmt.Sprintf("addr%d", i%8)), val.Int(int64(i)), val.Int(int64(i*3))))
		}
		var got []*tuple.Tuple
		sink := NewSink(func(tp *tuple.Tuple) { got = append(got, tp) })
		j := NewJoin(tb, []int{0}, []int{0}, "w")
		if fused {
			j.AddFilter(sel, env)
			j.AddAssigns([]*pel.Program{asn}, env)
			j.Connect(sink)
		} else {
			s := NewSelect(sel, env)
			a := NewMultiAssign([]*pel.Program{asn}, env)
			j.Connect(s)
			s.Connect(a)
			a.Connect(sink)
		}
		j.Push(tuple.New("e", val.Str("addr3"), val.Str("payload")))
		return got
	}

	fused, unfused := run(true), run(false)
	if len(fused) != len(unfused) || len(fused) == 0 {
		t.Fatalf("fused emitted %d, unfused %d", len(fused), len(unfused))
	}
	for i := range fused {
		if !fused[i].Equal(unfused[i]) {
			t.Fatalf("emit %d: fused %v != unfused %v", i, fused[i], unfused[i])
		}
	}
}

// TestMultiAssignMatchesAssignChain checks the fused assignment run
// against a chain of one-step elements, including later programs
// reading earlier results.
func TestMultiAssignMatchesAssignChain(t *testing.T) {
	env := &pel.Env{}
	p1 := pel.NewBuilder().Field(1).Const(val.Int(10)).Op(pel.OpAdd).Build()
	p2 := pel.NewBuilder().Field(2).Const(val.Int(2)).Op(pel.OpMul).Build() // reads p1's result
	in := tuple.New("e", val.Str("n"), val.Int(5))

	var fused, chained *tuple.Tuple
	ma := NewMultiAssign([]*pel.Program{p1, p2}, env)
	ma.Connect(NewSink(func(tp *tuple.Tuple) { fused = tp }))
	ma.Push(in)

	a1 := NewMultiAssign([]*pel.Program{p1}, env)
	a2 := NewMultiAssign([]*pel.Program{p2}, env)
	a1.Connect(a2)
	a2.Connect(NewSink(func(tp *tuple.Tuple) { chained = tp }))
	a1.Push(in)

	if fused == nil || chained == nil || !fused.Equal(chained) {
		t.Fatalf("fused %v != chained %v", fused, chained)
	}
}

func BenchmarkJoinPush(b *testing.B) {
	for _, fanout := range []int{1, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			j, _ := joinFixture(64, fanout)
			event := tuple.New("e", val.Str("addr3"), val.Str("payload"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Push(event)
			}
		})
	}
}

func BenchmarkJoinPushFiltered(b *testing.B) {
	j, _ := joinFixture(64, 8)
	// Keep ~1 of 8 matches, Chord-style.
	prog := pel.NewBuilder().Field(3).Const(val.Int(8)).Op(pel.OpLt).Build()
	j.AddFilter(prog, &pel.Env{})
	event := tuple.New("e", val.Str("addr0"), val.Str("payload"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Push(event)
	}
}

func BenchmarkMultiAssign(b *testing.B) {
	env := &pel.Env{}
	progs := []*pel.Program{
		pel.NewBuilder().Field(1).Const(val.Int(10)).Op(pel.OpAdd).Build(),
		pel.NewBuilder().Field(2).Const(val.Int(2)).Op(pel.OpMul).Build(),
		pel.NewBuilder().Field(3).Const(val.Int(1)).Op(pel.OpSub).Build(),
	}
	ma := NewMultiAssign(progs, env)
	ma.Connect(discard())
	in := tuple.New("e", val.Str("n"), val.Int(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma.Push(in)
	}
}

// fingerScan is rule L2's fold over a full Chord finger table:
// evt(NI, K, N) ++ finger(NI, I, B, BI), filter B in (N, K), input
// K - B - 1, reading match column B alone. target names finger i's
// node.
func fingerScan(target func(i int) int, distinct []int) (*FoldJoin, *table.Table, *tuple.Tuple) {
	tb := table.New("finger", table.Infinity, 0, []int{1}, &dfClock{})
	for i := 0; i < 160; i++ {
		tb.Insert(fingerRow(i, target(i)))
	}
	in := pel.NewBuilder().Field(5).Field(2).Field(1).In(false, false).Build()
	dist := pel.NewBuilder().Field(1).Field(5).Op(pel.OpSub).Const(val.MakeID(id.One)).Op(pel.OpSub).Build()
	f := NewFoldJoin(tb, []int{0}, []int{0}, AggMin, dist, []*pel.Program{in}, distinct, &pel.Env{})
	f.Connect(discard())
	ev := tuple.New("evt", val.Str("n0"), val.MakeID(id.Hash("key")), val.MakeID(id.Hash("n0")))
	return f, tb, ev
}

func fingerRow(i, target int) *tuple.Tuple {
	peer := fmt.Sprintf("peer%d", target)
	return tuple.New("finger", val.Str("n0"), val.Int(int64(i)), val.MakeID(id.Hash(peer)), val.Str(peer))
}

// chordTarget gives a 128-node ring's finger table its shape: the low
// 153 fingers all name the successor and the top 7 one node each, 8
// distinct targets in all.
func chordTarget(i int) int { return max(0, i-152) }

// evalsPerProbe counts the rows one probe evaluates. Which rows are
// passed over depends on the distinct columns and the bucket order, not
// on the programs, so a filterless min over the same table counts them:
// every row it evaluates bumps its match count.
func evalsPerProbe(tb *table.Table, ev *tuple.Tuple, distinct []int) float64 {
	f := NewFoldJoin(tb, []int{0}, []int{0}, AggMin, fieldProg(5), nil, distinct, &pel.Env{})
	f.Push(ev)
	return float64(f.count)
}

// BenchmarkFoldJoinFingerScan measures one lookup hop's finger scan
// (ns/op is per probe) and how many of the 160 rows it evaluates:
// chord is the table eager finger population builds, churned the same
// after 40 nodes were each replaced by a newcomer (every finger naming
// the old node rewritten in finger order, so replacements swap-remove
// and append in the bucket), all-distinct the case with nothing to pass
// over, which must cost what evaluating every row costs.
func BenchmarkFoldJoinFingerScan(b *testing.B) {
	run := func(b *testing.B, f *FoldJoin, tb *table.Table, ev *tuple.Tuple) (evals float64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Push(ev)
			f.Flush(ev)
		}
		b.StopTimer()
		evals = evalsPerProbe(tb, ev, f.distinct)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
		b.ReportMetric(evals, "evals/probe")
		return evals
	}
	b.Run("chord", func(b *testing.B) {
		f, tb, ev := fingerScan(chordTarget, []int{2})
		if e := run(b, f, tb, ev); e > 10 {
			b.Fatalf("%v evals/probe over 8 distinct targets in insertion order, want <= 10", e)
		}
	})
	b.Run("churned", func(b *testing.B) {
		f, tb, ev := fingerScan(chordTarget, []int{2})
		rng := rand.New(rand.NewSource(1))
		targets := make([]int, 160)
		for i := range targets {
			targets[i] = chordTarget(i)
		}
		for fresh := 8; fresh < 48; fresh++ {
			old := targets[rng.Intn(160)]
			for i, t := range targets {
				if t == old {
					targets[i] = fresh
					tb.Insert(fingerRow(i, fresh))
				}
			}
		}
		run(b, f, tb, ev)
	})
	b.Run("all-distinct", func(b *testing.B) {
		f, tb, ev := fingerScan(func(i int) int { return i }, []int{2})
		run(b, f, tb, ev)
		// The same scan with no distinct columns is the code before the
		// skip existed. Alternate short blocks of each and compare their
		// best times: the comparison must survive a noisy host.
		every, _, _ := fingerScan(func(i int) int { return i }, nil)
		block := func(f *FoldJoin) time.Duration {
			start := time.Now()
			for i := 0; i < 200; i++ {
				f.Push(ev)
				f.Flush(ev)
			}
			return time.Since(start)
		}
		skip, plain := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < 30; i++ {
			skip, plain = min(skip, block(f)), min(plain, block(every))
		}
		b.ReportMetric(float64(skip)/float64(plain), "vs-no-skip")
		if float64(skip) > 1.05*float64(plain) {
			b.Fatalf("160 distinct targets: %v per 200 probes with the skip check, %v without: over 5%% slower", skip, plain)
		}
	})
}
