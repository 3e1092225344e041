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

// A strand allocates only its head. Join, MultiAssign, the
// folds' flushes and the accumulators build their outputs in a Scratch
// and release them when the downstream Push returns, so the pins below
// hold every one of them at zero allocations and a whole strand at the
// one Project's head costs — its tuple, header and fields in one block.
// BenchmarkFoldJoinFingerScan pins what a lookup hop's finger fold
// evaluates and visits: about 8 of 160 rows evaluated, and none visited
// once its row cache is warm.

type dfClock struct{ now float64 }

func (c *dfClock) Now() float64 { return c.now }

func joinFixture(rows, fanout int, filters ...*pel.Program) (*Join, *Ctx) {
	tb := table.New("t", table.Infinity, 0, []int{0, 1}, &dfClock{})
	for i := 0; i < rows; i++ {
		tb.Insert(tuple.New("t",
			val.Str(fmt.Sprintf("addr%d", i%(rows/fanout))), val.Int(int64(i)), val.Int(int64(i*3))))
	}
	j := NewJoin(0, []int{0}, filters, nil, "w")
	j.Connect(discard())
	return j, node(&pel.Env{}, nil, tb.EnsureIndex([]int{0}))
}

// TestJoinPushAllocBudget pins the equijoin at zero allocations per
// event, emitted matches included: each is a working tuple in scratch.
func TestJoinPushAllocBudget(t *testing.T) {
	j, c := joinFixture(64, 8)
	event := tuple.New("e", val.Str("addr3"), val.Str("payload"))
	allocs := testing.AllocsPerRun(200, func() {
		j.Push(c, event)
	})
	if allocs != 0 {
		t.Fatalf("Join.Push allocated %.1f per event (8 matches), want 0", allocs)
	}
}

// TestStrandAllocatesOnlyTheHead pins a Join → Join → Project strand at
// one allocation per head derived, the head's block (tuple.Make): the
// intermediate joined tuples live in the shared scratch.
func TestStrandAllocatesOnlyTheHead(t *testing.T) {
	tb := table.New("t", table.Infinity, 0, []int{0, 1}, &dfClock{})
	for i := 0; i < 4; i++ {
		tb.Insert(tuple.New("t", val.Str("a"), val.Int(int64(i))))
	}
	// e(a) ++ t(a, i) ++ t(a, j): 16 heads h(i, j) per event.
	j1 := NewJoin(0, []int{0}, nil, nil, "w")
	j2 := NewJoin(0, []int{0}, nil, nil, "w")
	head := NewProject("h", []*pel.Program{fieldProg(2), fieldProg(4)}, 0)
	heads := 0
	j1.Connect(j2)
	j2.Connect(head)
	c := node(&pel.Env{}, nil, tb.EnsureIndex([]int{0}))
	c.Deliver = func(int, *tuple.Tuple) { heads++ }
	event := tuple.New("e", val.Str("a"))
	allocs := testing.AllocsPerRun(100, func() {
		heads = 0
		j1.Push(c, event)
	})
	if heads != 16 || allocs != 16 {
		t.Fatalf("Join → Join → Project allocated %.1f per event for %d heads, want 1 per head", allocs, heads)
	}
}

// TestMultiAssignPushZeroAlloc pins the fused assignment run at zero
// allocations: its extended tuple is a working tuple.
func TestMultiAssignPushZeroAlloc(t *testing.T) {
	ma := NewMultiAssign([]*pel.Program{
		pel.NewBuilder().Field(1).Const(val.Int(10)).Op(pel.OpAdd).Build(),
		pel.NewBuilder().Field(2).Const(val.Int(2)).Op(pel.OpMul).Build(),
	})
	ma.Connect(discard())
	c := node(&pel.Env{}, nil)
	in := tuple.New("e", val.Str("n"), val.Int(5))
	if allocs := testing.AllocsPerRun(200, func() { ma.Push(c, in) }); allocs != 0 {
		t.Fatalf("MultiAssign.Push allocated %.1f/op, want 0", allocs)
	}
}

// TestFoldJoinFlushAllocatesOnlyTheHead pins a fold's Push and Flush
// into Project at the head's one allocation: the event ++ aggregate
// tuple Flush emits is a working tuple. (The programs are integer
// arithmetic: ID arithmetic allocates its results in package val.)
func TestFoldJoinFlushAllocatesOnlyTheHead(t *testing.T) {
	tb := table.New("dist", table.Infinity, 0, []int{0, 1}, &dfClock{})
	for d := int64(0); d < 16; d++ {
		tb.Insert(tuple.New("dist", val.Str("n1"), val.Int(d%5), val.Int(d)))
	}
	// evt(X, V) ++ dist(X, D, U): min over V - D where D < V.
	in := pel.NewBuilder().Field(3).Field(1).Op(pel.OpLt).Build()
	gap := pel.NewBuilder().Field(1).Field(3).Op(pel.OpSub).Build()
	f := NewFoldJoin(0, []int{0}, AggMin, gap, []*pel.Program{in}, []int{1}, 0)
	f.Connect(NewProject("h", []*pel.Program{fieldProg(0), fieldProg(2)}, 0))
	c := node(&pel.Env{}, nil, tb.EnsureIndex([]int{0}))
	ev := tuple.New("evt", val.Str("n1"), val.Int(3))
	allocs := testing.AllocsPerRun(200, func() {
		f.Push(c, ev)
		f.Flush(c, ev)
	})
	if allocs != 1 {
		t.Fatalf("FoldJoin Push+Flush into Project allocated %.1f per event, want 1 (the head)", allocs)
	}
}

// TestJoinPushMissZeroAlloc pins the no-match probe — the common case
// on sparse indices — at zero allocations.
func TestJoinPushMissZeroAlloc(t *testing.T) {
	j, c := joinFixture(64, 8)
	event := tuple.New("e", val.Str("nobody"), val.Str("payload"))
	allocs := testing.AllocsPerRun(200, func() {
		j.Push(c, event)
	})
	if allocs != 0 {
		t.Fatalf("no-match Join.Push allocated %.1f/op, want 0", allocs)
	}
}

// TestJoinFilteredMatchesDoNotAllocate verifies the fused-selection
// path: matches killed by the predicate must never materialize a
// concatenated tuple.
func TestJoinFilteredMatchesDoNotAllocate(t *testing.T) {
	// Predicate over the concatenation e(loc, pay) ++ t(loc, i, i*3):
	// field 3 (t's i) < 0 is always false, so every match is filtered.
	prog := pel.NewBuilder().Field(3).Const(val.Int(0)).Op(pel.OpLt).Build()
	j, c := joinFixture(64, 8, prog)
	event := tuple.New("e", val.Str("addr3"), val.Str("payload"))
	allocs := testing.AllocsPerRun(200, func() {
		j.Push(c, event)
	})
	if allocs != 0 {
		t.Fatalf("fully-filtered Join.Push allocated %.1f/op, want 0", allocs)
	}
}

// TestJoinFusionMatchesUnfusedChain checks that a join with fused
// filter+assigns emits exactly what the unfused Join→Select→MultiAssign
// chain emits.
func TestJoinFusionMatchesUnfusedChain(t *testing.T) {
	sel := pel.NewBuilder().Field(3).Const(val.Int(30)).Op(pel.OpLt).Build()
	asn := pel.NewBuilder().Field(3).Const(val.Int(100)).Op(pel.OpAdd).Build()

	run := func(fused bool) []*tuple.Tuple {
		tb := table.New("t", table.Infinity, 0, []int{0, 1}, &dfClock{})
		for i := 0; i < 64; i++ {
			tb.Insert(tuple.New("t",
				val.Str(fmt.Sprintf("addr%d", i%8)), val.Int(int64(i)), val.Int(int64(i*3))))
		}
		var got []*tuple.Tuple
		sink := collect(&got)
		var filters, assigns []*pel.Program
		if fused {
			filters, assigns = []*pel.Program{sel}, []*pel.Program{asn}
		}
		j := NewJoin(0, []int{0}, filters, assigns, "w")
		if fused {
			j.Connect(sink)
		} else {
			s := NewSelect(sel)
			a := NewMultiAssign([]*pel.Program{asn})
			j.Connect(s)
			s.Connect(a)
			a.Connect(sink)
		}
		j.Push(node(&pel.Env{}, nil, tb.EnsureIndex([]int{0})), tuple.New("e", val.Str("addr3"), val.Str("payload")))
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
	p1 := pel.NewBuilder().Field(1).Const(val.Int(10)).Op(pel.OpAdd).Build()
	p2 := pel.NewBuilder().Field(2).Const(val.Int(2)).Op(pel.OpMul).Build() // reads p1's result
	in := tuple.New("e", val.Str("n"), val.Int(5))

	var fused, chained []*tuple.Tuple
	c := node(&pel.Env{}, nil)
	ma := NewMultiAssign([]*pel.Program{p1, p2})
	ma.Connect(collect(&fused))
	ma.Push(c, in)

	a1 := NewMultiAssign([]*pel.Program{p1})
	a2 := NewMultiAssign([]*pel.Program{p2})
	a1.Connect(a2)
	a2.Connect(collect(&chained))
	a1.Push(c, in)

	if len(fused) != 1 || len(chained) != 1 || !fused[0].Equal(chained[0]) {
		t.Fatalf("fused %v != chained %v", fused, chained)
	}
}

func BenchmarkJoinPush(b *testing.B) {
	for _, fanout := range []int{1, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			j, c := joinFixture(64, fanout)
			event := tuple.New("e", val.Str("addr3"), val.Str("payload"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.Push(c, event)
			}
		})
	}
}

func BenchmarkJoinPushFiltered(b *testing.B) {
	// Keep ~1 of 8 matches, Chord-style.
	prog := pel.NewBuilder().Field(3).Const(val.Int(8)).Op(pel.OpLt).Build()
	j, c := joinFixture(64, 8, prog)
	event := tuple.New("e", val.Str("addr0"), val.Str("payload"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Push(c, event)
	}
}

func BenchmarkMultiAssign(b *testing.B) {
	progs := []*pel.Program{
		pel.NewBuilder().Field(1).Const(val.Int(10)).Op(pel.OpAdd).Build(),
		pel.NewBuilder().Field(2).Const(val.Int(2)).Op(pel.OpMul).Build(),
		pel.NewBuilder().Field(3).Const(val.Int(1)).Op(pel.OpSub).Build(),
	}
	ma := NewMultiAssign(progs)
	ma.Connect(discard())
	c := node(&pel.Env{}, nil)
	in := tuple.New("e", val.Str("n"), val.Int(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ma.Push(c, in)
	}
}

// fingerScan is rule L2's fold over a full Chord finger table:
// evt(NI, K, N) ++ finger(NI, I, B, BI), filter B in (N, K), input
// K - B - 1, reading match column B alone. target names finger i's
// node; the fold and its event are node n0's, and so is the Ctx.
func fingerScan(target func(i int) int, distinct []int) (*FoldJoin, *Ctx, *tuple.Tuple) {
	tb := table.New("finger", table.Infinity, 0, []int{0, 1}, &dfClock{})
	for i := 0; i < 160; i++ {
		tb.Insert(fingerRow("n0", i, target(i)))
	}
	in := pel.NewBuilder().Field(5).Field(2).Field(1).In(false, false).Build()
	dist := pel.NewBuilder().Field(1).Field(5).Op(pel.OpSub).Const(val.MakeID(id.One)).Op(pel.OpSub).Build()
	f := NewFoldJoin(0, []int{0}, AggMin, dist, []*pel.Program{in}, distinct, 0)
	f.Connect(discard())
	ev := tuple.New("evt", val.Str("n0"), val.MakeID(id.Hash("key")), val.MakeID(id.Hash("n0")))
	return f, node(&pel.Env{}, nil, tb.EnsureIndex([]int{0})), ev
}

func fingerRow(node string, i, target int) *tuple.Tuple {
	peer := fmt.Sprintf("peer%d", target)
	return tuple.New("finger", val.Str(node), val.Int(int64(i)), val.MakeID(id.Hash(peer)), val.Str(peer))
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
	f := NewFoldJoin(0, []int{0}, AggMin, fieldProg(5), nil, distinct, 0)
	c := node(&pel.Env{}, nil, tb.EnsureIndex([]int{0}))
	f.Push(c, ev)
	return float64(c.fold(0).count)
}

// BenchmarkFoldJoinFingerScan measures one lookup hop's finger scan
// (ns/op is per probe), how many of the 160 rows it evaluates, and how
// many it visits once the fold's row cache is warm: chord is the table
// eager finger population builds, churned the same after 40 nodes were
// each replaced by a newcomer (every finger naming the old node
// rewritten in finger order, so replacements swap-remove and append in
// the bucket), all-distinct the case with nothing to pass over. There a
// cold probe — the table changed since the last one, so the cache
// misses and the walk records its rows — must cost what evaluating
// every row costs, within 12%.
//
// The bound was 5% while evaluating a row cost about 400 ns on a 2-core
// Xeon VM. Ring arithmetic on the payload's own words cut that to about
// 125 ns. The walk's own cost per row (comparing the distinct column,
// recording the row) read 9.9 ns against the parent's 6.7 in 12
// alternating runs until the recording walk became one closure over a
// peek; after that skip-ns/row, the difference per row, had a median of
// 7.2 ns before the arithmetic change and 7.7 ns after it, over 36
// alternating runs of each, with run-to-run quartiles about 2 ns apart.
// The ratio it makes with the cheaper rows read 1.04–1.10 in 20 runs,
// so the bound moved to 12%: about 15 ns a row, still under the 20 ns
// that 5% allowed before.
func BenchmarkFoldJoinFingerScan(b *testing.B) {
	run := func(b *testing.B, f *FoldJoin, c *Ctx, ev *tuple.Tuple) (evals, visits float64) {
		f.Push(c, ev) // the first probe records the rows
		f.Flush(c, ev)
		c.Probes = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Push(c, ev)
			f.Flush(c, ev)
		}
		b.StopTimer()
		evals = evalsPerProbe(c.Indexes[0].Table(), ev, f.distinct)
		visits = float64(c.Probes-int64(b.N)) / float64(b.N)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/probe")
		b.ReportMetric(evals, "evals/probe")
		b.ReportMetric(visits, "visits/probe")
		return evals, visits
	}
	b.Run("chord", func(b *testing.B) {
		f, c, ev := fingerScan(chordTarget, []int{2})
		e, v := run(b, f, c, ev)
		if e > 10 {
			b.Fatalf("%v evals/probe over 8 distinct targets in insertion order, want <= 10", e)
		}
		if v > 10 {
			b.Fatalf("%v visits/probe on a warm row cache, want <= 10", v)
		}
	})
	b.Run("churned", func(b *testing.B) {
		f, c, ev := fingerScan(chordTarget, []int{2})
		tb := c.Indexes[0].Table()
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
					tb.Insert(fingerRow("n0", i, fresh))
				}
			}
		}
		run(b, f, c, ev)
	})
	var skip, plain time.Duration // measured once, in the first round
	b.Run("all-distinct", func(b *testing.B) {
		f, c, ev := fingerScan(func(i int) int { return i }, []int{2})
		run(b, f, c, ev)
		if plain == 0 {
			// The same scan with no distinct columns is the code before
			// the skip existed. Before every probe, another node's finger
			// is replaced: the table's Version advances, as a real strand
			// sees it do, so every distinct probe misses its cache. Only
			// the probes are timed. Alternate many short blocks of each,
			// taking turns to go first, and compare their best times: the
			// comparison must survive a noisy host, and it is made once,
			// however many rounds the benchmark runs.
			every, everyC, _ := fingerScan(func(i int) int { return i }, nil)
			other := [2]*tuple.Tuple{fingerRow("n1", 0, 0), fingerRow("n1", 0, 1)}
			block := func(f *FoldJoin, c *Ctx) time.Duration {
				tb := c.Indexes[0].Table()
				var d time.Duration
				for i := 0; i < 50; i++ {
					tb.Insert(other[i%2])
					start := time.Now()
					f.Push(c, ev)
					f.Flush(c, ev)
					d += time.Since(start)
				}
				return d
			}
			skip, plain = time.Duration(1<<62), time.Duration(1<<62)
			for i := 0; i < 240; i++ {
				if i%2 == 0 { // neither side always goes first
					skip = min(skip, block(f, c))
				}
				plain = min(plain, block(every, everyC))
				if i%2 == 1 {
					skip = min(skip, block(f, c))
				}
			}
		}
		perRow := float64(skip-plain) / (50 * 160)
		b.ReportMetric(float64(skip)/float64(plain), "vs-no-skip")
		b.ReportMetric(perRow, "skip-ns/row")
		if float64(skip) > 1.12*float64(plain) {
			b.Fatalf("160 distinct targets, cold: %v per 50 probes with the skip and its cache, %v without (%.1f ns per row): over 12%% slower", skip, plain, perRow)
		}
	})
}
