package dataflow

import (
	"math/rand"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/tuple"
	"p2/internal/val"
)

func env(loop eventloop.Loop) *pel.Env {
	return &pel.Env{Clock: loop, Rand: rand.New(rand.NewSource(7)), Local: "n1"}
}

// sink ends a chain in a function of each tuple.
type sink func(*tuple.Tuple)

func (f sink) Push(_ *Ctx, t *tuple.Tuple) { f(t) }

// collect ends a chain in a sink that keeps a copy of every tuple it
// receives: what reaches a sink may be a working tuple, rewritten once
// the sink returns.
func collect(out *[]*tuple.Tuple) sink {
	return func(t *tuple.Tuple) { *out = append(*out, clone(t)) }
}

func clone(t *tuple.Tuple) *tuple.Tuple {
	return tuple.New(t.Name(), append([]val.Value(nil), t.Fields()...)...)
}

// discard ends a chain whose output a benchmark or alloc pin ignores.
func discard() sink { return func(*tuple.Tuple) {} }

// node is one node's Ctx over the given indexes, ordinal 0 first, whose
// heads are collected into out (nil: dropped).
func node(e *pel.Env, out *[]*tuple.Tuple, ixs ...*table.Index) *Ctx {
	c := &Ctx{Env: e, Indexes: ixs}
	c.Deliver = func(_ int, t *tuple.Tuple) {
		if out != nil {
			*out = append(*out, t)
		}
	}
	return c
}

func TestJoinEmitsAllMatches(t *testing.T) {
	loop := eventloop.NewSim()
	// neighbor(X, Y) table with X at position 0.
	nb := table.New("neighbor", table.Infinity, 0, []int{1}, loop)
	nb.Insert(tp("neighbor", val.Str("n1"), val.Str("n2")))
	nb.Insert(tp("neighbor", val.Str("n1"), val.Str("n3")))
	nb.Insert(tp("neighbor", val.Str("nX"), val.Str("n4"))) // different X

	// Join refreshSeq(X, S) with neighbor(X, Y) on X.
	j := NewJoin(0, []int{0}, nil, nil, "r_j1")
	var got []*tuple.Tuple
	j.Connect(collect(&got))
	j.Push(node(nil, nil, nb.EnsureIndex([]int{0})), tp("refreshSeq", val.Str("n1"), val.Int(7)))

	if len(got) != 2 {
		t.Fatalf("join emitted %d tuples, want 2", len(got))
	}
	for _, g := range got {
		if g.Name() != "r_j1" || g.Arity() != 4 {
			t.Fatalf("bad joined tuple %v", g)
		}
		if g.Field(0).AsStr() != "n1" || g.Field(1).AsInt() != 7 || g.Field(2).AsStr() != "n1" {
			t.Fatalf("field layout wrong: %v", g)
		}
	}
	if got[0].Field(3).AsStr() == got[1].Field(3).AsStr() {
		t.Fatal("both matches must appear")
	}
}

func TestJoinNoMatchEmitsNothing(t *testing.T) {
	loop := eventloop.NewSim()
	nb := table.New("neighbor", table.Infinity, 0, []int{1}, loop)
	j := NewJoin(0, []int{0}, nil, nil, "out")
	var got []*tuple.Tuple
	j.Connect(collect(&got))
	j.Push(node(nil, nil, nb.EnsureIndex([]int{0})), tp("evt", val.Str("n1")))
	if len(got) != 0 {
		t.Fatalf("empty table join emitted %v", got)
	}
}

func TestJoinMultiFieldKey(t *testing.T) {
	loop := eventloop.NewSim()
	member := table.New("member", table.Infinity, 0, []int{1, 2}, loop)
	member.Insert(tp("member", val.Str("n1"), val.Str("a"), val.Int(1)))
	member.Insert(tp("member", val.Str("n1"), val.Str("b"), val.Int(2)))
	// Join on (field0, field1) of stream against (0, 1) of table.
	j := NewJoin(0, []int{0, 1}, nil, nil, "out")
	var got []*tuple.Tuple
	j.Connect(collect(&got))
	j.Push(node(nil, nil, member.EnsureIndex([]int{0, 1})), tp("refresh", val.Str("n1"), val.Str("b")))
	if len(got) != 1 || got[0].Field(4).AsInt() != 2 {
		t.Fatalf("multi-key join got %v", got)
	}
}

func TestNotJoin(t *testing.T) {
	loop := eventloop.NewSim()
	member := table.New("member", table.Infinity, 0, []int{1}, loop)
	member.Insert(tp("member", val.Str("n1"), val.Str("a")))
	nj := NewNotJoin(0, []int{1})
	c := node(nil, nil, member.EnsureIndex([]int{1}))
	var got []*tuple.Tuple
	nj.Connect(collect(&got))
	// "a" is known: eliminated.
	nj.Push(c, tp("candidate", val.Str("n1"), val.Str("a")))
	if len(got) != 0 {
		t.Fatal("antijoin must eliminate matches")
	}
	// "z" unknown: passes.
	nj.Push(c, tp("candidate", val.Str("n1"), val.Str("z")))
	if len(got) != 1 {
		t.Fatal("antijoin must pass non-matches")
	}
}

func TestSelectFilters(t *testing.T) {
	loop := eventloop.NewSim()
	// Keep tuples with field1 > 10.
	prog := pel.NewBuilder().Field(1).Const(val.Int(10)).Op(pel.OpGt).Build()
	sel := NewSelect(prog)
	c := node(env(loop), nil)
	var got []*tuple.Tuple
	sel.Connect(collect(&got))
	sel.Push(c, tp("x", val.Str("n1"), val.Int(5)))
	sel.Push(c, tp("x", val.Str("n1"), val.Int(15)))
	if len(got) != 1 || got[0].Field(1).AsInt() != 15 {
		t.Fatalf("select got %v", got)
	}
}

func TestSelectErrorDropsTuple(t *testing.T) {
	loop := eventloop.NewSim()
	bad := pel.NewBuilder().Op(pel.OpAdd).Build() // underflow
	sel := NewSelect(bad)
	var got []*tuple.Tuple
	sel.Connect(collect(&got))
	sel.Push(node(env(loop), nil), tp("x"))
	if len(got) != 0 {
		t.Fatal("error must drop the tuple")
	}
}

func TestAssignAppends(t *testing.T) {
	loop := eventloop.NewSim()
	// NewSeq := Seq + 1 where Seq is field 1.
	prog := pel.NewBuilder().Field(1).Const(val.Int(1)).Op(pel.OpAdd).Build()
	a := NewMultiAssign([]*pel.Program{prog})
	var got []*tuple.Tuple
	a.Connect(collect(&got))
	a.Push(node(env(loop), nil), tp("seq", val.Str("n1"), val.Int(41)))
	if len(got) != 1 || got[0].Arity() != 3 || got[0].Field(2).AsInt() != 42 {
		t.Fatalf("assign got %v", got)
	}
}

func TestProjectBuildsHead(t *testing.T) {
	loop := eventloop.NewSim()
	progs := []*pel.Program{
		pel.NewBuilder().Field(2).Build(),
		pel.NewBuilder().Field(0).Build(),
	}
	p := NewProject("head", progs, 7)
	var got []*tuple.Tuple
	var rules []int
	c := node(env(loop), nil)
	c.Deliver = func(rule int, t *tuple.Tuple) {
		rules = append(rules, rule)
		got = append(got, t)
	}
	p.Push(c, tp("work", val.Str("a"), val.Str("b"), val.Str("c")))
	if len(got) != 1 || got[0].Name() != "head" || rules[0] != 7 {
		t.Fatalf("project delivered %v as rules %v", got, rules)
	}
	if got[0].Field(0).AsStr() != "c" || got[0].Field(1).AsStr() != "a" {
		t.Fatalf("projection wrong: %v", got[0])
	}
}

func TestAggStreamMinIsExemplar(t *testing.T) {
	// L2-style: min<D> with D at field 1; the WHOLE winning row flows.
	agg := NewAggStream(AggMin, 1, 0)
	c := new(Ctx)
	var got []*tuple.Tuple
	agg.Connect(collect(&got))
	agg.Push(c, tp("w", val.Str("fingerA"), val.Int(30)))
	agg.Push(c, tp("w", val.Str("fingerB"), val.Int(10)))
	agg.Push(c, tp("w", val.Str("fingerC"), val.Int(99)))
	agg.Flush(c, tp("evt"))
	if len(got) != 1 {
		t.Fatalf("agg emitted %d, want 1", len(got))
	}
	// Exemplar: the non-aggregated field identifies the winning row.
	if got[0].Field(0).AsStr() != "fingerB" || got[0].Field(1).AsInt() != 10 {
		t.Fatalf("min exemplar wrong: %v", got[0])
	}
	// Flush resets state.
	got = nil
	agg.Flush(c, tp("evt"))
	if len(got) != 0 {
		t.Fatal("second flush must be empty")
	}
}

func TestAggStreamMaxPicksWinnerRow(t *testing.T) {
	// Narada P0: pick the member with the max random number — the
	// member address rides along with the winning row.
	agg := NewAggStream(AggMax, 1, 0)
	c := new(Ctx)
	var got []*tuple.Tuple
	agg.Connect(collect(&got))
	agg.Push(c, tp("w", val.Str("memberA"), val.Float(0.2)))
	agg.Push(c, tp("w", val.Str("memberB"), val.Float(0.9)))
	agg.Push(c, tp("w", val.Str("memberC"), val.Float(0.5)))
	agg.Flush(c, tp("evt"))
	if len(got) != 1 || got[0].Field(0).AsStr() != "memberB" {
		t.Fatalf("max exemplar = %v", got)
	}
}

// TestAggStreamExemplarOutlivesWorkingTuple feeds min and max a better
// row, then worse ones, all through one working tuple rewritten in place
// between pushes, as a strand's scratch does: the exemplar must keep the
// better row's fields.
func TestAggStreamExemplarOutlivesWorkingTuple(t *testing.T) {
	for _, k := range []struct {
		fn         AggFunc
		best, rest int64
	}{{AggMin, 10, 40}, {AggMax, 40, 10}} {
		agg := NewAggStream(k.fn, 1, 0)
		c := new(Ctx)
		var got []*tuple.Tuple
		agg.Connect(collect(&got))
		var w tuple.Tuple
		fields := make([]val.Value, 2)
		w.Reset("w", fields)
		push := func(name string, d int64) {
			fields[0], fields[1] = val.Str(name), val.Int(d)
			agg.Push(c, &w)
		}
		push("better", k.best)
		push("worse1", k.rest)
		push("worse2", k.rest+1)
		agg.Flush(c, tp("evt"))
		if len(got) != 1 || got[0].Field(0).AsStr() != "better" || got[0].Field(1).AsInt() != k.best {
			t.Fatalf("%v exemplar = %v, want w(better, %d)", k.fn, got, k.best)
		}
	}
}

func TestAggStreamMinMaxNoRowsEmitsNothing(t *testing.T) {
	agg := NewAggStream(AggMin, 0, 0)
	c := new(Ctx)
	var got []*tuple.Tuple
	agg.Connect(collect(&got))
	agg.Flush(c, tp("evt"))
	if len(got) != 0 {
		t.Fatal("min with no rows must emit nothing")
	}
}

func TestAggStreamCountSumAvg(t *testing.T) {
	event := tp("refresh", val.Str("n1"), val.Str("addr9"))
	check := func(fn AggFunc, want val.Value) {
		agg := NewAggStream(fn, 0, 0)
		c := new(Ctx)
		var got []*tuple.Tuple
		agg.Connect(collect(&got))
		for _, v := range []int64{4, 9, 2} {
			agg.Push(c, tp("w", val.Int(v)))
		}
		agg.Flush(c, event)
		if len(got) != 1 {
			t.Fatalf("%v emitted %d", fn, len(got))
		}
		g := got[0]
		// Accumulators emit event fields + aggregate appended.
		if g.Field(0).AsStr() != "n1" || g.Field(1).AsStr() != "addr9" {
			t.Fatalf("%v lost event fields: %v", fn, g)
		}
		if !g.Field(2).Equal(want) {
			t.Fatalf("%v = %v, want %v", fn, g.Field(2), want)
		}
	}
	check(AggCount, val.Int(3))
	check(AggSum, val.Float(15))
	check(AggAvg, val.Float(5))
}

func TestAggStreamZeroCount(t *testing.T) {
	// Narada R5/R6: count<*> with no matching rows emits C == 0.
	agg := NewAggStream(AggCount, -1, 0)
	c := new(Ctx)
	var got []*tuple.Tuple
	agg.Connect(collect(&got))
	event := tp("refresh", val.Str("n1"), val.Str("addr9"))
	agg.Flush(c, event)
	if len(got) != 1 {
		t.Fatalf("zero count not emitted: %v", got)
	}
	if got[0].Field(2).AsInt() != 0 {
		t.Fatalf("zero count = %v", got[0])
	}
	// Sum/avg with no rows stay silent.
	for _, fn := range []AggFunc{AggSum, AggAvg} {
		agg := NewAggStream(fn, 0, 0)
		c := new(Ctx)
		var out []*tuple.Tuple
		agg.Connect(collect(&out))
		agg.Flush(c, event)
		if len(out) != 0 {
			t.Fatalf("%v with no rows emitted %v", fn, out)
		}
	}
	// Nil event (defensive): nothing emitted.
	agg2 := NewAggStream(AggCount, -1, 0)
	c2 := new(Ctx)
	var out2 []*tuple.Tuple
	agg2.Connect(collect(&out2))
	agg2.Flush(c2, nil)
	if len(out2) != 0 {
		t.Fatal("nil event must emit nothing")
	}
}

func TestAggStreamAggFuncNames(t *testing.T) {
	names := map[AggFunc]string{AggMin: "min", AggMax: "max", AggCount: "count", AggSum: "sum", AggAvg: "avg"}
	for fn, want := range names {
		if fn.String() != want {
			t.Errorf("%d.String() = %q", fn, fn.String())
		}
	}
}

func TestAggTableEmitsOnChange(t *testing.T) {
	loop := eventloop.NewSim()
	succ := table.New("succDist", table.Infinity, 0, []int{1}, loop)
	var got []*tuple.Tuple
	// min<D> grouped by node address (field 0), D at field 2.
	agg := NewAggTable(new(Ctx), succ, AggMin, []int{0}, 2, "bestSuccDist")
	agg.Connect(collect(&got))

	succ.Insert(tp("succDist", val.Str("n1"), val.Str("s1"), val.Int(40)))
	if len(got) != 1 || got[0].Field(1).AsInt() != 40 {
		t.Fatalf("first agg = %v", got)
	}
	// A worse row does not change the min: no emission.
	succ.Insert(tp("succDist", val.Str("n1"), val.Str("s2"), val.Int(70)))
	if len(got) != 1 {
		t.Fatalf("no-change emitted: %v", got)
	}
	// A better row updates the min.
	succ.Insert(tp("succDist", val.Str("n1"), val.Str("s3"), val.Int(10)))
	if len(got) != 2 || got[1].Field(1).AsInt() != 10 {
		t.Fatalf("min update = %v", got)
	}
	// Deleting the best row re-raises the min.
	succ.Delete(tp("succDist", val.Str("n1"), val.Str("s3"), val.Int(10)))
	if len(got) != 3 || got[2].Field(1).AsInt() != 40 {
		t.Fatalf("after delete = %v", got)
	}
}

func TestAggTableExpiryTriggersRecompute(t *testing.T) {
	loop := eventloop.NewSim()
	succ := table.New("succDist", 10, 0, []int{1}, loop)
	var got []*tuple.Tuple
	agg := NewAggTable(new(Ctx), succ, AggMin, []int{0}, 2, "best")
	agg.Connect(collect(&got))
	succ.Insert(tp("succDist", val.Str("n1"), val.Str("s1"), val.Int(5)))
	loop.Run(5)
	succ.Insert(tp("succDist", val.Str("n1"), val.Str("s2"), val.Int(50)))
	loop.Run(11) // s1 expires
	succ.Expire()
	if len(got) != 2 || got[1].Field(1).AsInt() != 50 {
		t.Fatalf("expiry recompute = %v", got)
	}
}

// A miniature rule strand wired by hand: the R6 example from §2.5 —
// member@Y(Y, X, S, TimeY, true) :- refreshSeq@X(X, S), neighbor@X(X, Y).
// This is the integration test for the element suite before the planner
// automates the wiring.
func TestHandWiredRuleStrand(t *testing.T) {
	loop := eventloop.NewSim()
	e := env(loop)
	neighbor := table.New("neighbor", table.Infinity, 0, []int{1}, loop)
	neighbor.Insert(tp("neighbor", val.Str("n1"), val.Str("n2")))
	neighbor.Insert(tp("neighbor", val.Str("n1"), val.Str("n3")))

	join := NewJoin(0, []int{0}, nil, nil, "r6_w")
	// Work tuple layout after join: [X, S, X', Y] — project head
	// member(Y, X, S, f_now, true).
	head := NewProject("member", []*pel.Program{
		pel.NewBuilder().Field(3).Build(),
		pel.NewBuilder().Field(0).Build(),
		pel.NewBuilder().Field(1).Build(),
		pel.NewBuilder().Op(pel.OpNow).Build(),
		pel.NewBuilder().Const(val.Bool(true)).Build(),
	}, 0)
	var got []*tuple.Tuple
	join.Connect(head)

	loop.Run(3.5)
	join.Push(node(e, &got, neighbor.EnsureIndex([]int{0})), tp("refreshSeq", val.Str("n1"), val.Int(8)))

	if len(got) != 2 {
		t.Fatalf("strand derived %d tuples, want 2", len(got))
	}
	for _, m := range got {
		if m.Name() != "member" || m.Field(1).AsStr() != "n1" || m.Field(2).AsInt() != 8 {
			t.Fatalf("bad member tuple %v", m)
		}
		if m.Field(3).AsFloat() != 3.5 || !m.Field(4).AsBool() {
			t.Fatalf("timestamp/liveness wrong: %v", m)
		}
		if m.Field(0).AsStr() != "n2" && m.Field(0).AsStr() != "n3" {
			t.Fatalf("destination wrong: %v", m)
		}
	}
}

func BenchmarkJoinProbe(b *testing.B) {
	loop := eventloop.NewSim()
	nb := table.New("neighbor", table.Infinity, 0, []int{1}, loop)
	for i := 0; i < 8; i++ {
		nb.Insert(tp("neighbor", val.Str("n1"), val.Str("p"+string(rune('a'+i)))))
	}
	j := NewJoin(0, []int{0}, nil, nil, "out")
	j.Connect(discard())
	c := node(nil, nil, nb.EnsureIndex([]int{0}))
	evt := tp("refreshSeq", val.Str("n1"), val.Int(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.Push(c, evt)
	}
}
