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

// foldFixture builds a dist(X, D) table keyed on X with the given D
// values for key "n1", plus one row under a different key that must
// never fold.
func foldFixture(t *testing.T, ds ...int64) *table.Table {
	t.Helper()
	loop := eventloop.NewSim()
	tbl := table.New("dist", table.Infinity, 0, []int{0, 1}, loop)
	for _, d := range ds {
		tbl.Insert(tp("dist", val.Str("n1"), val.Int(d)))
	}
	tbl.Insert(tp("dist", val.Str("nX"), val.Int(-999)))
	return tbl
}

// fieldProg reads one position of the virtual concatenation.
func fieldProg(i int) *pel.Program { return pel.NewBuilder().Field(i).Build() }

// onKey0 is a Ctx whose index ordinal 0 is tbl's index on column 0.
func onKey0(tbl *table.Table, e *pel.Env) *Ctx { return node(e, nil, tbl.EnsureIndex([]int{0})) }

func runFold(f *FoldJoin, tbl *table.Table, ev *tuple.Tuple) []*tuple.Tuple {
	var got []*tuple.Tuple
	f.Connect(collect(&got))
	c := onKey0(tbl, env(eventloop.NewSim()))
	f.Push(c, ev)
	f.Flush(c, ev)
	return got
}

func TestFoldJoinMinMatchesJoinPlusAggStream(t *testing.T) {
	tbl := foldFixture(t, 30, 10, 20)
	ev := tp("evt", val.Str("n1"), val.Int(7))

	// Unfused reference: join then AggStream over the concat position 3.
	c := onKey0(tbl, nil)
	j := NewJoin(0, []int{0}, nil, nil, "w")
	agg := NewAggStream(AggMin, 3, 0)
	var ref []*tuple.Tuple
	j.Connect(agg)
	agg.Connect(collect(&ref))
	j.Push(c, ev)
	agg.Flush(c, ev)

	f := NewFoldJoin(0, []int{0}, AggMin, fieldProg(3), nil, nil, 0)
	got := runFold(f, tbl, ev)

	if len(ref) != 1 || len(got) != 1 {
		t.Fatalf("emitted ref=%d fold=%d tuples, want 1 each", len(ref), len(got))
	}
	// The reference exemplar layout differs (working tuple vs
	// event++agg), but the aggregate value and event fields must agree.
	if got[0].Arity() != 3 || got[0].Field(2).AsInt() != 10 {
		t.Fatalf("fold result = %v, want event++10", got[0])
	}
	if ref[0].Field(3).AsInt() != got[0].Field(2).AsInt() {
		t.Fatalf("fold min %v != chain min %v", got[0].Field(2), ref[0].Field(3))
	}
	if got[0].Name() != "evt" {
		t.Fatalf("fold result keeps the event name, got %q", got[0].Name())
	}
}

func TestFoldJoinMaxAndFilters(t *testing.T) {
	tbl := foldFixture(t, 30, 10, 20, 40)
	ev := tp("evt", val.Str("n1"), val.Int(7))
	// Filter: concat position 3 (D) < 40, so the largest row is excluded.
	filt := pel.NewBuilder().Field(3).Const(val.Int(40)).Op(pel.OpLt).Build()
	f := NewFoldJoin(0, []int{0}, AggMax, fieldProg(3), []*pel.Program{filt}, nil, 0)
	got := runFold(f, tbl, ev)
	if len(got) != 1 || got[0].Field(2).AsInt() != 30 {
		t.Fatalf("filtered max = %v, want 30", got)
	}
}

func TestFoldJoinMinNoMatchesEmitsNothing(t *testing.T) {
	tbl := foldFixture(t) // only the nX row
	ev := tp("evt", val.Str("n1"), val.Int(7))
	f := NewFoldJoin(0, []int{0}, AggMin, fieldProg(3), nil, nil, 0)
	if got := runFold(f, tbl, ev); len(got) != 0 {
		t.Fatalf("min over zero matches emitted %v", got)
	}
}

func TestFoldJoinCountEmitsZero(t *testing.T) {
	tbl := foldFixture(t) // no matching rows
	ev := tp("evt", val.Str("n1"), val.Int(7))
	f := NewFoldJoin(0, []int{0}, AggCount, nil, nil, nil, 0)
	got := runFold(f, tbl, ev)
	if len(got) != 1 || got[0].Field(2).AsInt() != 0 {
		t.Fatalf("count over zero matches = %v, want event++0", got)
	}
}

func TestFoldJoinErroringInputDropsRow(t *testing.T) {
	tbl := foldFixture(t, 4, 7)
	ev := tp("evt", val.Str("n1"), val.Int(8))
	// An input program that always errors (stack underflow): the
	// unfused chain's Assign drops every such row before the aggregate
	// sees it, so the fold must count nothing — and still emit the
	// count aggregate's zero.
	input := pel.NewBuilder().Op(pel.OpAdd).Build()
	f := NewFoldJoin(0, []int{0}, AggCount, input, nil, nil, 0)
	got := runFold(f, tbl, ev)
	if len(got) != 1 || got[0].Field(2).AsInt() != 0 {
		t.Fatalf("count with all rows erroring = %v, want event++0", got)
	}
}

func TestFoldJoinResetsBetweenEvents(t *testing.T) {
	tbl := foldFixture(t, 5, 9)
	f := NewFoldJoin(0, []int{0}, AggMin, fieldProg(3), nil, nil, 0)
	var got []*tuple.Tuple
	f.Connect(collect(&got))
	c := onKey0(tbl, env(eventloop.NewSim()))

	ev1 := tp("evt", val.Str("n1"), val.Int(1))
	f.Push(c, ev1)
	f.Flush(c, ev1)
	ev2 := tp("evt", val.Str("nNone"), val.Int(2))
	f.Push(c, ev2)
	f.Flush(c, ev2)

	if len(got) != 1 {
		t.Fatalf("second (matchless) event must emit nothing: %v", got)
	}
	if got[0].Field(2).AsInt() != 5 {
		t.Fatalf("first event min = %v, want 5", got[0])
	}
}

// TestFoldJoinDistinctMatchesChain is the property behind the
// duplicate-projection skip: on random rel(X, A, B, U) tables whose
// (A, B) projections repeat, in random bucket order, a FoldJoin told
// which match columns its programs read derives exactly what the
// unfused Join+AggStream chain derives — same emission count, and an
// aggregate identical in kind and payload.
func TestFoldJoinDistinctMatchesChain(t *testing.T) {
	// Concatenation evt(X, V) ++ rel(X, A, B, U): A is $3, B is $4.
	half := pel.NewBuilder().Field(3).Const(val.Int(2)).Op(pel.OpDiv).Build() // Int(3)/2 = 1, Float(3)/2 = 1.5
	bBelowV := pel.NewBuilder().Field(4).Field(1).Op(pel.OpLt).Build()
	coin := pel.NewBuilder().Op(pel.OpRand).Const(val.Float(0.5)).Op(pel.OpLt).Build()
	started := pel.NewBuilder().Op(pel.OpNow).Const(val.Int(0)).Op(pel.OpGe).Build()
	broken := pel.NewBuilder().Field(3).Op(pel.OpAdd).Build() // errors on every row, duplicates included

	cases := []struct {
		name     string
		fn       AggFunc
		input    *pel.Program
		filters  []*pel.Program
		distinct []int // what planner.tryFold would record
	}{
		{"min", AggMin, half, []*pel.Program{bBelowV}, []int{1, 2}},
		{"max", AggMax, half, []*pel.Program{bBelowV}, []int{1, 2}},
		{"min unfiltered", AggMin, half, nil, []int{1}},
		{"erroring input", AggMin, broken, nil, []int{1}},
		{"f_rand filter", AggMin, half, []*pel.Program{coin}, nil},
		{"f_now filter", AggMax, half, []*pel.Program{started, bBelowV}, nil},
		{"count<*>", AggCount, nil, []*pel.Program{bBelowV}, nil},
	}
	aVals := []val.Value{val.Int(3), val.Float(3), val.Int(4), val.Float(4.5), val.Int(-2)}
	rng := rand.New(rand.NewSource(15))
	var rows, evaluated int64 // over the "min unfiltered" trials
	for _, c := range cases {
		for trial := 0; trial < 200; trial++ {
			loop := eventloop.NewSim()
			tbl := table.New("rel", table.Infinity, 0, []int{3}, loop)
			ix := tbl.EnsureIndex([]int{0})
			row := func(u int) *tuple.Tuple {
				return tp("rel", val.Str("n1"), aVals[rng.Intn(len(aVals))], val.Int(int64(rng.Intn(3))), val.Int(int64(u)))
			}
			n := rng.Intn(40)
			for u := 0; u < n; u++ {
				tbl.Insert(row(u))
			}
			for k := rng.Intn(n + 1); k > 0; k-- { // swap-remove and re-append shuffle the bucket
				u := rng.Intn(n)
				tbl.Delete(tp("rel", val.Null, val.Null, val.Null, val.Int(int64(u))))
				tbl.Insert(row(u))
			}
			ev := tp("evt", val.Str("n1"), val.Int(int64(rng.Intn(4))))
			seed := rng.Int63()
			envFor := func() *pel.Env {
				return &pel.Env{Clock: loop, Rand: rand.New(rand.NewSource(seed)), Local: "n1"}
			}

			var assigns []*pel.Program
			aggPos := -1
			if c.input != nil {
				assigns = []*pel.Program{c.input}
				aggPos = 6
			}
			// The chain and the fold run as two nodes sharing a table,
			// each with its own randomness from the same seed.
			cj, cf := node(envFor(), nil, ix), node(envFor(), nil, ix)
			j := NewJoin(0, []int{0}, c.filters, assigns, "w")
			agg := NewAggStream(c.fn, aggPos, 0)
			var ref, got []*tuple.Tuple
			j.Connect(agg)
			agg.Connect(collect(&ref))
			f := NewFoldJoin(0, []int{0}, c.fn, c.input, c.filters, c.distinct, 0)
			f.Connect(collect(&got))

			both := func() {
				j.Push(cj, ev)
				f.Push(cf, ev)
			}
			if trial%4 == 0 && n > 0 {
				// Mid-probe delete: under a live outer probe removals leave
				// tombstones in the bucket both elements then walk.
				first := true
				ix.Each([]byte(ev.Key([]int{0})), func(*tuple.Tuple) bool {
					if first {
						first = false
						for k := rng.Intn(n); k > 0; k-- {
							tbl.Delete(tp("rel", val.Null, val.Null, val.Null, val.Int(int64(rng.Intn(n)))))
						}
						both()
					}
					return true
				})
			} else {
				both()
			}
			if c.name == "min unfiltered" {
				rows += int64(tbl.Len())
				evaluated += cf.fold(0).count
			}
			agg.Flush(cj, ev)
			f.Flush(cf, ev)

			if len(got) != len(ref) {
				t.Fatalf("%s trial %d: fold emitted %d tuples, chain %d", c.name, trial, len(got), len(ref))
			}
			if len(ref) == 1 {
				want := ref[0].Field(ref[0].Arity() - 1)
				if have := got[0].Field(2); !val.Same(have, want) {
					t.Fatalf("%s trial %d: fold %s = %v (%v), chain %v (%v)", c.name, trial, c.fn, have, have.Kind(), want, want.Kind())
				}
			}
		}
	}
	if evaluated == 0 || evaluated >= rows {
		t.Fatalf("skip never engaged: evaluated %d of %d rows", evaluated, rows)
	}
}

// TestFoldJoinCacheTracksTable probes one distinct FoldJoin over and
// over with the same key while the table takes random steps between
// probes: identical refreshes (re-inserting an Int as its equal Float
// where the row has one), primary-key replacements, deletes, inserts,
// and clock advances that expire rows with nothing else mutating. Each
// step is followed by two probes. Every probe must emit exactly what a
// fresh FoldJoin and the unfused Join+AggStream chain emit, and two
// must be answered from the cache — one probe, no row visited: the
// first after a refresh, and the second of every step, since a miss
// records its walk.
func TestFoldJoinCacheTracksTable(t *testing.T) {
	// Concatenation evt(X, V) ++ rel(X, A, B, U): A is $3, B is $4.
	half := pel.NewBuilder().Field(3).Const(val.Int(2)).Op(pel.OpDiv).Build() // Int(3)/2 = 1, Float(3)/2 = 1.5
	bBelowV := pel.NewBuilder().Field(4).Field(1).Op(pel.OpLt).Build()
	aVals := []val.Value{val.Int(3), val.Float(3), val.Int(4), val.Float(4.5), val.Int(-2)}
	twin := func(v val.Value) val.Value { // the equal value of the other kind
		if v.Kind() == val.KInt {
			return val.Float(float64(v.AsInt()))
		}
		if f := v.AsFloat(); f == float64(int64(f)) {
			return val.Int(int64(f))
		}
		return v
	}
	for _, fn := range []AggFunc{AggMin, AggMax} {
		rng := rand.New(rand.NewSource(27))
		loop := eventloop.NewSim()
		tbl := table.New("rel", 5, 0, []int{3}, loop)
		e := &pel.Env{Clock: loop, Local: "n1"}
		row := func(u int64) *tuple.Tuple {
			return tp("rel", val.Str("n1"), aVals[rng.Intn(len(aVals))], val.Int(int64(rng.Intn(3))), val.Int(u))
		}
		for u := int64(0); u < 24; u++ {
			tbl.Insert(row(u))
		}
		tbl.Insert(tp("rel", val.Str("nX"), val.Int(-9), val.Int(0), val.Int(99))) // another key, never folded

		cached := NewFoldJoin(0, []int{0}, fn, half, []*pel.Program{bBelowV}, []int{1, 2}, 0)
		c := onKey0(tbl, e)
		var got []*tuple.Tuple
		cached.Connect(collect(&got))

		refreshes, expiries := 0, 0
		for step := 0; step < 400; step++ {
			refreshed := false
			rows, k := tbl.Scan(), rng.Intn(6)
			switch {
			case k == 0 && len(rows) > 0: // identical refresh
				r := rows[rng.Intn(len(rows))]
				fs := append([]val.Value(nil), r.Fields()...)
				fs[1] = twin(fs[1])
				if tbl.Insert(tuple.New("rel", fs...)) {
					t.Fatalf("step %d: re-inserting %v as %v was not a refresh", step, r, fs)
				}
				refreshed = true
			case k == 1 && len(rows) > 0: // primary-key replacement
				tbl.Insert(row(rows[rng.Intn(len(rows))].Field(3).AsInt()))
			case k == 2 && len(rows) > 0:
				tbl.Delete(rows[rng.Intn(len(rows))])
			case k == 3:
				tbl.Insert(row(int64(100 + step)))
			default: // the clock moves on; the probe itself expires what is due
				loop.Run(loop.Now() + rng.Float64()*2)
			}
			deletes := tbl.Stats().Deletes

			if refreshed {
				refreshes++
			}
			for probe := 0; probe < 2; probe++ {
				ev := tp("evt", val.Str("n1"), val.Int(int64(rng.Intn(4))))
				got = got[:0]
				before := c.Probes
				cached.Push(c, ev)
				cached.Flush(c, ev)
				if refreshed && probe == 0 && c.Probes-before != 1 {
					t.Fatalf("step %d: probe after an identical refresh counted %d, want 1 (cache kept)", step, c.Probes-before)
				}
				if probe == 1 && c.Probes-before != 1 {
					t.Fatalf("step %d: second probe at one version counted %d, want 1 (the first recorded its walk)", step, c.Probes-before)
				}
				checkFold(t, step, fn, half, bBelowV, tbl, e, ev, got)
			}
			if k > 3 && tbl.Stats().Deletes > deletes {
				expiries++
			}
		}
		if refreshes == 0 || expiries == 0 {
			t.Fatalf("%v: %d refreshes and %d expiring clock steps: the walk proves nothing", fn, refreshes, expiries)
		}
	}
}

// checkFold holds got, what a cached fold emitted for ev, to what a
// fresh FoldJoin and the unfused chain emit for it.
func checkFold(t *testing.T, step int, fn AggFunc, input, filter *pel.Program, tbl *table.Table, e *pel.Env, ev *tuple.Tuple, got []*tuple.Tuple) {
	t.Helper()
	var fresh, ref []*tuple.Tuple
	c := onKey0(tbl, e)
	f := NewFoldJoin(0, []int{0}, fn, input, []*pel.Program{filter}, []int{1, 2}, 0)
	f.Connect(collect(&fresh))
	f.Push(c, ev)
	f.Flush(c, ev)
	j := NewJoin(0, []int{0}, []*pel.Program{filter}, []*pel.Program{input}, "w")
	agg := NewAggStream(fn, 6, 0)
	j.Connect(agg)
	agg.Connect(collect(&ref))
	j.Push(c, ev)
	agg.Flush(c, ev)

	if len(got) != len(fresh) || len(got) != len(ref) {
		t.Fatalf("step %d %v: cached fold emitted %d, fresh fold %d, chain %d", step, fn, len(got), len(fresh), len(ref))
	}
	if len(got) == 1 {
		have, again, want := got[0].Field(2), fresh[0].Field(2), ref[0].Field(6)
		if !val.Same(have, want) || !val.Same(again, want) {
			t.Fatalf("step %d %v: cached %v (%v), fresh %v (%v), chain %v (%v)",
				step, fn, have, have.Kind(), again, again.Kind(), want, want.Kind())
		}
	}
}
