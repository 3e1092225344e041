package dataflow

import (
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/tuple"
	"p2/internal/val"
)

// FoldJoin is the optimizer's fusion of a rule's final equijoin with
// its per-event stream aggregate. A plain Join materializes one
// concatenated tuple per surviving match and hands each to a downstream
// AggStream, which immediately reduces them to a single value — for
// aggregate-heavy rules (Chord's bestLookupDist min<> over the whole
// finger table, per lookup) that is one short-lived allocation per
// candidate row, and the dominant GC pressure of a steady-state
// overlay. FoldJoin instead evaluates the fused filters and the
// aggregate input over the virtual concatenation input++match — no
// tuple is built — and folds the value into an accumulator; Flush then
// emits a single event++aggregate tuple per trigger.
//
// The planner only produces a FoldJoin when the reduction is invisible
// in the derived tuples: min/max with every non-aggregate head field
// event-bound (ties project identically, so the dropped exemplar tuple
// was never observable), or count. Match handling mirrors the unfused
// chain exactly — a filter that fails or errors skips the row, and an
// aggregate input that errors drops the row the way the corresponding
// MultiAssign would, before it is counted.
//
// min/max are duplicate-insensitive, so when every program is pure the
// planner also hands over distinct: the match columns the programs
// read. A match identical there (val.Same) to the last one evaluated
// would fold the same value or fail the same filter, and is passed over
// without running the VM. Chord's 160 finger rows name about log N
// distinct nodes, and eager finger population leaves equal targets
// adjacent in the bucket, so a lookup hop evaluates ~8 rows, not 160.
// Only the saving depends on bucket order; the result never does.
type FoldJoin struct {
	Base
	tbl       *table.Table
	ix        *table.Index
	streamKey []int
	keyBuf    []byte

	filters  []*pel.Program
	input    *pel.Program // aggregate input; nil for count<*>
	distinct []int        // match columns the programs read; nil: evaluate every match
	fn       AggFunc
	vm       *pel.VM
	env      *pel.Env

	probes *int64

	seen  bool
	count int64
	acc   val.Value
}

// NewFoldJoin builds a fused join+aggregate element. input is the
// aggregate's value over input++match (nil only for count<*>); filters
// run before it, in order. distinct, when non-empty, promises that fn
// is min or max and that filters and input are pure functions of the
// event and those match columns.
func NewFoldJoin(tbl *table.Table, streamKey, tableKey []int,
	fn AggFunc, input *pel.Program, filters []*pel.Program, distinct []int, env *pel.Env) *FoldJoin {
	return &FoldJoin{
		tbl:       tbl,
		ix:        tbl.EnsureIndex(tableKey),
		streamKey: append([]int(nil), streamKey...),
		filters:   filters,
		input:     input,
		distinct:  distinct,
		fn:        fn,
		vm:        pel.NewVM(),
		env:       env,
		acc:       val.Null,
	}
}

// CountProbes points the element at a shared counter, as Join.CountProbes.
func (f *FoldJoin) CountProbes(p *int64) { f.probes = p }

// Push probes the table and folds every surviving match into the
// accumulator. Nothing flows downstream until Flush.
func (f *FoldJoin) Push(t *tuple.Tuple) {
	f.keyBuf = t.AppendKey(f.keyBuf[:0], f.streamKey)
	if f.probes != nil {
		*f.probes++
	}
	var prev *tuple.Tuple // last match evaluated, when distinct applies
	f.ix.Each(f.keyBuf, func(m *tuple.Tuple) bool {
		if f.probes != nil {
			*f.probes++
		}
		if len(f.distinct) > 0 {
			if prev != nil && sameAt(prev, m, f.distinct) {
				return true
			}
			prev = m
		}
		for _, p := range f.filters {
			v, err := f.vm.EvalJoined(p, t, m, f.env)
			if err != nil || !v.AsBool() {
				return true // match filtered out
			}
		}
		if f.input != nil {
			v, err := f.vm.EvalJoined(f.input, t, m, f.env)
			if err != nil {
				return true // underivable match dropped, as MultiAssign would
			}
			if !f.seen || improves(f.fn, v, f.acc) {
				f.acc = v // count never reads it
			}
			f.seen = true
		}
		f.count++
		return true
	})
}

// sameAt reports whether a and b hold identical values at every column
// in cols.
func sameAt(a, b *tuple.Tuple, cols []int) bool {
	for _, c := range cols {
		if !val.Same(a.Field(c), b.Field(c)) {
			return false
		}
	}
	return true
}

// Flush emits the aggregate result for the event and resets. Semantics
// match AggStream: min/max emit only when at least one match folded;
// count emits its (possibly zero) total on every event.
func (f *FoldJoin) Flush(event *tuple.Tuple) {
	defer f.reset()
	if event == nil {
		return
	}
	var result val.Value
	switch f.fn {
	case AggMin, AggMax:
		if !f.seen {
			return
		}
		result = f.acc
	case AggCount:
		result = val.Int(f.count)
	default:
		return
	}
	fields := make([]val.Value, 0, event.Arity()+1)
	fields = append(fields, event.Fields()...)
	fields = append(fields, result)
	f.PushOut(tuple.New(event.Name(), fields...))
}

func (f *FoldJoin) reset() {
	f.seen, f.count, f.acc = false, 0, val.Null
}
