package dataflow

import (
	"bytes"

	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/tuple"
	"p2/internal/val"
)

// FoldJoin is the planner's fusion of a rule's final equijoin with
// its per-event stream aggregate. A plain Join materializes one
// concatenated tuple per surviving match and hands each to a downstream
// AggStream, which immediately reduces them to a single value — for
// aggregate-heavy rules (Chord's bestLookupDist min<> over the whole
// finger table, per lookup) that is one short-lived allocation per
// candidate row, and the dominant GC pressure of a steady-state
// overlay. FoldJoin instead evaluates the filters and the aggregate
// input over the virtual concatenation input++match — no tuple is
// built — and folds the value into an accumulator; Flush then emits a
// single event++aggregate tuple per trigger.
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
//
// Which rows a distinct walk evaluates depends on the bucket alone,
// never on the event, so the walk is cached: the rows it evaluated,
// exact while the probe key and the table's Version (read after the
// walk's expiry pass) are the ones it was filled at. Adds, removes,
// expiry and primary-key replacement all advance Version; identical
// refreshes do not, and keep the cache. A warm lookup hop folds its ~8
// rows and visits no others; a miss walks exactly as an uncached probe
// does and records the rows it evaluates.
type FoldJoin struct {
	Base
	probe
	tbl *table.Table
	sc  *Scratch

	input    *pel.Program // aggregate input; nil for count<*>
	distinct []int        // match columns the programs read; nil: evaluate every match
	fn       AggFunc

	// The distinct rows of the last walk, and the key and Version they
	// were recorded at.
	memoKey  []byte
	memoVer  uint64
	memoRows []*tuple.Tuple
	memoOK   bool

	seen  bool
	count int64
	acc   val.Value
}

// NewFoldJoin builds a fused join+aggregate element emitting into sc.
// input is the aggregate's value over input++match (nil only for
// count<*>); filters run before it, in order. distinct, when non-empty,
// promises that fn is min or max and that filters and input are pure
// functions of the event and those match columns.
func NewFoldJoin(tbl *table.Table, streamKey, tableKey []int,
	fn AggFunc, input *pel.Program, filters []*pel.Program, distinct []int, env *pel.Env, sc *Scratch) *FoldJoin {
	f := &FoldJoin{
		probe:    newProbe(tbl, streamKey, tableKey, filters, env),
		tbl:      tbl,
		sc:       sc,
		input:    input,
		distinct: distinct,
		fn:       fn,
		acc:      val.Null,
	}
	if f.vm == nil {
		f.vm = pel.NewVM()
	}
	return f
}

// Push probes the table and folds every surviving match into the
// accumulator. Nothing flows downstream until Flush.
func (f *FoldJoin) Push(t *tuple.Tuple) {
	key := f.key(t)
	if len(f.distinct) == 0 {
		f.ix.Each(key, func(m *tuple.Tuple) bool {
			f.visit()
			f.fold(t, m)
			return true
		})
		return
	}
	f.tbl.Expire() // so Version below already counts what this probe would expire
	if f.memoOK && f.memoVer == f.tbl.Version() && bytes.Equal(f.memoKey, key) {
		for _, m := range f.memoRows {
			f.fold(t, m)
		}
		return
	}
	// The recording walk is what an all-distinct bucket pays over no
	// skip, per row, so it is one closure over a peek (this probe's
	// expiry pass ran above) and compares the first distinct column
	// inline: that column decides almost every row.
	rows := f.memoRows[:0]
	var prev *tuple.Tuple
	first, rest := f.distinct[0], f.distinct[1:]
	f.ix.PeekEach(key, func(m *tuple.Tuple) bool {
		f.visit()
		if prev != nil && val.Same(prev.Field(first), m.Field(first)) && sameAt(prev, m, rest) {
			return true
		}
		prev = m
		rows = append(rows, m)
		f.fold(t, m)
		return true
	})
	f.memoKey = append(f.memoKey[:0], key...)
	f.memoVer, f.memoRows, f.memoOK = f.tbl.Version(), rows, true
}

// fold evaluates one match over input++match and folds it into the
// accumulator.
func (f *FoldJoin) fold(t, m *tuple.Tuple) {
	if !f.pass(t, m) {
		return // match filtered out
	}
	if f.input != nil {
		v, err := f.vm.EvalJoined(f.input, t, m, f.env)
		if err != nil {
			return // underivable match dropped, as MultiAssign would
		}
		if !f.seen || improves(f.fn, v, f.acc) {
			f.acc = v // count never reads it
		}
		f.seen = true
	}
	f.count++
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

// Flush emits the aggregate result for the event, as a working tuple,
// and resets. Semantics match AggStream: min/max emit only when at least
// one match folded; count emits its (possibly zero) total on every
// event.
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
	emitAppended(&f.Base, f.sc, event, result)
}

func (f *FoldJoin) reset() {
	f.seen, f.count, f.acc = false, 0, val.Null
}
