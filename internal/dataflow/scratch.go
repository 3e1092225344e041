package dataflow

import (
	"p2/internal/tuple"
	"p2/internal/val"
)

// Scratch is the storage a node's strands build their working tuples
// in (Ctx.Scratch): a mark/release stack of value slots and tuple
// headers. Join,
// MultiAssign, Range, FoldJoin.Flush and AggStream's count/sum/avg take
// their output from it, push it downstream, and release it when
// PushOut returns, so a strand allocates only the head Project builds —
// the one tuple that leaves it.
//
// Why in-place reuse is safe: a node's strands run one at a time to
// completion (the engine defers every re-derivation), no element keeps
// a pushed tuple after its Push returns (AggStream's min/max exemplar
// is copied, not kept), and every take is released in the frame that
// made it, after its PushOut returns, so takes nest LIFO.
//
// Growth policy: a take that does not fit replaces the backing array
// with one exactly as long as the stack then needs. Nothing is copied:
// outstanding working tuples keep pointing into the old array, which
// the collector frees once they are released. Capacity never shrinks,
// so it settles at the largest stack depth any strand reaches — the
// sum of the working-tuple arities along its chain, which the planner
// computes when it builds the plan's strands and the engine states as
// the node's bound.
//
// The zero value is ready to use. The elements that take from a
// Scratch are shared by every node of a plan, but the Scratch is not:
// each node's lives in its Ctx, and it is not safe for concurrent use.
type Scratch struct {
	vals []val.Value
	tups []tuple.Tuple
	nv   int // value slots in use
	nt   int // tuple headers in use
}

// ScratchSize measures a Scratch: value slots and tuple headers.
type ScratchSize struct {
	Vals, Tuples int
}

// mark is a stack position to release back to.
type mark struct{ nv, nt int }

// take returns a working tuple of the given name and arity, every field
// Null, with its field slice for the caller to fill, and the mark that
// releases it. The tuple is valid until release(m).
func (s *Scratch) take(name string, arity int) (*tuple.Tuple, []val.Value, mark) {
	m := mark{s.nv, s.nt}
	if s.nv+arity > len(s.vals) {
		s.vals = make([]val.Value, s.nv+arity)
	}
	if s.nt == len(s.tups) {
		s.tups = make([]tuple.Tuple, s.nt+1)
	}
	fields := s.vals[s.nv : s.nv+arity : s.nv+arity]
	clear(fields)
	t := &s.tups[s.nt]
	t.Reset(name, fields)
	s.nv += arity
	s.nt++
	return t, fields, m
}

// release pops every take made since m.
func (s *Scratch) release(m mark) { s.nv, s.nt = m.nv, m.nt }

// Cap reports how far the scratch has grown.
func (s *Scratch) Cap() ScratchSize { return ScratchSize{len(s.vals), len(s.tups)} }
