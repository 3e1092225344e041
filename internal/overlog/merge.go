package overlog

import (
	"fmt"
)

// Merge combines several OverLog programs into one, the front-end half
// of the paper's multi-overlay sharing story (§1: P2 "can compile
// multiple overlay specifications into a single dataflow"; §2.1: "Table
// names ... provide a natural way to share definitions between multiple
// overlay specifications").
//
// Rules, facts, and watches concatenate. A table materialized by more
// than one program is shared and must be declared identically —
// differing lifetimes, sizes, or keys are a conflict, not a silent
// override. Duplicate defines must agree for the same reason.
func Merge(progs ...*Program) (*Program, error) {
	out := &Program{}
	seenTables := make(map[string]*Materialize)
	seenDefines := make(map[string]*Define)
	seenWatches := make(map[string]bool)
	for _, p := range progs {
		for _, m := range p.Materialize {
			if prev, ok := seenTables[m.Name]; ok {
				if !sameMaterialize(prev, m) {
					return nil, fmt.Errorf(
						"overlog: merge: table %s declared as %s and %s",
						m.Name, prev.String(), m.String())
				}
				continue // shared declaration
			}
			seenTables[m.Name] = m
			out.Materialize = append(out.Materialize, m)
		}
		for _, d := range p.Defines {
			if prev, ok := seenDefines[d.Name]; ok {
				if !prev.Value.Equal(d.Value) {
					return nil, fmt.Errorf(
						"overlog: merge: constant %s defined as %s and %s",
						d.Name, prev.Value, d.Value)
				}
				continue
			}
			seenDefines[d.Name] = d
			out.Defines = append(out.Defines, d)
		}
		for _, w := range p.Watches {
			if !seenWatches[w] {
				seenWatches[w] = true
				out.Watches = append(out.Watches, w)
			}
		}
		out.Rules = append(out.Rules, p.Rules...)
		out.Facts = append(out.Facts, p.Facts...)
	}
	return out, nil
}

func sameMaterialize(a, b *Materialize) bool {
	if a.Name != b.Name || a.Infinite != b.Infinite || a.Lifetime != b.Lifetime ||
		a.LifetimeName != b.LifetimeName || a.Size != b.Size || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	return true
}
