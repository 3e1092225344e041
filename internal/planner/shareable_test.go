package planner_test

import (
	"testing"

	"p2/internal/kvs"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/val"
)

// TestShareableJoinFollowsOnlySelections pins the premise of
// dataflow.ProbeCache's event-identity check: the join ShareableJoin
// picks reads the strand's event itself, so nothing but selections —
// which pass the event through untouched — may precede it. A join,
// assignment or range ahead of it would hand it a working tuple, whose
// address repeats across events. Checked over the Chord and Chord+KV
// plans, textual and planned.
func TestShareableJoinFollowsOnlySelections(t *testing.T) {
	plans := map[string][]string{
		"chord":    {overlays.ChordSource},
		"chord+kv": {overlays.ChordSource, kvs.Source},
	}
	compilers := map[string]func(*overlog.Program, map[string]val.Value) (*planner.Plan, error){
		"textual": planner.CompileTextual,
		"planned": planner.Compile,
	}
	for name, srcs := range plans {
		var progs []*overlog.Program
		for _, src := range srcs {
			progs = append(progs, overlog.MustParse(src))
		}
		merged, err := overlog.Merge(progs...)
		if err != nil {
			t.Fatal(err)
		}
		for cname, compile := range compilers {
			p, err := compile(merged, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, cname, err)
			}
			shared := 0
			for _, r := range p.Rules {
				i, ok := p.ShareableJoin(r)
				if !ok {
					continue
				}
				shared++
				if j, isJoin := r.Ops[i].(*planner.OpJoin); !isJoin || j.Neg {
					t.Errorf("%s/%s rule %s: shareable op %d is %T, not a join", name, cname, r.ID, i, r.Ops[i])
				}
				for k, op := range r.Ops[:i] {
					if _, sel := op.(*planner.OpSelect); !sel {
						t.Errorf("%s/%s rule %s: op %d (%T) precedes the shared join at %d", name, cname, r.ID, k, op, i)
					}
				}
			}
			if shared == 0 {
				t.Errorf("%s/%s: no rule has a shareable join; the check is vacuous", name, cname)
			}
		}
	}
}
