package planner_test

import (
	"testing"

	"p2/internal/health"
	"p2/internal/kvs"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
)

// TestExtendMatchesWholeCompile pins grafting to compiling: extending
// the plan of A with B gives, rule for rule, the plan of A and B merged
// and compiled as one program.
func TestExtendMatchesWholeCompile(t *testing.T) {
	for _, c := range []struct{ name, a, b string }{
		{"chord+kv", overlays.ChordSource, kvs.Source},
		{"narada+multicast", overlays.NaradaSource, overlays.MeshMulticastSource},
		{"chord+monitor", overlays.ChordSource, health.MonitorSource()},
		{"pingpong+monitor", overlays.PingPongSource, health.MonitorSource()},
	} {
		a, b := overlog.MustParse(c.a), overlog.MustParse(c.b)
		ext, err := planner.Extend(planner.MustCompile(a, nil), b, nil)
		if err != nil {
			t.Fatalf("%s: extend: %v", c.name, err)
		}
		merged, err := overlog.Merge(a, b)
		if err != nil {
			t.Fatalf("%s: merge: %v", c.name, err)
		}
		if got, want := ext.String(), planner.MustCompile(merged, nil).String(); got != want {
			t.Errorf("%s: extended plan:\n%s\nwant the whole program's plan:\n%s", c.name, got, want)
		}
	}
}
