package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"p2/internal/health"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
)

var update = flag.Bool("update", false, "rewrite every golden plan under testdata/")

// TestExplainChordMatchesGolden pins every shipped plan byte for byte,
// so any change to the planner's choices, costs or rendering shows up
// here. The chord case is -explain's own output; the others are the
// Plan.String dumps of the other shipped overlays, of Chord+KV, and of
// Chord with the health monitor library grafted through planner.Extend
// (what Install compiles). The .textual cases pin the same compiled
// programs lowered by planner.CompileTextual, the unplanned reference:
// textual body order, no folded aggregates. After an intended plan
// change, rewrite them all with
//
//	go test ./cmd/p2sim -run TestExplainChordMatchesGolden -update
func TestExplainChordMatchesGolden(t *testing.T) {
	cases := []struct {
		name string
		dump func() string
	}{
		{"chord", func() string {
			var b bytes.Buffer
			explainChord(&b)
			return b.String()
		}},
		{"chordkv", func() string { return overlays.ChordKVPlan(nil).String() }},
		{"chord+health", func() string {
			p, err := planner.Extend(overlays.ChordPlan(nil), overlog.MustParse(health.MonitorSource()), nil)
			if err != nil {
				t.Fatal(err)
			}
			return p.String()
		}},
		{"narada", func() string { return overlays.NaradaPlan(nil).String() }},
		{"narada+multicast", func() string { return overlays.NaradaMulticastPlan(nil).String() }},
		{"gossip", func() string { return overlays.GossipPlan(nil).String() }},
		{"linkstate", func() string { return overlays.LinkStatePlan(nil).String() }},
		{"pingpong", func() string { return overlays.PingPongPlan(nil).String() }},
	}
	for _, c := range []struct {
		name string
		plan *planner.Plan
	}{
		{"chord", overlays.ChordPlan(nil)},
		{"chordkv", overlays.ChordKVPlan(nil)},
		{"narada", overlays.NaradaPlan(nil)},
		{"narada+multicast", overlays.NaradaMulticastPlan(nil)},
		{"gossip", overlays.GossipPlan(nil)},
		{"linkstate", overlays.LinkStatePlan(nil)},
		{"pingpong", overlays.PingPongPlan(nil)},
	} {
		cases = append(cases, struct {
			name string
			dump func() string
		}{c.name + ".textual", func() string {
			p, err := planner.CompileTextual(c.plan.Source, nil)
			if err != nil {
				t.Fatal(err)
			}
			return p.String()
		}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", c.name+".explain")
			got := []byte(c.dump())
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("plan drifted from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
			}
		})
	}
}
