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
	"p2/internal/transport"
)

var update = flag.Bool("update", false, "rewrite every golden plan under testdata/")

// TestExplainChordMatchesGolden pins every shipped plan byte for byte,
// so any change to the planner's choices, costs or rendering shows up
// here. The chord case is -explain's own output; the others are the
// Plan.String dumps of the other shipped overlays, of Chord+KV, of
// Chord with the health monitor library grafted through planner.Extend
// (what Install compiles), and of the health condition library grafted
// onto the empty plan as a node with a sys* audience and the default
// transport grafts it. The .textual cases pin the same compiled
// programs lowered by planner.CompileTextual (the library's by
// planner.ExtendSystem unplanned), the unplanned reference: textual
// body order, no folded aggregates. After an intended plan change,
// rewrite them all with
//
//	go test ./cmd/p2sim -run TestExplainChordMatchesGolden -update
func TestExplainChordMatchesGolden(t *testing.T) {
	empty := planner.MustCompile(overlog.MustParse(""), nil)
	narada := compile(t, overlays.NaradaSource)
	naradaMulticast := compile(t, overlays.NaradaSource, overlays.MeshMulticastSource)
	gossip := compile(t, overlays.GossipSource)
	linkstate := compile(t, overlays.LinkStateSource)
	pingpong := compile(t, overlays.PingPongSource)
	queueCap := transport.DefaultConfig().QueueCap
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
		{"health", func() string { return health.Graft(empty, queueCap).String() }},
		{"health.textual", func() string {
			lib := health.Graft(empty, queueCap)
			p, err := planner.ExtendSystem(empty, lib.Source, lib.Defines, false)
			if err != nil {
				t.Fatal(err)
			}
			return p.String()
		}},
		{"narada", narada.String},
		{"narada+multicast", naradaMulticast.String},
		{"gossip", gossip.String},
		{"linkstate", linkstate.String},
		{"pingpong", pingpong.String},
	}
	for _, c := range []struct {
		name string
		plan *planner.Plan
	}{
		{"chord", overlays.ChordPlan(nil)},
		{"chordkv", overlays.ChordKVPlan(nil)},
		{"narada", narada},
		{"narada+multicast", naradaMulticast},
		{"gossip", gossip},
		{"linkstate", linkstate},
		{"pingpong", pingpong},
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

// compile parses each source, merges them into one program and compiles
// it with no define overrides.
func compile(t *testing.T, srcs ...string) *planner.Plan {
	t.Helper()
	var progs []*overlog.Program
	for _, src := range srcs {
		prog, err := overlog.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	merged, err := overlog.Merge(progs...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Compile(merged, nil)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
