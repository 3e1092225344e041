package overlays

import (
	"testing"

	"p2/internal/overlog"
	"p2/internal/planner"
)

func TestAllSpecsParseAndCompile(t *testing.T) {
	for _, s := range All() {
		prog, err := overlog.Parse(s.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", s.Name, err)
		}
		plan, err := planner.Compile(prog, nil)
		if err != nil {
			t.Fatalf("%s: compile: %v", s.Name, err)
		}
		if plan.RuleCount() == 0 {
			t.Fatalf("%s: no rules", s.Name)
		}
	}
}

func TestChordSpecComplexity(t *testing.T) {
	// The paper's headline: "the Chord structured overlay in only 47
	// rules". Our full spec, counting rules and the two base facts the
	// appendix also lists, must stay in that neighborhood — and far
	// from the "thousands of lines" of hand-coded implementations.
	prog := overlog.MustParse(ChordSource)
	rules := prog.RuleCount() + len(prog.Facts)
	// 56 = the appendix's rule set plus the fault-tolerance rules this
	// reproduction needed (C6/C7 re-join, CM9-CM12 successor failure
	// detection, F10/F11 fix-cycle unsticking) — each documented in the
	// spec. Still a ~47-rule-scale artifact, two orders of magnitude
	// below hand-coded implementations.
	if rules < 40 || rules > 60 {
		t.Fatalf("Chord spec = %d rules(+facts), want ~47-56", rules)
	}
	t.Logf("Chord: %d rules + %d facts, %d tables",
		prog.RuleCount(), len(prog.Facts), len(prog.Materialize))
}

func TestNaradaSpecComplexity(t *testing.T) {
	// §2.3: a Narada-style mesh in 16 rules; our spec adds the ping
	// rules P0-P3 and three bootstrap rules.
	prog := overlog.MustParse(NaradaSource)
	if prog.RuleCount() < 16 || prog.RuleCount() > 25 {
		t.Fatalf("Narada spec = %d rules", prog.RuleCount())
	}
}

func TestChordPlanShape(t *testing.T) {
	plan := ChordPlan(nil)
	// The lookup rules L1/L2 both trigger on the lookup stream.
	lookupRules := 0
	for _, r := range plan.Rules {
		if r.Trigger.Name == "lookup" {
			lookupRules++
		}
	}
	if lookupRules != 2 {
		t.Fatalf("rules triggered by lookup = %d, want 2 (L1, L2)", lookupRules)
	}
	// bestSuccDist is a continuous table aggregate.
	if len(plan.TableAggs) < 2 { // N4 bestSuccDist, S1 succCount
		t.Fatalf("table aggregates = %d, want >= 2", len(plan.TableAggs))
	}
	for _, name := range []string{"node", "succ", "finger", "bestSucc", "pred", "landmark"} {
		if !plan.IsTable(name) {
			t.Fatalf("table %s missing", name)
		}
	}
}

func TestLookupReturnsSpecSource(t *testing.T) {
	if Lookup("chord") == "" || Lookup("narada") == "" {
		t.Fatal("lookup failed")
	}
	if Lookup("nope") != "" {
		t.Fatal("unknown spec should be empty")
	}
}

func TestPlanHelpersCompile(t *testing.T) {
	if ChordPlan(nil) == nil {
		t.Fatal("plan helpers failed")
	}
	for _, src := range []string{NaradaSource, GossipSource, LinkStateSource, PingPongSource} {
		if _, err := compileSrc(src); err != nil {
			t.Fatal(err)
		}
	}
}

// compileSrc is a test helper: parse + compile one source.
func compileSrc(src string) (*planner.Plan, error) {
	prog, err := overlog.Parse(src)
	if err != nil {
		return nil, err
	}
	return planner.Compile(prog, nil)
}

// mergedPlan is a test helper: parse each source, merge them into one
// program and compile it.
func mergedPlan(t *testing.T, srcs ...string) *planner.Plan {
	t.Helper()
	var progs []*overlog.Program
	for _, src := range srcs {
		progs = append(progs, overlog.MustParse(src))
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

func TestNaradaMulticastPlanCompiles(t *testing.T) {
	plan := mergedPlan(t, NaradaSource, MeshMulticastSource)
	if !plan.IsTable("neighbor") || !plan.IsTable("seenMsg") {
		t.Fatal("merged plan missing shared tables")
	}
}
