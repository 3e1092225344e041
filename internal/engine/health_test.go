package engine

// Engine-level tests for the condition engine: sysHealth rows delivered
// by the introspection refresh, the Conditions accessor, and the
// cross-package invariant that introspect.NetStat's drop array matches
// the transport's cause space.

import (
	"slices"
	"testing"

	"p2/internal/health"
	"p2/internal/introspect"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/transport"
)

// TestNetStatDropArityMatchesCauses pins the contract between the two
// packages that cannot import each other's constant: sysNet's trailing
// drop columns are indexed by transport.DropCause.
func TestNetStatDropArityMatchesCauses(t *testing.T) {
	var ns introspect.NetStat
	if len(ns.Drops) != transport.NumDropCauses {
		t.Fatalf("introspect.NetStat.Drops has %d slots, transport has %d causes",
			len(ns.Drops), transport.NumDropCauses)
	}
}

func TestSysHealthPopulates(t *testing.T) {
	// Explicit interval: force the refresh on without a sys* consumer.
	r := newRigOpts(t, pingPongSrc, Options{IntrospectInterval: 1}, "a", "b")
	pingN(r, "a", "b", 2)
	r.loop.Run(3)

	rows := sysRows(r, "a", introspect.HealthRelation)
	if len(rows) != len(health.ConditionTypes()) {
		t.Fatalf("sysHealth has %d rows, want %d: %v",
			len(rows), len(health.ConditionTypes()), rows)
	}
	byType := map[string]string{}
	for _, row := range rows {
		if row.Arity() != 5 {
			t.Fatalf("sysHealth row arity %d: %v", row.Arity(), row)
		}
		byType[row.Field(1).AsStr()] = row.Field(2).AsStr()
	}
	// A healthy two-node ping-pong: nothing partitioned, nothing
	// saturated.
	if byType["Partitioned"] != "False" || byType["BacklogSaturated"] != "False" {
		t.Fatalf("healthy overlay sysHealth = %v", byType)
	}

	// The Go accessor agrees with the table.
	for _, c := range r.nodes["a"].Conditions() {
		if string(c.Status) != byType[string(c.Type)] {
			t.Fatalf("Conditions() %s=%s but sysHealth says %s",
				c.Type, c.Status, byType[string(c.Type)])
		}
	}
}

// TestSysHealthReactsToInstalledRule closes the loop the subsystem is
// for: an OverLog rule listening on sysHealth deltas fires when a
// condition row changes — here, Converged flipping once the ping-pong
// burst settles.
func TestSysHealthReactsToInstalledRule(t *testing.T) {
	r := newRig(t, pingPongSrc, "a", "b")
	pingN(r, "a", "b", 2)
	r.loop.Run(2)
	err := r.nodes["a"].Install(`
		materialize(converged, infinity, infinity, keys(1,2)).
		C1 converged@N(N, S) :- sysHealth@N(N, Ty, S, Re, Si), Ty == "Converged".
	`)
	if err != nil {
		t.Fatal(err)
	}
	// Default ConvergeWindow is 5 s of table quiet; run well past it.
	r.loop.Run(12)
	rows := r.nodes["a"].Table("converged").Scan()
	found := false
	for _, row := range rows {
		if row.Field(1).AsStr() == "True" {
			found = true
		}
	}
	if !found {
		t.Fatalf("converged relation never saw Converged=True: %v (conditions %+v)",
			rows, r.nodes["a"].Conditions())
	}
}

// TestMonitorSourceInstalls grafts the shipped monitor library onto a
// live node and checks the healthAlarm machinery reacts to a real
// condition (a partitioned peer).
func TestMonitorSourceInstalls(t *testing.T) {
	r := newRig(t, pingPongSrc, "a", "b")
	pingN(r, "a", "b", 2)
	r.loop.Run(2)
	if err := r.nodes["a"].Install(health.MonitorSource()); err != nil {
		t.Fatal(err)
	}

	r.net.Partition("a", "b", true)
	pingN(r, "a", "b", 4) // these will exhaust their retry budget
	// Run long enough for the retry budget to exhaust and a refresh to
	// deliver the condition, but inside the alarm's 30 s soft-state
	// lifetime (and the 10 s suspect window that keeps it refreshed).
	r.loop.Run(16)

	alarms := r.nodes["a"].Table("healthAlarm").Scan()
	types := map[string]bool{}
	for _, row := range alarms {
		types[row.Field(1).AsStr()] = true
	}
	if !types["Partitioned"] {
		t.Fatalf("no Partitioned healthAlarm after partition: %v (conditions %+v)",
			alarms, r.nodes["a"].Conditions())
	}
	if lossy := r.nodes["a"].Table("lossyPeer").Scan(); len(lossy) == 0 {
		t.Fatalf("lossyPeer empty after retry-budget drops")
	}
}

// TestInstallMatchesStartingWithTheProgram: a node that starts on Chord
// and then installs the monitor library ends with the tables, rule
// counters and indexes of a node that started on both.
func TestInstallMatchesStartingWithTheProgram(t *testing.T) {
	chord, monitor := overlog.MustParse(overlays.ChordSource), overlog.MustParse(health.MonitorSource())
	merged, err := overlog.Merge(chord, monitor)
	if err != nil {
		t.Fatal(err)
	}
	whole := newPlanRig(t, planner.MustCompile(merged, nil), Options{}, "a").nodes["a"]
	grafted := newPlanRig(t, planner.MustCompile(chord, nil), Options{}, "a").nodes["a"]
	if err := grafted.Install(health.MonitorSource()); err != nil {
		t.Fatal(err)
	}
	shape := func(n *Node) (tables, rules []string, indexes int) {
		for _, ts := range n.TableStats() {
			tables = append(tables, ts.Name)
		}
		for _, rs := range n.RuleStats() {
			rules = append(rules, rs.ID)
		}
		return tables, rules, len(n.ctx.Indexes)
	}
	wt, wr, wi := shape(whole)
	gt, gr, gi := shape(grafted)
	if !slices.Equal(gt, wt) || !slices.Equal(gr, wr) || gi != wi {
		t.Fatalf("installed node: tables %v, rules %v, %d indexes\nwant: tables %v, rules %v, %d indexes",
			gt, gr, gi, wt, wr, wi)
	}
}
