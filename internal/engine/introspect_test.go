package engine

// Tests for the introspection subsystem: system tables fed from
// runtime counters, and OverLog rules installed at runtime that query
// them — the runtime observing itself from inside the language.

import (
	"strings"
	"testing"

	"p2/internal/health"
	"p2/internal/introspect"
	"p2/internal/tuple"
	"p2/internal/val"
)

const pingPongSrc = `
	materialize(seen, infinity, infinity, keys(1,2,3)).
	P1 ping@Y(Y, X, E) :- pingEvent@X(X, Y, E).
	P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
	P3 seen@X(X, Y, E) :- pong@X(X, Y, E).
`

func pingN(r *rig, from, to string, n int) {
	for i := 0; i < n; i++ {
		r.nodes[from].InjectTuple(tuple.New("pingEvent",
			val.Str(from), val.Str(to), val.Str("e"+string(rune('0'+i)))))
	}
}

// sysRows scans a system table into tuples.
func sysRows(r *rig, addr, rel string) []*tuple.Tuple {
	tb := r.nodes[addr].Table(rel)
	if tb == nil {
		r.t.Fatalf("%s missing system table %s", addr, rel)
	}
	return tb.ScanSorted()
}

func TestSystemTablesPopulate(t *testing.T) {
	// An explicit interval forces the refresh on even though nothing in
	// the program reads sys* (demand-driven introspection would
	// otherwise leave the tables empty — see TestIntrospectionLazy).
	r := newRigOpts(t, pingPongSrc, Options{IntrospectInterval: 1}, "a", "b")
	pingN(r, "a", "b", 3)
	r.loop.Run(5) // several introspection refreshes at 1 s

	// sysTable reports the application relation (and not sys* tables).
	var seenRow *tuple.Tuple
	for _, row := range sysRows(r, "a", introspect.TableRelation) {
		if strings.HasPrefix(row.Field(1).AsStr(), "sys") {
			t.Fatalf("sysTable reports a system table: %v", row)
		}
		if row.Field(1).AsStr() == "seen" {
			seenRow = row
		}
	}
	if seenRow == nil {
		t.Fatal("no sysTable row for relation seen")
	}
	if got := seenRow.Field(2).AsInt(); got != 3 {
		t.Fatalf("seen tuple count = %d, want 3", got)
	}
	if seenRow.Field(3).AsInt() != 3 { // inserts
		t.Fatalf("seen inserts = %v", seenRow)
	}

	// sysRule carries nonzero fire counters for the ping-pong rules.
	fires := map[string]int64{}
	for _, row := range sysRows(r, "a", introspect.RuleRelation) {
		fires[row.Field(1).AsStr()] = row.Field(2).AsInt()
	}
	// P1 (pingEvent) and P3 (pong) fire at a; P2 (ping) fires at b.
	if fires["P1"] != 3 || fires["P3"] != 3 || fires["P2"] != 0 {
		t.Fatalf("rule fires = %v", fires)
	}

	// sysNet shows traffic in both directions between the two nodes.
	aNet := sysRows(r, "a", introspect.NetRelation)
	if len(aNet) != 1 || aNet[0].Field(1).AsStr() != "b" {
		t.Fatalf("a's sysNet = %v", aNet)
	}
	if aNet[0].Field(2).AsInt() == 0 || aNet[0].Field(3).AsInt() == 0 || aNet[0].Field(4).AsInt() == 0 {
		t.Fatalf("a's sysNet has zero counters: %v", aNet[0])
	}

	// sysNode reports uptime and processed events.
	node := sysRows(r, "a", introspect.NodeRelation)
	if len(node) != 1 {
		t.Fatalf("sysNode = %v", node)
	}
	if node[0].Field(1).AsFloat() <= 0 || node[0].Field(2).AsInt() == 0 {
		t.Fatalf("sysNode counters: %v", node[0])
	}
}

// TestIntrospectionLazy pins the demand-driven default: a node whose
// program never reads a sys* relation arms no introspection timer at
// all, so the tables stay empty; health conditions still evaluate on
// demand, and a
// Go-level Watch on a system table arms the refresh after the fact.
func TestIntrospectionLazy(t *testing.T) {
	r := newRig(t, pingPongSrc, "a", "b")
	pingN(r, "a", "b", 2)
	r.loop.Run(3)

	n := r.nodes["a"]
	if n.Table(introspect.NodeRelation) != nil {
		t.Fatal("sysNode instantiated with no sys* consumer anywhere")
	}
	// Conditions evaluate on demand: a healthy ping-pong pair must not
	// report Unknown across the board.
	known := 0
	for _, c := range n.Conditions() {
		if c.Status != health.StatusUnknown {
			known++
		}
	}
	if known == 0 {
		t.Fatalf("on-demand conditions all Unknown: %+v", n.Conditions())
	}

	// A Go-level watch on a system table is a consumer: the refresh
	// arms and rows start flowing.
	var events int
	n.Watch(introspect.NodeRelation, func(WatchEvent) { events++ })
	r.loop.Run(6)
	tb := n.Table(introspect.NodeRelation)
	if tb == nil || tb.Len() == 0 || events == 0 {
		t.Fatalf("watching %s did not arm the refresh (table=%v events=%d)",
			introspect.NodeRelation, tb, events)
	}
	// Node b, still unconsumed, stays dark.
	if r.nodes["b"].Table(introspect.NodeRelation) != nil {
		t.Fatal("b instantiated sysNode; laziness must be per node")
	}
}

func TestIntrospectionDisabled(t *testing.T) {
	r := newRig(t, pingPongSrc, "a")
	// Rebuild node a with introspection off.
	n := NewNode("c", r.loop, r.net, r.nodes["a"].Plan(), Options{IntrospectInterval: -1})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(3)
	if tb := n.Table(introspect.NodeRelation); tb != nil && tb.Len() != 0 {
		t.Fatal("system tables populated despite IntrospectInterval < 0")
	}
}

// TestInstallAggregatesSystemTable is the simulated-path acceptance
// test: a rule installed at runtime joins sysTable, computes a sum
// aggregate, and exports it as a watchable materialized relation.
func TestInstallAggregatesSystemTable(t *testing.T) {
	r := newRig(t, pingPongSrc, "a", "b")
	pingN(r, "a", "b", 3)
	r.loop.Run(2)

	var inserted []*tuple.Tuple
	err := r.nodes["a"].Install(`
		materialize(totalTuples, infinity, 1, keys(1)).
		T1 totalTuples@N(N, sum<C>) :- sysTable@N(N, T, C, I, D, R).
	`)
	if err != nil {
		t.Fatal(err)
	}
	r.nodes["a"].Watch("totalTuples", func(ev WatchEvent) {
		if ev.Dir == DirInserted {
			inserted = append(inserted, ev.Tuple)
		}
	})
	r.loop.Run(5) // several refreshes after installation

	// The aggregate must equal the sum the node's own sysTable reports.
	want := int64(0)
	for _, row := range sysRows(r, "a", introspect.TableRelation) {
		want += row.Field(2).AsInt()
	}
	rows := r.nodes["a"].Table("totalTuples").Scan()
	if len(rows) != 1 {
		t.Fatalf("totalTuples rows = %v", rows)
	}
	if got := rows[0].Field(1).AsInt(); got != want || got < 3 {
		t.Fatalf("totalTuples = %d, want %d (>= 3)", got, want)
	}
	if len(inserted) == 0 {
		t.Fatal("installed relation produced no watch events")
	}

	// Node b did not install anything; it has no such table.
	if r.nodes["b"].Table("totalTuples") != nil {
		t.Fatal("install leaked to another node sharing the plan")
	}
	if r.nodes["b"].Plan().IsTable("totalTuples") {
		t.Fatal("install mutated the shared base plan")
	}
}

// TestInstallPeriodicRuleShipsSummaries covers the remaining install
// surface: a periodic rule joining a system table on one node and
// shipping derived tuples to another, plus facts in installed source.
func TestInstallPeriodicRuleShipsSummaries(t *testing.T) {
	r := newRig(t, pingPongSrc, "a", "b")
	pingN(r, "a", "b", 2)
	r.loop.Run(2)

	got := r.watch("b", "health", DirReceived)
	err := r.nodes["a"].Install(`
		materialize(mon, infinity, 1, keys(1)).
		mon@N(N, "b").
		H1 health@M(M, N, F) :- periodic@N(N, E, 1), sysRule@N(N, "P1", F), mon@N(N, M).
	`)
	if err != nil {
		t.Fatal(err)
	}
	r.loop.Run(5)
	if len(*got) == 0 {
		t.Fatal("no health summaries arrived at b")
	}
	last := (*got)[len(*got)-1]
	if last.Field(1).AsStr() != "a" || last.Field(2).AsInt() != 2 {
		t.Fatalf("health = %v, want P1 fire count 2 from a", last)
	}
}

// TestInstallJoinsSysNetControlState is the sim-path acceptance test
// for the transport-introspection columns: an installed rule joins
// sysNet's congestion window, RTO, and backlog columns and materializes
// them as an application relation.
func TestInstallJoinsSysNetControlState(t *testing.T) {
	r := newRig(t, pingPongSrc, "a", "b")
	pingN(r, "a", "b", 3)
	r.loop.Run(2)
	err := r.nodes["a"].Install(`
		materialize(peerWindow, infinity, infinity, keys(1,2)).
		W1 peerWindow@N(N, D, W, T, B) :- sysNet@N(N, D, S, R, By, Rt, W, T, B, F, DR, DC, DD, DO).
	`)
	if err != nil {
		t.Fatal(err)
	}
	// sysNet rows only produce deltas (and thus trigger the installed
	// rule) when the counters move, so generate traffic post-install.
	pingN(r, "a", "b", 2)
	r.loop.Run(3)
	rows := r.nodes["a"].Table("peerWindow").Scan()
	if len(rows) != 1 || rows[0].Field(1).AsStr() != "b" {
		t.Fatalf("peerWindow rows = %v", rows)
	}
	if w := rows[0].Field(2).AsFloat(); w < 1 {
		t.Fatalf("joined cwnd = %v, want >= 1", w)
	}
	if rto := rows[0].Field(3).AsFloat(); rto <= 0 {
		t.Fatalf("joined rto = %v, want > 0", rto)
	}
	if b := rows[0].Field(4).AsInt(); b != 0 {
		t.Fatalf("joined backlog = %d on an idle link", b)
	}
}

func TestInstallErrors(t *testing.T) {
	r := newRig(t, pingPongSrc, "a")
	n := r.nodes["a"]
	for _, tc := range []struct{ name, src, wantErr string }{
		{"parse", "bogus !!", "expected"},
		{"reserved", "materialize(sysMine, 10, 10, keys(1)).", "reserved"},
		{"sysWrite", `S1 sysTable@N(N, "fake", 9, 0, 0, 0) :- periodic@N(N, E, 1).`, "read-only"},
		{"arity", "X1 out@N(N) :- seen@N(N).", "arity"},
		{"conflictingTable", "materialize(seen, 1, 1, keys(1)).", "declared as"},
		{"unboundAggVar", "X2 out@N(N, sum<Z>) :- sysTable@N(N, T, C, I, D, R).", "not bound"},
	} {
		if err := n.Install(tc.src); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	// Failed installs must not leave partial state behind.
	if n.Table("out") != nil || n.Plan().IsTable("sysMine") {
		t.Fatal("failed install left state behind")
	}

	stopped := NewNode("z", r.loop, r.net, n.Plan(), Options{})
	if err := stopped.Install("W1 a@N(N) :- b@N(N)."); err == nil {
		t.Fatal("install before Start must fail")
	}
}

// TestInstalledRulesAppearInSysRule closes the loop: rules added at
// runtime are themselves visible to introspection.
func TestInstalledRulesAppearInSysRule(t *testing.T) {
	r := newRig(t, pingPongSrc, "a")
	if err := r.nodes["a"].Install(`
		materialize(beat, infinity, 1, keys(1)).
		B1 beat@N(N, F) :- periodic@N(N, E, 1), sysNode@N(N, U, F, Q).
	`); err != nil {
		t.Fatal(err)
	}
	r.loop.Run(4)
	for _, row := range sysRows(r, "a", introspect.RuleRelation) {
		if row.Field(1).AsStr() == "B1" {
			if row.Field(2).AsInt() == 0 {
				t.Fatal("installed rule shows zero fires after 4 s of 1 s periodics")
			}
			return
		}
	}
	t.Fatal("installed rule B1 missing from sysRule")
}
