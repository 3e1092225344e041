package introspect

import (
	"testing"

	"p2/internal/tuple"
	"p2/internal/val"
)

// TestRenderersMatchDefs: every system relation in the catalog but
// sysHealth, which rules derive, has a renderer, and each renderer
// emits the relation's name at the catalog's arity, located at the
// reporting node, fields in the documented order.
func TestRenderersMatchDefs(t *testing.T) {
	addr := val.Str("n1")
	plan := PlanTuple(addr, PlanStat{Rule: "R1", Order: "1,0", CostEst: 42.5, Replans: 2})
	net := NetTuple(addr, NetStat{
		Dest: "n2", Sent: 3, Recvd: 2, Bytes: 99, Retries: 1,
		Cwnd: 4.5, RTO: 0.2, Backlog: 7, BatchFill: 1.5,
		Drops: [4]int64{11, 12, 13, 14},
	})
	rendered := map[string]*tuple.Tuple{}
	for _, tp := range []*tuple.Tuple{
		NodeTuple(addr, NodeStat{UptimeS: 2.5, Events: 7, Queue: 3}),
		TableTuple(addr, TableStat{Name: "zeta", Tuples: 2, Inserts: 5, Deletes: 1, Refreshes: 4}),
		RuleTuple(addr, RuleStat{ID: "R1", Fires: 6}),
		plan, net,
		KVTuple(addr, KVStat{Keys: 1}),
	} {
		rendered[tp.Name()] = tp
	}
	if len(rendered) != len(Defs())-1 {
		t.Fatalf("%d renderers for %d rendered catalog relations", len(rendered), len(Defs())-1)
	}
	for _, d := range Defs() {
		if d.Name == HealthRelation {
			continue
		}
		tp := rendered[d.Name]
		if tp == nil {
			t.Fatalf("no renderer emits %s", d.Name)
		}
		if !IsReserved(tp.Name()) || tp.Arity() != d.Arity {
			t.Fatalf("%s renders at arity %d, catalog says %d", d.Name, tp.Arity(), d.Arity)
		}
		if tp.Loc() != "n1" {
			t.Fatalf("tuple not located at the node: %v", tp)
		}
	}
	if plan.Field(1).AsStr() != "R1" || plan.Field(2).AsStr() != "1,0" ||
		plan.Field(3).AsFloat() != 42.5 || plan.Field(4).AsInt() != 2 {
		t.Fatalf("sysPlan row = %v", plan)
	}
	if net.Field(1).AsStr() != "n2" || net.Field(4).AsInt() != 99 {
		t.Fatalf("sysNet row = %v", net)
	}
	if net.Field(6).AsFloat() != 4.5 || net.Field(8).AsInt() != 7 || net.Field(9).AsFloat() != 1.5 {
		t.Fatalf("sysNet control-state columns wrong: %v", net)
	}
	// Classified drop counters trail the row in DropCause order.
	for i := 0; i < 4; i++ {
		if got := net.Field(10 + i).AsInt(); got != int64(11+i) {
			t.Fatalf("sysNet drop column %d = %d, want %d", i, got, 11+i)
		}
	}
}

func TestIsReserved(t *testing.T) {
	for name, want := range map[string]bool{
		"sysTable": true, "sysAnything": true, "system": true,
		"succ": false, "Sys": false, "": false,
	} {
		if IsReserved(name) != want {
			t.Errorf("IsReserved(%q) != %v", name, want)
		}
	}
}
