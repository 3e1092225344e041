package kvs_test

import (
	"testing"

	"p2/internal/kvs"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
)

// TestSourceCompiles gates the spec itself: the KV rules must parse
// and plan both merged with Chord and as an Extend graft onto an
// existing Chord plan (the Install path), and the merged plan must
// carry the read-repair gate (kvPushed, KG6/KG9) beside the counted
// repair rules.
func TestSourceCompiles(t *testing.T) {
	plan := overlays.ChordKVPlan(nil)
	for _, tbl := range []string{kvs.StoreTable, kvs.ParamTable, kvs.PutPendingTable, kvs.GetPendingTable, kvs.AckedTable, "kvPushed"} {
		found := false
		for _, m := range plan.Tables {
			if m.Name == tbl {
				found = true
			}
		}
		if !found {
			t.Fatalf("merged plan is missing table %s", tbl)
		}
	}
	ids := []string{"KG6", "KG9"}
	for id := range kvs.RepairRules {
		ids = append(ids, id)
	}
	for _, id := range ids {
		found := false
		for _, r := range plan.Rules {
			if r.ID == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("repair rule %s not present in the merged plan", id)
		}
	}

	base := planner.MustCompile(overlog.MustParse(overlays.ChordSource), nil)
	if _, err := planner.Extend(base, overlog.MustParse(kvs.Source), nil); err != nil {
		t.Fatalf("KV source does not Extend a Chord plan: %v", err)
	}
}
