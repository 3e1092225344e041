package p2_test

// Cross-runtime conformance and determinism for the Deployment API.
//
// TestDeploymentConformance drives one table-driven scenario —
// event-driven ping-pong, a monitoring rule installed at runtime, and a
// mid-scenario kill — through the *identical* Deployment/Handle call
// sequence on Simulated shards=1, Simulated shards=4, and real UDP
// loopback, and asserts all three derive the same tuple multiset. The
// simulated variants must additionally be bit-identical (event counts,
// wire totals, final clock).
//
// TestChurnedDeploymentBitIdentical is the acceptance-scale determinism
// check on the public API alone: a 64-node churned Chord deployment is
// bit-identical at shards=1 and shards=4.

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"p2"
	"p2/internal/planner"
	"p2/internal/udpnet"
)

// confSpec is the event-driven ping-pong overlay: fully reactive (no
// periodics), so the derived-tuple multiset is a pure function of the
// injected events and node liveness — identical on every runtime.
const confSpec = `
	materialize(seen, infinity, infinity, keys(1,2,3)).
	P1 ping@Y(Y, X, E) :- pingEvent@X(X, Y, E).
	P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
	P3 seen@X(X, Y, E) :- pong@X(X, Y, E).
`

// confMonitor is the runtime-installed monitoring rule: a continuous
// table aggregate counting the echoes the node has collected.
const confMonitor = `
	materialize(echoTotal, infinity, 1, keys(1)).
	C1 echoTotal@N(N, count<*>) :- seen@N(N, Y, E).
`

// confResult is everything a conformance run observes, normalized to
// node indices so simulated and UDP address spaces compare equal.
type confResult struct {
	rows   []string // "nodeIdx<-peerIdx:eventID" for every seen row, sorted
	echo   int64    // node 0's installed echoTotal aggregate
	events int      // simulated: events fired across the run (0 on UDP)
	bytes  int64    // simulated: total wire bytes (0 on UDP)
	clock  float64  // simulated: final virtual time (0 on UDP)
}

// runConformance executes the scenario on d. The call sequence below is
// the point of the test: it is byte-for-byte the same for every
// runtime — only the deployment handed in differs.
func runConformance(t *testing.T, d *p2.Deployment, addrs []string) confResult {
	t.Helper()
	plan := p2.MustCompile(confSpec, nil)

	var nodes []*p2.Handle
	for _, addr := range addrs {
		h, err := d.Spawn(addr, plan)
		if err != nil {
			t.Fatalf("spawn %s: %v", addr, err)
		}
		nodes = append(nodes, h)
	}
	if err := nodes[0].Install(confMonitor); err != nil {
		t.Fatalf("install: %v", err)
	}

	res := confResult{}
	run := func(seconds float64) { res.events += d.Run(seconds) }
	// waitFor polls cond between run steps: bounded virtual time on a
	// simulated deployment, bounded wall time on UDP.
	waitFor := func(what string, cond func() bool) {
		deadline := time.Now().Add(20 * time.Second)
		for i := 0; i < 400; i++ {
			if cond() {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			run(0.25)
		}
		t.Fatalf("%s: condition never held (runtime %v)", what, d.Runtime())
	}
	ping := func(from, to int, eid string) {
		err := nodes[from].Inject(p2.NewTuple("pingEvent",
			p2.Str(addrs[from]), p2.Str(addrs[to]), p2.Str(eid)))
		if err != nil {
			t.Fatalf("inject %s: %v", eid, err)
		}
	}
	seenCount := func(i int) int { return nodes[i].TableLen("seen") }

	// Phase 1: a ring of pings plus a self-ping.
	ping(0, 1, "e1")
	ping(1, 2, "e2")
	ping(2, 0, "e3")
	ping(0, 0, "e4")
	waitFor("phase 1 echoes", func() bool {
		return seenCount(0) == 2 && seenCount(1) == 1 && seenCount(2) == 1
	})

	// Phase 2: kill node 2, then ping both the dead node (never
	// completes) and a live one (completes).
	d.Kill(addrs[2])
	ping(0, 2, "e5")
	ping(0, 1, "e6")
	waitFor("phase 2 echoes", func() bool { return seenCount(0) == 3 })
	run(2) // grace: give e5 every chance to (wrongly) complete
	waitFor("installed aggregate", func() bool {
		rows := nodes[0].Scan("echoTotal")
		return len(rows) == 1 && rows[0].Field(1).AsInt() == 3
	})

	// Collect the normalized derived-tuple multiset from the survivors.
	idx := make(map[string]int, len(addrs))
	for i, a := range addrs {
		idx[a] = i
	}
	for i, h := range nodes {
		if !h.Running() {
			continue
		}
		for _, row := range h.Scan("seen") {
			res.rows = append(res.rows,
				fmt.Sprintf("%d<-%d:%s", i, idx[row.Field(1).AsStr()], row.Field(2).AsStr()))
		}
	}
	sort.Strings(res.rows)
	if rows := nodes[0].Scan("echoTotal"); len(rows) == 1 {
		res.echo = rows[0].Field(1).AsInt()
	}
	if d.Runtime() == p2.Simulated {
		res.bytes = d.NetTotals().BytesSent
		res.clock = d.Now()
	}
	return res
}

func TestDeploymentConformance(t *testing.T) {
	// e3's echo lives on node 2, which dies in phase 2 — its state dies
	// with it, so the surviving multiset is the same on every runtime.
	want := []string{"0<-0:e4", "0<-1:e1", "0<-1:e6", "1<-2:e2"}

	results := make(map[string]confResult)
	for _, shards := range []int{1, 4} {
		d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(17), p2.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		results[fmt.Sprintf("sim/shards=%d", shards)] = runConformance(t, d, []string{"c0:p2", "c1:p2", "c2:p2", "c3:p2"})
		d.Close()
	}

	var udpAddrs []string
	for i := 0; i < 4; i++ {
		a, err := udpnet.ReserveAddr()
		if err != nil {
			t.Skipf("no loopback UDP: %v", err)
		}
		udpAddrs = append(udpAddrs, a)
	}
	du, err := p2.NewDeployment(p2.UDP, p2.WithSeed(17),
		p2.WithNodeDefaults(p2.NodeOptions{IntrospectInterval: -1}))
	if err != nil {
		t.Fatal(err)
	}
	results["udp"] = runConformance(t, du, udpAddrs)
	du.Close()

	// Every runtime derived the same tuple multiset.
	for name, r := range results {
		if got := strings.Join(r.rows, " "); got != strings.Join(want, " ") {
			t.Errorf("%s: derived multiset = %v, want %v", name, r.rows, want)
		}
		if r.echo != 3 {
			t.Errorf("%s: installed echoTotal = %d, want 3", name, r.echo)
		}
	}
	// The simulated variants are bit-identical, not merely equivalent.
	s1, s4 := results["sim/shards=1"], results["sim/shards=4"]
	if s1.events != s4.events || s1.bytes != s4.bytes || s1.clock != s4.clock {
		t.Errorf("sim shards=1 vs 4 diverged: events %d vs %d, bytes %d vs %d, clock %v vs %v",
			s1.events, s4.events, s1.bytes, s4.bytes, s1.clock, s4.clock)
	}
}

// runChurnedChord builds a 64-node churned Chord deployment through
// nothing but the public API and summarizes it exactly.
func runChurnedChord(t *testing.T, shards int) (events int, totals p2.NetTotals, digest string) {
	t.Helper()
	plan := p2.MustCompile(p2.ChordSource, nil)
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(5), p2.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const landmark = "d0:p2"
	next := 0
	mint := func() string { a := fmt.Sprintf("d%d:p2", next); next++; return a }
	spawn := func(addr string) *p2.Handle {
		h, err := d.Spawn(addr, plan)
		if err != nil {
			t.Fatalf("spawn %s: %v", addr, err)
		}
		lm := "-"
		if addr != landmark {
			lm = landmark
		}
		h.AddFact("landmark", p2.Str(addr), p2.Str(lm))
		h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
		return h
	}
	for i := 0; i < 64; i++ {
		addr := mint()
		d.At(float64(i)*0.05, func() { spawn(addr) })
	}
	events += d.Run(15)
	d.EnableChurn(20, func(dep *p2.Deployment, died string) *p2.Handle {
		return spawn(mint())
	}, landmark)
	events += d.Run(25)
	d.DisableChurn()
	events += d.Run(8)

	var sb strings.Builder
	for _, h := range d.Nodes() {
		sb.WriteString(h.Addr())
		sb.WriteString("->")
		if rows := h.Scan("bestSucc"); len(rows) == 1 {
			sb.WriteString(rows[0].Field(2).AsStr())
		} else {
			sb.WriteString("?")
		}
		sb.WriteString(";")
	}
	return events, d.NetTotals(), sb.String()
}

// TestChurnedDeploymentBitIdentical is the acceptance criterion: a
// 64-node churned simulated deployment built via the public API — At
// spawn staggering, EnableChurn kills and replacements through the
// barrier control lane — reports bit-identical event counts, traffic
// bytes, and final topology at 1 and 4 shards.
func TestChurnedDeploymentBitIdentical(t *testing.T) {
	e1, t1, d1 := runChurnedChord(t, 1)
	e4, t4, d4 := runChurnedChord(t, 4)
	if e1 != e4 {
		t.Errorf("events: %d (shards=1) vs %d (shards=4)", e1, e4)
	}
	if t1 != t4 {
		t.Errorf("net totals: %+v vs %+v", t1, t4)
	}
	if d1 != d4 {
		t.Errorf("ring digest diverged:\n  %s\n  %s", d1, d4)
	}
	if e1 == 0 || t1.BytesSent == 0 || !strings.Contains(d1, "->d") {
		t.Fatalf("workload too trivial: events=%d bytes=%d", e1, t1.BytesSent)
	}
}

// TestOneTemplatePerDeployment: Compile plans a program once, and every
// node runs the plan it was spawned with — on any shard, since a
// compiled plan never changes. An Install gives its node an extended
// copy and leaves every other node's plan untouched.
func TestOneTemplatePerDeployment(t *testing.T) {
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(1), p2.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var addrs []string
	for i := 0; len(addrs) < 2; i++ {
		a := fmt.Sprintf("t%d:p2", i)
		if len(addrs) == 0 || d.ShardOf(a) != d.ShardOf(addrs[0]) {
			addrs = append(addrs, a)
		}
	}
	plan := p2.MustCompile(p2.ChordSource, nil)
	var hs []*p2.Handle
	var plans []*p2.Plan
	for _, a := range addrs {
		h, err := d.Spawn(a, plan)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
		h.Do(func(n *p2.Node) { plans = append(plans, n.Plan()) })
	}
	d.Run(3) // both shards run the shared rules at once (go test -race)
	if plans[0] != plan || plans[1] != plan {
		t.Fatalf("%s and %s on shards %d and %d run their own plans, not the one they were spawned with",
			addrs[0], addrs[1], d.ShardOf(addrs[0]), d.ShardOf(addrs[1]))
	}
	planned := 0
	for _, r := range plan.Rules {
		if r.Order != nil {
			planned++
		}
	}
	if planned == 0 {
		t.Fatal("Compile planned no Chord rule; the check is vacuous")
	}

	before := append([]*planner.Rule(nil), plan.Rules...)
	if err := hs[0].Install(`I1 fingerSeen@N(N, B) :- lookup@N(N, K, R, E), finger@N(N, I, B, BI).`); err != nil {
		t.Fatal(err)
	}
	d.Run(3)
	var a, b *p2.Plan
	hs[0].Do(func(n *p2.Node) { a = n.Plan() })
	hs[1].Do(func(n *p2.Node) { b = n.Plan() })
	if a == plan || len(a.Rules) != len(before)+1 || a.Rules[len(before)].Order == nil {
		t.Fatalf("%s runs %d rules after Install, want its own plan of %d with I1 planned", addrs[0], len(a.Rules), len(before)+1)
	}
	if b != plan || len(b.Rules) != len(before) {
		t.Fatalf("Install on %s moved %s off the shared plan (%d rules)", addrs[0], addrs[1], len(b.Rules))
	}
	for i, r := range b.Rules {
		if r != before[i] {
			t.Fatalf("Install on %s replaced %s's rule %s", addrs[0], addrs[1], r.ID)
		}
	}
}
