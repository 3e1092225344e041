package p2_test

// Condition-transition coverage for the operability subsystem, driven
// through the public Deployment API on every runtime.
//
// TestPartitionConditionTransitions* push one node through the full
// Partitioned lifecycle — False on a healthy link, True once traffic
// toward an unreachable peer exhausts its retry budget, False again
// after the suspicion decays — on Simulated shards=1, Simulated
// shards=4, and real UDP loopback (where the peer is killed rather than
// the network cut).
//
// TestHealthSnapshotBitIdentical extends the determinism guarantee to
// the health surface: a churned 64-node Chord deployment's
// HealthSnapshot — every status, reason string, and transition time
// the condition rules derive — is bit-identical at 1 and 4 shards.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"p2"
	"p2/internal/udpnet"
)

// partSpec is fully reactive: node a pings b only when the test injects
// a pingEvent, so the test controls exactly when traffic (and therefore
// drop classification) happens.
const partSpec = `
	P1 ping@Y(Y, X, E) :- pingEvent@X(X, Y, E).
`

// healthNodeOpts tunes node defaults so failure classification plays
// out in a few seconds of virtual or wall time: a single fast retry
// before a tuple is abandoned, and sub-second introspection refreshes.
func healthNodeOpts() p2.NodeOptions {
	tcfg := p2.DefaultTransportConfig()
	tcfg.MaxRetries = 1
	tcfg.InitialRTO, tcfg.MinRTO, tcfg.MaxRTO = 0.3, 0.2, 0.5
	return p2.NodeOptions{Transport: &tcfg, IntrospectInterval: 0.5}
}

func condOf(h *p2.Handle, typ p2.ConditionType) (p2.Condition, bool) {
	for _, c := range h.Conditions() {
		if c.Type == typ {
			return c, true
		}
	}
	return p2.Condition{}, false
}

// driveTransitions runs the Partitioned lifecycle on d: healthy link →
// cut() → raised → heal() plus quiet → cleared. The call sequence is
// identical for every runtime; only the deployment, the cut/heal
// actions and the suspect window, shortened so that suspicion decays in
// a few seconds, differ. spawned, when set, sees each node as it is
// spawned.
func driveTransitions(t *testing.T, d *p2.Deployment, a, b string, window float64, cut, heal func(), spawned func(*p2.Handle)) {
	t.Helper()
	defer d.Close()
	plan := p2.MustCompile(partSpec, map[string]p2.Value{"sysSuspectWindow": p2.Float(window)})
	ha, err := d.Spawn(a, plan)
	if err != nil {
		t.Fatalf("spawn %s: %v", a, err)
	}
	hb, err := d.Spawn(b, plan)
	if err != nil {
		t.Fatalf("spawn %s: %v", b, err)
	}
	if spawned != nil {
		spawned(ha)
		spawned(hb)
	}

	eid := 0
	ping := func() {
		eid++
		err := ha.Inject(p2.NewTuple("pingEvent",
			p2.Str(a), p2.Str(b), p2.Str(fmt.Sprintf("e%d", eid))))
		if err != nil {
			t.Fatalf("inject: %v", err)
		}
	}
	// wait steps the deployment (virtual time on Simulated, wall time on
	// UDP) until Partitioned reads want on a, optionally keeping traffic
	// flowing toward b so drops accumulate.
	wait := func(want p2.ConditionStatus, traffic bool) p2.Condition {
		deadline := time.Now().Add(30 * time.Second)
		for i := 0; i < 240; i++ {
			if c, ok := condOf(ha, p2.Partitioned); ok && c.Status == want {
				return c
			}
			if time.Now().After(deadline) {
				break
			}
			if traffic {
				ping()
			}
			d.Run(0.25)
		}
		c, _ := condOf(ha, p2.Partitioned)
		t.Fatalf("Partitioned never became %s on %v (last: %+v)", want, d.Runtime(), c)
		return p2.Condition{}
	}

	// Healthy link: traffic completes, no suspects.
	first := wait(p2.ConditionFalse, true)

	// Cut it. Pings toward b now exhaust their retry budget, the
	// classifier reports RetryExhausted then PeerDead, and the condition
	// raises on the next refresh.
	cut()
	raised := wait(p2.ConditionTrue, true)
	if raised.Reason == "" {
		t.Error("raised Partitioned carries no reason")
	}
	if raised.LastTransition < first.LastTransition {
		t.Errorf("raise transition at %v predates the healthy reading at %v",
			raised.LastTransition, first.LastTransition)
	}

	// Heal and go quiet: with no failure drop advancing inside
	// SuspectWindow the suspicion decays and the condition clears — no
	// restart or respawn required.
	heal()
	healed := wait(p2.ConditionFalse, false)
	if healed.LastTransition <= raised.LastTransition {
		t.Errorf("clear transition at %v not after raise at %v",
			healed.LastTransition, raised.LastTransition)
	}
}

func TestPartitionConditionTransitionsSimulated(t *testing.T) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			simulatedTransitions(t, shards, nil)
		})
	}
}

// simulatedTransitions drives the Partitioned lifecycle on a simulated
// two-node deployment, cutting and healing the link between them.
func simulatedTransitions(t *testing.T, shards int, spawned func(*p2.Handle)) {
	t.Helper()
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(11),
		p2.WithShards(shards), p2.WithNodeDefaults(healthNodeOpts()))
	if err != nil {
		t.Fatal(err)
	}
	const a, b = "h0:p2", "h1:p2"
	driveTransitions(t, d, a, b, 3,
		func() {
			if err := d.Partition(a, b, true); err != nil {
				t.Fatalf("partition: %v", err)
			}
		},
		func() {
			if err := d.Partition(a, b, false); err != nil {
				t.Fatalf("heal: %v", err)
			}
		}, spawned)
}

func TestPartitionConditionTransitionsUDP(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		a, err := udpnet.ReserveAddr()
		if err != nil {
			t.Skipf("no loopback UDP: %v", err)
		}
		addrs = append(addrs, a)
	}
	d, err := p2.NewDeployment(p2.UDP, p2.WithSeed(11),
		p2.WithNodeDefaults(healthNodeOpts()))
	if err != nil {
		t.Fatal(err)
	}
	// On UDP the "partition" is a peer death; the heal is pure decay —
	// the survivor stops seeing new failure drops once the test stops
	// sending, and the suspicion ages out.
	driveTransitions(t, d, addrs[0], addrs[1], 2,
		func() { d.Kill(addrs[1]) },
		func() {}, nil)
}

// churnedHealthSnapshot builds a 64-node churned Chord deployment via
// the public API, every node refreshing its sys* tables so the
// condition rules run, and captures its HealthSnapshot from driver
// context.
func churnedHealthSnapshot(t *testing.T, shards int) p2.HealthSnapshot {
	t.Helper()
	plan := p2.MustCompile(p2.ChordSource, nil)
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(5), p2.WithShards(shards),
		p2.WithNodeDefaults(p2.NodeOptions{IntrospectInterval: 1}))
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
	d.Run(12)
	d.EnableChurn(20, func(dep *p2.Deployment, died string) *p2.Handle {
		return spawn(mint())
	}, landmark)
	d.Run(18)
	d.DisableChurn()
	d.Run(6)
	return d.HealthSnapshot()
}

// TestHealthSnapshotBitIdentical extends the sharded-simulation
// determinism guarantee to the operability surface: the whole health
// capture of a churned 64-node deployment — per-node statuses, reason
// strings, transition times, and the overlay rollup — is a pure
// function of (seed, program, virtual time), bit-identical at 1 and 4
// shards.
func TestHealthSnapshotBitIdentical(t *testing.T) {
	s1 := churnedHealthSnapshot(t, 1)
	s4 := churnedHealthSnapshot(t, 4)
	if !reflect.DeepEqual(s1, s4) {
		t.Errorf("health snapshots diverged:\nshards=1: %+v\nshards=4: %+v", s1, s4)
	}
	if len(s1.Nodes) == 0 {
		t.Fatal("snapshot captured no nodes")
	}
	want := len(p2.ConditionTypes())
	for _, n := range s1.Nodes {
		if len(n.Conditions) != want {
			t.Fatalf("node %s reports %d conditions, want the full catalogue of %d",
				n.Addr, len(n.Conditions), want)
		}
	}
	if len(s1.Overlay) != want {
		t.Fatalf("overlay rollup has %d conditions, want %d", len(s1.Overlay), want)
	}
	// The rules judged every condition the Chord nodes can have (they
	// run no key-value service): an all-Unknown catalogue is identical
	// at every shard count too, and proves nothing.
	for _, ct := range p2.ConditionTypes() {
		if ct == p2.KVUnderReplicated {
			continue
		}
		known := false
		for _, n := range s1.Nodes {
			for _, c := range n.Conditions {
				known = known || (c.Type == ct && c.Status != p2.ConditionUnknown)
			}
		}
		if !known {
			t.Errorf("%s reads Unknown on every node", ct)
		}
	}
}

// TestReadingConditionsChangesNothing: reading a deployment's health is
// a read. Two HealthSnapshot calls with no Run between them agree,
// whether or not the nodes have a sys* audience.
func TestReadingConditionsChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts p2.NodeOptions
	}{
		{"unmonitored", p2.NodeOptions{}},
		{"monitored", p2.NodeOptions{IntrospectInterval: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(3), p2.WithNodeDefaults(tc.opts))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			plan := p2.MustCompile(p2.ChordSource, nil)
			for i := 0; i < 8; i++ {
				addr := fmt.Sprintf("r%d:p2", i)
				h, err := d.Spawn(addr, plan)
				if err != nil {
					t.Fatal(err)
				}
				lm := "r0:p2"
				if i == 0 {
					lm = "-"
				}
				h.AddFact("landmark", p2.Str(addr), p2.Str(lm))
				h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
			}
			d.Run(3)
			first, second := d.HealthSnapshot(), d.HealthSnapshot()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("reading the conditions changed them:\nfirst:  %+v\nsecond: %+v", first, second)
			}
		})
	}
}
