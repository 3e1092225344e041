package p2_test

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"p2"
	"p2/internal/chordref"
)

// kvRing boots an n-node simulated Chord+KV ring and settles it.
func kvRing(t *testing.T, n, shards int, seed int64) (*p2.Deployment, []*p2.Handle) {
	t.Helper()
	return kvRingDefines(t, n, shards, seed, nil)
}

// kvRingDefines is kvRing with the specs compiled under defines.
func kvRingDefines(t *testing.T, n, shards int, seed int64, defines map[string]p2.Value) (*p2.Deployment, []*p2.Handle) {
	t.Helper()
	plan, err := p2.CompileMulti(defines, p2.ChordSource, p2.KVSource)
	if err != nil {
		t.Fatalf("compile chord+kv: %v", err)
	}
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(seed), p2.WithShards(shards))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	var nodes []*p2.Handle
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("kv%02d:p2", i)
		h, err := d.Spawn(addr, plan)
		if err != nil {
			t.Fatal(err)
		}
		landmark := "-"
		if i > 0 {
			landmark = "kv00:p2"
		}
		h.AddFact("landmark", p2.Str(addr), p2.Str(landmark))
		h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
		nodes = append(nodes, h)
		d.Run(1)
	}
	d.Run(180) // stabilize the ring before serving traffic
	return d, nodes
}

// TestKVPutGet drives the whole client surface on a settled ring:
// writes reach quorum, reads return the written value at the written
// version, overwrites supersede, misses and staleness report
// honestly, and sysKV accounts for the replicated rows.
func TestKVPutGet(t *testing.T) {
	d, nodes := kvRing(t, 16, 4, 11)

	const keys = 20
	puts := make([]*p2.KVOp, keys)
	for i := range puts {
		op, err := nodes[i%len(nodes)].Put(fmt.Sprintf("key/%d", i), fmt.Sprintf("v1/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		puts[i] = op
	}
	d.Run(30)
	for i, op := range puts {
		if !op.Done {
			t.Fatalf("put %d never reached quorum", i)
		}
	}

	gets := make([]*p2.KVOp, keys)
	for i := range gets {
		op, err := nodes[(i+7)%len(nodes)].Get(fmt.Sprintf("key/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		gets[i] = op
	}
	d.Run(30)
	for i, op := range gets {
		if !op.Done {
			t.Fatalf("get %d never completed", i)
		}
		if !op.Found || op.Value != fmt.Sprintf("v1/%d", i) {
			t.Fatalf("get %d: found=%v value=%q", i, op.Found, op.Value)
		}
		if op.Stale {
			t.Fatalf("get %d reported stale after its put was acked", i)
		}
		if op.Ver != puts[i].Ver {
			t.Fatalf("get %d: version %d, want the put's %d", i, op.Ver, puts[i].Ver)
		}
	}

	// Overwrite: the newer version wins and the read is not stale.
	over, err := nodes[3].Put("key/0", "v2/0")
	if err != nil {
		t.Fatal(err)
	}
	d.Run(30)
	re, err := nodes[9].Get("key/0")
	if err != nil {
		t.Fatal(err)
	}
	d.Run(30)
	if !re.Done || re.Value != "v2/0" || re.Ver != over.Ver || re.Stale {
		t.Fatalf("overwrite read: done=%v value=%q ver=%d stale=%v", re.Done, re.Value, re.Ver, re.Stale)
	}

	// Miss: a key never written reports not-found, not an error.
	miss, err := nodes[5].Get("never/written")
	if err != nil {
		t.Fatal(err)
	}
	d.Run(30)
	if !miss.Done || miss.Found || miss.Stale {
		t.Fatalf("miss: done=%v found=%v stale=%v", miss.Done, miss.Found, miss.Stale)
	}

	// sysKV accounting: the replica fan-out should put each key on
	// several nodes, and the parameters should be the spec's defines.
	totalKeys, withParams := 0, 0
	for _, h := range nodes {
		st, ok := h.KVStats()
		if !ok {
			t.Fatalf("%s runs the KV rules but reports no sysKV row", h.Addr())
		}
		totalKeys += st.Keys
		if st.Replicas == p2.KVReplicas && st.Quorum == p2.KVQuorum {
			withParams++
		}
	}
	if totalKeys < keys*p2.KVQuorum {
		t.Fatalf("only %d replicated rows across the ring for %d keys (quorum %d)", totalKeys, keys, p2.KVQuorum)
	}
	if withParams != len(nodes) {
		t.Fatalf("%d/%d nodes derived the replication parameters", withParams, len(nodes))
	}
}

// TestKVSurvivesOwnerFailure is the re-replication path end-to-end: a
// quorum-acked key outlives the failure of its owner because the
// successor list already holds copies and inherits ownership when the
// ring re-converges.
func TestKVSurvivesOwnerFailure(t *testing.T) {
	d, nodes := kvRing(t, 12, 2, 23)

	put, err := nodes[1].Put("precious", "survives")
	if err != nil {
		t.Fatal(err)
	}
	d.Run(30)
	if !put.Done {
		t.Fatal("put never reached quorum")
	}

	live := d.Addrs()
	owner := chordref.Owner(p2.Hash("precious"), live)
	d.Kill(owner)
	d.Run(90) // failure detection, stabilization, anti-entropy

	var reader *p2.Handle
	for _, h := range nodes {
		if h.Addr() != owner {
			reader = h
			break
		}
	}
	get, err := reader.Get("precious")
	if err != nil {
		t.Fatal(err)
	}
	d.Run(30)
	if !get.Done {
		t.Fatal("get after owner failure never completed")
	}
	if !get.Found || get.Value != "survives" || get.Ver != put.Ver {
		t.Fatalf("after owner failure: found=%v value=%q ver=%d (want %d)", get.Found, get.Value, get.Ver, put.Ver)
	}
	if get.Stale {
		t.Fatal("read of the inherited copy reported stale")
	}
}

// TestKVBitIdenticalAcrossShards pins the service to the simulator's
// core guarantee: the same scripted client session — including
// response times, versions, staleness, and every node's sysKV row —
// is byte-for-byte identical at 1 and 4 shards.
func TestKVBitIdenticalAcrossShards(t *testing.T) {
	session := func(shards int) string {
		d, nodes := kvRing(t, 10, shards, 31)
		var sb strings.Builder
		ops := make([]*p2.KVOp, 0, 12)
		for i := 0; i < 6; i++ {
			op, err := nodes[i].Put(fmt.Sprintf("k%d", i), fmt.Sprintf("val%d", i))
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op)
		}
		d.Run(25)
		for i := 0; i < 6; i++ {
			op, err := nodes[9-i].Get(fmt.Sprintf("k%d", i))
			if err != nil {
				t.Fatal(err)
			}
			ops = append(ops, op)
		}
		d.Run(25)
		for _, op := range ops {
			fmt.Fprintf(&sb, "%s %s done=%v v=%q ver=%d found=%v stale=%v t=%.6f\n",
				op.Kind, op.Key, op.Done, op.Value, op.Ver, op.Found, op.Stale, op.Completed)
		}
		rows := make([]string, 0, len(nodes))
		for _, h := range nodes {
			st, _ := h.KVStats()
			rows = append(rows, fmt.Sprintf("%s %+v", h.Addr(), st))
		}
		sort.Strings(rows)
		sb.WriteString(strings.Join(rows, "\n"))
		return sb.String()
	}
	a, b := session(1), session(4)
	if a != b {
		t.Fatalf("KV session differs across shard counts:\nshards=1:\n%s\nshards=4:\n%s", a, b)
	}
}

// TestKVReadRepairPushesOnlyWhatIsNew pins the read-repair gate. The
// KV rules are compiled with anti-entropy pushed out of the run, so
// only a GET can refill a replica. A replica made to miss a PUT gets
// the version from the next GET; a second GET within the owner's 15 s
// push record sends no kvRepl at all; a GET after the record expires
// pushes once per replica again. The session is bit-identical at 1
// and 4 shards.
func TestKVReadRepairPushesOnlyWhatIsNew(t *testing.T) {
	const key = "rr"
	session := func(shards int) string {
		d, nodes := kvRingDefines(t, 10, shards, 41, map[string]p2.Value{"tKvSync": p2.Int(1e7)})
		var sb strings.Builder
		put, err := nodes[2].Put(key, "v1")
		if err != nil {
			t.Fatal(err)
		}
		d.Run(5)
		if !put.Done {
			t.Fatal("put never reached quorum")
		}

		owner := d.Node(chordref.Owner(p2.Hash(key), d.Addrs()))
		var replicas []string
		for _, row := range owner.ScanSorted("succ") {
			if si := row.Field(2).AsStr(); si != owner.Addr() && !slices.Contains(replicas, si) {
				replicas = append(replicas, si)
			}
		}
		if len(replicas) < 2 {
			t.Fatalf("owner %s has %d replicas", owner.Addr(), len(replicas))
		}
		var mu sync.Mutex
		pushes := map[string]int{}
		owner.Watch("kvRepl", func(ev p2.WatchEvent) {
			if ev.Dir == p2.DirSent {
				mu.Lock()
				pushes[ev.Peer]++
				mu.Unlock()
			}
		})
		fires := func(h *p2.Handle, rule string) int64 {
			for _, rs := range h.RuleStats() {
				if rs.ID == rule {
					return rs.Fires
				}
			}
			return 0
		}
		check := func(phase string, want int) {
			t.Helper()
			mu.Lock()
			defer mu.Unlock()
			for _, si := range replicas {
				if pushes[si] != want {
					t.Fatalf("%s: owner pushed %d times to %s, want %d (all: %v)", phase, pushes[si], si, want, pushes)
				}
			}
			if len(pushes) != len(replicas) && want > 0 {
				t.Fatalf("%s: owner pushed to %v, replicas are %v", phase, pushes, replicas)
			}
			if got := fires(owner, "KG8"); got != int64(want*len(replicas)) {
				t.Fatalf("%s: KG8 fired %d times, want %d", phase, got, want*len(replicas))
			}
			fmt.Fprintf(&sb, "%s t=%.6f pushes=%v\n", phase, d.Now(), pushes)
		}
		get := func(phase string) {
			t.Helper()
			op, err := nodes[7].Get(key)
			if err != nil {
				t.Fatal(err)
			}
			d.Run(5)
			if !op.Done || op.Value != "v1" || op.Ver != put.Ver || op.Stale {
				t.Fatalf("%s: done=%v value=%q ver=%d stale=%v", phase, op.Done, op.Value, op.Ver, op.Stale)
			}
			fmt.Fprintf(&sb, "%s completed=%.6f\n", phase, op.Completed)
		}

		// The victim loses its copy, as if the PUT's push had not reached it.
		victim := d.Node(replicas[len(replicas)-1])
		victim.Do(func(n *p2.Node) {
			tb := n.Table("kvStore")
			for _, row := range tb.Scan() {
				tb.Delete(row)
			}
		})
		if victim.TableLen("kvStore") != 0 {
			t.Fatal("victim still holds the key")
		}
		check("after put", 0)

		get("first get")
		check("first get", 1)
		if rows := victim.Scan("kvStore"); len(rows) != 1 || rows[0].Field(2).AsStr() != "v1" {
			t.Fatalf("read-repair did not refill %s: %v", victim.Addr(), rows)
		}

		get("second get")
		check("second get", 1)

		d.Run(15) // the owner's 15 s push records expire
		get("third get")
		check("third get", 2)

		for _, h := range nodes {
			if f := fires(h, "KS2"); f != 0 {
				t.Fatalf("anti-entropy ran on %s (%d rounds): the test cannot tell who repaired", h.Addr(), f)
			}
		}
		return sb.String()
	}
	a, b := session(1), session(4)
	if a != b {
		t.Fatalf("read-repair session differs across shard counts:\nshards=1:\n%s\nshards=4:\n%s", a, b)
	}
}
