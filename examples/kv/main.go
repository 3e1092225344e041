// KV: run the replicated key-value service over real UDP sockets —
// the Chord spec plus the KV rules compiled into one dataflow — then
// kill the owner of a live key mid-run and read the key back from the
// survivors. The value comes back at the acked version because every
// PUT was replicated onto the owner's successor list before the
// client saw its ack.
//
//	go run ./examples/kv
//
// The protocol timers are compressed via define overrides so the ring
// converges (and re-converges after the kill) in wall-clock seconds.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"time"

	"p2"
)

func main() {
	base := flag.Int("base", 9481, "first UDP port; nodes bind 127.0.0.1:base..base+nodes-1")
	nodes := flag.Int("nodes", 8, "ring size")
	flag.Parse()

	// Compressed timers: stabilization every second, failure detection
	// after 4s of silence, KV anti-entropy every 2s.
	plan, err := p2.CompileMulti(map[string]p2.Value{
		"tFix":       p2.Int(2),
		"tStabilize": p2.Int(1),
		"tPing":      p2.Int(1),
		"tJoinRetry": p2.Int(3),
		"tRejoinAll": p2.Int(10),
		"tDead":      p2.Int(4),
		"tKvSync":    p2.Int(2),
	}, p2.ChordSource, p2.KVSource)
	if err != nil {
		log.Fatal(err)
	}
	d, err := p2.NewDeployment(p2.UDP, p2.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	landmark := addr(*base, 0)
	var handles []*p2.Handle
	for i := 0; i < *nodes; i++ {
		a := addr(*base, i)
		h, err := d.Spawn(a, plan)
		if err != nil {
			log.Fatal(err)
		}
		lm := "-"
		if i > 0 {
			lm = landmark
		}
		h.AddFact("landmark", p2.Str(a), p2.Str(lm))
		h.AddFact("join", p2.Str(a), p2.Str(a+"!boot"))
		handles = append(handles, h)
	}

	fmt.Printf("kv: %d-node UDP ring converging ...\n", *nodes)
	waitRing(d, *nodes, 60*time.Second)

	// Write a handful of keys from different nodes; each Put returns
	// once kvQuorum replicas acked the write.
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for i, k := range keys {
		op, err := handles[i%len(handles)].Put(k, "value-of-"+k)
		if err != nil {
			log.Fatal(err)
		}
		if !op.Wait(20 * time.Second) {
			log.Fatalf("kv: put %q never reached quorum", k)
		}
		fmt.Printf("kv: put %-6s = %q acked at version %d (R=%d, quorum %d)\n",
			k, "value-of-"+k, op.Ver, p2.KVReplicas, p2.KVQuorum)
	}

	// Kill the node that owns "alpha" — the worst-case victim: it holds
	// the primary copy and answers GETs for the key.
	victim := owner(p2.Hash("alpha"), d.Addrs())
	fmt.Printf("kv: killing %s, the owner of %q\n", victim, "alpha")
	d.Kill(victim)

	// Failure detection (tDead) plus a few stabilization rounds let the
	// successor inherit ownership; the KV anti-entropy keeps the
	// replica count at R on the new ring. Wait until the survivors form
	// a correct ring again.
	waitRing(d, *nodes-1, 60*time.Second)

	var reader *p2.Handle
	for _, h := range handles {
		if h.Addr() != victim {
			reader = h
			break
		}
	}
	for _, k := range keys {
		op := getRetry(reader, k, 6)
		if op == nil {
			log.Fatalf("kv: get %q never completed after the kill", k)
		}
		if !op.Found || op.Value != "value-of-"+k {
			log.Fatalf("kv: get %q after the kill: found=%v value=%q", k, op.Found, op.Value)
		}
		fmt.Printf("kv: get %-6s -> %q (version %d, stale=%v)\n", k, op.Value, op.Ver, op.Stale)
	}
	fmt.Println("kv: every key survived the owner's failure")
}

// getRetry issues a GET and reissues it if it times out or misses —
// operations are single-shot datagram flows, so a request routed
// through a not-yet-repaired finger right after a failure is simply
// lost, and the client (as any real client would) retries.
func getRetry(h *p2.Handle, key string, attempts int) *p2.KVOp {
	for i := 0; i < attempts; i++ {
		op, err := h.Get(key)
		if err != nil {
			log.Fatal(err)
		}
		if op.Wait(8*time.Second) && op.Found {
			return op
		}
	}
	return nil
}

func addr(base, i int) string { return fmt.Sprintf("127.0.0.1:%d", base+i) }

// waitRing polls until every node's bestSucc matches the ideal ring.
func waitRing(d *p2.Deployment, n int, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		addrs := d.Addrs()
		sort.Slice(addrs, func(i, j int) bool {
			return p2.Hash(addrs[i]).Less(p2.Hash(addrs[j]))
		})
		correct := 0
		for i, a := range addrs {
			node := d.Node(a)
			if node == nil {
				continue
			}
			if rows := node.Scan("bestSucc"); len(rows) == 1 &&
				rows[0].Field(2).AsStr() == addrs[(i+1)%len(addrs)] {
				correct++
			}
		}
		if correct == n {
			fmt.Printf("kv: ring correct (%d/%d)\n", correct, n)
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("kv: ring never converged (%d/%d correct)", correct, n)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// owner is the Chord successor of key among addrs: the first node
// identifier at or past the key on the ring, wrapping to the smallest.
func owner(key p2.ID, addrs []string) string {
	sort.Slice(addrs, func(i, j int) bool {
		return p2.Hash(addrs[i]).Less(p2.Hash(addrs[j]))
	})
	for _, a := range addrs {
		if !p2.Hash(a).Less(key) {
			return a
		}
	}
	return addrs[0]
}
