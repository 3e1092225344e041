package main

// The two real-socket workloads: a small Chord+KV ring on loopback UDP,
// every node on its own wall-clock loop, driven by a closed loop.
// Closed because KV callers block on their reply: the client issues its
// next operation only when the previous one has completed.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"p2"
	"p2/internal/udpnet"
)

// udpWorkload is one closed-loop KV workload: all GETs or all PUTs.
type udpWorkload struct {
	name string
	put  bool
}

const (
	udpNodes = 8
	udpKeys  = 64
	// One client. Two closed loops on this two-core box lock into one of
	// two phase relations that last for seconds and differ by a tenth in
	// throughput, so runs stop being comparable; one client repeats within
	// a few percent.
	udpClients = 1
	// udpSettle is the fixed wall time the ring is given to converge. It
	// is not shortened when the ring converges sooner, so setup_s repeats
	// and only guards convergence.
	// With the timers below, 24 trial rings converged in 1.2 to 2.3 s.
	udpSettle = 5 * time.Second
	// udpSettleGrace is how much longer a ring that is not yet correct
	// when the settle ends is polled before the set-up attempt is given
	// up: a slow join on a busy host lengthens setup_s, it does not fail
	// the run.
	udpSettleGrace = 10 * time.Second
	// udpBuildTries is the number of set-up attempts, each on freshly
	// reserved ports, before the run fails. What an attempt can trip on
	// is outside the program measured: a reserved port taken between its
	// release and the node's bind, no free port hashing near a ring
	// position, a host stall during the joins.
	udpBuildTries = 3
	// opTries is how often set-up and read-back issue one operation
	// before giving up on it. About one operation in a million on this
	// ring outlives its 2 s timeout; inside the window that is a counted
	// failure, outside it must not sink the run.
	opTries = 3
)

// udpDefines compresses the protocol timers so the ring converges in
// a few wall-clock seconds: those of examples/kv with stabilization,
// pings, finger fixing and join retries sped up again, because the
// settle is paid by every run. Failure detection is not compressed:
// no node dies in these workloads, and with tDead at the few seconds
// examples/kv uses, a host that stalls the process that long makes
// every node declare its neighbours dead, and the run then measures a
// ring repairing itself.
func udpDefines() map[string]p2.Value {
	return map[string]p2.Value{
		"tFix":       p2.Float(1),
		"tStabilize": p2.Float(0.25),
		"tPing":      p2.Float(0.5),
		"tJoinRetry": p2.Float(1),
		"tRejoinAll": p2.Int(10),
		"tDead":      p2.Int(60),
		"tKvSync":    p2.Int(2),
	}
}

type udpRing struct {
	d     *p2.Deployment
	nodes []*p2.Handle
	// keys are named so that, whatever ports the run got, key k belongs
	// to node k mod udpNodes: every run loads the nodes alike.
	keys []string
	// puts[s][n] is the version the n-th PUT of client stream s was
	// written at. A PUT's value names its stream and index, so the
	// read-back after a PUT window can check value and version agree.
	puts [][]int64
}

// buildUDP sets the ring up, trying again on fresh ports if an attempt
// fails. The set-up time returned is that of the attempt that worked.
func buildUDP(sp *spanRec) (*udpRing, float64, error) {
	var lastErr error
	for try := 1; try <= udpBuildTries; try++ {
		r, secs, err := buildUDPOnce(sp)
		if err == nil {
			return r, secs, nil
		}
		fmt.Fprintf(os.Stderr, "bench: UDP set-up attempt %d of %d failed: %v\n", try, udpBuildTries, err)
		lastErr = err
	}
	return nil, 0, lastErr
}

// buildUDPOnce compiles, spawns the ring on freshly reserved loopback
// ports, waits the fixed settle, checks the ring and preloads the keys.
// The deployment is closed on every error path.
func buildUDPOnce(sp *spanRec) (*udpRing, float64, error) {
	start := time.Now()
	root := sp.start("setup", -1)
	defer sp.end(root)

	cs := sp.start("p2.compile", root)
	plan, err := p2.CompileMulti(udpDefines(), p2.ChordSource, p2.KVSource)
	sp.end(cs)
	if err != nil {
		return nil, 0, err
	}
	d, err := p2.NewDeployment(p2.UDP, p2.WithSeed(deploySeed), p2.WithOptimizer(p2.OptimizerConfig{}))
	if err != nil {
		return nil, 0, err
	}
	r := &udpRing{d: d}
	addrs, err := reserveRing()
	if err != nil {
		d.Close()
		return nil, 0, err
	}
	for i, addr := range addrs {
		s := sp.start("p2.spawn", root)
		h, err := d.Spawn(addr, plan)
		sp.end(s)
		if err != nil {
			d.Close()
			return nil, 0, err
		}
		landmark := "-"
		if i > 0 {
			landmark = addrs[0]
		}
		h.AddFact("landmark", p2.Str(addr), p2.Str(landmark))
		h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
		r.nodes = append(r.nodes, h)
	}
	ideal := newTruth(addrs)
	for k := 0; k < udpKeys; k++ {
		for j := 0; ; j++ {
			if name := fmt.Sprintf("key%d.%d", k, j); ideal.owner(p2.Hash(name)) == addrs[k%udpNodes] {
				r.keys = append(r.keys, name)
				break
			}
		}
	}
	time.Sleep(udpSettle)
	_, err = ideal.checkRing(r.nodes)
	for end := time.Now().Add(udpSettleGrace); err != nil && time.Now().Before(end); {
		time.Sleep(100 * time.Millisecond)
		_, err = ideal.checkRing(r.nodes)
	}
	if err != nil {
		d.Close()
		return nil, 0, fmt.Errorf("%v after the settle: %w", time.Since(start).Round(time.Millisecond), err)
	}
	for k, key := range r.keys {
		h := r.nodes[(k+1)%udpNodes]
		if _, err := complete(func() (*p2.KVOp, error) { return h.Put(key, "preload") }); err != nil {
			d.Close()
			return nil, 0, fmt.Errorf("preload: put %s: %v", key, err)
		}
	}
	return r, time.Since(start).Seconds(), nil
}

// complete issues an operation and waits for it, issuing it again if it
// outlives its timeout, up to opTries times.
func complete(issue func() (*p2.KVOp, error)) (*p2.KVOp, error) {
	for try := 1; ; try++ {
		op, err := issue()
		if err != nil {
			return nil, err
		}
		if op.Wait(opTimeout) {
			return op, nil
		}
		if try == opTries {
			return nil, fmt.Errorf("timed out %d times", opTries)
		}
	}
}

// ringPos is an identifier's position on the ring: its top 64 bits.
func ringPos(x p2.ID) uint64 { return uint64(x[0])<<32 | uint64(x[1]) }

// ringShape places the nodes around the ring, as fractions of it from
// node 0. The shape is fixed, and chosen so that no finger target
// (n + 2^i) falls within 1.7% of the ring of another node: which node a
// finger points at, and so every lookup's path, is then the same in
// every run.
var ringShape = [udpNodes]float64{0, 0.0802, 0.2808, 0.3628, 0.4626, 0.632, 0.7316, 0.9121}

// reserveRing picks the nodes' loopback addresses. A node's identifier
// is the hash of its address, so freely chosen ports would give every
// run a different ring, with different hop counts and replica sets —
// which showed as a 15% run-to-run spread in throughput. Instead it
// reserves a pool of free ports (no fixed base port: two runs may
// overlap on one machine) and keeps, for each position of ringShape,
// the address that hashes closest to it.
func reserveRing() ([]string, error) {
	const (
		pool     = 1024
		maxError = 1 << 64 / 200 // half a percent of the ring
	)
	pos := make(map[string]uint64, pool)
	var first string
	for tries := 0; len(pos) < pool && tries < 4*pool; tries++ {
		a, err := udpnet.ReserveAddr()
		if err != nil {
			return nil, err
		}
		if first == "" {
			first = a
		}
		pos[a] = ringPos(p2.Hash(a))
	}
	addrs := make([]string, 0, udpNodes)
	for _, frac := range ringShape {
		target := pos[first] + uint64(frac*(1<<64)) // wraps around the ring
		best, bestDist := "", uint64(maxError)
		for a, p := range pos {
			d := p - target
			if d > 1<<63 {
				d = -d
			}
			if d < bestDist || d == bestDist && a < best {
				best, bestDist = a, d
			}
		}
		if best == "" {
			return nil, fmt.Errorf("no free loopback port hashes close enough to ring position %.4f (pool of %d)", frac, len(pos))
		}
		delete(pos, best)
		addrs = append(addrs, best)
	}
	return addrs, nil
}

// udpWindow is the outcome of one closed-loop window.
type udpWindow struct {
	wall           float64
	issued, failed int
	stale          int
	lat            []float64 // wall seconds, completed correct ops
	done           []float64 // when each of those completed, seconds into the window
}

// runWindow runs the client for the given wall time. It draws its node
// and key for each operation from a stream seeded by (seed, window).
func (r *udpRing) runWindow(put bool, seed int64, dur time.Duration, sp *spanRec) udpWindow {
	var out udpWindow
	stream := len(r.puts)
	r.puts = append(r.puts, nil)
	prefix := "s" + strconv.Itoa(stream) + "."
	rng := rand.New(rand.NewSource(seed*1000 + int64(stream)))
	root := sp.start("window", -1)
	start := time.Now()
	for n := 0; time.Since(start) < dur; n++ {
		h := r.nodes[rng.Intn(udpNodes)]
		key := r.keys[rng.Intn(udpKeys)]
		var op *p2.KVOp
		var err error
		is := sp.start("p2.issue", root)
		t0 := time.Now()
		if put {
			var ver int64
			if op, err = h.Put(key, prefix+strconv.Itoa(n)); err == nil {
				ver = op.Ver
			}
			r.puts[stream] = append(r.puts[stream], ver)
		} else {
			op, err = h.Get(key)
		}
		sp.end(is)
		ok := err == nil && op.Wait(opTimeout)
		total := time.Since(t0)
		out.issued++
		if ok && op.Stale {
			out.stale++
		}
		if ok && !put {
			ok = op.Found && !op.Stale && op.Value == "preload"
		}
		if !ok {
			out.failed++
			continue
		}
		out.lat = append(out.lat, total.Seconds())
		out.done = append(out.done, time.Since(start).Seconds())
	}
	out.wall = time.Since(start).Seconds()
	sp.end(root)
	return out
}

// steady summarises the window by its whole one-second slices: the
// median over slices of the operations completed in the slice and of
// the slice's p50 and p95 latency. A second disturbed by another tenant
// of the machine then moves nothing, where it would drag a whole-window
// mean. A window shorter than two seconds is summarised whole.
func (w *udpWindow) steady() (opsPerS, p50, p95 float64) {
	slices := int(w.wall)
	if slices < 2 {
		lat := append([]float64(nil), w.lat...)
		return float64(len(lat)) / w.wall, percentile(lat, 0.5), percentile(lat, 0.95)
	}
	bySlice := make([][]float64, slices)
	for i, l := range w.lat {
		if s := int(w.done[i]); s < slices {
			bySlice[s] = append(bySlice[s], l)
		}
	}
	var counts, p50s, p95s []float64
	for _, lat := range bySlice {
		counts = append(counts, float64(len(lat)))
		p50s = append(p50s, percentile(lat, 0.5))
		p95s = append(p95s, percentile(lat, 0.95))
	}
	return median(counts), median(p50s), median(p95s)
}

// readBack GETs every key after a PUT window. All writes have been
// acknowledged by then, so each key must be found, not stale, and hold
// a value together with the version that value was written at.
func (r *udpRing) readBack() error {
	for k, key := range r.keys {
		h := r.nodes[(k+1)%udpNodes]
		op, err := complete(func() (*p2.KVOp, error) { return h.Get(key) })
		if err != nil {
			return fmt.Errorf("read-back of %s: %v", key, err)
		}
		if !op.Found || op.Stale {
			return fmt.Errorf("read-back of %s: found=%v stale=%v", key, op.Found, op.Stale)
		}
		if op.Value == "preload" {
			continue
		}
		var stream, n int
		if _, err := fmt.Sscanf(op.Value, "s%d.%d", &stream, &n); err != nil ||
			stream < 0 || stream >= len(r.puts) || n < 0 || n >= len(r.puts[stream]) || r.puts[stream][n] != op.Ver {
			return fmt.Errorf("read-back of %s: value %q at version %d is not a write the clients made", key, op.Value, op.Ver)
		}
	}
	return nil
}

// peerBytes sums the data bytes every node's transport has sent.
func (r *udpRing) peerBytes() int64 {
	var total int64
	for _, h := range r.nodes {
		for _, s := range h.NetStats() {
			total += s.Bytes
		}
	}
	return total
}

func (w udpWorkload) id() string { return w.name }

func (w udpWorkload) run(o runOpts) (*result, error) {
	res := newResult(w.name, o)
	// One set-up per run: it is dominated by the fixed settle, so a
	// median of several would say nothing more.
	ring, setup, err := buildUDP(o.spans)
	if err != nil {
		return nil, err
	}
	defer ring.d.Close()
	dur := time.Duration(o.seconds * float64(time.Second))

	if o.traced() {
		return w.runTraced(o, res, ring, dur)
	}
	heap := heapPerNodeKB(udpNodes)
	bytes0 := ring.peerBytes()
	win := ring.runWindow(w.put, o.seed, dur, nil)
	bytes1 := ring.peerBytes()
	res.count(win.issued, win.failed)
	if w.put {
		if err := ring.readBack(); err != nil {
			res.fail("%v", err)
		}
	}
	m := res.Metrics
	m.set("setup_s", setup, "s")
	opsPerS, p50, p95 := win.steady()
	m.set("ops_per_s", opsPerS, "1/s")
	m.set("op_p50_ms", p50*1e3, "ms")
	m.set("op_p95_ms", p95*1e3, "ms")
	m.set("heap_kb_per_node", heap, "kB")
	m.set("wire_B_per_op", ratio(float64(bytes1-bytes0), float64(len(win.lat))), "B")
	res.note("closed loop, %d client, %.2f s wall; %d of %d ops correct; whole-window p99 %.3f ms",
		udpClients, win.wall, len(win.lat), win.issued, percentile(win.lat, 0.99)*1e3)
	return res, nil
}
