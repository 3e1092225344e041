package main

// The two simulator workloads. Both build a Chord ring on the
// transit-stub WAN through the public p2 API, then drive an open-loop
// Poisson stream whose schedule is pre-drawn from the seed and issued
// on the deployment's barrier lane. Every parameter is in virtual time
// and fixed, so the work — and every count taken from it — repeats
// exactly for a seed; only the wall time it takes varies.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"p2"
	"p2/internal/simnet"
)

// simWorkload holds the fixed parameters of one simulator workload.
type simWorkload struct {
	name    string
	n       int     // ring size
	shards  int     // simulator shards
	kv      bool    // Chord+KV plan and PUT/GET ops; bare lookups otherwise
	rate    float64 // operations per virtual second
	putFrac float64 // share of operations that are PUTs
	keys    int     // KV key universe, preloaded during set-up
	settle  float64 // virtual seconds between the last join and the window
	// virtPerSec converts the requested measuring time into the arrival
	// window: virtual seconds of arrivals per requested second, chosen so
	// the window takes about the requested wall time on the 2-core
	// reference box. A constant, never adjusted from a measured time.
	virtPerSec float64
	drain      float64 // virtual seconds run past the last arrival
	setups     int     // set-ups per untraced run; setup_s is their median
}

const (
	joinSpacing = 0.05 // floor between ramped joins, virtual seconds
	opTimeout   = 2 * time.Second
	// deploySeed seeds every deployment: node randomness, timer jitter,
	// simulated link jitter. It is fixed, so every run builds the same
	// ring the same way and the -seed argument varies only the generated
	// operations. (It also keeps runs off seeds whose ring is not yet
	// correct when the settle ends: 14 is one, for the 128-node ring.)
	deploySeed = 1
)

// simRing is a built, settled deployment.
type simRing struct {
	d       *p2.Deployment
	nodes   []*p2.Handle
	truth   *truth
	ringSig string
	// lookups is the record every node's lookupResults watcher fills in.
	// Each window replaces it and bumps the serial, which the event ids
	// carry, so a straggler from an earlier window completes nothing.
	lookups []lookupOp
	window  int
	// kv keeps every window's schedule: a GET may return a value an
	// earlier window wrote.
	kv [][]kvSched
}

// lookupOp is one scheduled lookup. Completion fields are written by
// the requester's shard and read after Run returns.
type lookupOp struct {
	at        float64 // scheduled arrival, offset from the window start
	from      int
	key       p2.ID
	owner     string
	completed float64
	done      bool
}

// kvSched is one scheduled KV operation.
type kvSched struct {
	at   float64
	from int
	key  int
	put  bool
	op   *p2.KVOp
}

const lookupPrefix = "bl!"

func nodeAddr(i int) string { return fmt.Sprintf("n%d:p2", i) }

// buildSim compiles the plan, spawns the ring with ramped joins, lets it
// settle, checks it and, for KV, preloads the key universe. It returns
// the wall seconds that took.
func buildSim(w simWorkload, shards int, sp *spanRec) (*simRing, float64, error) {
	start := time.Now()
	root := sp.start("setup", -1)
	defer sp.end(root)

	cs := sp.start("p2.compile", root)
	var plan *p2.Plan
	var err error
	if w.kv {
		plan, err = p2.CompileMulti(nil, p2.ChordSource, p2.KVSource)
	} else {
		plan, err = p2.Compile(p2.ChordSource, nil)
	}
	sp.end(cs)
	if err != nil {
		return nil, 0, err
	}
	d, err := p2.NewDeployment(p2.Simulated,
		p2.WithSeed(deploySeed), p2.WithShards(shards),
		p2.WithTopology(simnet.TransitStubWAN(4, 4, 17)),
		p2.WithOptimizer(p2.OptimizerConfig{}))
	if err != nil {
		return nil, 0, err
	}
	r := &simRing{d: d, nodes: make([]*p2.Handle, w.n)}
	addrs := make([]string, w.n)
	for i := range addrs {
		addrs[i] = nodeAddr(i)
	}
	r.truth = newTruth(addrs)

	// Ramped joins: 4% of the current population per virtual second,
	// floored at joinSpacing, so every prefix of the build stays
	// converged (the schedule internal/harness uses).
	var spawnErr error
	at := 0.0
	for i := 0; i < w.n; i++ {
		i := i
		d.At(at, func() {
			if spawnErr == nil {
				spawnErr = r.spawn(i, plan, sp, root)
			}
		})
		if i < w.n-1 {
			at += math.Max(25.0/float64(i+1), joinSpacing)
		}
	}
	ss := sp.start("p2.run_settle", root)
	d.Run(at + w.settle)
	sp.end(ss)
	if spawnErr != nil {
		d.Close()
		return nil, 0, spawnErr
	}
	if r.ringSig, err = r.truth.checkRing(r.nodes); err != nil {
		d.Close()
		return nil, 0, err
	}
	if w.kv {
		if err := r.preload(w.keys); err != nil {
			d.Close()
			return nil, 0, err
		}
	}
	return r, time.Since(start).Seconds(), nil
}

func (r *simRing) spawn(i int, plan *p2.Plan, sp *spanRec, parent int) error {
	addr := nodeAddr(i)
	s := sp.start("p2.spawn", parent)
	h, err := r.d.Spawn(addr, plan)
	sp.end(s)
	if err != nil {
		return err
	}
	r.nodes[i] = h
	landmark := "-"
	if i > 0 {
		landmark = nodeAddr(0)
	}
	h.AddFact("landmark", p2.Str(addr), p2.Str(landmark))
	h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
	// The one completion tap: lookupResults(R, K, S, SI, E) arriving at
	// its requester. Finger fixing uses the same relation under its own
	// event ids, which the prefix filters out. KV completions come
	// through the KV client's own response watches.
	return h.Watch("lookupResults", func(ev p2.WatchEvent) {
		if ev.Dir != p2.DirReceived && ev.Dir != p2.DirDerived {
			return
		}
		eid := ev.Tuple.Field(4).AsStr()
		if !strings.HasPrefix(eid, lookupPrefix) || ev.Node != ev.Tuple.Field(0).AsStr() {
			return
		}
		win, idx, _ := strings.Cut(eid[len(lookupPrefix):], ".")
		i, err := strconv.Atoi(idx)
		if err != nil || win != strconv.Itoa(r.window) || i >= len(r.lookups) || r.lookups[i].done {
			return
		}
		op := &r.lookups[i]
		op.done, op.completed, op.owner = true, ev.Time, ev.Tuple.Field(3).AsStr()
	})
}

func keyName(k int) string { return "key" + strconv.Itoa(k) }

// putValue names the value a scheduled PUT writes — its window and its
// index in that window's schedule — so a GET's result can be traced
// back to the PUT that produced it.
func putValue(window, op int) string { return fmt.Sprintf("v%d.%d", window, op) }

// preload writes every key once so no GET in the window can miss.
func (r *simRing) preload(keys int) error {
	ops := make([]*p2.KVOp, keys)
	for k := range ops {
		op, err := r.nodes[k%len(r.nodes)].Put(keyName(k), "preload")
		if err != nil {
			return err
		}
		ops[k] = op
	}
	r.d.Run(5)
	for k, op := range ops {
		if !op.Done {
			return fmt.Errorf("preload: put %s did not reach its quorum", keyName(k))
		}
	}
	return nil
}

// poisson draws arrival offsets in [0, window) at the given rate.
func poisson(rng *rand.Rand, rate, window float64) []float64 {
	var out []float64
	for t := rng.ExpFloat64() / rate; t < window; t += rng.ExpFloat64() / rate {
		out = append(out, t)
	}
	return out
}

// simWindow is the outcome of one measured window.
type simWindow struct {
	virt, wall     float64
	vsecWall       float64 // median wall seconds per virtual second of arrivals
	events         int64
	issued, failed int
	stale          int
	lat            []float64 // virtual seconds, completed correct ops
	latSum         float64
	wireBytes      int64    // simulator datagram bytes sent during the window
	before, after  counters // traced window only
}

// runWindow issues a schedule pre-drawn from rng over `window` virtual
// seconds of arrivals plus the drain, in one-virtual-second Run calls.
// A non-nil span recorder makes it the traced window: every call into
// p2 is recorded as a span and the layer counters are snapshotted
// around it.
func (r *simRing) runWindow(w simWorkload, rng *rand.Rand, window float64, sp *spanRec) simWindow {
	var out simWindow
	arrivals := poisson(rng, w.rate, window)
	base := r.d.Now()
	root := -1 // the window's span; set before the first callback runs
	var kvOps []kvSched
	if w.kv {
		kvOps = make([]kvSched, len(arrivals))
		win := len(r.kv)
		r.kv = append(r.kv, kvOps)
		for i, at := range arrivals {
			kvOps[i] = kvSched{at: at, from: rng.Intn(w.n), key: rng.Intn(w.keys), put: rng.Float64() < w.putFrac}
		}
		for i := range kvOps {
			i := i
			r.d.At(base+kvOps[i].at, func() {
				s := &kvOps[i]
				is := sp.start("p2.issue", root)
				if s.put {
					s.op, _ = r.nodes[s.from].Put(keyName(s.key), putValue(win, i))
				} else {
					s.op, _ = r.nodes[s.from].Get(keyName(s.key))
				}
				sp.end(is)
			})
		}
	} else {
		r.lookups = make([]lookupOp, len(arrivals))
		r.window++
		eidPrefix := lookupPrefix + strconv.Itoa(r.window) + "."
		for i, at := range arrivals {
			r.lookups[i] = lookupOp{at: at, from: rng.Intn(w.n), key: p2.Hash("k" + strconv.FormatInt(rng.Int63(), 36))}
		}
		for i := range r.lookups {
			i := i
			r.d.At(base+r.lookups[i].at, func() {
				op := &r.lookups[i]
				addr := p2.Str(nodeAddr(op.from))
				is := sp.start("p2.issue", root)
				r.nodes[op.from].Inject(p2.NewTuple("lookup", addr, p2.IDValue(op.key), addr,
					p2.Str(eidPrefix+strconv.Itoa(i))))
				sp.end(is)
			})
		}
	}
	if sp != nil {
		out.before = snapshot(r.d, r.nodes)
	}
	wire0 := r.d.NetTotals().BytesSent

	root = sp.start("window", -1)
	start := time.Now()
	var chunks []float64
	for v := 0.0; v < window+w.drain; v++ {
		s := sp.start("p2.run_vsec", root)
		t := time.Now()
		out.events += int64(r.d.Run(1))
		if v < window {
			chunks = append(chunks, time.Since(t).Seconds())
		}
		sp.end(s)
	}
	out.wall = time.Since(start).Seconds()
	sp.end(root)
	out.vsecWall = median(chunks)
	out.virt = r.d.Now() - base
	out.wireBytes = r.d.NetTotals().BytesSent - wire0
	if sp != nil {
		out.after = snapshot(r.d, r.nodes)
	}

	// Latency runs from the scheduled arrival. In virtual time the
	// generator is never late: the barrier lane issues each op at the
	// first epoch boundary at or after its arrival, and that wait is
	// part of the latency reported.
	record := func(ok bool, at, completed float64) {
		out.issued++
		if !ok {
			out.failed++
			return
		}
		l := completed - (base + at)
		out.lat = append(out.lat, l)
		out.latSum += l
	}
	if w.kv {
		for i := range kvOps {
			s := &kvOps[i]
			if s.op == nil { // the issue call itself failed
				record(false, s.at, 0)
				continue
			}
			if s.op.Done && s.op.Stale {
				out.stale++
			}
			ok := s.op.Done && !s.op.Stale
			if ok && !s.put {
				ok = s.op.Found && r.readConsistent(s.op, s.key)
			}
			record(ok, s.at, s.op.Completed)
		}
	} else {
		for i := range r.lookups {
			op := &r.lookups[i]
			record(op.done && op.owner == r.truth.owner(op.key), op.at, op.completed)
		}
	}
	return out
}

// readConsistent checks that a GET's value and version belong to one
// write of that key: the preload, or the scheduled PUT the value names.
func (r *simRing) readConsistent(get *p2.KVOp, key int) bool {
	if get.Value == "preload" {
		return true
	}
	var win, i int
	if _, err := fmt.Sscanf(get.Value, "v%d.%d", &win, &i); err != nil ||
		win < 0 || win >= len(r.kv) || i < 0 || i >= len(r.kv[win]) {
		return false
	}
	w := &r.kv[win][i]
	return w.put && w.key == key && w.op != nil && w.op.Ver == get.Ver
}

// digest condenses everything about a run's windows that must repeat
// exactly for a seed, at any shard count.
func (r *simRing) digest(wins ...simWindow) string {
	nt := r.d.NetTotals()
	h := sha256.New()
	fmt.Fprintf(h, "%d|%d|%s", nt.PacketsSent, nt.BytesSent, r.ringSig)
	for _, win := range wins {
		fmt.Fprintf(h, "|%d|%d|%d|%x", win.events, win.issued, len(win.lat), math.Float64bits(win.latSum))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// heapPerNodeKB is the process's live heap after a double GC, per node.
// It is taken between set-up and the window: the footprint of a settled
// ring. Growth during the window depends on how many operations a
// closed loop completes, and is reported per operation by the traced
// run instead.
func heapPerNodeKB(nodes int) float64 {
	return float64(liveHeap().HeapAlloc) / 1024 / float64(nodes)
}

// liveHeap reads the memory statistics after two collections: the
// second frees what the first one's finalizers released.
func liveHeap() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (w simWorkload) id() string { return w.name }

// run measures the workload: untraced it reports the end-to-end
// metrics, traced the per-layer ones.
func (w simWorkload) run(o runOpts) (*result, error) {
	if w.shards > runtime.GOMAXPROCS(0) {
		return nil, fmt.Errorf("%s: %d shards on gomaxprocs %d: refusing to run more shards than processors",
			w.name, w.shards, runtime.GOMAXPROCS(0))
	}
	res := newResult(w.name, o)
	window := math.Round(o.seconds * w.virtPerSec)
	if window < 1 {
		window = 1
	}
	rng := rand.New(rand.NewSource(o.seed))

	setups := w.setups
	if o.traced() {
		setups = 1
	}
	var ring *simRing
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if ring != nil {
			ring.d.Close()
		}
		var t float64
		var err error
		if ring, t, err = buildSim(w, w.shards, o.spans); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, t)
	}
	defer func() { ring.d.Close() }()

	if o.traced() {
		return w.runTraced(o, res, ring, rng, window)
	}
	heap := heapPerNodeKB(w.n)
	win := ring.runWindow(w, rng, window, nil)
	res.count(win.issued, win.failed)
	res.Digest = ring.digest(win)
	m := res.Metrics
	m.set("setup_s", median(setupTimes), "s")
	// Throughput from the median virtual second rather than the whole
	// window: every virtual second of arrivals carries the same expected
	// work, and the median shrugs off the seconds another tenant of the
	// machine disturbed.
	m.set("ops_per_s", float64(len(win.lat))/window/win.vsecWall, "1/s")
	m.set("op_p50_ms", percentile(win.lat, 0.50)*1e3, "ms")
	m.set("op_p95_ms", percentile(win.lat, 0.95)*1e3, "ms")
	m.set("heap_kb_per_node", heap, "kB")
	m.set("wire_B_per_op", ratio(float64(win.wireBytes), float64(len(win.lat))), "B")
	res.note("window %g virtual s of arrivals + %g s drain in %.2f s wall (%.2f virtual s per wall s); %d of %d ops correct",
		window, w.drain, win.wall, win.virt/win.wall, len(win.lat), win.issued)
	res.note("latency is timed from the scheduled arrival; generator lateness is zero by construction in virtual time")
	return res, nil
}
