package p2

// kv.go is the Go half of the replicated key-value service: the
// OverLog rules (internal/kvs, re-exported as KVSource) do the
// routing, replication, quorum counting, and repair; this file is the
// thin client that injects kvPut/kvGet events and collects the
// kvPutResp/kvGetResp answers. One KVClient per deployment serves
// every node uniformly on both runtimes — on a simulation its results
// are a pure function of (seed, program, virtual time), bit-identical
// at any shard count; on UDP KVOp.Wait blocks until the quorum
// answers over real sockets.

import (
	"fmt"
	"sync"
	"time"

	"p2/internal/introspect"
	"p2/internal/kvs"
	"p2/internal/tuple"
	"p2/internal/val"
)

// KVSource is the key-value service in OverLog: successor-list
// replication with quorum acks, read-repair, anti-entropy leases, and
// churn-triggered re-replication, layered on the Chord spec. Compile
// it together with ChordSource:
//
//	plan, err := p2.CompileMulti(nil, p2.ChordSource, p2.KVSource)
//
// or graft it onto a running Chord node with Handle.Install.
const KVSource = kvs.Source

// SysKV names the key-value service's introspection relation; see
// SystemTables for the schema. It carries rows only on nodes running
// the KV rules.
const SysKV = introspect.KVRelation

// KVStat is one node's sysKV row in struct form (Handle.KVStats).
type KVStat = introspect.KVStat

// The service's replication parameters, as baked into KVSource's
// defines: R-way replication (the owner plus Chord's successor list),
// the ack quorum a PUT waits for, and the soft-state lease renewed by
// each anti-entropy round.
const (
	KVReplicas     = kvs.Replicas
	KVQuorum       = kvs.Quorum
	KVLeaseSeconds = kvs.LeaseSeconds
)

// KVOp is one client operation in flight or completed. Fields are
// written by the response watcher on the requester's event loop; read
// them after the operation is known complete — on a simulation after
// the Run call that delivered the response (the deployment is then
// quiescent), on UDP after Wait returns true.
type KVOp struct {
	Kind  string // "put" or "get"
	Key   string // application key; routed as Hash(Key)
	Value string // put: value written; get: value returned
	Ver   int64  // put: version written; get: version returned (0 on miss)
	Found bool   // get: the owner held the key
	Stale bool   // get: returned version predates the last quorum-acked put
	Done  bool   // response observed

	Issued    float64 // deployment clock at injection
	Completed float64 // requester's clock at the response

	expect int64 // quorum-acked version at issue — the staleness yardstick
	done   chan struct{}
}

// Latency is the virtual (simulated) or node-clock (UDP) seconds from
// issue to response; meaningful once Done.
func (op *KVOp) Latency() float64 { return op.Completed - op.Issued }

// Wait blocks until the operation completes or the timeout elapses,
// reporting completion. Use it on UDP deployments, where responses
// arrive asynchronously; on a simulation time only advances inside
// Run, so check Done between Run calls instead. An operation already
// complete reports true whatever the timeout: the completion is looked
// at before the timer, which a caller descheduled for longer than a
// short timeout would otherwise find ready too, and a select between
// two ready cases picks either. The timer is stopped on return: under
// the module's pre-1.23 timer rules an unfired timer stays live until
// it expires, and a closed loop of fast operations would otherwise
// hold one per operation for the whole timeout.
func (op *KVOp) Wait(timeout time.Duration) bool {
	select {
	case <-op.done:
		return true
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-op.done:
		return true
	case <-timer.C:
		return false
	}
}

// KVClient issues PUT/GET operations against any node of one
// deployment and tracks their outcomes. Versions are client-assigned
// and strictly increasing, so last-writer-wins resolves to issue
// order; the client also remembers the highest quorum-acked version
// per key, which is what a later GET's staleness is judged against.
// Obtain it with Deployment.KV (or use the Handle.Put/Get shorthand).
type KVClient struct {
	d *Deployment

	mu      sync.Mutex
	seq     int64
	pending map[string]*KVOp // eid -> op still awaiting its answer
	acked   map[string]int64 // key -> highest quorum-acked version
	bound   map[*Handle]bool // handles with response watchers installed
}

// KV returns the deployment's key-value client, creating it on first
// use. The client is shared: operations issued through any handle
// draw versions from one sequence.
func (d *Deployment) KV() *KVClient {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.kvClient == nil {
		d.kvClient = &KVClient{
			d:       d,
			pending: make(map[string]*KVOp),
			acked:   make(map[string]int64),
			bound:   make(map[*Handle]bool),
		}
	}
	return d.kvClient
}

// Put writes key=value through node h: the value routes to the key's
// owner, fans out to the replica set, and the operation completes
// when a write quorum has acknowledged. Call from driver context on a
// simulation (between Run calls or inside an At callback).
func (c *KVClient) Put(h *Handle, key, value string) (*KVOp, error) {
	if err := c.bind(h); err != nil {
		return nil, err
	}
	op, eid := c.newOp("put", key)
	op.Value, op.Ver = value, op.expect // expect doubles as this put's version
	addr := h.Addr()
	err := h.Inject(tuple.New(kvs.PutEvent,
		val.Str(addr), val.MakeID(Hash(key)), val.Str(value), val.Int(op.Ver),
		val.Str(addr), val.Str(eid)))
	if err != nil {
		c.drop(eid)
		return nil, err
	}
	return op, nil
}

// Get reads key through node h: the request routes to the key's owner
// and returns its copy; the owner also pushes its row to any replica
// it has not already sent that version (read-repair).
// A miss reports Found=false; Stale reports whether the result
// predates the last quorum-acked Put of the key.
func (c *KVClient) Get(h *Handle, key string) (*KVOp, error) {
	if err := c.bind(h); err != nil {
		return nil, err
	}
	op, eid := c.newOp("get", key)
	addr := h.Addr()
	err := h.Inject(tuple.New(kvs.GetEvent,
		val.Str(addr), val.MakeID(Hash(key)), val.Str(addr), val.Str(eid)))
	if err != nil {
		c.drop(eid)
		return nil, err
	}
	return op, nil
}

// newOp allocates the next sequence number and registers the pending
// op. For a put, expect is the version to write (the fresh sequence
// number); for a get, it is the key's last quorum-acked version.
func (c *KVClient) newOp(kind, key string) (*KVOp, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	eid := fmt.Sprintf("kv!%d", c.seq)
	op := &KVOp{
		Kind: kind, Key: key, Issued: c.d.Now(), done: make(chan struct{}),
	}
	if kind == "put" {
		op.expect = c.seq
	} else {
		op.expect = c.acked[key]
	}
	c.pending[eid] = op
	return op, eid
}

// drop forgets a pending op whose injection failed.
func (c *KVClient) drop(eid string) {
	c.mu.Lock()
	delete(c.pending, eid)
	c.mu.Unlock()
}

// bind installs the response watchers on a handle the first time an
// operation goes through it. Watch callbacks fire on the node's owning
// loop — concurrently with other shards — so completion goes through
// the client lock; every update is first-answer-wins or a max-merge,
// which keeps simulated results independent of shard interleaving.
func (c *KVClient) bind(h *Handle) error {
	c.mu.Lock()
	if c.bound[h] {
		c.mu.Unlock()
		return nil
	}
	c.bound[h] = true
	c.mu.Unlock()
	if err := h.Watch(kvs.PutRespEvent, c.onPutResp); err != nil {
		return err
	}
	return h.Watch(kvs.GetRespEvent, c.onGetResp)
}

// respOf filters one response delivery down to the pending op of the
// given kind it answers, and forgets that op: the tuple must arrive at
// its requester (field 0) and carry a pending eid (field 1). Only the
// first answer finds the op, so quorum re-crossings and duplicate
// deliveries are dropped here. Caller holds c.mu.
func (c *KVClient) respOf(ev WatchEvent, kind string) *KVOp {
	if ev.Dir != DirReceived && ev.Dir != DirDerived {
		return nil
	}
	if ev.Node != ev.Tuple.Field(0).AsStr() {
		return nil
	}
	eid := ev.Tuple.Field(1).AsStr()
	op := c.pending[eid]
	if op == nil || op.Kind != kind {
		return nil
	}
	delete(c.pending, eid)
	return op
}

// onPutResp completes a put: kvPutResp(@Req, E, K, Ver).
func (c *KVClient) onPutResp(ev WatchEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.respOf(ev, "put")
	if op == nil {
		return
	}
	op.Done, op.Completed = true, ev.Time
	if op.Ver > c.acked[op.Key] {
		c.acked[op.Key] = op.Ver
	}
	close(op.done)
}

// onGetResp completes a get: kvGetResp(@Req, E, K, V, Ver), with
// V="-", Ver=0 marking a miss.
func (c *KVClient) onGetResp(ev WatchEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	op := c.respOf(ev, "get")
	if op == nil {
		return
	}
	op.Done, op.Completed = true, ev.Time
	op.Value = ev.Tuple.Field(3).AsStr()
	op.Ver = ev.Tuple.Field(4).AsInt()
	op.Found = op.Ver != 0 || op.Value != "-"
	op.Stale = op.Ver < op.expect
	close(op.done)
}

// Put is shorthand for Deployment.KV().Put through this handle.
func (h *Handle) Put(key, value string) (*KVOp, error) { return h.d.KV().Put(h, key, value) }

// Get is shorthand for Deployment.KV().Get through this handle.
func (h *Handle) Get(key string) (*KVOp, error) { return h.d.KV().Get(h, key) }

// KVStats reports the node's key-value service state (its sysKV row
// in struct form); ok is false on nodes not running the KV rules.
func (h *Handle) KVStats() (KVStat, bool) {
	var st KVStat
	var ok bool
	h.Do(func(n *Node) { st, ok = n.KVStats() })
	return st, ok
}
