// Package kvs is the replicated key-value service layered on the Chord
// overlay — the first real *application* on the overlay kit, and the
// paper's implicit payoff: once lookup() works, a DHT service is a
// handful of additional rules, not a new system.
//
// The service is pure OverLog. A PUT routes to the key's successor via
// the ordinary Chord lookup, the owner writes locally and fans the
// tuple out to its successor list (an R-way replica set), and every
// replica acks back to the requester; the client observes success when
// a quorum of acks arrives. A GET routes to the owner the same way and
// reads the owner's copy; serving a read also pushes the owner's row to
// each successor the owner has not already sent that version in the
// last 15 s (read-repair), so a GET costs repair traffic only where a
// replica may be behind. Re-replication on churn is driven off the
// overlay itself: a bestSucc delta (Chord noticing a new successor)
// triggers a pull request, and the anti-entropy cycle re-pushes every
// owned key to the current successor list each tKvSync seconds.
//
// Storage honors the paper's soft-state model: kvStore rows carry a
// lease (the table's tuple lifetime) and survive only while their
// owner keeps refreshing them — an owner refreshes its own range and
// its replicas' copies each anti-entropy round, so keys orphaned by
// ownership changes expire instead of lingering forever.
//
// Conflicts resolve by version: every row carries a client-assigned
// version, and a replica only overwrites when the incoming version is
// >= its own. Equal versions re-derive the identical row, which the
// table layer treats as a lease renewal rather than a delta.
package kvs

// Relation names shared with the Go side (client, introspection).
const (
	StoreTable      = "kvStore"      // (@NI, K, V, Ver) — one row per held key
	ParamTable      = "kvParam"      // (@NI, R, Q) — replica factor, write quorum
	PutPendingTable = "kvPutPending" // (@AI, E, K, V, Ver, Req)
	GetPendingTable = "kvGetPending" // (@AI, E, K, Req)
	AckedTable      = "kvAcked"      // (@AI, E, SI) — distinct acks per op
	PutEvent        = "kvPut"        // (@AI, K, V, Ver, Req, E) — client inject
	GetEvent        = "kvGet"        // (@AI, K, Req, E) — client inject
	PutRespEvent    = "kvPutResp"    // (@Req, E, K, Ver)
	GetRespEvent    = "kvGetResp"    // (@Req, E, K, V, Ver); V="-", Ver=0 on miss

	// SuccTable is Chord's successor list — the replica set the service
	// fans writes out to; named here so the introspection side can
	// count the live fan-out without depending on the overlay package.
	SuccTable = "succ"
)

// Replication parameters baked into the spec's defines. Replicas is
// the owner plus the Chord successor list (succSize=4), Quorum the
// ack count a PUT waits for. LeaseSeconds mirrors the kvStore
// materialize lifetime (the parser requires a literal there).
const (
	Replicas     = 5
	Quorum       = 2
	LeaseSeconds = 120
)

// RepairRules names the rules whose firings count as replica repair
// work, and what one firing is: a read-repair push to one replica
// (KG8), one anti-entropy round (KS2), one answered pull request
// (KC2). The sysKV Repairs column sums their fire counters.
var RepairRules = map[string]bool{"KG8": true, "KS2": true, "KC2": true}

// Source is the KV service in OverLog. It declares only kv* relations
// and builds on the Chord spec's node/pred/succ/bestSucc/lookup/
// lookupResults; compile it together with ChordSource (see
// overlays.ChordKVPlan) or Install it on a running Chord node. This
// package deliberately imports nothing — it is the shared vocabulary
// between the overlay library, the engine's introspection, and the
// Go client, all of which sit at different layers.
const Source = `
/* Replicated key-value store over Chord: successor-list replication
   with quorum acks, read-repair, anti-entropy, churn-triggered pulls. */

materialize(kvStore, 120, infinity, keys(2)).
materialize(kvPutPending, 30, infinity, keys(2)).
materialize(kvGetPending, 30, infinity, keys(2)).
materialize(kvAcked, 30, infinity, keys(2,3)).
materialize(kvParam, infinity, 1, keys(1)).
materialize(kvPushed, 15, infinity, keys(2,3)).

define(kvReplicas, 5).
define(kvQuorum, 2).
define(tKvSync, 15).

/* Advertise the replication parameters (introspection reads these). */
KV0 kvParam@NI(NI, R, Q) :- periodic@NI(NI, E, 0, 1),
    R := kvReplicas, Q := kvQuorum.

/* PUT: remember the op, route a lookup for the key. The eid E threads
   the whole op; the requester address Req gets the final response. */
KP1 kvPutPending@AI(AI, E, K, V, Ver, Req) :- kvPut@AI(AI, K, V, Ver, Req, E).
KP2 lookup@AI(AI, K, AI, E) :- kvPut@AI(AI, K, V, Ver, Req, E).
KP3 kvWrite@SI(SI, K, V, Ver, AI, E) :- lookupResults@AI(AI, K, S, SI, E),
    kvPutPending@AI(AI, E, K2, V, Ver, Req).

/* Owner write: keep the newer (or equal — lease renewal) version,
   fan out to the successor list, ack the requester. */
KW1 kvStore@NI(NI, K, V, Ver) :- kvWrite@NI(NI, K, V, Ver, AI, E),
    kvStore@NI(NI, K, V0, Ver0), Ver >= Ver0.
KW2 kvStore@NI(NI, K, V, Ver) :- kvWrite@NI(NI, K, V, Ver, AI, E),
    not kvStore@NI(NI, K, V0, Ver0).
KW3 kvRepl@SI(SI, K, V, Ver, AI, E) :- kvWrite@NI(NI, K, V, Ver, AI, E),
    succ@NI(NI, S, SI), SI != NI.
KW4 kvAck@AI(AI, E, NI) :- kvWrite@NI(NI, K, V, Ver, AI, E).

/* Replica write: same version gate; ack only when the push came from
   a PUT in flight (anti-entropy and repair pushes carry AI = "-"). */
KR1 kvStore@NI(NI, K, V, Ver) :- kvRepl@NI(NI, K, V, Ver, AI, E),
    kvStore@NI(NI, K, V0, Ver0), Ver >= Ver0.
KR2 kvStore@NI(NI, K, V, Ver) :- kvRepl@NI(NI, K, V, Ver, AI, E),
    not kvStore@NI(NI, K, V0, Ver0).
KR3 kvAck@AI(AI, E, NI) :- kvRepl@NI(NI, K, V, Ver, AI, E), AI != "-".

/* Quorum: collect distinct acks per op; the count aggregate emits on
   every change, and the response fires when it reaches the quorum. */
KA1 kvAcked@AI(AI, E, SI) :- kvAck@AI(AI, E, SI).
KA2 kvAckCount@AI(AI, E, count<*>) :- kvAcked@AI(AI, E, SI).
KA3 kvPutResp@Req(Req, E, K, Ver) :- kvAckCount@AI(AI, E, C),
    kvPutPending@AI(AI, E, K, V, Ver, Req), C == kvQuorum.

/* GET: route to the owner and read its copy ("-"/0 marks a miss). */
KG1 kvGetPending@AI(AI, E, K, Req) :- kvGet@AI(AI, K, Req, E).
KG2 lookup@AI(AI, K, AI, E) :- kvGet@AI(AI, K, Req, E).
KG3 kvRead@SI(SI, K, AI, E) :- lookupResults@AI(AI, K, S, SI, E),
    kvGetPending@AI(AI, E, K2, Req).
KG4 kvReadResult@AI(AI, E, K, V, Ver) :- kvRead@NI(NI, K, AI, E),
    kvStore@NI(NI, K, V, Ver).
KG5 kvReadResult@AI(AI, E, K, V, Ver) :- kvRead@NI(NI, K, AI, E),
    not kvStore@NI(NI, K, V0, Ver0), V := "-", Ver := 0.
KG7 kvGetResp@Req(Req, E, K, V, Ver) :- kvReadResult@AI(AI, E, K, V, Ver),
    kvGetPending@AI(AI, E, K2, Req).

/* Read-repair: serving a read pushes the owner's row to each successor
   the owner has not already sent this version, and kvPushed remembers
   the push for 15 s (the default tKvSync). The record is enough: a push
   rides the reliable session, retransmitted until acked or given up
   only for a peer the failure detector then drops from succ. A replica
   restarted at the same address, or a push abandoned across a
   partition, is refilled by anti-entropy (KS2) within tKvSync, or by
   the first GET after the record expires. */
KG6 kvRepair@NI(NI, SI, K, V, Ver, E) :- kvRead@NI(NI, K, AI, E),
    kvStore@NI(NI, K, V, Ver), succ@NI(NI, S, SI), SI != NI,
    not kvPushed@NI(NI, K, SI, Ver).
KG8 kvRepl@SI(SI, K, V, Ver, "-", E) :- kvRepair@NI(NI, SI, K, V, Ver, E).
KG9 kvPushed@NI(NI, K, SI, Ver) :- kvRepair@NI(NI, SI, K, V, Ver, E).

/* Anti-entropy and leases: every tKvSync the owner re-pushes each key
   in its range (pred, node] to the current successor list and renews
   its own lease. Before a predecessor is known the node refreshes
   everything it holds — better to over-retain during bootstrap than
   to expire data while the ring is still forming. Copies of keys a
   node no longer owns receive no refresh and expire with the lease. */
KS1 kvSyncEvent@NI(NI, E) :- periodic@NI(NI, E, tKvSync).
KS2 kvRepl@SI(SI, K, V, Ver, "-", E) :- kvSyncEvent@NI(NI, E),
    kvStore@NI(NI, K, V, Ver), node@NI(NI, N), pred@NI(NI, P, PI),
    PI != "-", K in (P, N], succ@NI(NI, S, SI), SI != NI.
KS3 kvStore@NI(NI, K, V, Ver) :- kvSyncEvent@NI(NI, E),
    kvStore@NI(NI, K, V, Ver), node@NI(NI, N), pred@NI(NI, P, PI),
    PI != "-", K in (P, N].
KS4 kvStore@NI(NI, K, V, Ver) :- kvSyncEvent@NI(NI, E),
    kvStore@NI(NI, K, V, Ver), pred@NI(NI, P, PI), PI == "-".

/* Re-replication on churn: a bestSucc delta means the successor set
   changed (a join or a failure); ask the new successor for its store
   so inherited ranges and fresh replicas fill in immediately instead
   of waiting out an anti-entropy round. The receiver pushes every row
   it holds; the version gate keeps newer data, and rows the requester
   should not hold simply expire unrefreshed. */
KC1 kvPullReq@SI(SI, NI) :- bestSucc@NI(NI, S, SI), SI != NI.
KC2 kvRepl@PI(PI, K, V, Ver, "-", "pull") :- kvPullReq@NI(NI, PI),
    kvStore@NI(NI, K, V, Ver).
`
