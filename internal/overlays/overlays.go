// Package overlays ships the declarative overlay specifications — the
// OverLog payload this whole system exists to execute.
//
// Chord is the paper's centerpiece (Section 4 and Appendix B); Narada
// mesh maintenance is Appendix A plus the ping rules of §2.3. Gossip,
// link-state (distance-vector) routing, and ping-pong cover the
// "breadth" overlays Section 7 names as ongoing work (epidemics,
// link-state overlays).
//
// The appendix listings contain OCR/typo artifacts; the shipped specs
// fix them and the package tests document each fix:
//
//   - "K := 1I << I + N" reads "K := 1 << I + N" (shifts bind tighter
//     than +, see internal/overlog).
//   - The duplicated rule id SB7 becomes SB7A/SB7B.
//   - F3's bare "node(NI,N)" gains its @NI location.
//   - Appendix B's CM9 joins pendingPing on the *current* ping event's
//     id, which can never match an outstanding ping from an earlier
//     round; the connectivity monitor here keeps a lastHeard timestamp
//     and detects failure by elapsed time, the same mechanism Narada's
//     L2 uses.
//   - Timer constants are defines (the paper does not publish its
//     values): the settings every run uses are the define lines below,
//     overridden per deployment through experiments.ChordOpts.Defines where an
//     experiment varies one (the successor-list ablation's succSize).
package overlays

import (
	"p2/internal/kvs"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/val"
)

// ChordSource is the full Chord DHT in OverLog: lookups, ring
// maintenance with a bounded successor set, finger fixing with eager
// population, joins with retry, stabilization, and connectivity
// monitoring for fault tolerance.
const ChordSource = `
/* ---------------- base tables (Appendix B) ---------------- */
materialize(node,          infinity, 1,   keys(1)).
materialize(landmark,      infinity, 1,   keys(1)).
materialize(finger,        180,      160, keys(2)).
materialize(bestSucc,      infinity, 1,   keys(1)).
materialize(succDist,      15,       100, keys(2)).
materialize(succ,          30,       100, keys(2)).
materialize(pred,          infinity, 1,   keys(1)).
materialize(succCount,     infinity, 1,   keys(1)).
materialize(join,          10,       5,   keys(1)).
materialize(fFix,          60,       160, keys(2)).
materialize(nextFingerFix, infinity, 1,   keys(1)).
materialize(lastHeard,     infinity, 100, keys(2)).

/* ---------------- timer and policy constants ---------------- */
define(tFix,       10).   /* finger fixing period */
define(tStabilize, 5).    /* stabilization period */
define(tPing,      5).    /* connectivity monitoring period */
define(tJoinRetry, 12).   /* re-join attempt period while successorless */
define(tRejoinAll, 60).   /* anti-entropy re-join period (ring merge) */
define(tDead,      20).   /* silence before declaring a peer dead */
define(succSize,   4).    /* successors kept beyond the best one */

/* ---------------- identity ---------------- */
I0 node@NI(NI, N) :- periodic@NI(NI, E, 0, 1), N := f_sha1(NI).

/* ---------------- lookups (Section 4) ---------------- */
L1 lookupResults@R(R,K,S,SI,E) :- node@NI(NI,N), lookup@NI(NI,K,R,E),
   bestSucc@NI(NI,S,SI), K in (N,S].
L2 bestLookupDist@NI(NI,K,R,E,min<D>) :- node@NI(NI,N),
   lookup@NI(NI,K,R,E), finger@NI(NI,I,B,BI), D := K - B - 1, B in (N,K).
L3 lookup@BI(min<BI>,K,R,E) :- node@NI(NI,N),
   bestLookupDist@NI(NI,K,R,E,D), finger@NI(NI,I,B,BI),
   D == K - B - 1, B in (N,K).

/* ---------------- best-successor selection ---------------- */
N1 succEvent@NI(NI,S,SI) :- succ@NI(NI,S,SI).
N2 succEvent@NI(NI,S,SI) :- stabilize@NI(NI,E), succ@NI(NI,S,SI).
N3 succDist@NI(NI,S,D) :- node@NI(NI,N), succEvent@NI(NI,S,SI),
   D := S - N - 1.
N4 bestSuccDist@NI(NI,min<D>) :- succDist@NI(NI,S,D).
N5 bestSucc@NI(NI,S,SI) :- succ@NI(NI,S,SI), bestSuccDist@NI(NI,D),
   node@NI(NI,N), D == S - N - 1.
N6 finger@NI(NI,0,S,SI) :- bestSucc@NI(NI,S,SI).

/* ---------------- successor eviction ---------------- */
S1 succCount@NI(NI,count<*>) :- succ@NI(NI,S,SI).
S2 evictSucc@NI(NI) :- succCount@NI(NI,C), C > succSize.
S3 maxSuccDist@NI(NI,max<D>) :- succ@NI(NI,S,SI), node@NI(NI,N),
   evictSucc@NI(NI), D := S - N - 1.
S4 delete succ@NI(NI,S,SI) :- node@NI(NI,N), succ@NI(NI,S,SI),
   maxSuccDist@NI(NI,D), D == S - N - 1.

/* ---------------- finger fixing (optimized, Appendix B) ---------------- */
F0 nextFingerFix@NI(NI, 0).
F1 fFix@NI(NI,E,I) :- periodic@NI(NI,E,tFix), nextFingerFix@NI(NI,I).
F2 fFixEvent@NI(NI,E,I) :- fFix@NI(NI,E,I).
F3 lookup@NI(NI,K,NI,E) :- fFixEvent@NI(NI,E,I), node@NI(NI,N),
   K := N + 1 << I.
F4 eagerFinger@NI(NI,I,B,BI) :- fFix@NI(NI,E,I),
   lookupResults@NI(NI,K,B,BI,E).
F5 finger@NI(NI,I,B,BI) :- eagerFinger@NI(NI,I,B,BI).
F6 eagerFinger@NI(NI,I,B,BI) :- node@NI(NI,N),
   eagerFinger@NI(NI,I1,B,BI), I := I1 + 1, K := 1 << I + N,
   K in (N,B), BI != NI.
F7 delete fFix@NI(NI,E,I1) :- eagerFinger@NI(NI,I,B,BI),
   fFix@NI(NI,E,I1), I > 0, I1 == I - 1.
F8 nextFingerFix@NI(NI,0) :- eagerFinger@NI(NI,I,B,BI),
   ((I == 159) || (BI == NI)).
F9 nextFingerFix@NI(NI,I) :- node@NI(NI,N), eagerFinger@NI(NI,I1,B,BI),
   I := I1 + 1, K := 1 << I + N, K in (B,N), NI != BI.
/* Appendix B's cycle advances only on lookup results, so one index
   whose fix-lookups keep dying under churn parks the cycle forever and
   the rest of the finger table ages out — a death spiral we observed
   directly. If a fresh fix attempt finds an older outstanding attempt
   for the same index, move on; the straggler may still complete. */
F10 nextFingerFix@NI(NI,I2) :- fFixEvent@NI(NI,E,I), fFix@NI(NI,E1,I),
    E1 != E, I < 159, I2 := I + 1.
F11 nextFingerFix@NI(NI,0) :- fFixEvent@NI(NI,E,I), fFix@NI(NI,E1,I),
    E1 != E, I == 159.

/* ---------------- churn handling: joins ---------------- */
C1 joinEvent@NI(NI,E) :- join@NI(NI,E).
C2 joinReq@LI(LI,N,NI,E) :- joinEvent@NI(NI,E), node@NI(NI,N),
   landmark@NI(NI,LI), LI != "-".
C3 succ@NI(NI,N,NI) :- landmark@NI(NI,LI), joinEvent@NI(NI,E),
   node@NI(NI,N), LI == "-".
C4 lookup@LI(LI,N,NI,E) :- joinReq@LI(LI,N,NI,E).
C5 succ@NI(NI,S,SI) :- join@NI(NI,E), lookupResults@NI(NI,K,S,SI,E).
C6 join@NI(NI,E) :- periodic@NI(NI,E,tJoinRetry),
   not bestSucc@NI(NI,S,SI).
C7 join@NI(NI,E) :- periodic@NI(NI,E,tJoinRetry), bestSucc@NI(NI,S,SI),
   not succ@NI(NI,S2,SI).
/* Anti-entropy: periodically re-join through the landmark even when
   healthy. A re-join on an intact ring is a cheap no-op (the lookup
   returns the successor we already have); after a network partition
   heals it is what re-merges the split rings, which stabilization
   gossip alone cannot do once the halves share no edges. */
C8 join@NI(NI,E) :- periodic@NI(NI,E,tRejoinAll), landmark@NI(NI,LI),
   LI != "-".

/* ---------------- stabilization ---------------- */
SB0 pred@NI(NI,"-","-").
SB1 stabilize@NI(NI,E) :- periodic@NI(NI,E,tStabilize).
SB2 stabilizeRequest@SI(SI,NI) :- stabilize@NI(NI,E),
    bestSucc@NI(NI,S,SI).
SB3 sendPredecessor@PI1(PI1,P,PI) :- stabilizeRequest@NI(NI,PI1),
    pred@NI(NI,P,PI), PI != "-".
SB4 succ@NI(NI,P,PI) :- node@NI(NI,N), sendPredecessor@NI(NI,P,PI),
    bestSucc@NI(NI,S,SI), P in (N,S).
SB5 sendSuccessors@SI(SI,NI) :- stabilize@NI(NI,E), succ@NI(NI,S,SI).
/* Only gossip successors recently heard from: without the freshness
   gate, dead entries circulate through successor lists forever, their
   TTLs refreshed by each reinsertion. */
SB6 returnSuccessor@PI(PI,S,SI) :- sendSuccessors@NI(NI,PI),
    succ@NI(NI,S,SI), lastHeard@NI(NI,SI,T), f_now() - T < tDead.
SB7A succ@NI(NI,S,SI) :- returnSuccessor@NI(NI,S,SI).
SB7B notifyPredecessor@SI(SI,N,NI) :- stabilize@NI(NI,E),
    node@NI(NI,N), bestSucc@NI(NI,S,SI).
SB8 pred@NI(NI,P,PI) :- node@NI(NI,N), notifyPredecessor@NI(NI,P,PI),
    pred@NI(NI,P1,PI1), ((PI1 == "-") || (P in (P1,N))).

/* ---------------- connectivity monitoring ---------------- */
CM0 pingEvent@NI(NI,E) :- periodic@NI(NI,E,tPing).
CM1 pingReq@SI(SI,NI,E) :- pingEvent@NI(NI,E), succ@NI(NI,S,SI),
    SI != NI.
CM2 pingReq@PI(PI,NI,E) :- pingEvent@NI(NI,E), pred@NI(NI,P,PI),
    PI != NI, PI != "-".
CM3 pingResp@RI(RI,NI,E) :- pingReq@NI(NI,RI,E).
CM4 succ@NI(NI,S,SI) :- succ@NI(NI,S,SI), pingResp@NI(NI,SI,E).
CM5 lastHeard@NI(NI,PI,T) :- pingResp@NI(NI,PI,E), T := f_now().
CM6 lastHeard@NI(NI,PI,T) :- pred@NI(NI,P,PI), PI != "-",
    T := f_now().
CM7 predFail@NI(NI,PI) :- pingEvent@NI(NI,E), pred@NI(NI,P,PI),
    lastHeard@NI(NI,PI,T), PI != "-", f_now() - T > tDead.
CM8 pred@NI(NI,"-","-") :- predFail@NI(NI,PI).
CM9 succFail@NI(NI,SI) :- pingEvent@NI(NI,E), succ@NI(NI,S,SI),
    lastHeard@NI(NI,SI,T), SI != NI, f_now() - T > tDead.
CM10 delete succ@NI(NI,S,SI) :- succFail@NI(NI,SI), succ@NI(NI,S,SI).
/* Baseline the freshness clock the first time a peer appears as a
   successor; reinsertions of an already-tracked peer keep the old
   baseline, so a gossiped-back zombie is re-deleted within one ping
   round instead of living another full timeout. */
CM11 lastHeard@NI(NI,SI,T) :- succ@NI(NI,S,SI),
     not lastHeard@NI(NI,SI,T2), T := f_now().
CM12 delete finger@NI(NI,I,B,BI) :- succFail@NI(NI,BI),
     finger@NI(NI,I,B,BI).
`

// NaradaSource is the Narada-style mesh: Appendix A's membership and
// liveness rules plus the §2.3 round-trip measurement rules P0-P3.
// The utility rules U1/U2 need a routing protocol running on the mesh
// and multi-node bodies; like the paper's own executable appendix, the
// runnable spec omits them (the linkstate overlay supplies routing).
const NaradaSource = `
materialize(member,   120,      infinity, keys(2)).
materialize(sequence, infinity, 1,        keys(2)).
materialize(neighbor, infinity, infinity, keys(2)).
materialize(env,      infinity, infinity, keys(2,3)).
materialize(latency,  120,      infinity, keys(2)).

define(tRefresh,   3).
define(tProbe,     1).
define(tPingMesh,  2).
define(tNeighborDead, 20).

/* Setup: bootstrap neighbors from env rows, start the sequence at 0,
   and know thyself as a member. Appendix A drives E0 from a one-shot
   periodic; triggering on env deltas instead makes bootstrap robust to
   configuration arriving after node start. */
E0 neighbor@X(X,Y) :- env@X(X, H, Y), H == "neighbor".
S0 sequence@X(X, Seq) :- periodic@X(X, E, 0, 1), Seq := 0.
I1 member@X(X, X, Seq, T, Live) :- periodic@X(X, E, 0, 1), Seq := 0,
   T := f_now(), Live := 1.

/* Membership refresh (Appendix A R1-R8, N1). */
R1 refreshEvent@X(X) :- periodic@X(X, E, tRefresh).
R2 refreshSequence@X(X, NewSeq) :- refreshEvent@X(X),
   sequence@X(X, Seq), NewSeq := Seq + 1.
R3 sequence@X(X, NewSeq) :- refreshSequence@X(X, NewSeq).
R4 refresh@Y(Y, X, NewSeq, Addr, ASeq, ALive) :-
   refreshSequence@X(X, NewSeq), member@X(X, Addr, ASeq, Time, ALive),
   neighbor@X(X, Y).
R5 membersFound@X(X, Y, YSeq, Addr, ASeq, ALive, count<*>) :-
   refresh@X(X, Y, YSeq, Addr, ASeq, ALive),
   member@X(X, Addr, MySeq, MyTime, MyLive), X != Addr.
R6 member@X(X, Addr, ASeq, T, ALive) :-
   membersFound@X(X, Y, YSeq, Addr, ASeq, ALive, C), C == 0,
   T := f_now().
R7 member@X(X, Addr, ASeq, T, ALive) :-
   membersFound@X(X, Y, YSeq, Addr, ASeq, ALive, C), C > 0,
   member@X(X, Addr, MySeq, MyT, MyLive), MySeq < ASeq, T := f_now().
R8 member@X(X, Y, YSeq, T, YLive) :- refresh@X(X, Y, YSeq, A, AS, AL),
   T := f_now(), YLive := 1.
N1 neighbor@X(X, Y) :- refresh@X(X, Y, YS, A, AS, L).

/* Neighbor liveness (Appendix A L1-L4). */
L1 neighborProbe@X(X) :- periodic@X(X, E, tProbe).
L2 deadNeighbor@X(X, Y) :- neighborProbe@X(X), T := f_now(),
   neighbor@X(X, Y), member@X(X, Y, YS, YT, L), T - YT > tNeighborDead.
L3 delete neighbor@X(X, Y) :- deadNeighbor@X(X, Y).
L4 member@X(X, Neighbor, DeadSeq, T, Live) :- deadNeighbor@X(X, Neighbor),
   member@X(X, Neighbor, S, T1, L), Live := 0, DeadSeq := S + 1,
   T := f_now().

/* Round-trip measurement (Section 2.3 P0-P3). */
P0 pingEvent@X(X, Y, E, max<R>) :- periodic@X(X, E, tPingMesh),
   member@X(X, Y, S, T, L), Y != X, R := f_rand().
P1 ping@Y(Y, X, E, T) :- pingEvent@X(X, Y, E, R), T := f_now().
P2 pong@X(X, Y, E, T) :- ping@Y(Y, X, E, T).
P3 latency@X(X, Y, LAT) :- pong@X(X, Y, E, T1), LAT := f_now() - T1.
`

// GossipSource is a push epidemic: every round each node picks one
// random peer and pushes every rumor it knows — one of the Section 7
// "epidemic-based networks".
const GossipSource = `
materialize(peer,  infinity, infinity, keys(2)).
materialize(rumor, infinity, infinity, keys(2)).

define(tGossip, 2).

G1 gossipEvent@X(X, E) :- periodic@X(X, E, tGossip).
G2 target@X(X, Y, E, max<R>) :- gossipEvent@X(X, E), peer@X(X, Y),
   R := f_rand().
G3 rumorMsg@Y(Y, X, ID, Data) :- target@X(X, Y, E, R),
   rumor@X(X, ID, Data).
G4 rumor@X(X, ID, Data) :- rumorMsg@X(X, Y, ID, Data).
`

// LinkStateSource is periodic distance-vector routing over a declared
// link table — the "link-state- and path-vector-based overlays" of
// Section 7, in the style of declarative routing (Loo et al.,
// HotNets-III).
const LinkStateSource = `
materialize(link,         infinity, infinity, keys(2)).
materialize(path,         15,       infinity, keys(2,3)).
materialize(bestPath,     15,       infinity, keys(2)).
materialize(bestPathDist, infinity, infinity, keys(2)).

define(tAdvertise, 2).

/* One-hop paths come straight from links. */
DV1 path@X(X, D, D, C) :- link@X(X, D, C).

/* Periodically advertise best paths to every neighbor. */
DV2 advEvent@X(X, E) :- periodic@X(X, E, tAdvertise).
DV3 advertisement@Y(Y, X, D, C) :- advEvent@X(X, E), link@X(X, Y, LC),
    bestPath@X(X, D, N, C).

/* Adopt advertised paths, adding the cost of the incoming link. */
DV4 path@X(X, D, Y, C2) :- advertisement@X(X, Y, D, C),
    link@X(X, Y, LC), C2 := C + LC, D != X.

/* Continuous best-path selection. bestPathDist is materialized so the
   periodic refresh rule DV8 can re-derive (and thereby TTL-refresh)
   stable best paths; the aggregate alone only emits on change, which
   would let an unchanged best path expire. */
DV5 bestPathDist@X(X, D, min<C>) :- path@X(X, D, N, C).
DV6 bestPath@X(X, D, N, C) :- bestPathDist@X(X, D, C),
    path@X(X, D, N, C).

/* Refresh soft state every advertisement round: one-hop paths and the
   currently-best paths. */
DV7 path@X(X, D, D, C) :- advEvent@X(X, E), link@X(X, D, C).
DV8 bestPath@X(X, D, N, C) :- advEvent@X(X, E), bestPathDist@X(X, D, C),
    path@X(X, D, N, C).
`

// MeshMulticastSource floods application messages across whatever mesh
// maintains a `neighbor` table — four rules of DVMRP-flavoured
// dissemination with duplicate suppression. It declares no neighbor
// table of its own: merge it with NaradaSource (overlog.Merge /
// p2.CompileMulti) and the two specifications share the mesh state,
// demonstrating the paper's multi-overlay sharing (§1, §2.1). This is
// the "second layer" of the Narada system the paper's intro describes.
const MeshMulticastSource = `
materialize(seenMsg, 120, 1000, keys(2)).

/* A message not seen before is new; remember and deliver it. */
M1 newMsg@X(X, MID, Data, From) :- message@X(X, MID, Data, From),
   not seenMsg@X(X, MID).
M2 seenMsg@X(X, MID) :- newMsg@X(X, MID, Data, From).
M3 deliver@X(X, MID, Data) :- newMsg@X(X, MID, Data, From).

/* Forward new messages to every mesh neighbor except the sender. */
M4 message@Y(Y, MID, Data, X) :- newMsg@X(X, MID, Data, From),
   neighbor@X(X, Y), Y != From.
`

// PingPongSource is the quickstart overlay: measure round-trip latency
// to a configured peer, the minimal two-node dataflow.
const PingPongSource = `
materialize(pingPeer, infinity, 1,        keys(1)).
materialize(rtt,      infinity, infinity, keys(2)).

define(tPing, 1).

Q1 pingEvent@X(X, E) :- periodic@X(X, E, tPing).
Q2 ping@Y(Y, X, E, T) :- pingEvent@X(X, E), pingPeer@X(X, Y),
   T := f_now().
Q3 pong@X(X, Y, E, T) :- ping@Y(Y, X, E, T).
Q4 rtt@X(X, Y, LAT) :- pong@X(X, Y, E, T1), LAT := f_now() - T1.
`

// Spec pairs a name with OverLog source, for enumeration by tools.
type Spec struct {
	Name   string
	Source string
}

// All returns every shipped overlay specification. The "multicast"
// entry is the Narada mesh merged with the mesh-multicast layer — two
// specifications sharing one dataflow and one neighbor table.
func All() []Spec {
	return []Spec{
		{"chord", ChordSource},
		{"narada", NaradaSource},
		{"gossip", GossipSource},
		{"linkstate", LinkStateSource},
		{"pingpong", PingPongSource},
		{"multicast", NaradaSource + MeshMulticastSource},
	}
}

// Lookup returns the named spec source, or "".
func Lookup(name string) string {
	for _, s := range All() {
		if s.Name == name {
			return s.Source
		}
	}
	return ""
}

// ChordPlan compiles the Chord spec with optional define overrides.
func ChordPlan(overrides map[string]val.Value) *planner.Plan {
	return planner.MustCompile(overlog.MustParse(ChordSource), overrides)
}

// ChordKVPlan merges the Chord spec with the replicated key-value
// service (internal/kvs) into one compiled dataflow — the ring does
// the routing, the KV rules do replication, quorum, and repair.
func ChordKVPlan(overrides map[string]val.Value) *planner.Plan {
	merged, err := overlog.Merge(
		overlog.MustParse(ChordSource),
		overlog.MustParse(kvs.Source),
	)
	if err != nil {
		panic(err)
	}
	return planner.MustCompile(merged, overrides)
}
