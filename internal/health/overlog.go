package health

// Two OverLog rule libraries over the sys* tables: the condition
// catalogue, which judges the conditions, and the monitor library,
// which reacts to them: alarms are tuples, so user programs can join on
// them, ship them to a hub, or trigger repair, the paper's
// introspection story closed into a loop.

import (
	"fmt"
	"sync"

	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/val"
)

// MonitorSource returns the health monitor rule library. Relations it
// materializes (all soft state, fading when the condition clears and
// refreshes stop):
//
//	healthAlarm(@N, Type, Reason)  — conditions currently True
//	deadPeer(@N, Dest)             — peers with PeerDead drops
//	lossyPeer(@N, Dest, Drops)     — peers with RetryExhausted drops
//	dropTotal(@N, sum<Drops>)      — node-wide abandoned-tuple total
//
// Install it next to an application program; the rules only read sys*
// tables the runtime already maintains.
func MonitorSource() string { return monitorSource }

const monitorSource = `
	materialize(healthAlarm, 30, infinity, keys(1, 2)).
	materialize(deadPeer, 30, infinity, keys(1, 2)).
	materialize(lossyPeer, 30, infinity, keys(1, 2)).
	materialize(dropTotal, infinity, 1, keys(1)).

	HM1 healthAlarm@N(N, Ty, R) :-
		sysHealth@N(N, Ty, St, R, S), St == "True".
	HM2 deadPeer@N(N, D) :-
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, F, DR, DC, DD, DO), DD > 0.
	HM3 lossyPeer@N(N, D, DR) :-
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, F, DR, DC, DD, DO), DR > 0.
	HM4 dropTotal@N(N, sum<DR>) :-
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, F, DR, DC, DD, DO).
`

// conditionSource is the condition catalogue. It runs once per refresh,
// on the sysNode delta, and derives the sysHealth(@N, Type, Status,
// Reason, SinceS) rows from sysNet, sysTable and sysKV. The refresh
// stores every sys* row before a strand runs, and strands run in the
// order they were triggered, so each stage sees what the stages before
// it left: failures, then the evaluation (sysHealthNow, Tick, Sample),
// then each condition's verdict (sysHealthEval). Thresholds are
// constants but two defines: sysSuspectWindow, how long (s) a peer
// stays suspect after its last abandoned tuple, which a program or
// Compile's defines may set, and sysBacklogThreshold, which Graft sets.
const conditionSource = `
	materialize(sysSuspect, sysSuspectWindow, infinity, keys(1, 2)).
	materialize(sysPeerFails, infinity, infinity, keys(1, 2)).
	materialize(sysFailTotal, infinity, 1, keys(1)).
	materialize(sysChurn, infinity, 1, keys(1)).

	/* Failure drops (retry budget exhausted, peer presumed dead) each
	   peer gained since the last refresh; a count below the last means
	   the transport reclaimed the flow, so all of it is new. The counts
	   of reported or suspect peers are remembered. */
	SH1 sysFailNew@N(N, D, F - L) :- sysNode@N(N, U, E, Q),
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, Bf, Dr, Dc, Dd, Do), F := Dr + Dd,
		sysPeerFails@N(N, D, L), F > L.
	SH2 sysFailNew@N(N, D, F) :- sysNode@N(N, U, E, Q),
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, Bf, Dr, Dc, Dd, Do), F := Dr + Dd,
		sysPeerFails@N(N, D, L), F < L, F > 0.
	SH3 sysFailNew@N(N, D, F) :- sysNode@N(N, U, E, Q),
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, Bf, Dr, Dc, Dd, Do), F := Dr + Dd,
		F > 0, not sysPeerFails@N(N, D, _).
	SH4 sysPeerFails@N(N, D, Dr + Dd) :- sysNode@N(N, U, E, Q),
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, Bf, Dr, Dc, Dd, Do).
	SH5 delete sysPeerFails@N(N, D, F) :- sysNode@N(N, U, E, Q), sysPeerFails@N(N, D, F),
		not sysNet@N(N, D, _, _, _, _, _, _, _, _, _, _, _, _), not sysSuspect@N(N, D).
	SH6 sysHealthNow@N(N, U, f_now() * 1.0) :- sysNode@N(N, U, E, Q).

	SH7 sysSuspect@N(N, D) :- sysFailNew@N(N, D, I).
	SH8 sysFailTotal@N(N, T + I) :- sysFailNew@N(N, D, I), sysFailTotal@N(N, T).
	SH9 sysFailTotal@N(N, I) :- sysFailNew@N(N, D, I), not sysFailTotal@N(N, _).

	/* The evaluation at T: C, the application tables' inserts plus
	   deletes; K, the suspects; S, those the transport still reports.
	   sysChurn holds the last C, when C last grew (from the node's
	   start) and when the last evaluation ran (-1 before the first). */
	SH10 sysHealthTick@N(N, U, T, sum<C>) :- sysHealthNow@N(N, U, T),
		sysTable@N(N, Tb, Tu, I, Dl, Rf), C := I + Dl.
	SH11 sysHealthTick@N(N, U, T, 0.0) :- sysHealthNow@N(N, U, T),
		not sysTable@N(N, _, _, _, _, _).
	SH12 sysChurn@N(N, 0.0, T - U, -1.0) :- sysHealthTick@N(N, U, T, C), not sysChurn@N(N, _, _, _).
	SH13 sysHealthFailing@N(N, T, count<D>) :- sysHealthTick@N(N, U, T, C), sysSuspect@N(N, D).
	SH14 sysHealthSample@N(N, T, C, count<D>) :- sysHealthTick@N(N, U, T, C),
		sysSuspect@N(N, D), sysNet@N(N, D, _, _, _, _, _, _, _, _, _, _, _, _).

	/* Partitioned: some reported peer is suspect; the first three in
	   address order are named. */
	SH15 sysHealthEval@N(N, "Partitioned", "False", "all peers acknowledging", T) :-
		sysHealthSample@N(N, T, C, S), S == 0.
	SH16 sysPeerList@N(N, T, S, 1, D, min<D>) :- sysHealthSample@N(N, T, C, S),
		sysSuspect@N(N, D), sysNet@N(N, D, _, _, _, _, _, _, _, _, _, _, _, _).
	SH17 sysPeerList@N(N, T, S, K + 1, L + "," + D, min<D>) :- sysPeerList@N(N, T, S, K, L, P),
		K < S, K < 3, sysSuspect@N(N, D), sysNet@N(N, D, _, _, _, _, _, _, _, _, _, _, _, _), D > P.
	SH18 sysHealthEval@N(N, "Partitioned", "True", f_toStr(S) + " peer(s) unreachable: " + L, T) :-
		sysPeerList@N(N, T, S, K, L, P), K == S.
	SH19 sysHealthEval@N(N, "Partitioned", "True", f_toStr(S) + " peer(s) unreachable: " + L + ",…", T) :-
		sysPeerList@N(N, T, S, K, L, P), K == 3, S > 3.

	/* RetryBudgetExhausted: some peer is suspect, reported or not. */
	SH20 sysHealthEval@N(N, "RetryBudgetExhausted", "True",
		f_toStr(F) + " tuple(s) abandoned after full retry budget", T) :-
		sysHealthFailing@N(N, T, K), K > 0, sysFailTotal@N(N, F).
	SH21 sysHealthEval@N(N, "RetryBudgetExhausted", "False", "no recent retry-budget drops", T) :-
		sysHealthFailing@N(N, T, K), K == 0.

	SH22 sysBacklog@N(N, T, D, max<B>) :- sysHealthTick@N(N, U, T, C),
		sysNet@N(N, D, Sn, Rc, By, Rt, W, To, B, Bf, Dr, Dc, Dd, Do).
	SH23 sysHealthEval@N(N, "BacklogSaturated", "True", "backlog toward " + D + " is " + f_toStr(B) +
		" (threshold " + f_toStr(sysBacklogThreshold) + ")", T) :-
		sysBacklog@N(N, T, D, B), B >= sysBacklogThreshold.
	SH24 sysHealthEval@N(N, "BacklogSaturated", "False", "worst backlog " + f_toStr(B) +
		" below threshold " + f_toStr(sysBacklogThreshold), T) :-
		sysBacklog@N(N, T, D, B), B < sysBacklogThreshold.
	SH25 sysHealthEval@N(N, "BacklogSaturated", "False",
		"worst backlog 0 below threshold " + f_toStr(sysBacklogThreshold), T) :-
		sysHealthTick@N(N, U, T, C), not sysNet@N(N, _, _, _, _, _, _, _, _, _, _, _, _, _).

	/* KVUnderReplicated: the key-value service's replica fan-out (the
	   node and its live successors) against its write quorum. */
	SH26 sysHealthEval@N(N, "KVUnderReplicated", "Unknown", "kv service not running", T) :-
		sysHealthTick@N(N, U, T, C), not sysKV@N(N, _, _, _, _, _, _, _).
	SH27 sysHealthEval@N(N, "KVUnderReplicated", "Unknown", "replication parameters not yet derived", T) :-
		sysHealthTick@N(N, U, T, C), sysKV@N(N, K, R, Qu, Sc, Re, Ex, Pe), R == 0.
	SH28 sysHealthEval@N(N, "KVUnderReplicated", "True", f_toStr(K) + " key(s) held with replica fan-out " +
		f_toStr(Sc + 1) + " below quorum " + f_toStr(Qu), T) :-
		sysHealthTick@N(N, U, T, C), sysKV@N(N, K, R, Qu, Sc, Re, Ex, Pe), R != 0, K > 0, Sc + 1 < Qu.
	SH29 sysHealthEval@N(N, "KVUnderReplicated", "False", "replica fan-out " + f_toStr(Sc + 1) +
		" of " + f_toStr(R) + " meets quorum " + f_toStr(Qu), T) :-
		sysHealthTick@N(N, U, T, C), sysKV@N(N, K, R, Qu, Sc, Re, Ex, Pe), R != 0, K <= 0 || Sc + 1 >= Qu.

	/* ChurnStorm: the churn rate since the last evaluation, judged from
	   the second one on. X >> 0 rounds X down to an integer. */
	SH30 sysHealthEval@N(N, "ChurnStorm", "Unknown", "no samples yet", T) :-
		sysHealthSample@N(N, T, C, S), sysChurn@N(N, C0, Tc, T0), T0 < 0.
	SH31 sysChurnRate@N(N, T, (C - C0) / (T - T0)) :- sysHealthSample@N(N, T, C, S),
		sysChurn@N(N, C0, Tc, T0), T0 >= 0, T > T0.
	SH32 sysHealthEval@N(N, "ChurnStorm", "True", f_toStr((R + 0.5) >> 0) + " table deltas/s exceeds 50", T) :-
		sysChurnRate@N(N, T, R), R > 50.
	SH33 sysHealthEval@N(N, "ChurnStorm", "False", f_toStr((R + 0.5) >> 0) + " table deltas/s within 50", T) :-
		sysChurnRate@N(N, T, R), R <= 50.

	/* Converged: no table deltas for 5 s and no suspect peer; Unknown
	   while the first evaluation finds the node younger than that. */
	SH34 sysHealthEval@N(N, "Converged", "True", "no table deltas for " + f_toStr(Q / 10) + "." +
		f_toStr(Q % 10) + "s", T) :-
		sysHealthSample@N(N, T, C, S), S == 0, sysChurn@N(N, C0, Tc, T0), C <= C0, T - Tc >= 5,
		Q := (10 * (T - Tc) + 0.5) >> 0.
	SH35 sysHealthEval@N(N, "Converged", "Unknown", "no samples yet", T) :-
		sysHealthSample@N(N, T, C, S), sysChurn@N(N, C0, Tc, T0), T0 < 0, C > C0 || T - Tc < 5.
	SH36 sysHealthEval@N(N, "Converged", "False", f_toStr(S) + " peer(s) unreachable", T) :-
		sysHealthSample@N(N, T, C, S), S > 0, sysChurn@N(N, C0, Tc, T0),
		T0 >= 0 || C <= C0 && T - Tc >= 5.
	SH37 sysHealthEval@N(N, "Converged", "False", "tables still churning", T) :-
		sysHealthSample@N(N, T, C, S), S == 0, sysChurn@N(N, C0, Tc, T0),
		T0 >= 0, C > C0 || T - Tc < 5.

	/* What the next evaluation compares against, stored once this
	   one's rules have read it. */
	SH38 sysChurn@N(N, C, T, T) :- sysHealthSample@N(N, T, C, S), sysChurn@N(N, C0, Tc, T0), C > C0.
	SH39 sysChurn@N(N, C0, Tc, T) :- sysHealthSample@N(N, T, C, S), sysChurn@N(N, C0, Tc, T0), C <= C0.

	/* A verdict keeps its row's SinceS while Status stays; a new row
	   starts at T, or at the node's start while it is still Unknown. */
	SH40 sysHealth@N(N, Ty, St, R, S) :- sysHealthEval@N(N, Ty, St, R, T),
		sysHealth@N(N, Ty, St, R0, S).
	SH41 sysHealth@N(N, Ty, St, R, T) :- sysHealthEval@N(N, Ty, St, R, T),
		sysHealth@N(N, Ty, St0, R0, S), St0 != St.
	SH42 sysHealth@N(N, Ty, St, R, T) :- sysHealthEval@N(N, Ty, St, R, T), St != "Unknown",
		not sysHealth@N(N, Ty, _, _, _).
	SH43 sysHealth@N(N, Ty, St, R, T - U) :- sysHealthEval@N(N, Ty, St, R, T), St == "Unknown",
		not sysHealth@N(N, Ty, _, _, _), sysNode@N(N, U, E, Q).
`

// SuspectTable is the library's suspicion relation, (@N, Dest): one
// row per peer whose failures advanced within the suspect window. A
// plan that declares it carries the library.
const SuspectTable = "sysSuspect"

var conditionProg = sync.OnceValue(func() *overlog.Program { return overlog.MustParse(conditionSource) })

// Graft returns plan extended with the condition library for a node
// whose transport bounds each peer's backlog at queueCap (0 for
// unbounded): BacklogSaturated raises at half of it, at least 1, or at
// 256 when the backlog is unbounded. The suspect window is the plan's
// sysSuspectWindow, or 10 s.
func Graft(plan *planner.Plan, queueCap int) *planner.Plan {
	thresh := 256
	if queueCap > 0 {
		thresh = max(queueCap/2, 1)
	}
	defines := map[string]val.Value{"sysBacklogThreshold": val.Int(int64(thresh))}
	if _, ok := plan.Defines["sysSuspectWindow"]; !ok {
		defines["sysSuspectWindow"] = val.Int(10)
	}
	out, err := planner.ExtendSystem(plan, conditionProg(), defines, true)
	if err != nil {
		// The planner keeps programs out of the library's relations,
		// so only a library that does not compile gets here.
		panic(fmt.Sprintf("health: the condition library does not graft onto the plan: %v", err))
	}
	return out
}
