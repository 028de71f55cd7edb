"""Global oracles: token census, legitimacy, safety/fairness/liveness verdicts.

Everything here is a pure function over configuration snapshots or run
traces; nothing feeds back into the protocol.  Resource tokens carry a
monitor-only identity tag, which is what lets the safety checker assert
that a unit is never in two places at once rather than merely counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import IN, OUT, REQ, Ctrl, PrioT, PushT, ResT
from .topology import TreeTopology, virtual_ring


@dataclass(frozen=True)
class CensusReport:
    """Exact global token counts for one configuration snapshot.

    Resource/priority counts include both free tokens (in channels) and
    held ones (reserved in an RSet / a set Prio variable); pushers are
    never held.  ``ctrl_tokens`` counts control messages that their
    would-be receiver would treat as valid: arriving from Succ with the
    adopted counter, or arriving at a non-root from its parent with a new
    counter.
    """

    res_tokens: int
    prio_tokens: int
    push_tokens: int
    ctrl_tokens: int

    def species(self) -> tuple[int, int, int]:
        return (self.res_tokens, self.prio_tokens, self.push_tokens)


def ctrl_is_valid(msg: Ctrl, receiver_state, is_root: bool, q: int) -> bool:
    if q == receiver_state.succ and msg.c == receiver_state.myc:
        return True
    return (not is_root) and q == 0 and msg.c != receiver_state.myc


class RingInfo:
    """Ring geometry used to decide which tokens the current controller
    traversal has already counted.

    ``t_index`` maps a channel key to its position 1..2(n-1) in the order
    the controller visits channels, with the wrap channel (root, deg-1)
    last.  ``visit_index`` is the same map except that the wrap channel
    maps to 0: reserved tokens there are picked into PT at the wrap, i.e.
    at the very start of a traversal.
    """

    def __init__(self, topo: TreeTopology):
        self.topo = topo
        ring = virtual_ring(topo)
        self.length = len(ring)
        self.t_index: dict[tuple[str, int], int] = {}
        for i, pos in enumerate(ring):
            key = (pos.process, pos.in_channel)
            self.t_index[key] = i if i >= 1 else self.length
        self.visit_index = dict(self.t_index)
        self.visit_index[(topo.root, topo.degree(topo.root) - 1)] = 0
        self.root_keys_t = sorted(
            t for (pid, _ch), t in self.t_index.items() if pid == topo.root
        )


def step_checks(cfg, ring: RingInfo, k: int, ell: int,
                modulus: int) -> tuple[CensusReport, bool, list[str]]:
    """Census, legitimacy verdict, and safety scan for one snapshot.

    Legitimacy is membership in the legitimate attractor: the nominal
    token population (ell resource tokens, one priority token, one
    pusher), no safety violation, and the clauses of ``_attractor_check``.

    Safety violations reported: a unit represented twice (duplicate
    identity tag), more than k units held by a process in its critical
    section, more than ell units in use, any variable outside its domain.
    """
    topo = ring.topo
    violations: list[str] = []
    res = prio = push = ctrl = 0
    ctrls: list[tuple[tuple[str, int], Ctrl]] = []  # valid or not
    seen_uids: set[int] = set()

    for key, queue in cfg.channels.items():
        pid, q = key
        st = cfg.states[pid]
        is_root = pid == topo.root
        for m in queue:
            if isinstance(m, ResT):
                res += 1
                if m.uid in seen_uids:
                    violations.append(f"resource unit {m.uid} duplicated (channel {pid}:{q})")
                seen_uids.add(m.uid)
            elif isinstance(m, PrioT):
                prio += 1
            elif isinstance(m, PushT):
                push += 1
            else:
                ctrls.append((key, m))
                if ctrl_is_valid(m, st, is_root, q):
                    ctrl += 1

    in_use = 0
    for pid in topo.process_ids:
        st = cfg.states[pid]
        res += len(st.rset)
        for e in st.rset:
            if e.uid in seen_uids:
                violations.append(f"resource unit {e.uid} duplicated (RSet of {pid})")
            seen_uids.add(e.uid)
        if st.prio is not None:
            prio += 1
        if st.state == IN:
            in_use += len(st.rset)
            if len(st.rset) > k:
                violations.append(f"{pid} in CS with {len(st.rset)} > k units")
        if not 0 <= st.myc < modulus:
            violations.append(f"{pid} counter {st.myc} outside domain")
        if st.stoken > ell + 1 or st.spush > 2 or st.sprio > 2 or len(st.rset) > k:
            violations.append(f"{pid} bounded variable outside domain")
    if in_use > ell:
        violations.append(f"{in_use} > ell units in use")

    rep = CensusReport(res, prio, push, ctrl)
    legit = (
        rep.species() == (ell, 1, 1)
        and not violations
        and len(ctrls) == 1
        and _attractor_check(cfg, ring, *ctrls[0])
    )
    return rep, legit, violations


def _attractor_check(cfg, ring: RingInfo, ckey: tuple[str, int], cm: Ctrl) -> bool:
    """Clauses beyond the species census, given the only control message
    ``cm`` and its channel ``ckey``: the message is valid and not a reset,
    the traversal state is canonical, the running counts are exact, and no
    reservations are parked on the ring's wrap boundary (the literal
    handler order counts those twice across a wrap).

    The consistency clauses are what make the predicate closed under
    execution; a merely nominal census can still carry inflated counts
    that trigger a spurious reset at the next wrap.
    """
    topo = ring.topo
    root = topo.root
    rs = cfg.states[root]
    if rs.reset or cm.r:
        return False
    if not ctrl_is_valid(cm, cfg.states[ckey[0]], ckey[0] == root, ckey[1]):
        return False

    t_c = ring.t_index[ckey]
    c = cm.c

    rd = topo.degree(root)
    if any(e.channel == rd - 1 for e in rs.rset) or rs.prio == rd - 1:
        return False
    # A requesting root can come to hold the priority token or reserved
    # tokens at the wrap boundary, whose release then double-counts across
    # the traversal seam; configurations that can still reach that seam
    # burp are outside the attractor.
    if rs.state == REQ:
        return False

    # canonical traversal state
    if rs.myc != c:
        return False
    if rs.succ != sum(1 for t in ring.root_keys_t if t < t_c):
        return False
    for pid in topo.process_ids:
        if pid == root:
            continue
        st = cfg.states[pid]
        d = topo.degree(pid)
        visits = sum(
            1 for ch in range(d) if ring.t_index[(pid, ch)] < t_c
        )
        if visits == 0:
            if st.myc == c:
                return False
        else:
            if st.myc != c:
                return False
            if st.succ != (min(1, d - 1) + visits - 1) % d:
                return False

    # running counts match the tokens the traversal has already counted:
    # a token is counted once it sits behind the controller, i.e. in a
    # channel the controller has left or after it in its own channel
    counted_res = counted_prio = counted_push = 0
    for key, queue in cfg.channels.items():
        if key == ckey:
            behind = False
        elif ring.t_index[key] < t_c:
            behind = True
        else:
            continue
        for m in queue:
            if isinstance(m, Ctrl):
                behind = True
            elif not behind:
                continue
            elif isinstance(m, ResT):
                counted_res += 1
            elif isinstance(m, PrioT):
                counted_prio += 1
            else:
                counted_push += 1
    for pid in topo.process_ids:
        st = cfg.states[pid]
        for e in st.rset:
            if ring.visit_index[(pid, e.channel)] < t_c:
                counted_res += 1
        if st.prio is not None and ring.visit_index[(pid, st.prio)] < t_c:
            counted_prio += 1
    return (
        cm.pt + rs.stoken == counted_res
        and cm.ppr + rs.sprio == counted_prio
        and rs.spush == counted_push
    )


# --------------------------------------------------------------------------
# Trace-level verdicts
# --------------------------------------------------------------------------

ALLOWED_TRANSITIONS = {(OUT, REQ), (REQ, IN), (IN, OUT)}


def legit_series(trace) -> list[bool]:
    """Legitimacy of every configuration the trace saw, initial included."""
    return [trace.initial_legit] + [rec.legit for rec in trace.records]


def stabilization_time(trace) -> int | None:
    """Index of the first configuration after which legitimacy holds for the
    remainder of the trace; None when the trace never settles."""
    series = legit_series(trace)
    if not series[-1]:
        return None
    last_bad = -1
    for i, ok in enumerate(series):
        if not ok:
            last_bad = i
    return last_bad + 1


def first_legitimate(trace) -> int | None:
    for i, ok in enumerate(legit_series(trace)):
        if ok:
            return i
    return None


def closure_regressions(trace) -> int:
    """Number of legitimate -> non-legitimate transitions; zero in a correct
    run (legitimacy is an attractor)."""
    series = legit_series(trace)
    return sum(1 for a, b in zip(series, series[1:]) if a and not b)


@dataclass
class SafetyVerdict:
    passed: bool
    pre_stabilization: list[str]
    post_stabilization: list[str]


def check_safety(trace, stabilization: int | None = None) -> SafetyVerdict:
    """Safety over a trace: violations before the stabilization point are
    recorded but expected; any at or after it fails the run.  Also rejects
    any state transition outside the Out->Req->In->Out cycle.
    """
    if stabilization is None:
        stabilization = stabilization_time(trace)
    cutoff = math.inf if stabilization is None else stabilization
    pre: list[str] = []
    post: list[str] = []
    bucket0 = post if cutoff <= 0 else pre
    bucket0.extend(getattr(trace, "initial_violations", []))
    for i, rec in enumerate(trace.records):
        config_index = i + 1  # record i describes configuration i+1
        bucket = post if config_index >= cutoff else pre
        bucket.extend(rec.violations)
        for pid, old, new in rec.transitions:
            if (old, new) not in ALLOWED_TRANSITIONS:
                post.append(f"{pid}: forbidden transition {old}->{new} at step {rec.step}")
    return SafetyVerdict(passed=not post, pre_stabilization=pre, post_stabilization=post)


@dataclass
class RequestRecord:
    process: str
    step_requested: int  # -1 for requests present in the initial configuration
    need: int
    step_entered: int | None = None
    waiting: int | None = None  # CS entries by other processes while waiting


def collect_requests(trace) -> list[RequestRecord]:
    """Pair every request with its satisfaction and count the entries by
    other processes in between (the waiting time of the request), in one
    forward pass: a pending request keeps as its base the running count of
    entries through its own step.  A process enters at most once a step."""
    requests = [RequestRecord(pid, -1, need) for pid, need in trace.initial_requests]
    pending = {req.process: [(req, 0)] for req in requests}
    count = 0  # entries in the steps already passed
    for rec in trace.records:
        through = count + len(rec.entries)
        for pid, need in rec.requests:
            req = RequestRecord(pid, rec.step, need)
            requests.append(req)
            pending.setdefault(pid, []).append((req, through))
        for pid in rec.entries:
            for req, base in pending.pop(pid, ()):
                req.step_entered = rec.step
                req.waiting = through - base - 1 if req.step_requested < rec.step else 0
        count = through
    return requests


@dataclass
class FairnessVerdict:
    passed: bool
    inconclusive: bool
    requests: list[RequestRecord]
    max_waiting: int | None

    @property
    def starvations(self) -> list[RequestRecord]:
        return [r for r in self.requests if r.step_entered is None]


def check_fairness(trace) -> FairnessVerdict:
    """Every request must eventually be satisfied.  Outstanding requests at
    budget exhaustion are inconclusive; outstanding requests in a quiescent
    final configuration are a definite starvation."""
    requests = collect_requests(trace)
    outstanding = [r for r in requests if r.step_entered is None]
    waits = [r.waiting for r in requests if r.waiting is not None]
    max_waiting = max(waits) if waits else None
    if not outstanding:
        return FairnessVerdict(True, False, requests, max_waiting)
    if trace.ended == "quiescent":
        return FairnessVerdict(False, False, requests, max_waiting)
    return FairnessVerdict(False, True, requests, max_waiting)


def waiting_time_bound(n: int, ell: int) -> int:
    """Worst-case waiting time once stabilized: ell * (2n-3)^2 entries."""
    return ell * (2 * n - 3) ** 2


@dataclass(frozen=True)
class LivenessScenario:
    """A (k,l)-liveness instance: the processes in ``pinned`` sit in their
    critical sections forever holding ``alpha`` units in total; every
    requester outside them asks for at most ell - alpha units."""

    pinned: dict[str, int]  # process -> units held forever
    requesters: dict[str, int]  # process -> units requested

    @property
    def alpha(self) -> int:
        return sum(self.pinned.values())

    def validate(self, ell: int) -> None:
        for pid, r_q in self.requesters.items():
            if r_q > ell - self.alpha:
                raise ValueError(
                    f"requester {pid!r} asks {r_q} > ell - alpha = {ell - self.alpha}"
                )


@dataclass
class LivenessVerdict:
    passed: bool
    inconclusive: bool
    satisfied: list[str]


def check_kl_liveness(scenario: LivenessScenario, trace) -> LivenessVerdict:
    """At least one requester outside the pinned set must enter its critical
    section.  Vacuously passes with no requesters."""
    if not scenario.requesters:
        return LivenessVerdict(True, False, [])
    satisfied = []
    for rec in trace.records:
        for pid in rec.entries:
            if pid in scenario.requesters:
                satisfied.append(pid)
    if satisfied:
        return LivenessVerdict(True, False, satisfied)
    return LivenessVerdict(False, trace.ended == "budget", satisfied)


# --------------------------------------------------------------------------
# Traversal-end bookkeeping (controller counting oracle)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TraversalObservation:
    record_index: int
    res_total: int
    prio_total: int
    push_total: int
    arriving_r: bool
    new_reset: bool
    census_before: CensusReport
    clean: bool  # between the previous wrap and this one: exactly one valid
    # control token at every sampled instant and no timeout firing


def traversal_observations(trace) -> list[TraversalObservation]:
    """Every completed controller traversal, with the census just before the
    wrap and a cleanliness certificate for the traversal that ended.

    A traversal window is clean when the run provably had a single valid
    control token throughout, so the wrap's counts are attributable to one
    genuine ring tour (stale duplicates would show as a second valid token
    or as a timeout retransmission).
    """
    out = []
    prev_wrap: int | None = None
    for i, rec in enumerate(trace.records):
        if rec.traversal_end is None:
            continue
        te = rec.traversal_end
        before = trace.records[i - 1].census if i > 0 else trace.initial_census
        clean = prev_wrap is not None
        if clean:
            for j in range(prev_wrap + 1, i):
                r = trace.records[j]
                if r.census.ctrl_tokens != 1 or r.timeout_fired:
                    clean = False
                    break
            if trace.records[prev_wrap].census.ctrl_tokens != 1:
                clean = False
        out.append(TraversalObservation(
            record_index=i,
            res_total=te.res_total,
            prio_total=te.prio_total,
            push_total=te.push_total,
            arriving_r=te.arriving_r,
            new_reset=te.new_reset,
            census_before=before,
            clean=clean,
        ))
        prev_wrap = i
    return out


# --------------------------------------------------------------------------
# Human-readable verdict report
# --------------------------------------------------------------------------

def render_report(trace, topo: TreeTopology, ell: int, sample_every: int = 0) -> str:
    """Structured text summary of one run: stabilization step, per-request
    waits, violation list, and an optional sampled census timeline."""
    stab = stabilization_time(trace)
    safety = check_safety(trace, stab)
    fairness = check_fairness(trace)
    lines = []
    lines.append(f"steps executed: {len(trace.records)} (ended: {trace.ended})")
    lines.append(f"stabilization step: {'never' if stab is None else stab}")
    lines.append(f"closure regressions: {closure_regressions(trace)}")
    final = trace.records[-1].census if trace.records else trace.initial_census
    lines.append(
        f"final census: res={final.res_tokens} prio={final.prio_tokens} "
        f"push={final.push_tokens} ctrl={final.ctrl_tokens}"
    )
    lines.append(f"safety: {'pass' if safety.passed else 'FAIL'} "
                 f"({len(safety.pre_stabilization)} pre-stabilization violations recorded)")
    for v in safety.post_stabilization:
        lines.append(f"  violation: {v}")
    n_req = len(fairness.requests)
    n_sat = sum(1 for r in fairness.requests if r.step_entered is not None)
    lines.append(f"requests: {n_sat}/{n_req} satisfied"
                 + (f", max waiting {fairness.max_waiting} CS entries"
                    f" (bound {waiting_time_bound(topo.n, ell)})"
                    if fairness.max_waiting is not None else ""))
    for r in fairness.requests:
        if r.step_entered is not None:
            lines.append(f"  request: {r.process} need={r.need} "
                         f"step={r.step_requested} entered={r.step_entered} "
                         f"waited={r.waiting}")
    for r in fairness.starvations:
        lines.append(f"  outstanding: {r.process} requested {r.need} at step {r.step_requested}")
    if sample_every > 0:
        lines.append("census timeline:")
        for i, rec in enumerate(trace.records):
            if i % sample_every == 0:
                c = rec.census
                lines.append(
                    f"  step={rec.step} res={c.res_tokens} prio={c.prio_tokens} "
                    f"push={c.push_tokens} ctrl={c.ctrl_tokens} legit={int(rec.legit)}"
                )
    return "\n".join(lines) + "\n"
