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
    """Ring geometry of one topology, as ``step_checks`` walks it.

    ``walk`` lists every channel as (key, ring position) against the ring
    direction: the wrap channel (root, deg-1) first, with position 2(n-1)
    (a controller there has passed every other channel), then ring
    positions 2(n-1)-1 down to 1.  ``positions[p][ch]`` is the ring
    position of channel ch at p, with the wrap channel at 0: reservations
    there are picked into PT at the wrap, i.e. at the very start of a
    traversal.
    """

    def __init__(self, topo: TreeTopology):
        self.topo = topo
        ring = [(pos.process, pos.in_channel) for pos in virtual_ring(topo)]
        self.positions = {p: [0] * topo.degree(p) for p in topo.process_ids}
        for t, (p, ch) in enumerate(ring):
            self.positions[p][ch] = t
        self.walk = [(ring[0], len(ring))]
        self.walk += [(ring[t], t) for t in range(len(ring) - 1, 0, -1)]


def step_checks(cfg, ring: RingInfo, k: int, ell: int,
                modulus: int) -> tuple[CensusReport, bool, list[str]]:
    """Census, legitimacy verdict, and safety scan for one snapshot, in one
    walk over the channels and one over the processes.

    Safety violations reported: a unit represented twice (duplicate
    identity tag), more than k units held by a process in its critical
    section, more than ell units in use, any variable outside its domain.

    A configuration is legitimate when all of these hold:

    - census: ell resource tokens, one priority token, one pusher;
    - no safety violation;
    - exactly one control message, valid for its receiver (``ctrl_is_valid``),
      not a reset, and the root not in reset mode;
    - root carve-outs: the root does not request and holds neither a
      reservation nor the priority token on its wrap channel (the literal
      handler order counts those twice across a wrap);
    - canonical traversal state, with c the controller's counter and
      ``visits`` the number of a process's channels the controller has
      passed in this traversal: the root, and every non-root with
      visits > 0, has ``myc == c`` and ``succ == visits % degree``; every
      other non-root has ``myc != c``;
    - running counts (counter flushing): ``Ctrl.pt + SToken``,
      ``Ctrl.ppr + SPrio`` and ``SPush`` equal the resource, priority and
      pusher tokens the traversal has already counted: those behind the
      controller in its own channel or in a channel it has passed, and those
      held on a passed channel or on the root's wrap channel.

    The traversal clauses are what make the predicate closed under
    execution; a merely nominal census can still carry inflated counts
    that trigger a spurious reset at the next wrap.
    """
    topo = ring.topo
    root = topo.root
    states = cfg.states
    channels = cfg.channels
    violations: list[str] = []
    res = prio = push = ctrl = n_ctrl = 0
    seen_uids: set[int] = set()

    # Against the ring direction, so the tokens met after the controller
    # are exactly the ones behind it.
    for key, t in ring.walk:
        queue = channels[key]
        if not queue:
            continue
        for m in queue:
            if isinstance(m, ResT):
                res += 1
                if m.uid in seen_uids:
                    violations.append(f"resource unit {m.uid} duplicated "
                                      f"(channel {key[0]}:{key[1]})")
                seen_uids.add(m.uid)
            elif isinstance(m, PrioT):
                prio += 1
            elif isinstance(m, PushT):
                push += 1
            else:
                n_ctrl += 1
                pid, q = key
                if ctrl_is_valid(m, states[pid], pid == root, q):
                    ctrl += 1
                cm, t_c, ahead = m, t, (res, prio, push)

    rs = states[root]
    rd = topo.degree(root)
    canon = (
        n_ctrl == ctrl == 1 and not cm.r and not rs.reset
        and rs.state != REQ and rs.prio != rd - 1
        and all(e.channel != rd - 1 for e in rs.rset)
    )
    if canon:
        c = cm.c
        counted_res, counted_prio = res - ahead[0], prio - ahead[1]
        counted_push = push - ahead[2]

    in_use = 0
    for pid in topo.process_ids:
        st = states[pid]
        rset = st.rset
        res += len(rset)
        for e in rset:
            if e.uid in seen_uids:
                violations.append(f"resource unit {e.uid} duplicated (RSet of {pid})")
            seen_uids.add(e.uid)
        if st.prio is not None:
            prio += 1
        if st.state == IN:
            in_use += len(rset)
            if len(rset) > k:
                violations.append(f"{pid} in CS with {len(rset)} > k units")
        if not 0 <= st.myc < modulus:
            violations.append(f"{pid} counter {st.myc} outside domain")
        if st.stoken > ell + 1 or st.spush > 2 or st.sprio > 2 or len(rset) > k:
            violations.append(f"{pid} bounded variable outside domain")
        if canon:
            pos = ring.positions[pid]
            # the root's wrap channel (position 0) is never passed mid-traversal
            visits = len([t for t in pos if 0 < t < t_c])
            if visits or pid == root:
                canon = st.myc == c and st.succ == visits % len(pos)
            else:
                canon = st.myc != c
            counted_res += len([e for e in rset if pos[e.channel] < t_c])
            if st.prio is not None and pos[st.prio] < t_c:
                counted_prio += 1
    if in_use > ell:
        violations.append(f"{in_use} > ell units in use")

    legit = (
        canon
        and (res, prio, push) == (ell, 1, 1)
        and not violations
        and cm.pt + rs.stoken == counted_res
        and cm.ppr + rs.sprio == counted_prio
        and rs.spush == counted_push
    )
    return CensusReport(res, prio, push, ctrl), legit, violations


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

def render_report(trace, topo: TreeTopology, ell: int, stab: int | None,
                  safety: SafetyVerdict, fairness: FairnessVerdict,
                  sample_every: int = 0) -> str:
    """Structured text summary of one run, given its verdicts: stabilization
    step, per-request waits, violation list, and an optional sampled census
    timeline."""
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
