"""Global oracles: token census, legitimacy, safety/fairness/liveness verdicts.

Everything here is a pure function over configuration snapshots or run
traces; nothing feeds back into the protocol.  Resource tokens carry a
monitor-only identity tag, which is what lets the safety checker assert
that a unit is never in two places at once rather than merely counting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .protocol import IN, OUT, REQ, Ctrl, PrioT, PushT, ResT
from .topology import TreeTopology, virtual_ring  # noqa: F401 (perfbench/tracer.py patches it)


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


_SPECIES = {ResT: 0, PrioT: 1, PushT: 2}  # anything else is a control message
_NO_PROCESS = (0, False, 0, (), (), False, 0, False)


class Tally:
    """What ``step_checks`` keeps from one configuration to the next in a run:
    the token counts of every channel and the part of every process in the
    census, the safety scan and the traversal clauses, with their sums.  It
    counts channels by ring slot (``topology.Ring``) and starts from the
    channels of ``cfg``; its first ``step_checks`` must name every process.

    A process's part is (held resource tokens, holds the priority token,
    units in use, reserved uids, violations, off the canonical traversal
    state, held resource tokens and priority token the traversal has
    counted).  The traversal fields are taken for ``key``, the (counter,
    place) of the controller, and only while there is one.  The place is the
    controller's slot, or 2(n-1) on the root's wrap channel (slot 0), where
    it has passed every other channel; the root's holdings there are picked
    into PT on that arrival, so a traversal never counts them as passed.
    """

    def __init__(self, topo: TreeTopology, k: int, ell: int, modulus: int, cfg):
        self.topo, self.ring = topo, topo.ring
        self.k, self.ell, self.modulus = k, ell, modulus
        self.tokens = [0, 0, 0]  # resource, priority, pusher tokens, held included
        self.counts = [[0, 0, 0] for _ in self.ring.keys]  # per slot
        self.ctrls: dict = {}  # slot -> its control messages, front first
        self.after: dict = {}  # slot -> tokens behind its last control message
        self.copies: dict[int, int] = {}  # resource uid -> copies
        self.procs: dict = {}
        self.bad: dict = {}  # process -> its violations
        self.in_use = 0
        self.key: tuple[int, int] | None = None
        # for ``key``: tokens in the channels before the controller's place,
        # processes off the canonical state, held tokens already counted
        self.behind = [0, 0, 0]
        self.off = self.counted_res = self.counted_prio = 0
        self.census = CensusReport(0, 0, 0, 0)
        for t, key in enumerate(self.ring.keys):
            for m in cfg.channels[key]:
                self.move(t, m, 1)

    def move(self, t: int, m, sign: int) -> None:
        """Count message m into (sign 1, put at the back) or out of (sign -1,
        taken from the front) the channel at slot t."""
        i = _SPECIES.get(m.__class__)
        if i is None:
            if sign > 0:
                self.ctrls.setdefault(t, []).append(m)
                self.after[t] = [0, 0, 0]
            else:
                ctrls = self.ctrls[t]
                del ctrls[0]
                if not ctrls:
                    del self.ctrls[t], self.after[t]
            return
        if not i:
            copies = self.copies
            left = copies.get(m.uid, 0) + sign
            if left:
                copies[m.uid] = left
            else:
                del copies[m.uid]
        self.counts[t][i] += sign
        self.tokens[i] += sign
        if sign > 0 and t in self.after:
            self.after[t][i] += 1
        if self.key is not None and 0 < t < self.key[1]:
            self.behind[i] += sign

    def process(self, pid, st) -> None:
        """Count one process's part again, for the current ``key``."""
        rset = st.rset
        held = len(rset)
        viol = ()
        if st.state == IN and held > self.k:
            viol += (f"{pid} in CS with {held} > k units",)
        if not 0 <= st.myc < self.modulus:
            viol += (f"{pid} counter {st.myc} outside domain",)
        if st.stoken > self.ell + 1 or st.spush > 2 or st.sprio > 2 or held > self.k:
            viol += (f"{pid} bounded variable outside domain",)
        off = False
        counted_res = 0
        counted_prio = False
        if self.key is not None:
            c, t_c = self.key
            pos = self.ring.slot[pid]
            # the root's wrap channel (slot 0) is never passed mid-traversal
            visits = 0
            for t in pos:
                visits += 0 < t < t_c
            if pid == self.topo.root:
                off = st.myc != c or st.succ != visits % len(pos) or st.reset
            elif visits:
                off = st.myc != c or st.succ != visits % len(pos)
            else:
                off = st.myc == c
            for e in rset:
                counted_res += 0 < pos[e.channel] < t_c
            counted_prio = st.prio is not None and 0 < pos[st.prio] < t_c
        new = (held, st.prio is not None, held if st.state == IN else 0,
               tuple([e.uid for e in rset]) if rset else (), viol,
               off, counted_res, counted_prio)
        old = self.procs.get(pid, _NO_PROCESS)
        if new == old:
            return
        self.procs[pid] = new
        if old[3] != new[3]:
            copies = self.copies
            for uid in old[3]:
                left = copies[uid] - 1
                if left:
                    copies[uid] = left
                else:
                    del copies[uid]
            for uid in new[3]:
                copies[uid] = copies.get(uid, 0) + 1
        self.tokens[0] += held - old[0]
        self.tokens[1] += new[1] - old[1]
        self.in_use += new[2] - old[2]
        if viol:
            self.bad[pid] = viol
        elif old[4]:
            del self.bad[pid]
        self.off += off - old[5]
        self.counted_res += counted_res - old[6]
        self.counted_prio += counted_prio - old[7]

    def violations(self, cfg) -> list[str]:
        """The safety violations of ``cfg``, in the order of a walk over the
        channels against the ring direction, the wrap channel first, and then
        over the processes."""
        ring = self.ring
        if self.tokens[0] == len(self.copies):  # no unit represented twice
            out = [v for pid in sorted(self.bad, key=ring.order.__getitem__)
                   for v in self.bad[pid]]
        else:
            seen: set[int] = set()
            out = []
            for key in ring.keys[:1] + ring.keys[:0:-1]:
                for m in cfg.channels[key]:
                    if isinstance(m, ResT):
                        if m.uid in seen:
                            out.append(f"resource unit {m.uid} duplicated "
                                       f"(channel {key[0]}:{key[1]})")
                        seen.add(m.uid)
            for pid in self.topo.process_ids:
                part = self.procs.get(pid, _NO_PROCESS)
                for uid in part[3]:
                    if uid in seen:
                        out.append(f"resource unit {uid} duplicated (RSet of {pid})")
                    seen.add(uid)
                out += part[4]
        if self.in_use > self.ell:
            out.append(f"{self.in_use} > ell units in use")
        return out


def step_checks(tally: Tally, cfg, moves: Iterable,
                procs: Iterable) -> tuple[CensusReport, bool, list[str]]:
    """Census, legitimacy verdict, and safety scan for one snapshot.

    ``moves`` lists, in the order they happened since the configuration
    ``tally`` last counted, the messages taken from the front of a channel
    or put at its back, as (ring slot, message, -1 or 1); ``procs`` names
    the processes whose state may have changed (every process, the first
    time a tally is checked).  Only those are counted again.  The
    traversal fields of every process are counted again when the
    controller's place does not follow from the last one: on a wrap (the
    counter changes), a jump, a move backwards, or when a single valid
    control message appears.  A move to the next channel adds the channel
    it left, and counts again the process that channel leads to.

    Safety violations reported: a unit represented twice (duplicate
    identity tag), more than k units held by a process in its critical
    section, more than ell units in use, any variable outside its domain.

    A configuration is legitimate when all of these hold:

    - census: ell resource tokens, one priority token, one pusher;
    - no safety violation;
    - exactly one control message, valid for its receiver (``ctrl_is_valid``),
      not a reset, and the root not in reset mode;
    - canonical traversal state, with c the controller's counter and
      ``visits`` the number of a process's channels the controller has
      passed in this traversal: the root, and every non-root with
      visits > 0, has ``myc == c`` and ``succ == visits % degree``; every
      other non-root has ``myc != c``;
    - running counts (counter flushing): ``Ctrl.pt + SToken``,
      ``Ctrl.ppr + SPrio`` and ``SPush`` equal the resource, priority and
      pusher tokens the traversal has already counted: those behind the
      controller in its own channel or in a channel it has passed, and those
      held on a passed channel (never on the root's wrap channel, whose
      holdings the controller counts when it arrives there).

    The traversal clauses are what make the predicate closed under
    execution; a merely nominal census can still carry inflated counts
    that trigger a spurious reset at the next wrap.
    """
    ring = tally.ring
    root = tally.topo.root
    states = cfg.states
    for t, m, sign in moves:
        tally.move(t, m, sign)

    n_ctrl = ctrl = 0
    for c_slot, ctrls in tally.ctrls.items():
        pid, q = ring.keys[c_slot]
        for cm in ctrls:
            n_ctrl += 1
            ctrl += ctrl_is_valid(cm, states[pid], pid == root, q)
    key = None
    if n_ctrl == ctrl == 1:
        key = (cm.c, c_slot or len(ring.keys))
    if key != tally.key:
        # with no key the traversal fields stay as they are: the next key
        # counts every process again
        behind = tally.behind
        passed = ()
        if key is not None and tally.key == (key[0], key[1] - 1):
            passed = (key[1] - 1,)
            procs = {*procs, ring.keys[key[1] - 1][0]}
        elif key is not None:
            behind[:] = (0, 0, 0)
            passed = range(1, key[1])
            procs = tally.topo.process_ids
        for t in passed:
            for i, n in enumerate(tally.counts[t]):
                behind[i] += n
        tally.key = key
    for pid in procs:
        tally.process(pid, states[pid])

    res, prio, push = tally.tokens
    census = tally.census
    if (census.res_tokens, census.prio_tokens, census.push_tokens,
            census.ctrl_tokens) != (res, prio, push, ctrl):
        census = tally.census = CensusReport(res, prio, push, ctrl)
    violations = []
    if tally.bad or res != len(tally.copies) or tally.in_use > tally.ell:
        violations = tally.violations(cfg)
    if (key is None or tally.off or violations or cm.r
            or (res, prio, push) != (tally.ell, 1, 1)):
        return census, False, violations
    rs = states[root]
    b = tally.behind
    after = tally.after[c_slot]
    legit = (
        cm.pt + rs.stoken == b[0] + after[0] + tally.counted_res
        and cm.ppr + rs.sprio == b[1] + after[1] + tally.counted_prio
        and rs.spush == b[2] + after[2]
    )
    return census, legit, violations


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


_NOT_GIVEN = object()


def check_safety(trace, stabilization=_NOT_GIVEN) -> SafetyVerdict:
    """Safety over a trace: violations before the stabilization point are
    recorded but expected; any at or after it fails the run.  Also rejects
    any state transition outside the Out->Req->In->Out cycle.
    ``stabilization`` is the trace's ``stabilization_time`` (None: it never
    stabilizes), computed here when not given.
    """
    if stabilization is _NOT_GIVEN:
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
