"""Global oracles: token census, legitimacy, safety/fairness/liveness verdicts.

The verdicts over run traces are pure functions.  The per-step checks are
not: ``Tally`` keeps counts of one configuration from step to step.  The
simulator hands it each step's event and pass in one ``Tally.settle`` call,
which pairs every message the step placed with where it was counted (the
delivered message sent on, a holding its process released) and moves it
from there, counts in or out only what it cannot pair, and leaves to
``step_checks`` the processes whose part it cannot read as those moves.  A
step that only shifted the running counts (a token passing the
controller's place, landing behind a control message or leaving the root's
wrap channel) re-reads that one clause, and keeps the rest.
Nothing here feeds back into the protocol.  Resource tokens carry a
monitor-only identity tag, which is what lets the safety checker assert
that a unit is never in two places at once rather than merely counting.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, NamedTuple

from .protocol import IN, OUT, REQ, SAT, Ctrl, PrioT, PushT, ResT
from .topology import TreeTopology, virtual_ring  # noqa: F401 (perfbench/tracer.py patches it)


class CensusReport(NamedTuple):
    """Exact global token counts for one configuration snapshot.

    Resource/priority counts include both free tokens (in channels) and
    held ones (reserved in an RSet / a set Prio variable); pushers are
    never held.  ``ctrl_tokens`` counts control messages that their
    receiver's handler would take as the traversal's: back from Succ with
    the adopted counter (a hop), or at a non-root from its parent with a
    new counter (an adoption).  A parent duplicate counts only at a
    non-root whose Succ is its parent, which sends it on to the parent,
    where it continues the traversal; at any other Succ it does not.
    """

    res_tokens: int
    prio_tokens: int
    push_tokens: int
    ctrl_tokens: int

    def species(self) -> tuple[int, int, int]:
        return self[:3]


_SPECIES = {ResT: 0, PrioT: 1, PushT: 2}  # anything else is a control message
_NO_PROCESS = ((), None, 0, (), False)


def _valid(st, q: int, c: int, is_root: bool) -> bool:
    """Whether a control message with counter c, arriving on channel q at a
    process in state st, is the traversal's (``CensusReport.ctrl_tokens``)."""
    return q == st.succ and c == st.myc or q == 0 and not is_root and c != st.myc


def _off(place: tuple, st, c: int, t_c: int) -> bool:
    """Whether a process, its ``Ring.places`` row ``place`` and its state
    st, is off the canonical traversal state for a controller with counter
    c at place t_c (the traversal clause of ``step_checks``)."""
    pos, is_root, last = place
    visits = bisect_left(pos, t_c, 0, last)
    if is_root or visits:
        return st.myc != c or st.succ != visits % len(pos) or is_root and st.reset
    return st.myc == c


def _sent_on(m, msg) -> bool:
    """Whether m, a message a step placed, is msg, the one it delivered,
    sent on: the same unit, the pusher or the priority token, or a control
    message with msg's counter (msg itself, or a copy with its receiver's
    holdings picked up; a root wrap's has a new counter)."""
    cls = m.__class__
    if cls is not msg.__class__:  # msg None too
        return False
    return m.uid == msg.uid if cls is ResT else m.c == msg.c if cls is Ctrl else True


class Tally:
    """What ``step_checks`` keeps of a configuration from step to step:
    the token counts of every ring slot (``topology.Ring``) and the part of
    every process in the census, the safety scan and the traversal clauses,
    with their sums.  Every resource and priority token is counted once, at
    its slot: a free token at its channel's, a held one at the slot of the
    channel it arrived on.  A tally counts one configuration, ``cfg``, kept
    as ``tally.cfg``: it starts from its channels, its first ``step_checks``
    must name every process, and the simulator counts every step's event
    and pass with one ``settle`` call, which counts each message the step
    put into, took from or passed between its channels with ``move``.

    A process's part is (its RSet, its Prio, units in use, violations, off
    the canonical traversal state).  An RSet that changed is counted again
    whole, every old entry out and every new one in: a run only appends an
    entry or clears the RSet.  The last is taken for ``key``, the
    (counter, place) of the controller, and only while there is one.  The
    place is the controller's slot, or 2(n-1) on the root's wrap channel
    (slot 0), where it has passed every other channel; the root's holdings
    there are picked into PT on that arrival, so a traversal never counts
    them as passed.

    ``scan`` is the last controller scan of ``step_checks``: (valid control
    messages, ``key``, the last control message scanned, its slot).  Moving
    a control message sets it to None, and ``step_checks`` scans again.
    ``last`` is the last result of ``step_checks`` that had no violations,
    or None once a token was counted in or out, a control message moved or
    a process is counted again since.  ``base`` is whether every clause of
    ``last`` but the running counts held.  A token that only shifts the
    running counts, crossing the controller's place (``behind``), landing
    behind a control message (``after``) or leaving the root's wrap channel
    (slot 0: the root's handler or pass counted it into SToken, SPush or
    SPrio), sets ``stale``: ``last`` stands, but for its verdict, which
    ``step_checks`` reads again as ``base`` and the running-count clause.

    ``settle`` reads a step as moves by the pairing rule: a token sent on
    moves from the slot it was delivered from, a token kept stays where it
    was counted, and a token released moves from where it was held, so a
    forward, a prio pass, a hold and a section's entry or end count no
    process again, and ``last`` stands.  A controller hop from a
    legitimate configuration, alone in its step, is read by the hop rule:
    the controller moves one place on, and ``scan``, ``key``, ``base`` and
    ``last`` are left as a scan and a check of the new configuration would
    leave them, from the new place and the receivers' states, without
    counting the old receiver again.  Whatever ``settle`` cannot read that
    way it leaves to ``step_checks``.
    """

    def __init__(self, topo: TreeTopology, k: int, ell: int, modulus: int, cfg):
        self.cfg = cfg
        self.topo, self.ring = topo, topo.ring
        self.places = self.ring.places  # a plain attribute: ``process`` reads it per call
        self.k, self.ell, self.modulus = k, ell, modulus
        self.tokens = [0, 0, 0]  # resource, priority, pusher tokens, held included
        self.counts = [[0, 0, 0] for _ in self.ring.keys]  # per slot, held included
        self.ctrls: dict = {}  # slot -> its control messages, front first
        self.after: dict = {}  # slot -> tokens behind its last control message
        self.copies: dict[int, int] = {}  # resource uid -> copies
        self.procs = dict.fromkeys(topo.process_ids, _NO_PROCESS)  # uncounted: no part
        self.n_bad = 0  # processes with violations
        self.in_use = 0
        self.key: tuple[int, int] | None = None
        # for ``key``: tokens at the slots before the controller's place,
        # processes off the canonical state
        self.behind = [0, 0, 0]
        self.off = 0
        self.census = CensusReport(0, 0, 0, 0)
        self.scan: tuple | None = None
        self.last: tuple | None = None
        self.base = False
        self.stale = False
        for t, key in enumerate(self.ring.keys):
            for m in cfg.channels[key]:
                self.move(None, m, t)

    def _count(self, t: int, i: int, token, sign: int) -> None:
        """Count a token of species i (``token`` gives a resource's uid) in
        (sign 1) or out of (sign -1) slot t."""
        self.last = None
        if not i:
            copies = self.copies
            left = copies.get(token.uid, 0) + sign
            if left:
                copies[token.uid] = left
            else:
                del copies[token.uid]
        self.counts[t][i] += sign
        self.tokens[i] += sign
        if self.key is not None and 0 < t < self.key[1]:
            self.behind[i] += sign

    def move(self, frm: int | None, m, to: int | None) -> None:
        """Count message m off the front of slot ``frm`` and onto the back of
        slot ``to``.  ``None`` stands for an end that is no channel: m was
        put in by a start or a handler (``frm``), or was delivered and not
        sent on (``to``).  A held token's slot is that of the channel it
        arrived on.  A control message is counted out and in; a token that
        passes from slot to slot keeps ``tokens`` and ``copies`` as they
        are, changes ``behind`` only when it crosses the controller's place,
        and leaves ``last`` standing but ``stale`` when it crosses it,
        leaves slot 0 or lands behind a control message."""
        i = _SPECIES.get(m.__class__)
        if i is None:
            self.scan = self.last = None
            if frm is not None:
                ctrls = self.ctrls[frm]
                del ctrls[0]
                if not ctrls:
                    del self.ctrls[frm], self.after[frm]
            if to is not None:
                self.ctrls.setdefault(to, []).append(m)
                self.after[to] = [0, 0, 0]
            return
        if to is None:
            self._count(frm, i, m, -1)
            return
        if frm is None:
            self._count(to, i, m, 1)
        else:
            counts = self.counts
            counts[frm][i] -= 1
            counts[to][i] += 1
            if not frm:  # the root counted it into SToken, SPush or SPrio
                self.stale = True
            if self.key is not None:
                place = self.key[1]
                crossed = (0 < to < place) - (0 < frm < place)
                if crossed:
                    self.behind[i] += crossed
                    self.stale = True
        if to in self.after:
            self.after[to][i] += 1
            self.stale = True

    def settle(self, pid, st, t: int | None, msg, placed, woken: set) -> bool:
        """Count one step's event at ``pid`` (state st now) with the pass it
        woke, or one pass of the application phase: ``msg`` was delivered
        from slot t (None for the root's timeout or an application-phase
        pass), and ``placed`` is the (message, slot) of every message the
        handler and then the pass put into a channel.  ``woken`` holds the
        processes ``step_checks`` counts again this step; ``pid`` joins it
        when its part cannot be read as the moves below.

        The pairing rule: each placed message is paired with where it was
        counted and moves from there, one ``move``.  msg sent on (the same
        unit, the pusher or the priority token, or a control message with
        msg's counter: a hop) moves from slot t; a holding ``pid`` released
        (a unit by its uid, the priority token by its old Prio label) moves
        from the slot it was held at.  What cannot be paired is counted in
        (a mint, a root wrap's new controller) or out (msg sunk, dropped or
        wrapped), but msg held: a unit reserved or the priority token taken
        stays counted at slot t, the slot of the channel it arrived on,
        where a held token is counted.  Only the RSet, Prio and units in
        use of ``pid``'s part are then rewritten, and ``last`` stands.

        ``pid`` is counted again instead, every holding it released counted
        in and a kept msg out, when it is in ``woken`` already, when a
        holding it released is not placed or one it gained is not msg, when
        its part has or would gain a violation (more than k units, units in
        use over ell, a root counter outside its domain: a token sent on
        off slot 0, the root's wrap channel, is counted into one), and when
        msg is a control message (it changes Succ or the counter) that the
        hop rule does not read.  The hop rule reads a hop alone in its step
        (``woken`` empty), its one send, the receiver's part as it was,
        from legitimate last checks: the controller valid for its new
        receiver and one place on, and the old receiver, re-derived from
        its state, on the canonical traversal state at the new place, where
        its counter is the key's, the root's at the last check and inside
        its domain.  Then ``key``, ``behind`` and ``scan`` advance as
        ``step_checks`` advances them, ``base`` is read from the reset flag
        and the running-count clause against the new place, and the checks
        are kept as ``last``.

        Returns whether the step was a pure move: msg, a token, sent on as
        the one message placed, ``pid``'s part as it was."""
        was, prio, use, viol, off = self.procs[pid]
        rset = st.rset
        in_use = len(rset) if st.state == IN else 0
        same = st.prio == prio and was == tuple(rset) and in_use == use
        if same and len(placed) == 1:
            m, to = placed[0]
            if m is msg or _sent_on(m, msg):
                if msg.__class__ is not Ctrl:
                    self.move(t, m, to)
                    if viol or not t and (st.stoken > self.ell + 1 or st.spush > SAT
                                          or st.sprio > SAT):
                        woken.add(pid)
                    return True
                last = self.last
                self.move(t, m, to)
                if not woken and last is not None and last[1]:  # the hop rule
                    keys = self.ring.keys
                    c, place = self.key
                    new = to or len(keys)
                    nxt, q = keys[to]
                    if (new == place + 1 and _valid(self.cfg.states[nxt], q, c, nxt == self.topo.root)
                            and not _off(self.places[pid], st, c, new)):
                        self.advance(place)
                        self.key = key = (c, new)
                        self.scan = (1, key, m, to)
                        self.base = base = not m.r
                        self.last = last if base and self.flushed(m, to) else (last[0], False, ())
                        return False
                woken.add(pid)
                return False
        refused = (viol or pid in woken or msg.__class__ is Ctrl or len(rset) > self.k
                   or self.in_use + in_use - use > self.ell
                   or st.stoken > self.ell + 1 or st.spush > SAT or st.sprio > SAT)
        gained = released = ()
        got = gone = None
        if not (refused or same):
            gained, released = rset.copy(), []
            for e in was:
                if e in gained:
                    gained.remove(e)
                else:
                    released.append(e)
            if st.prio != prio:
                got, gone = st.prio, prio
        pos = self.places[pid][0]
        moves, sent = [], None
        for m, to in placed:
            frm = None
            if sent is None and (m is msg or _sent_on(m, msg)):
                sent, frm = m, t
            elif m.__class__ is ResT:
                for e in released:
                    if e.uid == m.uid:
                        released.remove(e)
                        frm = pos[e.channel]
                        break
            elif m.__class__ is PrioT and gone is not None:
                frm, gone = pos[gone], None
            moves.append((frm, m, to))
        kept = False
        if sent is None:
            if (msg.__class__ is ResT and gained and gained[0].uid == msg.uid
                    and pos[gained[0].channel] == t):
                kept = True
                del gained[0]
            elif msg.__class__ is PrioT and got is not None and pos[got] == t:
                kept, got = True, None
        refused = refused or gained or released or got is not None or gone is not None
        if sent is None and msg is not None and (refused or not kept):
            self.move(t, msg, None)
        for frm, m, to in moves:
            self.move(None if refused and m is not sent else frm, m, to)
        if refused:
            woken.add(pid)
        elif not same:
            self.in_use += in_use - use
            self.procs[pid] = (tuple(rset), st.prio, in_use, viol, off)
        return False

    def advance(self, left: int) -> None:
        """Count the tokens of slot ``left``, which the controller has just
        left for the next place, as behind it."""
        counts, behind = self.counts[left], self.behind
        behind[0] += counts[0]
        behind[1] += counts[1]
        behind[2] += counts[2]

    def flushed(self, cm, c_slot: int) -> bool:
        """The running-count clause of ``step_checks`` for the controller
        cm at the front of slot ``c_slot``."""
        rs = self.cfg.states[self.topo.root]
        b = self.behind
        after = self.after[c_slot]
        return (cm.pt + rs.stoken == b[0] + after[0]
                and cm.ppr + rs.sprio == b[1] + after[1]
                and rs.spush == b[2] + after[2])

    def process(self, pid, st) -> None:
        """Count one process's part again, for the current ``key``."""
        rset = st.rset
        held = len(rset)
        viol = ()
        if st.state == IN and held > self.k:
            viol += (f"{pid} in CS with {held} > k units",)
        if not 0 <= st.myc < self.modulus:
            viol += (f"{pid} counter {st.myc} outside domain",)
        if st.stoken > self.ell + 1 or st.spush > SAT or st.sprio > SAT or held > self.k:
            viol += (f"{pid} bounded variable outside domain",)
        place = self.places[pid]
        off = False
        if self.key is not None:
            c, t_c = self.key
            off = _off(place, st, c, t_c)
        new = (tuple(rset), st.prio, held if st.state == IN else 0, viol, off)
        old = self.procs[pid]
        if new == old:
            return
        self.procs[pid] = new
        count = self._count
        pos = place[0]
        was = old[0]
        if was != new[0]:
            for e in was:
                count(pos[e.channel], 0, e, -1)
            for e in rset:
                count(pos[e.channel], 0, e, 1)
        if old[1] != new[1]:
            if old[1] is not None:
                count(pos[old[1]], 1, None, -1)
            if new[1] is not None:
                count(pos[new[1]], 1, None, 1)
        self.in_use += new[2] - old[2]
        self.n_bad += bool(viol) - bool(old[3])
        self.off += off - old[4]

    def violations(self) -> tuple[str, ...]:
        """The safety violations of ``self.cfg``: units represented twice,
        found by a walk over the channels against the ring direction, the
        wrap channel first, and then over the processes, each with its own
        violations.
        A unit without a uid (-1: in a hand-built start that no run has
        stamped) has no identity to find twice, and the walk passes over
        it."""
        ring = self.ring
        seen: set[int] | None = None
        out = []
        if self.tokens[0] != len(self.copies):  # a unit represented twice, or untagged
            seen = set()
            for key in ring.keys[:1] + ring.keys[:0:-1]:
                for m in self.cfg.channels[key]:
                    if isinstance(m, ResT) and m.uid >= 0:
                        if m.uid in seen:
                            out.append(f"resource unit {m.uid} duplicated "
                                       f"(channel {key[0]}:{key[1]})")
                        seen.add(m.uid)
        for pid in self.topo.process_ids:
            rset, _, _, viol, _ = self.procs[pid]
            if seen is not None:
                for e in rset:
                    if e.uid >= 0:
                        if e.uid in seen:
                            out.append(f"resource unit {e.uid} duplicated (RSet of {pid})")
                        seen.add(e.uid)
            out += viol
        if self.in_use > self.ell:
            out.append(f"{self.in_use} > ell units in use")
        return tuple(out)


def step_checks(tally: Tally,
                procs: Collection) -> tuple[CensusReport, bool, tuple[str, ...]]:
    """Census, legitimacy verdict, and safety scan of the configuration
    ``tally`` counts (``tally.cfg``).

    ``tally`` has already counted every step since it was last checked
    (``Tally.settle``); ``procs`` names the processes whose part it could
    not read as moves (every process, the first time a tally is checked).
    Only those are counted again, their held tokens at the slots they
    arrived on.  A process whose request arrived is not among them unless
    its pass wrote a line: a request writes only ``state`` (Out to Req) and
    ``need``, and no check reads ``need`` or a state other than In.  The
    control messages are scanned again only when one moved since the last
    check or a process in ``procs`` receives on a slot that holds one;
    otherwise their validity is as the last scan found it (``Tally.scan``),
    as no receiver of theirs changed.  The traversal fields of every process
    are counted again when the controller's place does not follow from the
    last one: on a wrap (the counter changes), a jump, a move backwards, or
    when a single valid control message appears.  A move to the next
    channel adds the slot it left, and counts again the process that channel
    leads to.

    Safety violations reported: a unit represented twice (duplicate
    identity tag), more than k units held by a process in its critical
    section, more than ell units in use, any variable outside its domain.

    A configuration is legitimate when all of these hold:

    - census: ell resource tokens, one priority token, one pusher;
    - no safety violation;
    - exactly one control message, valid for its receiver (arriving from
      Succ with the adopted counter, or at a non-root from its parent with a
      new counter), not a reset, and the root not in reset mode;
    - canonical traversal state, with c the controller's counter and
      ``visits`` the number of a process's channels the controller has
      passed in this traversal: the root, and every non-root with
      visits > 0, has ``myc == c`` and ``succ == visits % degree``; every
      other non-root has ``myc != c``;
    - running counts (counter flushing): ``Ctrl.pt + SToken``,
      ``Ctrl.ppr + SPrio`` and ``SPush`` equal the resource, priority and
      pusher tokens the traversal has already counted: those behind the
      controller in its own channel, and those at a slot it has passed, in
      the channel or held by a process that took them from it (never the
      root's wrap channel, whose holdings the controller counts when it
      arrives there).

    The traversal clauses are what make the predicate closed under
    execution; a merely nominal census can still carry inflated counts
    that trigger a spurious reset at the next wrap.

    With ``procs`` empty and no token counted in or out and no control
    message moved since the last check (``Tally.last`` set), the last
    result is returned as it is, but for a token that only shifted the
    running counts since (``Tally.stale``): its verdict is then read again
    as ``Tally.base`` and the running-count clause.  A shift changes no
    other clause: the census and the safety scan count tokens, not where
    they are, and the traversal clauses read no token.  The root, whose
    SToken, SPush or SPrio its forward or prio pass off its wrap channel
    counts the token into, is not counted again for it while its part has
    no violation and those counters are inside their domains
    (``Tally.settle`` reads both).  A result with violations is never kept:
    a duplicated unit is reported with the channel it is in, which any move
    can change.

    A controller hop that ``Tally.settle``'s hop rule reads is checked
    there, and its checks kept as ``Tally.last``.  Any other step that
    ``Tally.settle`` cannot read as moves falls back to this function, its
    process in ``procs``: a hop the rule refuses, a root wrap, a pass that
    released a token its process did not hold or lost one, one that would
    leave its process with more than k units or more than ell units in
    use.
    """
    if not procs:
        last = tally.last
        if last is not None:
            if tally.stale:
                tally.stale = False
                legit = tally.base and tally.flushed(*tally.scan[2:])
                if legit != last[1]:
                    last = tally.last = (last[0], legit, ())
            return last
    ring = tally.ring
    root = tally.topo.root
    states = tally.cfg.states

    scan = tally.scan
    if scan is not None:
        for c_slot in tally.ctrls:
            if ring.keys[c_slot][0] in procs:
                scan = None
                break
    if scan is None:
        n_ctrl = ctrl = 0
        cm = c_slot = None
        for c_slot, ctrls in tally.ctrls.items():
            pid, q = ring.keys[c_slot]
            st = states[pid]
            for cm in ctrls:
                n_ctrl += 1
                ctrl += _valid(st, q, cm.c, pid == root)
        key = None
        if n_ctrl == ctrl == 1:
            key = (cm.c, c_slot or len(ring.keys))
        scan = tally.scan = (ctrl, key, cm, c_slot)
    ctrl, key, cm, c_slot = scan
    if key != tally.key:
        # with no key the traversal fields stay as they are: the next key
        # counts every process again
        behind = tally.behind
        if key is not None and tally.key == (key[0], key[1] - 1):
            left = key[1] - 1
            tally.advance(left)
            procs = {*procs, ring.keys[left][0]}
        elif key is not None:
            behind[:] = (0, 0, 0)
            for t in range(1, key[1]):
                for i, n in enumerate(tally.counts[t]):
                    behind[i] += n
            procs = tally.topo.process_ids
        tally.key = key
    for pid in procs:
        tally.process(pid, states[pid])

    res, prio, push = tally.tokens
    census = tally.census
    if census != (res, prio, push, ctrl):
        census = tally.census = CensusReport(res, prio, push, ctrl)
    violations = ()
    if tally.n_bad or res != len(tally.copies) or tally.in_use > tally.ell:
        violations = tally.violations()
    base = tally.base = not (key is None or tally.off or violations or cm.r
                             or res != tally.ell or prio != 1 or push != 1)
    legit = base and tally.flushed(cm, c_slot)
    checks = census, legit, violations
    tally.last = None if violations else checks
    tally.stale = False
    return checks


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
    bucket0.extend(trace.initial_violations)
    post_from = trace.first_step - 1 + cutoff  # step first_step + i made configuration i+1
    for step, rec in enumerate(trace.records, trace.first_step):
        bucket = post if step >= post_from else pre
        bucket.extend(rec.violations)
        for pid, old, new in rec.transitions:
            if (old, new) not in ALLOWED_TRANSITIONS:
                post.append(f"{pid}: forbidden transition {old}->{new} at step {step}")
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
    for step, rec in enumerate(trace.records, trace.first_step):
        through = count + len(rec.entries)
        for pid, need in rec.requests:
            req = RequestRecord(pid, step, need)
            requests.append(req)
            pending.setdefault(pid, []).append((req, through))
        for pid in rec.entries:
            for req, base in pending.pop(pid, ()):
                req.step_entered = step
                req.waiting = through - base - 1 if req.step_requested < step else 0
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
    """Every request must eventually be satisfied.  An outstanding request
    is a definite starvation when the run's ending is conclusive
    (``Trace.conclusive``: quiescence), and inconclusive otherwise."""
    requests = collect_requests(trace)
    waits = [r.waiting for r in requests if r.waiting is not None]
    passed = all(r.step_entered is not None for r in requests)
    return FairnessVerdict(passed, not passed and not trace.conclusive, requests,
                           max(waits) if waits else None)


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
    section.  Vacuously passes with no requesters.  A failure is definite
    only when the run's ending is conclusive, as in ``check_fairness``."""
    satisfied = [pid for rec in trace.records for pid in rec.entries
                 if pid in scenario.requesters]
    passed = not scenario.requesters or bool(satisfied)
    return LivenessVerdict(passed, not passed and not trace.conclusive, satisfied)


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
    before = trace.initial_census
    clean = False  # no window is open before the first wrap
    for i, rec in enumerate(trace.records):
        te = rec.traversal_end
        if te is not None:
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
            clean = rec.census.ctrl_tokens == 1
        elif rec.census.ctrl_tokens != 1 or rec.timeout_fired:
            clean = False
        before = rec.census
    return out


# --------------------------------------------------------------------------
# Human-readable verdict report
# --------------------------------------------------------------------------

def render_report(trace, topo: TreeTopology, ell: int, stab: int | None,
                  regressions: int, safety: SafetyVerdict,
                  fairness: FairnessVerdict) -> str:
    """Structured text summary of one run, given its verdicts: stabilization
    step, closure regressions, per-request waits and the violation list."""
    lines = []
    lines.append(f"steps executed: {len(trace.records)} (ended: {trace.ended})")
    lines.append(f"stabilization step: {'never' if stab is None else stab}")
    lines.append(f"closure regressions: {regressions}")
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
    return "\n".join(lines) + "\n"
