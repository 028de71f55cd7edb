"""Per-process state machines for k-out-of-l exclusion on an oriented tree.

Four token species circulate on the virtual ring:

* resource tokens (ResT), one per resource unit, reserved into RSet by
  requesters;
* the pusher (PushT), which forces a non-enabled, non-prioritized process to
  release its reserved tokens, preventing deadlock;
* the priority token (PrioT), which shields one unsatisfied requester from
  the pusher, preventing livelock;
* the controller (Ctrl), a root-driven token that counts the other species
  once per ring traversal and triggers replenishment or a network reset.

Handlers are total: they accept any state within the declared variable
domains and never raise, which is what makes arbitrary-fault starts safe
to execute.  Each handler mutates the given state in place and returns the
ordered sends it produced; send order is load-bearing because channels are
FIFO.

Note on the pusher guard: the release condition requires that the process
does NOT hold the priority token (prio is None).  A priority holder keeps
its reserved tokens when pushed and only retransmits the pusher; this is
what makes the priority token cancel the pusher's effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .topology import forward_channel

REQ = "Req"
IN = "In"
OUT = "Out"

# The saturation bound of SPush, SPrio and PPr: a count only has to tell one
# token of its species from more than one, so it stops at 2.
SAT = 2


# --------------------------------------------------------------------------
# Wire messages
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ResT:
    """One resource unit.  ``uid`` is a monitor-only identity tag: it is
    excluded from equality and never consulted by handler logic."""

    uid: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class PushT:
    """The pusher."""


@dataclass(frozen=True)
class PrioT:
    """The priority token."""


@dataclass(frozen=True)
class Ctrl:
    c: int
    r: bool
    pt: int
    ppr: int

    def __str__(self) -> str:
        return f"Ctrl{{c={self.c},r={int(self.r)},pt={self.pt},ppr={self.ppr}}}"


Message = Union[ResT, PushT, PrioT, Ctrl]


# --------------------------------------------------------------------------
# Process state
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Reserved:
    """An entry of RSet: the arrival channel of a reserved resource token,
    plus its monitor-only identity."""

    channel: int
    uid: int = -1


@dataclass(slots=True)
class ProcessState:
    """All protocol variables of one process, slotted: no instance dict.

    The s* counters and ``reset`` are root-only; they stay inert on
    non-root processes.
    """

    myc: int = 0
    succ: int = 0
    rset: list[Reserved] = field(default_factory=list)
    need: int = 0
    state: str = OUT
    prio: int | None = None
    # root only
    stoken: int = 0
    spush: int = 0
    sprio: int = 0
    reset: bool = False

    def rset_count(self, channel: int) -> int:
        """Multiplicity of ``channel`` in the RSet multiset."""
        if not self.rset:
            return 0
        return sum(1 for e in self.rset if e.channel == channel)

    def copy(self) -> ProcessState:
        """An independent copy: its own ``rset`` list, whose entries are
        immutable and shared."""
        return ProcessState(self.myc, self.succ, self.rset.copy(), self.need, self.state,
                            self.prio, self.stoken, self.spush, self.sprio, self.reset)


@dataclass(frozen=True)
class ProcParams:
    """Static per-process facts the handlers need."""

    is_root: bool
    delta: int  # number of channels at this process
    ell: int
    counter_modulus: int  # myc domain size, 2(n-1)(C_MAX+1)+1


@dataclass(frozen=True)
class TraversalEnd:
    """Root-side record of one completed controller traversal."""

    res_total: int  # PT + SToken at the wrap, before zeroing
    prio_total: int  # PPr + SPrio
    push_total: int  # SPush
    arriving_r: bool  # reset flag of the traversal that just ended
    new_reset: bool  # reset decision for the traversal about to start


@dataclass(slots=True)
class HandlerOutput:
    """Read only: ``local_actions`` and ``dispatch`` share one no-op output."""

    sends: list[tuple[int, Message]] | tuple = field(default_factory=list)
    entered_cs: bool = False
    restart_timer: bool = False
    traversal_end: TraversalEnd | None = None


def _forward_res(st: ProcessState, channel: int, token: ResT, p: ProcParams,
                 out: HandlerOutput) -> None:
    """Pass a resource token that arrived on ``channel`` along the ring.  The
    root counts every resource token leaving its wrap channel delta-1 into
    SToken, which the next wrap adds to the controller's PT."""
    if p.is_root and channel == p.delta - 1:
        st.stoken = min(st.stoken + 1, p.ell + 1)
    out.sends.append((forward_channel(channel, p.delta), token))


def _release_all(st: ProcessState, p: ProcParams, out: HandlerOutput) -> None:
    """Return every reserved resource token to the ring."""
    for e in st.rset:
        _forward_res(st, e.channel, ResT(uid=e.uid), p, out)
    st.rset.clear()


# --------------------------------------------------------------------------
# Message handlers
# --------------------------------------------------------------------------

def handle_res_t(st: ProcessState, q: int, msg: ResT, p: ProcParams) -> HandlerOutput:
    """Receive a resource token on channel q.

    A requester short of its need reserves the token; anyone else forwards
    it along the ring.  (A root in reset mode never gets here: ``dispatch``
    sinks the token.)
    """
    out = HandlerOutput()
    if st.state == REQ and len(st.rset) < st.need:
        st.rset.append(Reserved(q, msg.uid))
    else:
        _forward_res(st, q, msg, p, out)
    return out


def handle_push_t(st: ProcessState, q: int, msg: PushT, p: ProcParams) -> HandlerOutput:
    """Receive the pusher on channel q.

    Releases every reserved token unless the process is in its critical
    section, enabled to enter it, or holds the priority token.  The pusher
    itself is always forwarded (``dispatch`` sinks it at a resetting root).
    """
    out = HandlerOutput()
    enabled = st.state == REQ and len(st.rset) >= st.need
    if st.prio is None and not enabled and st.state != IN:
        _release_all(st, p, out)
    if p.is_root and q == p.delta - 1:
        st.spush = min(st.spush + 1, SAT)
    out.sends.append((forward_channel(q, p.delta), msg))
    return out


def handle_prio_t(st: ProcessState, q: int, msg: PrioT, p: ProcParams) -> HandlerOutput:
    """Receive the priority token on channel q: hold it if free, else
    forward (``dispatch`` sinks it at a resetting root)."""
    out = HandlerOutput()
    if st.prio is None:
        st.prio = q
    else:
        out.sends.append((forward_channel(q, p.delta), msg))
    return out


def _pick_up(st: ProcessState, q: int, msg: Ctrl, p: ProcParams) -> tuple[int, int]:
    """The controller's counts once the receiver adds what it holds from
    channel q: its units to PT (capped at ell+1), its priority token to PPr
    (capped at ``SAT``)."""
    return (min(msg.pt + st.rset_count(q), p.ell + 1),
            min(msg.ppr + 1, SAT) if st.prio == q else msg.ppr)


def handle_ctrl_root(st: ProcessState, q: int, msg: Ctrl, p: ProcParams) -> HandlerOutput:
    """Root reception of a controller message.

    Valid only when it arrives from Succ carrying the root's own counter;
    anything else is dropped.  The tokens the root holds on the arrival
    channel are added to the counts first.  When Succ then wraps to 0 a
    traversal has completed, with the root's holdings on its wrap channel
    counted in it: the root decides whether to reset (too many of some
    species) or to mint the missing tokens, then stamps and relaunches the
    controller with zeroed counts.
    """
    out = HandlerOutput()
    if q != st.succ or msg.c != st.myc:
        return out  # invalid: ignored entirely, no retransmission
    pt, ppr = _pick_up(st, q, msg, p)
    st.succ = forward_channel(st.succ, p.delta)
    if st.succ == 0:
        res_total = pt + st.stoken
        prio_total = ppr + st.sprio
        push_total = st.spush
        st.myc = (st.myc + 1) % p.counter_modulus
        st.reset = res_total > p.ell or prio_total > 1 or push_total > 1
        out.traversal_end = TraversalEnd(
            res_total, prio_total, push_total, arriving_r=msg.r, new_reset=st.reset
        )
        if st.reset:
            st.rset.clear()
            st.prio = None
        else:
            if prio_total < 1:
                out.sends.append((0, PrioT()))
            for _ in range(p.ell - res_total):
                out.sends.append((0, ResT()))
            if st.spush < 1:
                out.sends.append((0, PushT()))
        st.stoken = 0
        st.sprio = 0
        st.spush = 0
        pt = 0
        ppr = 0
    out.sends.append((st.succ, Ctrl(st.myc, st.reset, pt, ppr)))
    out.restart_timer = True
    return out


def handle_ctrl_nonroot(st: ProcessState, q: int, msg: Ctrl, p: ProcParams) -> HandlerOutput:
    """Non-root reception of a controller message, by case: a new counter
    from the parent (q = 0) is adopted, Succ set to channel 1 (0 at a leaf);
    back from Succ with the adopted counter, it hops, Succ to the next
    channel; a parent duplicate, the adopted counter from the parent, is
    sent on with the traversal state untouched (dropping it could deadlock
    the ring); anything else is dropped.  An adoption or a hop with ``r``
    set first drops the process's holdings (reset).  The message sent on
    carries the adopted counter, ``msg.c``, and ``msg.r``; when the
    receiver adds no held unit or priority token from channel q to its
    counts either, it is ``msg`` itself."""
    if q or msg.c != st.myc:  # not a parent duplicate
        if not q:  # a new counter from the parent: adopt
            st.myc = msg.c
            st.succ = min(1, p.delta - 1)
        elif q == st.succ and msg.c == st.myc:  # back from Succ: hop
            st.succ = forward_channel(q, p.delta)
        else:
            return HandlerOutput()  # anything else: dropped
        if msg.r:
            st.rset.clear()
            st.prio = None
    pt, ppr = _pick_up(st, q, msg, p)
    if pt != msg.pt or ppr != msg.ppr:
        msg = Ctrl(msg.c, msg.r, pt, ppr)
    return HandlerOutput([(st.succ, msg)])


# --------------------------------------------------------------------------
# Local actions and the root timeout
# --------------------------------------------------------------------------

_NO_ACTIONS = HandlerOutput(sends=())


def local_actions(st: ProcessState, p: ProcParams, cs_done: bool) -> HandlerOutput:
    """The guard/action block run after a handled message and whenever a
    request arrives or the critical section ends (``cs_done``).  The guards
    read ``len(rset)``, ``need``, ``state`` and ``prio``; no handler writes
    ``need`` or ``state``, so the simulator runs the block after a handler
    (or the root's timeout) only when it changed the size of the RSet or
    Prio: otherwise every guard is as false as the last pass left it.

    In order: enter the critical section once enough tokens are reserved
    (the caller then starts it), or else release all tokens if it is done;
    then pass the priority token on unless an unsatisfied request justifies
    keeping it.  A section granted in a pass is never released in it.  The
    guards are read once (entering or releasing leaves the priority guard as
    it was); when none holds, the shared ``_NO_ACTIONS`` output is returned.
    """
    satisfied = len(st.rset) >= st.need
    enter = st.state == REQ and satisfied
    release = st.state == IN and cs_done
    pass_prio = st.prio is not None and (st.state != REQ or satisfied)
    if not (enter or release or pass_prio):
        return _NO_ACTIONS
    out = HandlerOutput()
    if enter:
        st.state = IN
        out.entered_cs = True
    elif release:
        _release_all(st, p, out)
        st.state = OUT
    if pass_prio:
        if p.is_root and st.prio == p.delta - 1:
            st.sprio = min(st.sprio + 1, SAT)
        out.sends.append((forward_channel(st.prio, p.delta), PrioT()))
        st.prio = None
    return out


def on_timeout_root(st: ProcessState, p: ProcParams) -> HandlerOutput:
    """Root timeout: retransmit a controller with zeroed counts toward Succ."""
    out = HandlerOutput()
    out.sends.append((st.succ, Ctrl(st.myc, st.reset, 0, 0)))
    out.restart_timer = True
    return out


def counter_modulus(n: int, cmax: int) -> int:
    """Size of the traversal counter domain [0 .. 2(n-1)(C_MAX+1)]."""
    return 2 * (n - 1) * (cmax + 1) + 1


_HANDLERS = {ResT: handle_res_t, PushT: handle_push_t, PrioT: handle_prio_t}


def dispatch(st: ProcessState, q: int, msg: Message, p: ProcParams) -> HandlerOutput:
    """Run the handler of ``msg``'s class, the root's or a non-root's for a
    control message.  A root in reset mode sinks every other token: it
    returns the shared ``_NO_ACTIONS`` and changes nothing."""
    handler = _HANDLERS.get(msg.__class__)
    if handler is not None:
        return _NO_ACTIONS if p.is_root and st.reset else handler(st, q, msg, p)
    if p.is_root:
        return handle_ctrl_root(st, q, msg, p)
    return handle_ctrl_nonroot(st, q, msg, p)
