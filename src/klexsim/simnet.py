"""Deterministic discrete-event simulator for the token-circulation protocol.

One scheduler step applies the application phase (request arrivals, critical
section countdowns, a local-action pass at each process whose request arrived
or section ended) and then executes one scheduled event: delivery of a single
message, or the root timeout.  Handlers run atomically, their sends entering
the FIFO channels in emission order; the receiver's local-action pass
follows only when the handler (or the timeout) changed the size of its RSet
or its Prio, as no other guard input can change there.
Identical inputs (initial configuration, policy, seed) reproduce
byte-identical traces.

Fault injection builds an arbitrary initial configuration constrained only
by the structural bounds: at most C_MAX messages per channel, all variables
inside their declared domains, at most k reserved tokens per process.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

from . import monitor
from .appmodel import INF, AppState, apply_workload
from .protocol import (
    IN,
    OUT,
    REQ,
    SAT,
    Ctrl,
    Message,
    PrioT,
    ProcessState,
    ProcParams,
    PushT,
    Reserved,
    ResT,
    TraversalEnd,
    counter_modulus,
    dispatch,
    local_actions,
    on_timeout_root,
)
from .topology import TreeTopology, content_lines

ChannelKey = tuple[str, int]  # (receiver, receive-channel label)

# a token's wire name is its class name; a Ctrl renders by its __str__
_NAMES = {cls: cls.__name__ for cls in (ResT, PushT, PrioT)}


def _pass_line(pid: str, sends: str) -> str:
    """The trace line of a local-action pass at ``pid`` that sent ``sends``."""
    return f"proc={pid} event=local msg=actions ch=- sends=[{sends}]"


DELIVER = "deliver"
TIMEOUT = "timeout"
SKIP = "skip"


class SchedulerError(RuntimeError):
    """A scheduling choice named an event that is not enabled: simulator bug
    or corrupt replay file, never a protocol fault."""


@dataclass
class SimParams:
    k: int
    ell: int
    cmax: int
    timeout: int | None  # steps of root silence before the timer fires; None disables

    def validate(self) -> None:
        if self.ell < 1:
            raise ValueError("ell must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.k > self.ell:
            raise ValueError("k must not exceed ell")
        if self.cmax < 0:
            raise ValueError("cmax must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be at least 1 step")


def default_timeout(topo: TreeTopology, ell: int, cmax: int) -> int:
    """Default root timeout: 20 traversal allowances.  One allowance
    assumes the controller waits behind at most C_MAX+ell+3 messages at
    each of the ring's 2(n-1) hops; an arbitrary start can queue more ahead
    of it, and then the timeout can fire before the controller's first
    wrap."""
    return 20 * traversal_allowance(topo, ell, cmax)


def traversal_allowance(topo: TreeTopology, ell: int, cmax: int) -> int:
    """Step allowance for one controller traversal of the ring."""
    return 2 * (topo.n - 1) * (cmax + ell + 3)


@dataclass
class Configuration:
    """Global snapshot: every process state, every channel's FIFO content,
    the application state, and the root's timeout bookkeeping.

    A channel is a plain list, front first: a send appends, a delivery pops
    index 0.  Channels stay short (at most C_MAX messages in an arbitrary
    start, and at most 19 in any benchmark workload), so ``pop(0)`` moves
    few pointers; an empty channel is a 56-byte list."""

    states: dict[str, ProcessState]
    channels: dict[ChannelKey, list[Message]]
    app: AppState
    step: int = 0
    timer: int = 0  # steps since the root last restarted its timer
    next_uid: int = 0
    # ascending ring slots (``topology.Ring``) of the non-empty channels, only
    # while a run or step holds this configuration (its own clone): built
    # when it starts, kept by its steps, and None again on what it hands back
    busy: list[int] | None = field(default=None, compare=False, repr=False)

    def clone(self) -> "Configuration":
        """An independent copy: its own process states (``ProcessState.copy``),
        ``rset`` lists, channel lists and application dicts; messages are
        immutable and shared.  The copy has no ``busy`` index."""
        return Configuration(
            {pid: s.copy() for pid, s in self.states.items()},
            {key: q.copy() for key, q in self.channels.items()},
            AppState(dict(self.app.remaining), dict(self.app.armed_duration)),
            self.step, self.timer, self.next_uid,
        )

    def fingerprint(self) -> tuple:
        """Protocol-visible identity of the configuration (monitor-only token
        uids excluded), used for cycle detection.  It leaves out ``timer``
        too, so with a timeout set, configurations whose enabled events
        differ (the root's timeout enabled in one) can share a fingerprint:
        a search keyed on it is sound only with the timeout off."""
        procs = []
        for pid, s in self.states.items():
            procs.append((
                pid, s.myc, s.succ, tuple(e.channel for e in s.rset), s.need,
                s.state, s.prio, s.stoken, s.spush, s.sprio, s.reset,
                self.app.remaining.get(pid, 0), self.app.armed_duration.get(pid),
            ))
        chans = tuple((key, tuple(_NAMES.get(m.__class__) or str(m) for m in q))
                      for key, q in sorted(self.channels.items()))
        return (tuple(procs), chans)


class StepRecord(NamedTuple):
    """The outcome of one executed step: its trace lines, the checks of the
    configuration it produced and its events.  A run builds one record per
    distinct outcome and equal steps share it, so a record holds no step
    number: record ``i`` of a ``Trace`` is step ``first_step + i``.  The
    event fields are tuples (the shared ``()`` when empty).

    ``body`` is the step's trace lines joined by newlines, without their
    ``step={step} `` prefix (``""`` for an idle step).  Dropping the prefix
    is sound because every line of a step carries that step's number:
    ``execute_step`` renders them all before it advances ``cfg.step``.
    ``Trace.lines`` renders the prefix again."""

    body: str
    census: monitor.CensusReport
    legit: bool
    entries: tuple[str, ...]
    requests: tuple[tuple[str, int], ...]
    transitions: tuple[tuple[str, str, str], ...]
    traversal_end: TraversalEnd | None
    violations: tuple[str, ...]
    timeout_fired: bool


@dataclass
class Trace:
    records: list[StepRecord]
    first_step: int  # the step number of ``records[0]``: the start's ``cfg.step``
    initial_census: monitor.CensusReport
    initial_legit: bool
    initial_requests: list[tuple[str, int]]
    initial_violations: tuple[str, ...] = ()
    ended: str = "budget"  # budget | quiescent | stopped | replay-exhausted
    final: Configuration | None = None

    @property
    def conclusive(self) -> bool:
        """Whether the ending refutes an "eventually" claim left unmet: only
        at quiescence can nothing ever happen again.  A run cut by its
        budget, by ``stop`` or by a replay running dry could have gone on."""
        return self.ended == "quiescent"

    def lines(self) -> Iterator[str]:
        """The trace lines, one at a time: each line of a record's body
        after the ``step={step} `` prefix of its position."""
        for step, rec in enumerate(self.records, self.first_step):
            if rec.body:
                prefix = f"step={step} "
                for line in rec.body.split("\n"):
                    yield prefix + line


# --------------------------------------------------------------------------
# Scheduling policies
# --------------------------------------------------------------------------

class RoundRobinPolicy:
    """Cycles through the ring's channel slots plus the timeout slot; each
    step services the next enabled slot.  Every persistently enabled event
    is served within one rotation, which is the fairness window.

    ``enabled`` must be ascending slots, as ``Simulator.enabled_events``
    returns them: the next enabled slot is then the first one past the last
    one served, or else ``enabled[0]``."""

    def __init__(self) -> None:
        self._idx = -1

    def choose(self, enabled: list[int]) -> int | None:
        if not enabled:
            return None
        i = bisect_right(enabled, self._idx)
        self._idx = enabled[i] if i < len(enabled) else enabled[0]
        return self._idx


class RandomPolicy:
    """Picks uniformly among enabled events; fair with probability one."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, enabled: list[int]) -> int | None:
        if not enabled:
            return None
        return enabled[self._rng.randrange(len(enabled))]


class ReplayPolicy:
    """Replays an explicit list of scheduler choices: ring slots as
    ``enabled_events`` numbers them, ``None`` for an idle step, which is how
    replays line up with CS countdowns.  ``lines``, when given, is each
    choice's line in the replay file, and a choice that is not enabled is
    reported at its line; otherwise at its 1-based position."""

    def __init__(self, slots: list[int | None], lines: list[int] | None = None) -> None:
        self.choices = list(slots)
        self.lines = lines
        self._idx = 0

    def exhausted(self) -> bool:
        return self._idx >= len(self.choices)

    def choose(self, enabled: list[int]) -> int | None:
        if self.exhausted():
            return None
        t = self.choices[self._idx]
        self._idx += 1
        if t is not None and t not in enabled:
            if self.lines is None:
                raise SchedulerError(f"replay choice {self._idx} names disabled event")
            raise SchedulerError(f"replay line {self.lines[self._idx - 1]}: "
                                 "choice names disabled event")
        return t


def parse_replay(text: str, topo: TreeTopology) -> list[int | None]:
    """Replay file: one choice per line, ``deliver <proc> <ch>`` / ``timeout``
    / ``skip``; blank lines and # comments allowed.  Each choice becomes its
    slot on ``topo``'s ring (``None`` for ``skip``)."""
    slot = topo.ring.slot
    slots: list[int | None] = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == DELIVER and len(parts) == 3 and parts[2].isdecimal():
            pid, ch = parts[1], int(parts[2])
            if pid not in slot:
                raise SchedulerError(f"replay line {lineno}: unknown process {pid!r}")
            if ch >= len(slot[pid]):
                raise SchedulerError(f"replay line {lineno}: process {pid!r} "
                                     f"has no channel {ch}")
            slots.append(slot[pid][ch])
        elif parts[0] == TIMEOUT and len(parts) == 1:
            slots.append(len(topo.ring.keys))
        elif parts[0] == SKIP and len(parts) == 1:
            slots.append(None)
        else:
            raise SchedulerError(f"replay line {lineno}: cannot parse {line!r}")
    return slots


def format_replay(slots: list[int | None], topo: TreeTopology) -> str:
    """The replay file that ``parse_replay`` reads back as ``slots``."""
    keys = topo.ring.keys
    return "".join(SKIP + "\n" if t is None else TIMEOUT + "\n" if t == len(keys)
                   else f"{DELIVER} {keys[t][0]} {keys[t][1]}\n" for t in slots)


# --------------------------------------------------------------------------
# Simulator
# --------------------------------------------------------------------------

class Simulator:
    def __init__(self, topo: TreeTopology, params: SimParams):
        params.validate()
        self.topo = topo
        self.params = params
        self.modulus = counter_modulus(topo.n, params.cmax)
        self.channel_keys: tuple[ChannelKey, ...] = topo.ring.keys
        # the step loop's tables, as plain attributes: ``pp`` per process;
        # slot -> the event's (receiver, receive label, its ProcParams, its
        # ``Ring.dest`` row), the last slot the root's timeout; ``order`` sorts
        # processes as ``process_ids`` does.
        # No configuration enters them, so the first run or step builds them
        # (``_queues``), not set-up: a campaign builds all its simulators first
        self.pp: dict[str, ProcParams] | None = None
        self.rows: list[tuple[str, int | str, ProcParams, list[int]]] | None = None
        self.order: Callable[[str], int] | None = None

    def tally(self, cfg: Configuration) -> monitor.Tally:
        """A tally of ``cfg``, which it keeps; see ``monitor.Tally``."""
        return monitor.Tally(self.topo, self.params.k, self.params.ell, self.modulus, cfg)

    def check(self, cfg: Configuration) -> tuple[monitor.CensusReport, bool, tuple[str, ...]]:
        """(census, legitimacy, safety violations) of ``cfg``, counted from scratch."""
        return monitor.step_checks(self.tally(cfg), self.topo.process_ids)

    # -- configuration builders --------------------------------------------

    def empty_configuration(self) -> Configuration:
        return Configuration(
            states={pid: ProcessState() for pid in self.topo.process_ids},
            channels={key: [] for key in self.channel_keys},
            app=AppState(),
        )

    def initial_configuration(self) -> Configuration:
        """The canonical legitimate start: the full token complement queued in
        the root's outgoing ring channel, counters zeroed, and the non-root
        counters one traversal behind so the controller's first tour adopts
        cleanly."""
        cfg = self.empty_configuration()
        for pid in self.topo.process_ids:
            if pid != self.topo.root:
                cfg.states[pid].myc = self.modulus - 1
        q = cfg.channels[self.channel_keys[self.topo.ring.dest[self.topo.root][0]]]
        q.append(PrioT())
        for _ in range(self.params.ell):
            q.append(ResT(uid=self._take_uid(cfg)))
        q.append(PushT())
        q.append(Ctrl(0, False, 0, 0))
        return cfg

    def inject_arbitrary(self, seed: int) -> Configuration:
        """Seeded arbitrary configuration within the structural bounds.

        Counter values collide with the root's on purpose about half the
        time, which is the adversarial regime for counter flushing; token
        populations are whatever the channel sampling produces.
        """
        rng = random.Random(seed)
        cfg = self.empty_configuration()
        k, ell, cmax = self.params.k, self.params.ell, self.params.cmax
        collide = rng.randrange(self.modulus)

        def a_counter() -> int:
            if rng.random() < 0.5:
                return (collide + rng.choice((-1, 0, 0, 1))) % self.modulus
            return rng.randrange(self.modulus)

        for pid in self.topo.process_ids:
            d = self.topo.degree(pid)
            s = cfg.states[pid]
            s.myc = a_counter()
            s.succ = rng.randrange(d)
            s.rset = [Reserved(rng.randrange(d), -1) for _ in range(rng.randint(0, k))]
            s.need = rng.randint(0, k)
            s.state = rng.choice((REQ, IN, OUT))
            s.prio = rng.choice((None, rng.randrange(d)))
            if pid == self.topo.root:
                s.stoken = rng.randint(0, ell + 1)
                s.spush = rng.randint(0, SAT)
                s.sprio = rng.randint(0, SAT)
                s.reset = rng.random() < 0.25
            if s.state == IN and (left := rng.randint(0, 3)):
                cfg.app.remaining[pid] = left  # only positive countdowns are kept

        for key in self.channel_keys:
            for _ in range(rng.randint(0, cmax)):
                roll = rng.random()
                if roll < 0.50:
                    cfg.channels[key].append(ResT())
                elif roll < 0.65:
                    cfg.channels[key].append(PushT())
                elif roll < 0.80:
                    cfg.channels[key].append(PrioT())
                else:
                    cfg.channels[key].append(Ctrl(
                        c=a_counter(),
                        r=rng.random() < 0.3,
                        pt=rng.randint(0, ell + 1),
                        ppr=rng.randint(0, SAT),
                    ))

        self.stamp_uids(cfg)
        return cfg

    def stamp_uids(self, cfg: Configuration) -> None:
        """Give every untagged resource unit of ``cfg`` a fresh identity tag,
        in place: the channels' units in slot order, then the RSets' in
        ``process_ids`` order.  ``inject_arbitrary`` stamps what it builds,
        and ``run`` the clone it takes, so no step of a run meets a unit
        without a uid."""
        for key in self.channel_keys:
            q = cfg.channels[key]
            for i, m in enumerate(q):
                if isinstance(m, ResT) and m.uid < 0:
                    q[i] = ResT(uid=self._take_uid(cfg))
        for pid in self.topo.process_ids:
            rset = cfg.states[pid].rset
            for i, e in enumerate(rset):
                if e.uid < 0:
                    rset[i] = Reserved(e.channel, self._take_uid(cfg))

    @staticmethod
    def _take_uid(cfg: Configuration) -> int:
        uid = cfg.next_uid
        cfg.next_uid += 1
        return uid

    # -- stepping ------------------------------------------------------------

    def enabled_events(self, cfg: Configuration) -> list[int]:
        """The enabled events as ascending slots, which ``RoundRobinPolicy``
        relies on: the non-empty channels, then ``len(self.channel_keys)``
        when the root's timer fires, once ``params.timeout`` steps have
        passed since it last received a valid control message (or last
        fired); nothing else in the network is consulted.  While a run or
        step holds ``cfg`` they are a copy of its ``busy`` index; any other
        configuration's channels are counted, and nothing is stored in it."""
        if cfg.busy is None:
            enabled = [t for t, key in enumerate(self.channel_keys) if cfg.channels[key]]
        else:
            enabled = cfg.busy.copy()
        timeout = self.params.timeout
        if timeout is not None and cfg.timer >= timeout:
            enabled.append(len(self.channel_keys))
        return enabled

    def _queues(self, cfg: Configuration) -> list[list[Message]]:
        """``cfg``'s channel lists by slot, for a run of steps on it (a clone
        that ``run`` or ``step`` took), with its ``busy`` index, which every
        step keeps; on first use the simulator's ``pp``, ``rows`` and
        ``order`` too.  (Not a ``cached_property``: it writes to the
        instance ``__dict__``, which on CPython 3.11 costs every later
        attribute load on the simulator its specialization.)"""
        if self.rows is None:
            topo = self.topo
            pp = self.pp = {pid: ProcParams(is_root=(pid == topo.root), delta=topo.degree(pid),
                                            ell=self.params.ell, counter_modulus=self.modulus)
                            for pid in topo.process_ids}
            dest = topo.ring.dest
            self.order = {pid: i for i, pid in enumerate(topo.process_ids)}.__getitem__
            root = topo.root
            self.rows = [(pid, ch, pp[pid], dest[pid]) for pid, ch in self.channel_keys]
            self.rows.append((root, "-", pp[root], dest[root]))
        queues = [cfg.channels[key] for key in self.channel_keys]
        cfg.busy = [t for t, queue in enumerate(queues) if queue]
        return queues

    def _place(self, cfg: Configuration, queues: list[list[Message]], dest: list[int],
               sends: list[tuple[int, Message]]) -> tuple[str, list[tuple[Message, int]]]:
        """Put ``sends`` into their channels, a send on label ``out`` into
        slot ``dest[out]``; return their rendering for the trace line and
        each placed message with its slot, which the caller counts: in, by
        ``Tally.move(None, msg, slot)`` (``_enqueue``), or moved from where
        its sender held it (``Tally.settle``).  A unit without a uid gets
        one here: in a run, which stamps its start, only a unit the root
        mints.  A delivery whose one send is the delivered message itself,
        or a controller hop, does not come here: ``execute_step`` moves that
        message on itself."""
        rendered = []
        placed = []
        busy = cfg.busy
        for out_ch, msg in sends:
            if msg.__class__ is ResT and msg.uid < 0:
                msg = ResT(self._take_uid(cfg))
            t = dest[out_ch]
            queue = queues[t]
            if not queue:
                insort(busy, t)
            queue.append(msg)
            placed.append((msg, t))
            rendered.append(f"{out_ch}:{_NAMES.get(msg.__class__) or msg}")
        return ",".join(rendered), placed

    def _enqueue(self, cfg: Configuration, queues: list[list[Message]], dest: list[int],
                 sends: list[tuple[int, Message]], tally: monitor.Tally) -> str:
        """``_place`` ``sends``, each counted in by ``tally.move(None, msg,
        slot)``; return their rendering."""
        rendered, placed = self._place(cfg, queues, dest, sends)
        for msg, t in placed:
            tally.move(None, msg, t)
        return rendered

    def _local_pass(self, cfg: Configuration, queues: list[list[Message]], pid: str,
                    lines: list, entries: list, transitions: list, tally: monitor.Tally,
                    settle: bool, t: int | None = None, kept: Message | None = None
                    ) -> tuple | None:
        """A local-action pass at ``pid``; one that sends or changes its state
        puts its sends into their channels and renders its line.  ``kept``
        is a token the step's event delivered to ``pid`` from slot ``t`` and
        its handler kept.  It returns None when ``pid`` must be counted
        again: the pass's sends are then counted in.  Otherwise it returns
        ``()``: the pass changed nothing the checks read (it wrote no line,
        and there is no ``kept``), or, with ``settle`` (``pid`` is not
        counted again for another reason), the tally took its changes and
        ``kept`` with ``Tally.settle``: each released token moved from the
        slot it was held at, ``kept`` held where it was counted.  A pass
        that only sends one token of ``kept``'s class, state as before,
        sends ``kept`` on instead, and returns ``((label, kept),)``."""
        st = cfg.states[pid]
        old = st.state
        out = local_actions(st, self.pp[pid], cfg.app.release_cs(pid))
        sends = out.sends
        if out.entered_cs:
            cfg.app.enter_cs(pid)
            entries.append(pid)
        if st.state != old:
            transitions.append((pid, old, st.state))
        elif kept is not None and len(sends) == 1 and sends[0][1].__class__ is kept.__class__:
            return ((sends[0][0], kept),)
        if sends or st.state != old:
            rendered, placed = self._place(cfg, queues, self.topo.ring.dest[pid], sends)
            lines.append(_pass_line(pid, rendered))
        elif kept is None:
            return ()
        else:
            placed = ()
        if settle and tally.settle(pid, st, placed, t, kept):
            return ()
        for msg, to in placed:
            tally.move(None, msg, to)
        return None

    def execute_step(self, cfg: Configuration, policy, workload,
                     dirty: Iterable[str], tally: monitor.Tally,
                     outcomes: dict[tuple, StepRecord],
                     queues: list[list[Message]]) -> StepRecord:
        """Run one atomic step in place: the application phase (request
        arrivals, critical-section countdowns, then a local-action pass at
        each process that requested, finished its section or is ``dirty``,
        in ``process_ids`` order), then the event ``policy`` chooses, then
        the checks of the configuration produced, ``step_checks(tally,
        woken)``: the step counts each message it puts in, takes out or
        passes on with one ``Tally.move``, and ``woken`` holds only the
        processes whose part of the checks it may have changed: the
        ``dirty`` ones, and those whose pass wrote a line the tally could
        not read as moves.  A request writes only ``state`` (Out to Req) and
        ``need``, which no check reads, and a pass that writes no line
        changes nothing, so a process the application phase woke is passed
        but counted again only when its pass wrote a line.  Even then, at a
        process not ``dirty``, the pass goes to ``Tally.settle`` first: a
        section's end, whose pass releases its units, moves each from the
        slot it was held at, and counts nobody again unless the tally
        refuses.  A timeout changes none: ``on_timeout_root``
        writes no state (its control message clears ``Tally.scan``).
        ``dirty`` processes may have true guards already, as only a start
        no step produced can.  ``queues`` is ``cfg``'s channel lists by
        slot (``_queues``), with ``cfg.busy`` built; the countdowns are
        ticked only while a section runs.

        The application phase can enable deliveries (a finished critical
        section releases tokens), so the policy chooses after it: a slot of
        ``enabled_events``, or None for an idle step (only the timers advance).

        The event's receiver gets a local-action pass only when its handler,
        or the root's timeout, changed ``len(st.rset)`` or ``st.prio``.
        Those are the only guard inputs a handler writes (none writes
        ``state`` or ``need``, and no section ends during the event), so
        otherwise its guards are as false as its last pass left them.  A
        handler that kept the delivered message (sent nothing, state as
        before) has its receiver's pass run at once, before the message is
        counted out.  When the receiver is not in ``woken``, that pass goes
        to ``Tally.settle`` with the message, whether it did nothing or
        entered the section: the message is held where it was counted, any
        token the pass sent on moves from the slot it was held at, and the
        receiver is not counted again, unless the tally refuses (more than
        k units, more than ell in use, a token it cannot match).

        A delivery whose only send is the delivered message itself, sent by
        its handler or, in a prio pass (a priority token taken and handed
        straight on), by the receiver's pass, moves that message on in one
        ``Tally.move``, whatever its class, and renders the send by the name
        the delivery rendered it by, so a controller sent on as itself is
        rendered once.  The receiver is counted again only when the message
        is a control message (below) or the handler changed ``st.state``.
        Otherwise the step is a pure forward or a prio pass, and its
        receiver ends as it began, but for the root off ring slot 0, its
        wrap channel, where the forward changed SToken or SPush and the
        prio pass SPrio: only the running-count clause reads those, and the
        tally's move off slot 0 has that clause read again
        (``Tally.stale``).  The root is counted again there only when the
        last checks are gone (``Tally.last`` None): a violation of its own
        may then be standing, which the handlers' capping can clear.

        A controller hop, a delivered control message whose handler's one
        send is a control message that is no root wrap's (the message
        itself, or a copy with the receiver's holdings picked up), moves in
        one move too.  When ``woken`` is empty and the handler left the
        receiver's RSet, Prio and state as they were, the move goes to the
        monitor's hop rule, ``Tally.hop``, which checks the configuration
        itself when the last checks were legitimate, from the new place and
        the two receivers' states; when it cannot, or the step did more, the
        receiver, whose Succ or counter the hop changed, goes into ``woken``
        and ``step_checks`` counts it again.  A root
        wrap, which builds a new counter and may mint, is an ordinary
        delivery.

        The step's record is looked up once in ``outcomes``, the caller's
        table of the records built so far, under (what happened, census,
        legitimacy, violations), and built only when no equal one is there,
        so equal steps share one record.  A lone pure forward or prio pass,
        one whose application phase wrote no line, happened as its slot,
        its token's class and whether it was passed say: its key is (slot,
        class, passed, census, legit, violations), and its lines are
        rendered only when that key is new.  Any other step's key, a
        settled pass's too, is the record's own fields, its lines joined.
        """
        lines: list[str] = []
        entries: list[str] = []
        requests: list[tuple[str, int]] = []
        transitions: list[tuple[str, str, str]] = []
        woken = set(dirty)
        passes = woken  # who gets a pass: its own set once the application phase wakes anyone
        if workload is not None:
            due = workload.due(cfg.step, cfg.states)
            if due:
                apply_workload(due, cfg.app, cfg.states)
                passes = woken.union(ev.process for ev in due)
                for ev in due:
                    requests.append((ev.process, ev.need))
                    transitions.append((ev.process, OUT, REQ))
                    lines.append(f"proc={ev.process} event=local "
                                 f"msg=request{{need={ev.need}}} ch=- sends=[]")
        if cfg.app.remaining:
            ended = cfg.app.tick()
            if ended:
                passes = passes.union(ended)
        if passes:
            for pid in sorted(passes, key=self.order):
                if self._local_pass(cfg, queues, pid, lines, entries, transitions, tally,
                                    pid not in woken) is None:
                    woken.add(pid)

        t = policy.choose(self.enabled_events(cfg))
        timeout_fired = t == len(self.channel_keys)
        restart = lone = False
        traversal_end = None
        if t is not None:
            pid, ch, pp, dest = self.rows[t]
            st = cfg.states[pid]
            old, held, prio = st.state, len(st.rset), st.prio
            at = len(lines)  # the event's line goes here, before its receiver's pass's
            if timeout_fired:
                event, name = TIMEOUT, "-"
                out = on_timeout_root(st, pp)
                sends = self._enqueue(cfg, queues, dest, out.sends, tally)
            else:
                queue = queues[t]
                msg = queue.pop(0)
                busy = cfg.busy
                if not queue:
                    del busy[bisect_left(busy, t)]
                cls = msg.__class__
                event, name = DELIVER, _NAMES.get(cls) or str(msg)
                out = dispatch(st, ch, msg, pp)
                sent = out.sends
                kept = False
                if not sent and st.state == old and (len(st.rset) != held or st.prio != prio):
                    # msg kept: the receiver's pass runs at once and may send it
                    # on; the rest of the step compares with what the pass left
                    sent = self._local_pass(cfg, queues, pid, lines, entries, transitions,
                                            tally, pid not in woken, t, msg)
                    old, held, prio = st.state, len(st.rset), st.prio
                    kept = not sent  # not sent on by the pass
                    if sent is None:  # the tally refused: msg counted out, pid again
                        tally.move(t, msg, None)
                        woken.add(pid)
                if kept:
                    sends = ""
                elif len(sent) == 1 and (sent[0][1] is msg
                                       or cls is Ctrl and out.traversal_end is None):
                    # msg sent on as itself, by its handler or by its receiver's
                    # pass, or a controller hop: one move
                    out_ch, m = sent[0]
                    to = dest[out_ch]
                    queue = queues[to]
                    if not queue:
                        insort(busy, to)
                    queue.append(m)
                    if (cls is Ctrl and not woken and st.state == old
                            and len(st.rset) == held and st.prio == prio):
                        if tally.hop(t, m, to) is None:
                            woken.add(pid)
                    else:
                        tally.move(t, m, to)
                        if cls is Ctrl or st.state != old or t == 0 and tally.last is None:
                            woken.add(pid)
                        else:
                            lone = not lines
                    if not lone:
                        sends = f"{out_ch}:{name if m is msg else m}"
                        if sent is not out.sends:
                            lines.append(_pass_line(pid, sends))
                            sends = ""
                else:
                    tally.move(t, msg, None)
                    sends = self._enqueue(cfg, queues, dest, out.sends, tally)
                    woken.add(pid)
            if not lone:
                if st.state != old:
                    transitions.append((pid, old, st.state))
                lines.insert(at, f"proc={pid} event={event} msg={name} ch={ch} sends=[{sends}]")
                traversal_end = out.traversal_end
                restart = out.restart_timer
                if len(st.rset) != held or st.prio != prio:
                    if self._local_pass(cfg, queues, pid, lines, entries, transitions, tally,
                                        pid not in woken) is None:
                        woken.add(pid)

        cfg.timer = 0 if restart else cfg.timer + 1
        cfg.step += 1
        census, legit, violations = monitor.step_checks(tally, woken)
        if lone:
            passed = sent is not out.sends
            key = (t, cls, passed, census, legit, violations)
        else:
            key = ("\n".join(lines), census, legit, tuple(entries), tuple(requests),
                   tuple(transitions), traversal_end, violations, timeout_fired)
        rec = outcomes.get(key)
        if rec is None:
            if lone:
                line = f"proc={pid} event={DELIVER} msg={name} ch={ch} sends="
                sends = f"{out_ch}:{name}"
                rec = StepRecord(f"{line}[]\n{_pass_line(pid, sends)}" if passed
                                 else f"{line}[{sends}]",
                                 census, legit, (), (), (), None, violations, False)
            else:
                rec = StepRecord._make(key)
            outcomes[key] = rec
        return rec

    def step(self, cfg: Configuration, t: int | None, workload=None) -> Configuration:
        """Functional stepping, passing over every process: returns the
        successor configuration, leaving the input untouched.  Slot ``t``
        must be enabled once the application phase has run, or be ``None``
        for an idle step.  Unlike ``run`` it stamps no start (it is the
        successor function of a state search): a unit without a uid keeps
        -1 when it is sent on as itself, and gets one when ``_enqueue``
        sends it, minted or released.  (Kept: stamping the clone would slow
        a search, and ``_enqueue`` cannot tell a mint from a release.)"""
        nxt = cfg.clone()
        self.execute_step(nxt, ReplayPolicy([t]), workload, self.topo.process_ids,
                          self.tally(nxt), {}, self._queues(nxt))
        nxt.busy = None
        return nxt

    def _anything_pending(self, cfg: Configuration, workload) -> bool:
        """With the timer disabled, False only when nothing can ever happen
        again: channels drained (``cfg.busy`` empty), no critical section
        running down, and the workload out of events, which it tells from
        the step and the process states (a repeating workload requests only
        for a process at Out).  (An enabled timer always fires again.)
        Asked only after the start's pass over every process, as only a step
        settles the guards a start may hold true."""
        if cfg.busy:
            return True
        if any(0 < left != INF for left in cfg.app.remaining.values()):
            return True
        return workload is not None and not workload.exhausted(cfg.step, cfg.states)

    def run(self, cfg0: Configuration, policy, budget: int, workload=None,
            stop: Callable[[list[StepRecord], Configuration], bool] | None = None,
            observer: Callable[[Configuration, StepRecord], None] | None = None,
            ) -> Trace:
        """Execute up to ``budget`` steps (``execute_step``) from a copy of
        ``cfg0``, its untagged units stamped (``stamp_uids``).  Only the
        first step passes over every process; each later one counts again
        only what it touched.

        The trace records one entry per executed step with the census,
        legitimacy verdict, and any safety violations of the configuration
        the step produced; equal steps share one record, and record ``i`` is
        step ``cfg0.step + i``.  ``observer(cfg, rec)`` sees each step's
        record after it, when the step's number is ``cfg.step - 1``.  Ends
        early on quiescence (nothing can ever happen again, asked only once
        the first step has passed over every process), on a replay running
        dry, or when ``stop`` says so; ``Trace.conclusive`` reads the ending.
        """
        cfg = cfg0.clone()
        self.stamp_uids(cfg)
        tally = self.tally(cfg)
        census0, legit0, violations0 = monitor.step_checks(tally, self.topo.process_ids)
        trace = Trace(
            records=[],
            first_step=cfg.step,
            initial_census=census0,
            initial_legit=legit0,
            initial_requests=[
                (pid, cfg.states[pid].need)
                for pid in self.topo.process_ids
                if cfg.states[pid].state == REQ
            ],
            initial_violations=violations0,
            final=cfg,
        )
        replay = isinstance(policy, ReplayPolicy)
        timed = self.params.timeout is not None
        dirty = self.topo.process_ids
        outcomes: dict[tuple, StepRecord] = {}  # per run: a campaign keeps its simulators
        append = trace.records.append
        queues = self._queues(cfg)
        for _ in range(budget):
            if replay and policy.exhausted():
                trace.ended = "replay-exhausted"
                break
            if not (timed or dirty or self._anything_pending(cfg, workload)):
                trace.ended = "quiescent"
                break
            rec = self.execute_step(cfg, policy, workload, dirty, tally, outcomes, queues)
            dirty = ()
            append(rec)
            if observer is not None:
                observer(cfg, rec)
            if stop is not None and stop(trace.records, cfg):
                trace.ended = "stopped"
                break
        cfg.busy = None
        return trace
