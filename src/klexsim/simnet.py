"""Deterministic discrete-event simulator for the token-circulation protocol.

One scheduler step applies the application phase (request arrivals, critical
section countdowns, a local-action pass at each process whose request arrived
or section ended) and then executes one scheduled event: delivery of a single
message, or the root timeout.  Handlers run atomically, each followed by a
local-action pass; their sends enter the FIFO channels in emission order.
Identical inputs (initial configuration, policy, seed) reproduce
byte-identical traces.

Fault injection builds an arbitrary initial configuration constrained only
by the structural bounds: at most C_MAX messages per channel, all variables
inside their declared domains, at most k reserved tokens per process.
"""

from __future__ import annotations

import copy
import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from . import monitor
from .appmodel import AppState, apply_workload
from .protocol import (
    IN,
    OUT,
    REQ,
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
from .topology import TreeTopology

ChannelKey = tuple[str, int]  # (receiver, receive-channel label)

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
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.k > self.ell:
            raise ValueError("k must not exceed ell")
        if self.cmax < 0:
            raise ValueError("cmax must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive or None")


def default_timeout(topo: TreeTopology, ell: int, cmax: int) -> int:
    """Default root timeout: 20 traversal allowances, where one allowance
    generously covers a full ring circulation with maximal queueing."""
    return 20 * traversal_allowance(topo, ell, cmax)


def traversal_allowance(topo: TreeTopology, ell: int, cmax: int) -> int:
    """Step allowance for one controller traversal of the ring."""
    return 2 * (topo.n - 1) * (cmax + ell + 3)


@dataclass
class Configuration:
    """Global snapshot: every process state, every channel's FIFO content,
    the application state, and the root's timeout bookkeeping."""

    states: dict[str, ProcessState]
    channels: dict[ChannelKey, deque]
    app: AppState
    step: int = 0
    timer: int = 0  # steps since the root last restarted its timer
    next_uid: int = 0
    # ascending ring slots (``topology.Ring``) of the non-empty channels,
    # kept by the simulator's steps; None until first needed and in every clone
    # (``run`` and ``step`` work on clones), so channels changed by hand
    # before a run or step are indexed afresh
    busy: list[int] | None = field(default=None, compare=False, repr=False)

    def clone(self) -> "Configuration":
        nxt = copy.deepcopy(self)
        nxt.busy = None
        return nxt

    def fingerprint(self, order: Iterable[str]) -> tuple:
        """Protocol-visible identity of the configuration (monitor-only token
        uids excluded), used for cycle detection."""
        procs = []
        for pid in order:
            s = self.states[pid]
            procs.append((
                pid, s.myc, s.succ, tuple(e.channel for e in s.rset), s.need,
                s.state, s.prio, s.stoken, s.spush, s.sprio, s.reset,
                self.app.remaining.get(pid, 0), self.app.armed_duration.get(pid),
            ))
        chans = []
        for key in sorted(self.channels):
            msgs = tuple(
                (str(m) if not isinstance(m, ResT) else "ResT")
                for m in self.channels[key]
            )
            chans.append((key, msgs))
        return (tuple(procs), tuple(chans))


Choice = tuple  # (DELIVER, pid, channel) | (TIMEOUT,) | (SKIP,)


@dataclass(slots=True)
class StepRecord:
    """One executed step, built once when the step ends.  The event fields
    are tuples (the shared ``()`` when empty) and there is no ``__dict__``,
    so a long trace leaves the garbage collector little to walk."""

    step: int
    lines: tuple[str, ...]
    census: monitor.CensusReport
    legit: bool
    entries: tuple[str, ...]
    requests: tuple[tuple[str, int], ...]
    transitions: tuple[tuple[str, str, str], ...]
    traversal_end: TraversalEnd | None
    violations: list[str]
    timeout_fired: bool


@dataclass
class Trace:
    records: list[StepRecord]
    initial_census: monitor.CensusReport
    initial_legit: bool
    initial_requests: list[tuple[str, int]]
    initial_violations: list[str] = field(default_factory=list)
    ended: str = "budget"  # budget | quiescent | stopped | replay-exhausted
    final: Configuration | None = None

    def lines(self) -> list[str]:
        out = []
        for rec in self.records:
            out.extend(rec.lines)
        return out

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


# --------------------------------------------------------------------------
# Scheduling policies
# --------------------------------------------------------------------------

class RoundRobinPolicy:
    """Cycles through the ring's channel slots plus the timeout slot; each
    step services the next enabled slot.  Every persistently enabled event
    is served within one rotation, which is the fairness window."""

    name = "rr"

    def __init__(self) -> None:
        self._idx = -1

    def choose(self, enabled: list[Choice], slots: list[Choice]) -> Choice | None:
        if not enabled:
            return None
        enabled_set = set(enabled)
        for off in range(1, len(slots) + 1):
            i = (self._idx + off) % len(slots)
            if slots[i] in enabled_set:
                self._idx = i
                return slots[i]
        return None


class RandomPolicy:
    """Picks uniformly among enabled events; fair with probability one."""

    name = "rand"

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def choose(self, enabled: list[Choice], slots: list[Choice]) -> Choice | None:
        if not enabled:
            return None
        return enabled[self._rng.randrange(len(enabled))]


class ReplayPolicy:
    """Replays an explicit list of scheduler choices; ``skip`` burns a step
    without delivering, which is how replays line up with CS countdowns."""

    name = "replay"

    def __init__(self, choices: list[Choice]) -> None:
        self.choices = list(choices)
        self._idx = 0

    def exhausted(self) -> bool:
        return self._idx >= len(self.choices)

    def choose(self, enabled: list[Choice], slots: list[Choice]) -> Choice | None:
        if self.exhausted():
            return None
        choice = self.choices[self._idx]
        self._idx += 1
        if choice[0] == SKIP:
            return choice
        if choice not in enabled:
            raise SchedulerError(f"replay names disabled event {choice}")
        return choice


def parse_replay(text: str) -> list[Choice]:
    """Replay file: one choice per line, ``deliver <proc> <ch>`` / ``timeout``
    / ``skip``; blank lines and # comments allowed."""
    choices: list[Choice] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == DELIVER and len(parts) == 3 and parts[2].isdecimal():
            choices.append((DELIVER, parts[1], int(parts[2])))
        elif parts[0] == TIMEOUT and len(parts) == 1:
            choices.append((TIMEOUT,))
        elif parts[0] == SKIP and len(parts) == 1:
            choices.append((SKIP,))
        else:
            raise SchedulerError(f"replay line {lineno}: cannot parse {line!r}")
    return choices


def format_replay(choices: list[Choice]) -> str:
    out = []
    for ch in choices:
        out.append(" ".join(str(x) for x in ch))
    return "\n".join(out) + "\n"


def timeout_ready(cfg: Configuration, threshold: int | None) -> bool:
    """Whether the root's timer fires: the threshold of scheduler steps has
    passed since it last received a valid control message (or last fired).
    Purely local to the root; nothing else in the network is consulted."""
    return threshold is not None and cfg.timer >= threshold


# --------------------------------------------------------------------------
# Simulator
# --------------------------------------------------------------------------

class Simulator:
    def __init__(self, topo: TreeTopology, params: SimParams):
        params.validate()
        self.topo = topo
        self.params = params
        self.modulus = counter_modulus(topo.n, params.cmax)
        self.pp: dict[str, ProcParams] = {
            pid: ProcParams(
                is_root=(pid == topo.root),
                delta=topo.degree(pid),
                k=params.k,
                ell=params.ell,
                counter_modulus=self.modulus,
            )
            for pid in topo.process_ids
        }
        self.channel_keys: tuple[ChannelKey, ...] = topo.ring.keys
        self.slots: list[Choice] = [
            (DELIVER, pid, ch) for pid, ch in self.channel_keys
        ] + [(TIMEOUT,)]

    def tally(self, cfg: Configuration) -> monitor.Tally:
        """A tally of ``cfg``'s channels; see ``monitor.Tally``."""
        return monitor.Tally(self.topo, self.params.k, self.params.ell, self.modulus, cfg)

    def check(self, cfg: Configuration) -> tuple[monitor.CensusReport, bool, list[str]]:
        """(census, legitimacy, safety violations) of ``cfg``, counted from scratch."""
        return monitor.step_checks(self.tally(cfg), cfg, (), self.topo.process_ids)

    # -- configuration builders --------------------------------------------

    def empty_configuration(self) -> Configuration:
        return Configuration(
            states={pid: ProcessState() for pid in self.topo.process_ids},
            channels={key: deque() for key in self.channel_keys},
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
            q.append(ResT(uid=cfg.next_uid))
            cfg.next_uid += 1
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
                s.spush = rng.randint(0, 2)
                s.sprio = rng.randint(0, 2)
                s.reset = rng.random() < 0.25
            if s.state == IN:
                cfg.app.remaining[pid] = rng.randint(0, 3)

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
                        ppr=rng.randint(0, 2),
                    ))

        self.stamp_uids(cfg)
        return cfg

    def stamp_uids(self, cfg: Configuration) -> None:
        """Assign fresh identity tags to any untagged resource tokens in a
        hand-built configuration (injection and scenario builders use it)."""
        for key in self.channel_keys:
            q = cfg.channels[key]
            for i, m in enumerate(q):
                if isinstance(m, ResT) and m.uid < 0:
                    q[i] = ResT(uid=cfg.next_uid)
                    cfg.next_uid += 1
        for pid in self.topo.process_ids:
            s = cfg.states[pid]
            s.rset = [
                e if e.uid >= 0 else Reserved(e.channel, self._take_uid(cfg))
                for e in s.rset
            ]

    @staticmethod
    def _take_uid(cfg: Configuration) -> int:
        uid = cfg.next_uid
        cfg.next_uid += 1
        return uid

    # -- stepping ------------------------------------------------------------

    def _busy(self, cfg: Configuration) -> list[int]:
        if cfg.busy is None:
            cfg.busy = [i for i, key in enumerate(self.channel_keys) if cfg.channels[key]]
        return cfg.busy

    def enabled_events(self, cfg: Configuration) -> list[Choice]:
        """Enabled events in ring-slot order: a delivery on every non-empty
        channel (read from ``Configuration.busy``), then the timeout."""
        slots = self.slots
        enabled: list[Choice] = [slots[i] for i in self._busy(cfg)]
        if timeout_ready(cfg, self.params.timeout):
            enabled.append((TIMEOUT,))
        return enabled

    def _enqueue(self, cfg: Configuration, sender: str,
                 sends: list[tuple[int, Message]], moves: list) -> list[str]:
        rendered = []
        dest = self.topo.ring.dest[sender]
        for out_ch, msg in sends:
            if isinstance(msg, ResT) and msg.uid < 0:
                msg = replace(msg, uid=self._take_uid(cfg))
            t = dest[out_ch]
            queue = cfg.channels[self.channel_keys[t]]
            if not queue:
                insort(self._busy(cfg), t)
            queue.append(msg)
            moves.append((t, msg, 1))
            rendered.append(f"{out_ch}:{msg}")
        return rendered

    def _local_pass(self, cfg: Configuration, pid: str, lines: list, entries: list,
                    transitions: list, moves: list) -> None:
        st = cfg.states[pid]
        old = st.state
        out = local_actions(st, self.pp[pid], cfg.app.release_cs(pid))
        if out.entered_cs:
            cfg.app.enter_cs(pid)
            entries.append(pid)
        if st.state != old:
            transitions.append((pid, old, st.state))
        if out.sends or out.entered_cs or st.state != old:
            sends = self._enqueue(cfg, pid, out.sends, moves)
            lines.append(
                f"step={cfg.step} proc={pid} event=local msg=actions ch=- "
                f"sends=[{','.join(sends)}]"
            )

    def execute_step(self, cfg: Configuration, policy, workload,
                     dirty: Iterable[str], tally: monitor.Tally) -> StepRecord:
        """Run one atomic step in place: the application phase (request
        arrivals, critical-section countdowns, then a local-action pass at
        each process that requested, finished its section or is ``dirty``,
        in ``process_ids`` order), then the event ``policy`` chooses, then
        the checks of the configuration produced, counted into ``tally``
        from what the step touched: the messages it took from or put into
        a channel, and the processes it woke or delivered to.  ``dirty``
        processes may have true guards already, as only a start no step
        produced can.

        The application phase can enable deliveries (a finished critical
        section releases tokens), so the policy chooses after it.  A choice
        of None or ``skip`` is an idle step: only the timers advance.
        """
        step = cfg.step
        lines: list[str] = []
        entries: list[str] = []
        requests: list[tuple[str, int]] = []
        transitions: list[tuple[str, str, str]] = []
        moves: list[tuple[int, Message, int]] = []
        woken = set(dirty)
        if workload is not None:
            due = workload.due(step, cfg.states)
            woken.update(apply_workload(due, cfg.app, cfg.states))
            for ev in due:
                requests.append((ev.process, ev.need))
                transitions.append((ev.process, OUT, REQ))
                lines.append(
                    f"step={step} proc={ev.process} event=local "
                    f"msg=request{{need={ev.need}}} ch=- sends=[]"
                )
        woken.update(cfg.app.tick())
        for pid in sorted(woken, key=self.topo.ring.order.__getitem__):
            self._local_pass(cfg, pid, lines, entries, transitions, moves)

        choice = policy.choose(self.enabled_events(cfg), self.slots)
        restart = False
        traversal_end = None
        if choice is not None and choice[0] != SKIP:
            if choice[0] == DELIVER:
                _, pid, ch = choice
                t = self.topo.ring.slot[pid][ch]
                queue = cfg.channels[(pid, ch)]
                msg = queue.popleft()
                if not queue:
                    busy = self._busy(cfg)
                    del busy[bisect_left(busy, t)]
                moves.append((t, msg, -1))
                out = dispatch(cfg.states[pid], ch, msg, self.pp[pid])
                event = f"event=deliver msg={msg} ch={ch}"
            else:
                pid = self.topo.root
                out = on_timeout_root(cfg.states[pid], self.pp[pid])
                event = "event=timeout msg=- ch=-"
            traversal_end = out.traversal_end
            restart = out.restart_timer
            sends = self._enqueue(cfg, pid, out.sends, moves)
            lines.append(f"step={step} proc={pid} {event} sends=[{','.join(sends)}]")
            self._local_pass(cfg, pid, lines, entries, transitions, moves)
            woken.add(pid)

        cfg.timer = 0 if restart else cfg.timer + 1
        cfg.step += 1
        census, legit, violations = monitor.step_checks(tally, cfg, moves, woken)
        return StepRecord(step, tuple(lines), census, legit, tuple(entries),
                          tuple(requests), tuple(transitions), traversal_end,
                          violations, choice == (TIMEOUT,))

    def step(self, cfg: Configuration, choice: Choice, workload=None) -> Configuration:
        """Functional stepping, passing over every process: returns the
        successor configuration, leaving the input untouched.  ``choice``
        must be enabled once the application phase has run, or be ``skip``."""
        nxt = cfg.clone()
        self.execute_step(nxt, ReplayPolicy([choice]), workload, self.topo.process_ids,
                          self.tally(nxt))
        return nxt

    def _anything_pending(self, cfg: Configuration, workload) -> bool:
        """False only when nothing can ever happen again: channels drained,
        the timer disabled, no critical section running down, and the
        workload out of events."""
        if self.params.timeout is not None:
            return True  # the timer will eventually fire
        if self._busy(cfg):
            return True
        if any(0 < left != float("inf") for left in cfg.app.remaining.values()):
            return True
        if workload is not None and not workload.exhausted(cfg.step):
            return True
        return False

    def run(self, cfg0: Configuration, policy, budget: int, workload=None,
            stop: Callable[[list[StepRecord], Configuration], bool] | None = None,
            observer: Callable[[Configuration, StepRecord], None] | None = None,
            ) -> Trace:
        """Execute up to ``budget`` steps from a copy of ``cfg0``; only the
        first step passes over every process, and the checks of each step
        count again only what it touched (``monitor.step_checks``).

        The trace records one entry per executed step with the census,
        legitimacy verdict, and any safety violations of the configuration
        the step produced.  Ends early on quiescence (nothing can ever
        happen again), on a replay running dry, or when ``stop`` says so.
        """
        cfg = cfg0.clone()
        tally = self.tally(cfg)
        census0, legit0, violations0 = monitor.step_checks(tally, cfg, (), self.topo.process_ids)
        trace = Trace(
            records=[],
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
        for _ in range(budget):
            if isinstance(policy, ReplayPolicy) and policy.exhausted():
                trace.ended = "replay-exhausted"
                return trace
            if not self._anything_pending(cfg, workload):
                trace.ended = "quiescent"
                return trace
            rec = self.execute_step(cfg, policy, workload,
                                    () if trace.records else self.topo.process_ids, tally)
            trace.records.append(rec)
            if observer is not None:
                observer(cfg, rec)
            if stop is not None and stop(trace.records, cfg):
                trace.ended = "stopped"
                return trace
        trace.ended = "budget"
        return trace
