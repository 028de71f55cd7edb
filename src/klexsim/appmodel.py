"""Application side of the exclusion interface: requests and critical sections.

The application owns the Out -> Req transition (a workload event arms a
request); the protocol owns Req -> In (enough tokens reserved) and
In -> Out (critical section finished).  Critical-section time is measured
in scheduler steps so runs are deterministic; an infinite duration pins a
process in its critical section, which is how liveness scenarios hold
resource units forever.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .protocol import OUT, REQ, ProcessState
from .topology import TreeTopology, content_lines

INF = math.inf
DEFAULT_CS_STEPS = 1  # length of a critical section entered with no armed request


class ScenarioError(ValueError):
    """A workload description is malformed or events overlap."""


@dataclass(frozen=True)
class WorkloadEvent:
    at_step: int
    process: str
    need: int
    duration: float  # whole steps, or math.inf to pin the process in its CS

    def check(self, k: int) -> None:
        if self.at_step < 0:
            raise ScenarioError(f"event for {self.process!r}: negative step")
        if not 1 <= self.need <= k:
            raise ScenarioError(
                f"event for {self.process!r} at step {self.at_step}: "
                f"need {self.need} outside 1..{k}"
            )
        if self.duration != INF and (self.duration < 1 or int(self.duration) != self.duration):
            raise ScenarioError(
                f"event for {self.process!r} at step {self.at_step}: "
                f"duration must be a positive step count or inf"
            )


def _overlap(ev: WorkloadEvent, state: str) -> str:
    """The message for request ``ev`` landing on a process in ``state``."""
    return f"request for {ev.process!r} at step {ev.at_step} while its state is {state}"


class Workload:
    """A static request schedule, usually parsed from a scenario file.
    ``lines``, when given, is each event's line in that file, and an event
    that overlaps another or lands on a process that is not idle is
    reported at its line."""

    def __init__(self, events: list[WorkloadEvent], k: int, lines: list[int] | None = None):
        for ev in events:
            ev.check(k)
        order = sorted(range(len(events)),
                       key=lambda i: (events[i].at_step, events[i].process))
        self.events = [events[i] for i in order]
        self.lines = None if lines is None else [lines[i] for i in order]
        for i in range(1, len(self.events)):
            a, b = self.events[i - 1], self.events[i]
            if (a.at_step, a.process) == (b.at_step, b.process):
                raise ScenarioError(f"{self._where(i)}two events for {b.process!r} "
                                    f"at step {b.at_step}")
        self._cursor = 0

    def _where(self, i: int) -> str:
        """The prefix naming event ``i``'s line, if known."""
        return "" if self.lines is None else f"line {self.lines[i]}: "

    def due(self, step: int, states: dict[str, ProcessState]) -> list[WorkloadEvent]:
        """The events due by ``step``.  One landing on a process that
        ``states`` shows not idle is a scenario defect, reported here at its
        line (a process ``states`` leaves out is not checked)."""
        out = []
        while self._cursor < len(self.events) and self.events[self._cursor].at_step <= step:
            ev = self.events[self._cursor]
            st = states.get(ev.process)
            if st is not None and st.state != OUT:
                raise ScenarioError(self._where(self._cursor) + _overlap(ev, st.state))
            out.append(ev)
            self._cursor += 1
        return out

    def exhausted(self, step: int, states: dict[str, ProcessState]) -> bool:
        return self._cursor >= len(self.events)


class RandomWorkload:
    """Seeded request generator for convergence and fairness campaigns.

    Each step, every idle process issues a request with probability
    ``rate``; need is uniform in 1..k and duration uniform in
    1..max_duration.  Stops issuing after ``last_step`` so a run can
    drain.
    """

    def __init__(self, processes: list[str], k: int, seed: int,
                 rate: float = 0.05, max_duration: int = 10,
                 last_step: int | None = None):
        self.processes = list(processes)
        self.k = k
        self.rate = rate
        self.max_duration = max_duration
        self.last_step = last_step
        self._rng = random.Random(seed)

    def due(self, step: int, states: dict[str, ProcessState]) -> list[WorkloadEvent]:
        if self.last_step is not None and step > self.last_step:
            return []
        out = []
        for pid in self.processes:
            if states[pid].state != OUT:
                continue
            if self._rng.random() < self.rate:
                out.append(WorkloadEvent(
                    at_step=step,
                    process=pid,
                    need=self._rng.randint(1, self.k),
                    duration=self._rng.randint(1, self.max_duration),
                ))
        return out

    def exhausted(self, step: int, states: dict[str, ProcessState]) -> bool:
        return self.last_step is not None and step > self.last_step


class RepeatingWorkload:
    """Processes that re-request fixed amounts whenever they are idle.

    Deterministic and reactive: at each step every listed process that is
    back to Out immediately arms its request again.  This is the workload
    shape of repeated-contention scenarios.  It is out of events while no
    listed process is at Out, as only a process back at Out requests.
    """

    def __init__(self, specs: dict[str, tuple[int, float]], k: int):
        for pid, (need, duration) in specs.items():
            WorkloadEvent(0, pid, need, duration).check(k)
        self.specs = dict(specs)

    def due(self, step: int, states: dict[str, ProcessState]) -> list[WorkloadEvent]:
        out = []
        for pid, (need, duration) in self.specs.items():
            if states[pid].state == OUT:
                out.append(WorkloadEvent(step, pid, need, duration))
        return out

    def exhausted(self, step: int, states: dict[str, ProcessState]) -> bool:
        return all(states[pid].state != OUT for pid in self.specs)


@dataclass
class AppState:
    """Per-process critical-section bookkeeping.

    ``remaining`` is the live countdown: positive exactly while the process
    is in its critical section; the tick that finishes a section deletes
    its entry.  ``armed_duration`` holds the duration of
    the pending request, consumed when the protocol grants entry.  Entries
    with no armed request (possible from an arbitrary initial state) run
    for ``DEFAULT_CS_STEPS`` steps so they always terminate.
    """

    remaining: dict[str, float] = field(default_factory=dict)
    armed_duration: dict[str, float] = field(default_factory=dict)

    def enter_cs(self, pid: str) -> None:
        self.remaining[pid] = self.armed_duration.pop(pid, DEFAULT_CS_STEPS)

    def release_cs(self, pid: str) -> bool:
        return self.remaining.get(pid, 0) == 0

    def tick(self) -> list[str]:
        """Advance every running critical section one step; return the
        processes whose section just finished.  Their entries are deleted
        (a missing entry reads as 0), so a tick walks only running or
        pinned sections."""
        done = []
        remaining = self.remaining
        for pid, left in remaining.items():
            if left == INF or left <= 0:
                continue
            if left == 1:
                done.append(pid)
            else:
                remaining[pid] = left - 1
        for pid in done:
            del remaining[pid]
        return done


def apply_workload(events: list[WorkloadEvent], app: AppState,
                   states: dict[str, ProcessState]) -> None:
    """Fire due request events: Out -> Req with the requested need, the
    duration armed for the section.  The caller, which knows the events,
    wakes their processes (``simnet.Simulator.execute_step``).

    A request landing on a non-idle process means the scenario overlaps
    itself, which is a scenario defect, not a protocol fault.
    """
    for ev in events:
        st = states[ev.process]
        if st.state != OUT:
            raise ScenarioError(_overlap(ev, st.state))
        st.state = REQ
        st.need = ev.need
        app.armed_duration[ev.process] = ev.duration


def parse_scenario(text: str, k: int, topo: TreeTopology) -> Workload:
    """Parse a scenario file: one ``req <step> <process> <need> <duration|inf>``
    per line, each naming a process of ``topo``; blank lines and ``#``
    comments allowed."""
    events, lines = [], []
    for lineno, line in content_lines(text):
        parts = line.split()
        if len(parts) != 5 or parts[0] != "req":
            raise ScenarioError(f"line {lineno}: expected 'req <step> <process> <need> <duration|inf>'")
        try:
            step = int(parts[1])
            need = int(parts[3])
            duration = INF if parts[4] == "inf" else float(int(parts[4]))
        except ValueError:
            raise ScenarioError(f"line {lineno}: bad number in {line!r}") from None
        ev = WorkloadEvent(step, parts[2], need, duration)
        try:
            ev.check(k)
        except ScenarioError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        if ev.process not in topo.process_ids:
            raise ScenarioError(f"line {lineno}: unknown process {ev.process!r}")
        events.append(ev)
        lines.append(lineno)
    return Workload(events, k, lines)
