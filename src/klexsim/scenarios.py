"""Built-in regression scenarios: the deadlock and livelock failure modes.

Both scenarios run a diagnostic variant with part of the token complement
suppressed, reproducing the failure the missing token species exists to
prevent, and a full-complement variant showing the complete protocol
resolving the same workload.

Deadlock: five resource units, four greedy requesters each wanting three.
With only resource tokens in play the units split so nobody reaches three,
every token sits reserved, and the network goes quiet forever.  The pusher
breaks exactly this: it forces non-enabled processes to give their hoard
back.

Livelock: 2-out-of-3 exclusion on a three-process star.  The root and leaf
b repeatedly request one unit each and always win; the pusher keeps
stripping leaf a of its partial hoard of two, in a schedule that returns
the network to its starting configuration.  The priority token breaks the
cycle by shielding a from the pusher until it is served.  The losing
schedule is interleaving-exact, so it runs under an explicit replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .appmodel import RepeatingWorkload, Workload, WorkloadEvent
from .monitor import check_fairness
from .protocol import SAT, PrioT, PushT, ResT
from .simnet import (
    Configuration,
    ReplayPolicy,
    RoundRobinPolicy,
    SimParams,
    Simulator,
    default_timeout,
)
from .topology import parse_topology

FIGURE_NAMES = ("fig2-deadlock", "fig3-livelock")

DEADLOCK_TOPOLOGY = """\
n 5 root r
r: a
a: r b
b: a c
c: b d
d: c
"""

LIVELOCK_TOPOLOGY = """\
n 3 root r
r: a b
a: r
b: r
"""


@dataclass
class FigureResult:
    name: str
    reproduced: bool  # the diagnostic variant shows the failure
    recovered: bool  # the full complement satisfies every request
    detail: str


# --------------------------------------------------------------------------
# Deadlock (five units, four greedy requesters, pusher suppressed)
# --------------------------------------------------------------------------

DEADLOCK_K = 3
DEADLOCK_BUDGET = 6000


def deadlock_simulator(timeout: int | None) -> Simulator:
    topo = parse_topology(DEADLOCK_TOPOLOGY)
    return Simulator(topo, SimParams(k=DEADLOCK_K, ell=5, cmax=3, timeout=timeout))


def deadlock_workload() -> Workload:
    return Workload(
        [WorkloadEvent(0, p, 3, 5) for p in ("a", "b", "c", "d")], k=DEADLOCK_K
    )


def deadlock_config(sim: Simulator) -> Configuration:
    """Only the five resource tokens, placed so the greedy requesters split
    them 2/1/1/1; no pusher, no priority token, no controller."""
    cfg = sim.empty_configuration()
    for key, count in ((("a", 0), 2), (("b", 0), 1), (("c", 0), 1), (("d", 0), 1)):
        for _ in range(count):
            cfg.channels[key].append(ResT())
    return cfg


def run_deadlock_figure() -> FigureResult:
    # diagnostic: pusher suppressed, timeout disabled so nothing can recover
    sim = deadlock_simulator(timeout=None)
    trace = sim.run(
        deadlock_config(sim), RoundRobinPolicy(), DEADLOCK_BUDGET,
        workload=deadlock_workload(),
    )
    fairness = check_fairness(trace)
    reproduced = (
        not fairness.passed
        and not fairness.inconclusive
        and len(fairness.starvations) == 4
        and trace.records[-1].census.res_tokens == 5
    )

    # full complement: same workload, tokens plus pusher/priority/controller
    topo = sim.topo
    sim_full = deadlock_simulator(timeout=default_timeout(topo, 5, 3))
    trace_full = sim_full.run(
        sim_full.initial_configuration(), RoundRobinPolicy(), DEADLOCK_BUDGET,
        workload=deadlock_workload(),
    )
    fairness_full = check_fairness(trace_full)
    recovered = fairness_full.passed

    detail = (
        f"diagnostic ended={trace.ended} starved={len(fairness.starvations)}; "
        f"full-complement satisfied "
        f"{sum(1 for r in fairness_full.requests if r.step_entered is not None)}"
        f"/{len(fairness_full.requests)} requests"
    )
    return FigureResult("fig2-deadlock", reproduced, recovered, detail)


# --------------------------------------------------------------------------
# Livelock (2-out-of-3 on a star, priority token suppressed)
# --------------------------------------------------------------------------

ROOT_CS_STEPS = 7
LEAF_CS_STEPS = 5
CYCLE = 8
LIVELOCK_K = 2
LIVELOCK_CYCLES = 6
LIVELOCK_BUDGET = 4000


def livelock_simulator(timeout: int | None) -> Simulator:
    topo = parse_topology(LIVELOCK_TOPOLOGY)
    return Simulator(topo, SimParams(k=LIVELOCK_K, ell=3, cmax=2, timeout=timeout))


def livelock_workload() -> RepeatingWorkload:
    return RepeatingWorkload(
        {"r": (1, ROOT_CS_STEPS), "a": (2, math.inf), "b": (1, LEAF_CS_STEPS)},
        k=LIVELOCK_K,
    )


def livelock_config(sim: Simulator, with_priority: bool) -> Configuration:
    """One resource token inbound at every process, the pusher trailing the
    token headed for the root; controller suppressed.

    The root's saturating count registers are preset to their fixpoints so
    the cycle reproduces the starting configuration exactly (they would
    otherwise creep up for the first few laps and stop mattering).
    """
    cfg = sim.empty_configuration()
    cfg.channels[("r", 0)].append(ResT())
    cfg.channels[("r", 0)].append(PushT())
    cfg.channels[("a", 0)].append(ResT())
    cfg.channels[("b", 0)].append(ResT())
    if with_priority:
        cfg.channels[("a", 0)].append(PrioT())
    root = cfg.states["r"]
    root.stoken = sim.params.ell + 1
    root.spush = SAT
    return cfg


def livelock_replay(cycles: int) -> list[int]:
    """The losing interleaving, as ring slots of the livelock topology:
    collect, push around the ring, strip a, recirculate.  One cycle is eight
    deliveries; requesters re-arm and critical sections expire on the right
    steps without any skips."""
    slot = parse_topology(LIVELOCK_TOPOLOGY).ring.slot
    one_cycle = [
        slot["r"][0],  # root collects, enters CS
        slot["a"][0],  # a reserves one of the two units it needs
        slot["b"][0],  # b collects, enters CS
        slot["r"][0],  # pusher: root is in CS, passes it to b
        slot["b"][0],  # pusher: b in CS, passes it back to the root
        slot["r"][1],  # pusher: root still in CS, passes it to a
        slot["a"][0],  # pusher strips a; both CS holders are leaving
        slot["r"][1],  # root (now idle) relays b's released unit to a
    ]
    return one_cycle * cycles


def run_livelock_figure() -> FigureResult:
    # diagnostic: priority suppressed, exact replay; the network must return
    # to an earlier configuration while a's request stays unsatisfied
    sim = livelock_simulator(timeout=None)
    fingerprints: list[tuple] = []
    trace = sim.run(
        livelock_config(sim, with_priority=False),
        ReplayPolicy(livelock_replay(LIVELOCK_CYCLES)),
        LIVELOCK_CYCLES * CYCLE,
        workload=livelock_workload(),
        observer=lambda cfg, rec: fingerprints.append(cfg.fingerprint()),
    )
    a_entered = any("a" in rec.entries for rec in trace.records)
    cycle_found = None
    seen: dict[tuple, int] = {}
    for i, fp in enumerate(fingerprints):
        if fp in seen:
            cycle_found = (seen[fp], i)
            break
        seen[fp] = i
    reproduced = cycle_found is not None and not a_entered

    # priority restored: same token layout plus the priority token, fair
    # scheduling; a must be served
    sim2 = livelock_simulator(timeout=None)
    trace2 = sim2.run(
        livelock_config(sim2, with_priority=True),
        RoundRobinPolicy(),
        LIVELOCK_BUDGET,
        workload=livelock_workload(),
    )
    recovered = any("a" in rec.entries for rec in trace2.records)

    detail = (
        f"replay cycle {cycle_found[0]}->{cycle_found[1]}"
        if cycle_found else "no configuration repeat found"
    )
    detail += (
        f", a starved={not a_entered}; with priority token a served={recovered}"
    )
    return FigureResult("fig3-livelock", reproduced, recovered, detail)


def run_figure(name: str) -> FigureResult:
    if name == "fig2-deadlock":
        return run_deadlock_figure()
    if name == "fig3-livelock":
        return run_livelock_figure()
    raise ValueError(f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}")
