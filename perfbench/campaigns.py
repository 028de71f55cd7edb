"""The benchmark's three campaigns over the klexsim library.

A campaign is a fixed list of simulation runs made from the seed argument,
plus the verdicts each run gets afterwards and the rule that says whether
the run failed.  Every draw (topology, fault injection, scheduling policy,
request workload) is shifted by ``SEED_SHIFT * seed``; seed 0 reproduces the
draws of the acceptance campaigns these workloads are modelled on.

The library is always called through its module attributes
(``simnet.Simulator``, ``monitor.check_safety``, ...) so that the tracer's
wrappers see every call.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from klexsim import appmodel, monitor, simnet, topology

SEED_SHIFT = 1000

# Run counts and lengths.  "full" is what the benchmark measures; "tiny" is
# for the smoke check and exercises every code path in about a second.
SIZES = {
    "full": {
        "converge_runs": 400,
        "scale_steps": {4: 60_000, 10: 40_000, 40: 15_000, 160: 5_000},
        "contend_blocks": 40,
    },
    "tiny": {
        "converge_runs": 6,
        "scale_steps": {4: 300, 10: 200, 40: 75, 160: 25},
        "contend_blocks": 3,
    },
}

# converge: the acceptance convergence campaign's timeout and budgets, in
# traversal allowances
CONVERGE_TIMEOUT = 3
CONVERGE_BUDGET = 50
CONVERGE_STREAK = 5

# contend: the canonical waiting-time block with the root among the requesters
CONTEND_TIMEOUT = 20
CONTEND_LAST_REQUEST = 70
CONTEND_BUDGET = 90


@dataclass
class Run:
    """One simulation run: built during set-up, executed once per pass."""

    label: str
    sim: simnet.Simulator
    start: simnet.Configuration
    budget: int
    policy: Callable[[], object]
    workload: Callable[[], object] | None = None
    stop: Callable[[], object] | None = None

    @property
    def n(self) -> int:
        return self.sim.topo.n

    @property
    def ell(self) -> int:
        return self.sim.params.ell

    def execute(self, observer=None) -> simnet.Trace:
        return self.sim.run(
            self.start, self.policy(), self.budget,
            workload=self.workload() if self.workload else None,
            stop=self.stop() if self.stop else None,
            observer=observer,
        )


@dataclass
class Outcome:
    """Verdicts of one run: whether it failed, why, and what they computed."""

    failed: bool
    reasons: list[str]
    summary: tuple  # every verdict value, hashed into the output digest
    stabilization: int | None = None
    wait_ratio: float | None = None


class LegitStreakStop:
    """Stop a run once legitimacy has held for ``window`` steps."""

    def __init__(self, window: int):
        self.window = window
        self.streak = 0

    def __call__(self, records, cfg) -> bool:
        self.streak = self.streak + 1 if records[-1].legit else 0
        return self.streak >= self.window


def make_policy(index: int, seed: int) -> Callable[[], object]:
    """Round-robin on even indices, seeded uniform choice on odd ones."""
    if index % 2 == 0:
        return simnet.RoundRobinPolicy
    return lambda: simnet.RandomPolicy(seed)


# --------------------------------------------------------------------------
# converge: recovery from arbitrary configurations
# --------------------------------------------------------------------------

def draw_params(draw: int) -> tuple[int, int, int, int]:
    """n 2..10, k <= ell 1..5, cmax 0..3, as the acceptance campaign draws them."""
    rng = random.Random(draw * 7919 + 13)
    n = rng.randint(2, 10)
    ell = rng.randint(1, 5)
    k = rng.randint(1, ell)
    cmax = rng.randint(0, 3)
    return n, k, ell, cmax


def build_converge(seed: int, size: str) -> list[Run]:
    runs = []
    for j in range(SIZES[size]["converge_runs"]):
        draw = j + SEED_SHIFT * seed
        n, k, ell, cmax = draw_params(draw)
        topo = topology.random_tree(draw, n)
        allowance = simnet.traversal_allowance(topo, ell, cmax)
        sim = simnet.Simulator(topo, simnet.SimParams(
            k=k, ell=ell, cmax=cmax, timeout=CONVERGE_TIMEOUT * allowance,
        ))
        runs.append(Run(
            label=f"seed={draw}",
            sim=sim,
            start=sim.inject_arbitrary(draw),
            budget=CONVERGE_BUDGET * allowance,
            policy=make_policy(draw, draw),
            stop=lambda w=CONVERGE_STREAK * allowance: LegitStreakStop(w),
        ))
    return runs


def judge_converge(run: Run, trace: simnet.Trace) -> Outcome:
    """Fails unless the run stabilizes within budget with no closure
    regression, no post-stabilization safety violation and no duplicated
    unit anywhere."""
    stab = monitor.stabilization_time(trace)
    regressions = monitor.closure_regressions(trace)
    safety = monitor.check_safety(trace)
    reasons = []
    if stab is None:
        reasons.append("not stabilized within budget")
    if regressions:
        reasons.append(f"{regressions} closure regressions")
    if not safety.passed:
        reasons.append(f"{len(safety.post_stabilization)} post-stabilization violations")
    if any("duplicated" in v for v in safety.pre_stabilization + safety.post_stabilization):
        reasons.append("duplicated unit")
    summary = (stab, regressions, safety.passed,
               tuple(safety.pre_stabilization), tuple(safety.post_stabilization))
    return Outcome(bool(reasons), reasons, summary, stabilization=stab)


# --------------------------------------------------------------------------
# scale: long legitimate runs on growing trees
# --------------------------------------------------------------------------

SCALE_ELL, SCALE_K, SCALE_CMAX = 3, 2, 1


def build_scale(seed: int, size: str) -> list[Run]:
    runs = []
    for n, steps in SIZES[size]["scale_steps"].items():
        topo = topology.random_tree(n + SEED_SHIFT * seed, n)
        sim = simnet.Simulator(topo, simnet.SimParams(
            k=SCALE_K, ell=SCALE_ELL, cmax=SCALE_CMAX,
            timeout=simnet.default_timeout(topo, SCALE_ELL, SCALE_CMAX),
        ))
        runs.append(Run(
            label=f"n={n}",
            sim=sim,
            start=sim.initial_configuration(),
            budget=steps,
            policy=simnet.RoundRobinPolicy,
        ))
    return runs


def judge_scale(run: Run, trace: simnet.Trace) -> Outcome:
    """Fails unless every configuration, the initial one included, is
    legitimate (which also rules out every safety violation) for the whole
    step budget."""
    stab = monitor.stabilization_time(trace)
    reasons = [] if stab == 0 else ["not legitimate throughout"]
    if len(trace.records) != run.budget:
        reasons.append(f"ended after {len(trace.records)} of {run.budget} steps")
    return Outcome(bool(reasons), reasons, (stab, trace.ended))


# --------------------------------------------------------------------------
# contend: request traffic from a legitimate start, root included
# --------------------------------------------------------------------------

def build_contend(seed: int, size: str) -> list[Run]:
    runs = []
    for i in range(SIZES[size]["contend_blocks"]):
        draw = 7000 + i + SEED_SHIFT * seed
        topo = topology.random_tree(draw, 3 + i % 7)
        ell = 1 + i % 5
        k = 1 + i % ell if ell > 1 else 1
        allowance = simnet.traversal_allowance(topo, ell, 1)
        sim = simnet.Simulator(topo, simnet.SimParams(
            k=k, ell=ell, cmax=1, timeout=CONTEND_TIMEOUT * allowance,
        ))
        runs.append(Run(
            label=f"block={i}",
            sim=sim,
            start=sim.initial_configuration(),
            budget=CONTEND_BUDGET * allowance,
            policy=make_policy(i, i + SEED_SHIFT * seed),
            workload=lambda topo=topo, k=k, draw=draw, last=CONTEND_LAST_REQUEST * allowance:
                appmodel.RandomWorkload(
                    list(topo.process_ids), k=k, seed=draw, rate=0.08,
                    max_duration=6, last_step=last,
                ),
        ))
    return runs


def judge_contend(run: Run, trace: simnet.Trace) -> Outcome:
    """Every run starts legitimate, so any safety violation, forbidden state
    transition or request starved at quiescence fails it."""
    fairness = monitor.check_fairness(trace)
    requests = monitor.collect_requests(trace)
    observations = monitor.traversal_observations(trace)
    safety = monitor.check_safety(trace, 0)
    reasons = []
    if safety.post_stabilization:
        reasons.append(f"{len(safety.post_stabilization)} safety violations")
    if not fairness.passed and not fairness.inconclusive:
        reasons.append(f"{len(fairness.starvations)} requests starved at quiescence")
    waits = [r.waiting for r in requests if r.waiting is not None]
    bound = monitor.waiting_time_bound(run.n, run.ell)
    summary = (
        fairness.passed, fairness.inconclusive, fairness.max_waiting,
        tuple((r.process, r.step_requested, r.need, r.step_entered, r.waiting)
              for r in requests),
        tuple((o.record_index, o.res_total, o.prio_total, o.push_total,
               o.arriving_r, o.new_reset, o.clean) for o in observations),
        tuple(safety.post_stabilization),
    )
    return Outcome(bool(reasons), reasons, summary,
                   wait_ratio=max(waits, default=0) / bound)


CAMPAIGNS = {
    "converge": (build_converge, judge_converge),
    "scale": (build_scale, judge_scale),
    "contend": (build_contend, judge_contend),
}


# --------------------------------------------------------------------------
# Output digest and exact counts
# --------------------------------------------------------------------------

def digest_run(h, run: Run, trace: simnet.Trace, outcome: Outcome,
               counts: Counter) -> None:
    """Hash the run's trace lines and verdicts into ``h`` and add its exact
    event counts, read from the trace, to ``counts``."""
    h.update(f"run {run.label} ended={trace.ended}\n".encode())
    for line in trace.lines():
        h.update(line.encode())
        h.update(b"\n")
        fields = line.split(" ", 5)
        event = fields[2]
        if event == "event=deliver":
            msg = fields[3][4:]
            species = msg[:4].lower() if msg.startswith("Ctrl") else msg[:-1].lower()
            counts[f"deliveries.{species}"] += 1
            if species == "ctrl" and fields[5] == "sends=[]":
                counts["ctrl_dropped"] += 1
        elif event == "event=timeout":
            counts["timeouts"] += 1
    h.update(repr(outcome.summary).encode())
    h.update(b"\n")

    records = trace.records
    counts["steps"] += len(records)
    counts["step_checks"] += 1 + len(records)
    counts["legit"] += trace.initial_legit + sum(rec.legit for rec in records)
    counts["violation_steps"] += bool(trace.initial_violations) + sum(
        bool(rec.violations) for rec in records)
    counts["requests"] += sum(len(rec.requests) for rec in records)
    counts["cs_entries"] += sum(len(rec.entries) for rec in records)
    for rec in records:
        te = rec.traversal_end
        if te is None:
            continue
        counts["wraps"] += 1
        counts["resets"] += te.new_reset
        if not te.new_reset:
            counts["mints"] += ((te.prio_total < 1) + max(0, run.ell - te.res_total)
                                + (te.push_total < 1))
