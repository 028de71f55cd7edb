"""Acceptance suite: the protocol's correctness claims, checked end to end.

Each test prints one PASS line (run with ``pytest -s`` to see them).  The
convergence and closure criteria sweep 1000 arbitrary initial
configurations; counting criteria accumulate tens of thousands of
controller traversals; the waiting-time criterion reports its observed
maximum against the analytic worst case.
"""

import math
import random

import pytest

from klexsim.appmodel import RandomWorkload, Workload, WorkloadEvent
from klexsim.monitor import (
    LivenessScenario,
    check_fairness,
    check_kl_liveness,
    check_safety,
    closure_regressions,
    collect_requests,
    stabilization_time,
    traversal_observations,
    waiting_time_bound,
)
from klexsim.protocol import PrioT, PushT, ResT
from klexsim.scenarios import run_deadlock_figure, run_livelock_figure
from klexsim.simnet import (
    RandomPolicy,
    RoundRobinPolicy,
    SimParams,
    Simulator,
    traversal_allowance,
)
from klexsim.topology import parse_topology, random_tree

CONVERGENCE_SEEDS = 1000
FAIRNESS_SEEDS = 100
LIVENESS_SCENARIOS = 20
MIN_TRAVERSAL_ENDS = 10_000

# campaign timeout: a few traversal allowances, small enough that lost-token
# recovery fits the 50-allowance budget, large enough that a stabilized
# traversal never triggers it
CAMPAIGN_TIMEOUT_ALLOWANCES = 3


def draw_params(seed: int):
    rng = random.Random(seed * 7919 + 13)
    n = rng.randint(2, 10)
    ell = rng.randint(1, 5)
    k = rng.randint(1, ell)
    cmax = rng.randint(0, 3)
    return n, k, ell, cmax


def campaign_sim(seed: int):
    n, k, ell, cmax = draw_params(seed)
    topo = random_tree(seed, n)
    allowance = traversal_allowance(topo, ell, cmax)
    sim = Simulator(topo, SimParams(
        k=k, ell=ell, cmax=cmax,
        timeout=CAMPAIGN_TIMEOUT_ALLOWANCES * allowance,
    ))
    return sim, allowance


def policy_for(seed: int):
    return RoundRobinPolicy() if seed % 2 == 0 else RandomPolicy(seed)


class LegitStreakStop:
    """Stop a run once legitimacy has held for the closure window."""

    def __init__(self, window: int):
        self.window = window
        self.streak = 0

    def __call__(self, records, cfg) -> bool:
        self.streak = self.streak + 1 if records[-1].legit else 0
        return self.streak >= self.window


@pytest.fixture(scope="module")
def convergence_runs():
    """Shared criterion-1 sweep; criteria 2 and 9 reuse its verdicts."""
    results = []
    for seed in range(CONVERGENCE_SEEDS):
        sim, allowance = campaign_sim(seed)
        budget = 50 * allowance
        trace = sim.run(
            sim.inject_arbitrary(seed), policy_for(seed), budget,
            stop=LegitStreakStop(5 * allowance),
        )
        results.append({
            "seed": seed,
            "stabilization": stabilization_time(trace),
            "budget": budget,
            "regressions": closure_regressions(trace),
            "safety": check_safety(trace),
            "steps": len(trace.records),
        })
    return results


def test_criterion_1_convergence(convergence_runs):
    unconverged = [r["seed"] for r in convergence_runs if r["stabilization"] is None]
    assert unconverged == [], f"seeds never stabilized: {unconverged[:10]}"
    worst = max(r["stabilization"] / r["budget"] for r in convergence_runs)
    print(f"\nACCEPTANCE 1 convergence: PASS "
          f"({len(convergence_runs)} arbitrary configurations all stabilized; "
          f"worst used {worst:.1%} of the step budget)")


def test_criterion_2_closure_and_safety(convergence_runs):
    regressing = [r["seed"] for r in convergence_runs if r["regressions"]]
    unsafe = [r["seed"] for r in convergence_runs if not r["safety"].passed]
    assert regressing == [], f"legitimacy regressed in seeds {regressing[:10]}"
    assert unsafe == [], f"post-stabilization safety violations in {unsafe[:10]}"
    # a duplicated unit identity would be a handler bug and is never
    # acceptable, not even before stabilization
    dups = [
        r["seed"] for r in convergence_runs
        if any("duplicated" in v for v in
               r["safety"].pre_stabilization + r["safety"].post_stabilization)
    ]
    assert dups == [], f"resource unit duplicated in seeds {dups[:10]}"
    pre = sum(len(r["safety"].pre_stabilization) > 0 for r in convergence_runs)
    print(f"\nACCEPTANCE 2 closure: PASS (0 regressions, 0 post-stabilization "
          f"violations; {pre} runs had expected pre-stabilization violations)")


def test_criterion_3_controller_counting_oracle():
    topologies = [
        (parse_topology("n 2 root r\nr: a\na: r\n"), 60_000),
        (parse_topology("n 3 root r\nr: a b\na: r\nb: r\n"), 60_000),
        (parse_topology("n 5 root r\nr: a\na: r b\nb: a c\nc: b d\nd: c\n"), 40_000),
    ] + [(random_tree(900 + i, 4 + i % 6), 14_000) for i in range(6)]
    checked = 0
    for i, (topo, budget) in enumerate(topologies):
        ell = 2 + i % 4
        k = 1 + i % ell if ell > 1 else 1
        sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                        timeout=20 * traversal_allowance(topo, ell, 1)))
        workload = RandomWorkload(
            topo.process_ids, k=k, seed=1000 + i, rate=0.04, max_duration=6,
        )
        trace = sim.run(sim.initial_configuration(), policy_for(i), budget,
                        workload=workload)
        obs = traversal_observations(trace)
        assert len(obs) > 100, f"topology {i} produced too few traversals"
        assert any(topo.root in rec.entries for rec in trace.records)
        for o in obs:
            assert not o.new_reset and not o.arriving_r
            assert o.res_total <= ell
            assert o.res_total == o.census_before.res_tokens == ell
            assert o.prio_total == o.census_before.prio_tokens == 1
            assert o.push_total == o.census_before.push_tokens == 1
        checked += len(obs)
    assert checked >= MIN_TRAVERSAL_ENDS
    print(f"\nACCEPTANCE 3 counting oracle: PASS ({checked} traversal ends, "
          f"all exact matches against the brute-force census)")


def test_criterion_4_reset_flush():
    flushes = 0
    runs_with_reset = 0
    for seed in range(80):
        rng = random.Random(seed)
        topo = random_tree(seed, rng.randint(2, 8))
        ell = rng.randint(1, 4)
        k = rng.randint(1, ell)
        allowance = traversal_allowance(topo, ell, 2)
        sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=2,
                                        timeout=3 * allowance))
        cfg = sim.initial_configuration()
        # token-population fault: extra tokens force an overflow and a reset
        keys = sim.channel_keys
        for _ in range(rng.randint(1, 4)):
            cfg.channels[keys[rng.randrange(len(keys))]].append(ResT())
        if rng.random() < 0.5:
            cfg.channels[keys[rng.randrange(len(keys))]].append(PushT())
        if rng.random() < 0.5:
            cfg.channels[keys[rng.randrange(len(keys))]].append(PrioT())
        sim.stamp_uids(cfg)
        trace = sim.run(cfg, policy_for(seed), 30 * allowance,
                        stop=LegitStreakStop(3 * allowance))
        obs = traversal_observations(trace)
        resets = [o for o in obs if o.arriving_r]
        if resets:
            runs_with_reset += 1
        for o in resets:
            if not o.clean:
                continue
            assert o.census_before.species() == (0, 0, 0), (
                f"seed {seed}: reset traversal ended with "
                f"{o.census_before.species()} tokens left"
            )
            flushes += 1
        assert stabilization_time(trace) is not None
    assert runs_with_reset >= 60
    assert flushes >= 60
    print(f"\nACCEPTANCE 4 reset flush: PASS ({flushes} flush traversals, "
          f"each ending with zero tokens before replenishment)")


@pytest.fixture(scope="module")
def fairness_runs():
    results = []
    for seed in range(FAIRNESS_SEEDS):
        n, k, ell, cmax = draw_params(seed + 5000)
        topo = random_tree(seed + 5000, n)
        allowance = traversal_allowance(topo, ell, cmax)
        sim = Simulator(topo, SimParams(
            k=k, ell=ell, cmax=cmax,
            timeout=CAMPAIGN_TIMEOUT_ALLOWANCES * allowance,
        ))
        budget = 60 * allowance
        workload = RandomWorkload(
            list(topo.process_ids), k=k, seed=seed, rate=0.02,
            max_duration=8, last_step=30 * allowance,
        )
        trace = sim.run(sim.inject_arbitrary(seed + 5000), policy_for(seed),
                        budget, workload=workload)
        results.append({
            "seed": seed,
            "topo_n": topo.n,
            "ell": ell,
            "stabilization": stabilization_time(trace),
            "fairness": check_fairness(trace),
            "requests": collect_requests(trace),
        })
    return results


def test_criterion_5_fairness(fairness_runs):
    starved = [
        (r["seed"], s.process)
        for r in fairness_runs
        for s in r["fairness"].starvations
    ]
    assert starved == [], f"unsatisfied requests: {starved[:10]}"
    total = sum(len(r["requests"]) for r in fairness_runs)
    assert total > FAIRNESS_SEEDS  # the workload actually generated load
    print(f"\nACCEPTANCE 5 fairness: PASS ({len(fairness_runs)} seeds, "
          f"{total} requests, every one satisfied, 0 starvations)")


def test_criterion_6_waiting_time_bound(fairness_runs):
    worst_ratio = 0.0
    max_wait = 0
    counted = 0

    def tally(requests, stab, bound, label):
        nonlocal worst_ratio, max_wait, counted
        for req in requests:
            # configuration index reached by the arming step
            if req.step_requested + 1 < stab or req.waiting is None:
                continue
            counted += 1
            assert req.waiting <= bound, (
                f"{label}: waited {req.waiting} > bound {bound}"
            )
            worst_ratio = max(worst_ratio, req.waiting / bound)
            max_wait = max(max_wait, req.waiting)

    for r in fairness_runs:
        if r["stabilization"] is None:
            continue
        tally(r["requests"], r["stabilization"],
              waiting_time_bound(r["topo_n"], r["ell"]), f"seed {r['seed']}")

    # stabilized-regime coverage: canonical starts under heavy contention
    # (every process requests, the root included)
    for i in range(10):
        topo = random_tree(7000 + i, 3 + i % 7)
        ell = 1 + i % 5
        k = 1 + i % ell if ell > 1 else 1
        allowance = traversal_allowance(topo, ell, 1)
        sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                        timeout=20 * allowance))
        workload = RandomWorkload(
            topo.process_ids, k=k, seed=7000 + i, rate=0.08, max_duration=6,
            last_step=70 * allowance,
        )
        trace = sim.run(sim.initial_configuration(), policy_for(i),
                        90 * allowance, workload=workload)
        assert stabilization_time(trace) == 0
        assert any(topo.root in rec.entries for rec in trace.records)
        tally(collect_requests(trace), 0,
              waiting_time_bound(topo.n, ell), f"canonical run {i}")

    assert counted > 1000
    print(f"\nACCEPTANCE 6 waiting time: PASS ({counted} post-stabilization "
          f"requests; max waiting {max_wait}, worst ratio to the analytic "
          f"bound {worst_ratio:.3f})")


def test_criterion_7_kl_liveness():
    passed = root_pinned = 0
    for case in range(LIVENESS_SCENARIOS):
        rng = random.Random(9000 + case)
        topo = random_tree(9000 + case, rng.randint(3, 8))
        ell = rng.randint(2, 5)
        k = rng.randint(1, ell)
        procs = list(topo.process_ids)
        rng.shuffle(procs)
        pinned = {}
        alpha = 0
        for p in procs[: rng.randint(1, 2)]:
            units = rng.randint(1, min(k, ell - alpha - 1)) if ell - alpha > 1 else 0
            if units < 1:
                break
            pinned[p] = units
            alpha += units
        if not pinned:
            pinned = {procs[0]: 1}
            alpha = 1
        rest = [p for p in topo.process_ids if p not in pinned]
        requesters = {}
        for q in rest[: rng.randint(1, 3)]:
            requesters[q] = rng.randint(1, min(k, ell - alpha))
        scenario = LivenessScenario(pinned=pinned, requesters=requesters)
        scenario.validate(ell)
        root_pinned += topo.root in pinned

        events = [WorkloadEvent(0, p, u, math.inf) for p, u in pinned.items()]
        events += [WorkloadEvent(5, q, r, 3) for q, r in requesters.items()]
        allowance = traversal_allowance(topo, ell, 1)
        sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                        timeout=20 * allowance))
        trace = sim.run(sim.initial_configuration(), policy_for(case),
                        40 * allowance, workload=Workload(events, k))
        verdict = check_kl_liveness(scenario, trace)
        assert verdict.passed, (
            f"scenario {case}: no requester served "
            f"(pinned={pinned}, requesters={requesters}, ell={ell})"
        )
        passed += 1
    assert root_pinned, "no scenario pins the root in its critical section"
    print(f"\nACCEPTANCE 7 (k,l)-liveness: PASS ({passed} pinned-CS scenarios, "
          f"{root_pinned} with the root pinned; a requester outside the pinned "
          f"set was served in each)")


def test_criterion_8_figure_regressions():
    fig2 = run_deadlock_figure()
    assert fig2.reproduced, fig2.detail
    assert fig2.recovered, fig2.detail
    fig3 = run_livelock_figure()
    assert fig3.reproduced, fig3.detail
    assert fig3.recovered, fig3.detail
    print("\nACCEPTANCE 8 figures: PASS (deadlock quiesces without the pusher "
          "and resolves with it; livelock replay repeats its configuration "
          "without the priority token and is served with it)")


def test_criterion_9_determinism():
    for seed in (3, 17):
        texts = []
        for _ in range(2):
            sim, allowance = campaign_sim(seed)
            workload = RandomWorkload(list(sim.topo.process_ids),
                                      k=sim.params.k, seed=seed, rate=0.03)
            trace = sim.run(sim.inject_arbitrary(seed), policy_for(seed),
                            12 * allowance, workload=workload)
            texts.append(trace.text())
        assert texts[0] == texts[1], f"seed {seed}: traces differ"
        assert texts[0], "trace unexpectedly empty"
    print("\nACCEPTANCE 9 determinism: PASS (identical configurations "
          "reproduce byte-identical traces)")
