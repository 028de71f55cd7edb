"""Golden trace pins: refactors of the simulator or the monitor must keep
these seeded runs byte-identical.

Each case pins the sha256 of the trace text, ``trace.lines()`` each ended
by a newline (every scheduler event and local action, in order), the
sha256 of the monitor's per-configuration output (census, legitimacy,
violations), and a verdict summary.  A change
that moves any of them changes behaviour and must say so.  To print fresh
values after a deliberate behaviour change, run
``python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from klexsim import scenarios
from klexsim.appmodel import RandomWorkload
from klexsim.monitor import (
    check_fairness,
    check_safety,
    closure_regressions,
    stabilization_time,
)
from klexsim.simnet import (
    DELIVER,
    SKIP,
    TIMEOUT,
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SimParams,
    Simulator,
    default_timeout,
    traversal_allowance,
)
from klexsim.topology import random_tree

pytestmark = pytest.mark.pin


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def monitor_text(trace) -> str:
    rows = [(trace.initial_census, trace.initial_legit, trace.initial_violations)]
    rows += [(rec.census, rec.legit, rec.violations) for rec in trace.records]
    return "".join(f"{c.species()} {c.ctrl_tokens} {int(ok)} {list(v)}\n" for c, ok, v in rows)


def summary(trace) -> tuple:
    """(steps, ended, stabilization, regressions, safety passed, pre/post
    violations, requests, satisfied, max waiting, wraps, resets)."""
    stab = stabilization_time(trace)
    safety = check_safety(trace, stab)
    fairness = check_fairness(trace)
    wraps = [rec.traversal_end for rec in trace.records if rec.traversal_end]
    return (
        len(trace.records), trace.ended, stab, closure_regressions(trace),
        safety.passed, len(safety.pre_stabilization), len(safety.post_stabilization),
        len(fairness.requests),
        sum(1 for r in fairness.requests if r.step_entered is not None),
        fairness.max_waiting, len(wraps), sum(te.new_reset for te in wraps),
    )


def pin(trace) -> tuple:
    h = hashlib.sha256()
    for line in trace.lines():
        h.update((line + "\n").encode())
    return h.hexdigest(), sha(monitor_text(trace)), summary(trace)


def arbitrary_run(seed: int, policy: str, cmax: int):
    """Recovery from an arbitrary configuration on a small random tree."""
    n = 2 + seed % 6
    ell = 1 + seed % 4
    k = 1 + seed % ell
    topo = random_tree(seed, n)
    allowance = traversal_allowance(topo, ell, cmax)
    sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=cmax, timeout=3 * allowance))
    pol = RoundRobinPolicy() if policy == "rr" else RandomPolicy(seed)
    return sim.run(sim.inject_arbitrary(seed), pol, 12 * allowance)


def workload_run(seed: int, with_root: bool, policy: str):
    """Canonical start under seeded random requests; ``with_root`` puts the
    root among the requesters."""
    topo = random_tree(7000 + seed, 3 + seed % 5)
    ell = 1 + seed % 3
    k = 1 + seed % ell
    sim = Simulator(topo, SimParams(k=k, ell=ell, cmax=1,
                                    timeout=default_timeout(topo, ell, 1)))
    procs = [p for p in topo.process_ids if with_root or p != topo.root]
    allowance = traversal_allowance(topo, ell, 1)
    workload = RandomWorkload(procs, k, seed, rate=0.08, last_step=8 * allowance)
    pol = RoundRobinPolicy() if policy == "rr" else RandomPolicy(seed)
    return sim.run(sim.initial_configuration(), pol, 10 * allowance, workload=workload)


def deadlock_traces():
    diag = scenarios.deadlock_simulator(timeout=None)
    t1 = diag.run(scenarios.deadlock_config(diag), RoundRobinPolicy(), 6000,
                  workload=scenarios.deadlock_workload())
    full = scenarios.deadlock_simulator(timeout=default_timeout(diag.topo, 5, 3))
    t2 = full.run(full.initial_configuration(), RoundRobinPolicy(), 6000,
                  workload=scenarios.deadlock_workload())
    return t1, t2


def livelock_traces():
    diag = scenarios.livelock_simulator(timeout=None)
    t1 = diag.run(scenarios.livelock_config(diag, with_priority=False),
                  ReplayPolicy(scenarios.livelock_replay(6)), 6 * scenarios.CYCLE,
                  workload=scenarios.livelock_workload())
    full = scenarios.livelock_simulator(timeout=None)
    t2 = full.run(scenarios.livelock_config(full, with_priority=True),
                  RoundRobinPolicy(), 4000, workload=scenarios.livelock_workload())
    return t1, t2


def figure_pins() -> dict[str, tuple]:
    """Both variants of both figures, plus the verdicts the figures report."""
    got = {}
    for label, traces in (("deadlock", deadlock_traces()), ("livelock", livelock_traces())):
        for variant, trace in zip(("diagnostic", "full"), traces):
            got[f"{label}-{variant}"] = pin(trace)
    for name in scenarios.FIGURE_NAMES:
        r = scenarios.run_figure(name)
        got[name] = (r.reproduced, r.recovered, r.detail)
    return got


def step_chain(seed: int, steps: int) -> str:
    """Functional stepping from an arbitrary start under random requests,
    choosing a seeded enabled event (or an idle step) each time; pins every
    configuration."""
    topo = random_tree(seed, 5)
    sim = Simulator(topo, SimParams(k=2, ell=3, cmax=2, timeout=40))
    rng = random.Random(seed)
    workload = RandomWorkload(topo.process_ids, 2, seed, rate=0.1)
    cfg = sim.inject_arbitrary(seed)
    h = hashlib.sha256()
    for _ in range(steps):
        enabled = sim.enabled_events(cfg)
        t = enabled[rng.randrange(len(enabled))] if enabled else None
        nxt = sim.step(cfg, t, workload)
        choice = ((SKIP,) if t is None else (TIMEOUT,) if t == len(sim.channel_keys)
                  else (DELIVER, *sim.channel_keys[t]))
        uids = [[m.uid for m in q if hasattr(m, "uid")] for q in nxt.channels.values()]
        h.update(repr((choice, nxt.step, nxt.timer, nxt.next_uid, uids,
                       nxt.fingerprint())).encode())
        cfg = nxt
    return h.hexdigest()


CASES = {
    **{f"arbitrary-{pol}-cmax{cmax}-seed{seed}": (lambda s=seed, p=pol, c=cmax:
                                                   arbitrary_run(s, p, c))
       for seed, pol, cmax in [
           (1, "rr", 0), (2, "rand", 0), (3, "rr", 1), (4, "rand", 1),
           (5, "rr", 2), (6, "rand", 2), (7, "rr", 3), (8, "rand", 3),
           (9, "rr", 3), (10, "rand", 2), (11, "rr", 1), (12, "rand", 0),
       ]},
    **{f"workload-{'root' if root else 'noroot'}-{pol}-seed{seed}": (
        lambda s=seed, r=root, p=pol: workload_run(s, r, p))
       for seed, root, pol in [
           (0, False, "rr"), (1, False, "rand"), (2, True, "rr"),
           (3, True, "rand"), (4, True, "rr"), (5, True, "rand"),
       ]},
}

GOLDEN: dict[str, tuple] = {
    'arbitrary-rand-cmax0-seed12': (
        '3b392176b02b889269ed3ae64c21ba5a8c666ce2e9851ab722f69290261c4713',
        'c5eec5d75302c8421d485293b71081b4233f5e1f2f32e5b0509d78bcff18f988',
        (96, 'budget', 41, 0, True, 0, 0, 0, 0, None, 8, 1),
    ),
    'arbitrary-rand-cmax0-seed2': (
        'bd9eb7a4da734857357e192528c7a2ebe8e05cf1d1be819b1d5d02dcd00bd715',
        '544247e3805340668b92a36dfafa79d5f52b262966ca8eab76675355fa29ae50',
        (432, 'budget', 177, 0, True, 1, 0, 3, 3, 2, 8, 1),
    ),
    'arbitrary-rand-cmax1-seed4': (
        '05c158e64d1652b7710c8116787d9e9aa3a175f59e0dfe58715007d53288702c',
        '6e2ca17d0f242364c4b5f7ce1e632634e70d30ca504211e274cbf98dc0a74120',
        (600, 'budget', 163, 0, True, 0, 0, 4, 4, 3, 12, 1),
    ),
    'arbitrary-rand-cmax2-seed10': (
        'c56d37eff7d37aee3c073eb218af4d98d3968cfc20ff75b85cb8c4f9acfee742',
        'a4c25ac413ca6820af02d931294cc70f793311cbd2c35a1a6725d1c83c93ad91',
        (960, 'budget', 337, 0, True, 0, 0, 3, 3, 2, 12, 1),
    ),
    'arbitrary-rand-cmax2-seed6': (
        '9ceadc0bbafec08ce3f487f9560fd1e4be814b619bd2a6e22e787268cb044f0b',
        '14729d77dfae77faade391dd42f184800136a2d514efe4af7836ff5caa1d02e8',
        (192, 'budget', 6, 0, True, 0, 0, 1, 1, 0, 17, 1),
    ),
    'arbitrary-rand-cmax3-seed8': (
        '01d386f9ed8af36730c31e6e07ae4b24bd48ee91c128cce237a1807f7f0e5115',
        '0a1aa8f98b6e7466d8776a8032de3c183b5c794cac28e84e39e4aae996a7c3f5',
        (504, 'budget', 76, 0, True, 1, 0, 1, 1, 0, 19, 1),
    ),
    'arbitrary-rr-cmax0-seed1': (
        '222a349d24ac6306f8e4094a5bffc0220ab6b458d807cad59e9d1af3bf911dfc',
        'b83df75d5fe2ed70ebfb143b2ba8a5bfe2794815bcb1e5af210d3af7e1523061',
        (240, 'budget', 67, 0, True, 0, 0, 2, 2, 1, 10, 1),
    ),
    'arbitrary-rr-cmax1-seed11': (
        '2fb9f5682f322be0a7d74fe9ede25b925568407be8950c4546bba791da74599f',
        'd757a65cc8f1ce5f6e5286552d6fa4d2a991db9cc05b68d2e994766c47ac09c6',
        (1152, 'budget', 771, 0, True, 1, 0, 4, 4, 3, 6, 1),
    ),
    'arbitrary-rr-cmax1-seed3': (
        'd63ad4165c9008b8ddd5fe6473cd6fd8c61d3535adb192d5a15eda3854434f8a',
        '8376dad8c2ccd2fe95a5d907aed93937f9739bf44c7b672be17f3ce023ed2bc5',
        (768, 'budget', 278, 0, True, 0, 0, 0, 0, None, 10, 1),
    ),
    'arbitrary-rr-cmax2-seed5': (
        '04dd3b5fd73ad876d2d2d8853b1bbf95ccb531fed7c07a609f1b8cafae216293',
        'f5be237979caf462d17a246f1b3147bbbb8ecc1ad969a660a77326c7bd656093',
        (1008, 'budget', 623, 0, True, 2, 0, 4, 4, 3, 8, 1),
    ),
    'arbitrary-rr-cmax3-seed7': (
        'e84bd743453f3e599851469d12795a2997211c08d0cacd92f8b556e7dc80dd85',
        '5919d2def7b753dad2bba4623f86e507ba00b8b4e5cb04685c2a282871ae90d6',
        (480, 'budget', 135, 0, True, 0, 0, 3, 3, 2, 13, 0),
    ),
    'arbitrary-rr-cmax3-seed9': (
        '39bcab6cfa0c72ae814c4007042d888844a2897c69b068166f5ff5cd5b39d26f',
        'db0a8a93bf18189080eb665df5c4d5f137c0476391dab565abf72227158cfa06',
        (768, 'budget', 348, 0, True, 1, 0, 4, 4, 3, 12, 1),
    ),
    'workload-noroot-rand-seed1': (
        'b72dedffea8fb9f372431695a71606507c2acbc5814f2a1025f01096932ae793',
        '2203ffc1f54fc859d724e9aff92098a8452d648a95de8afa744100486564e2cf',
        (360, 'budget', 0, 0, True, 0, 0, 22, 22, 3, 15, 0),
    ),
    'workload-noroot-rr-seed0': (
        'a4233bb703c820fa7a54f78b5ed2d1f5e70ce07aefb3b5b7c73c151a7d985def',
        '03b695114e5612ff3ec4a71462db6f1738f867ecaaea27704ca8febceee0781a',
        (200, 'budget', 0, 0, True, 0, 0, 11, 11, 1, 13, 0),
    ),
    'workload-root-rand-seed3': (
        'c61bd5697f108b930d6976580b636ca6dc2d76cdf52a1396227877b8e2e4fc62',
        '1d77a3e53d5c3292545d8e793a0a82daf16463a88255baa582680ad6fa18392b',
        (500, 'budget', 0, 0, True, 0, 0, 50, 50, 8, 16, 0),
    ),
    'workload-root-rand-seed5': (
        '412a3929303e315a49b6fa5790836bbe5cf6baf1829bb9044d95015b5bc8fa1e',
        '49052fee64848e0dd6733f4e804b320f1cbc186853059a6b579102873e72fd23',
        (280, 'budget', 0, 0, True, 0, 0, 21, 21, 3, 17, 0),
    ),
    'workload-root-rr-seed2': (
        'cb0ed124a056947bb0f1d1301a26142c7ea9ab864e162ab35dd38565c8e3a696',
        '327d80d86118c69d23d42f79cda72b6757d5b18debbc090c3369b2ba9e58ce96',
        (560, 'budget', 0, 0, True, 0, 0, 47, 47, 8, 17, 0),
    ),
    'workload-root-rr-seed4': (
        '136adfc11f534e781c3f6d5e942c07324e7219f93ed2ba0fe30d161de11d4a77',
        '38828a33ac5fe3d362bdf442aca4a149182fea1511e5dae49f947354447ea8b2',
        (720, 'budget', 0, 0, True, 0, 0, 98, 98, 14, 15, 0),
    ),
}

FIGURES_GOLDEN: dict[str, tuple] = {
    'deadlock-diagnostic': (
        'a65beabad5a0848b064dc5ed3c78de987b24df3b95596507b78509f489ade0b5',
        '22c9e7a224e47b902a9749924fbfb00cc99c19d6d24e571012b8f5c2ea9e37c4',
        (5, 'quiescent', None, 0, True, 0, 0, 4, 0, None, 0, 0),
    ),
    'deadlock-full': (
        'd02fd42045668819a08ec3683f163d7af880ba5197a75354f48e65a3dfcfac24',
        'fb69a10b1bbde007e248e8ce237261e0f9dd4dc1cff9ab50b30ffd2c981a96d8',
        (6000, 'budget', 0, 0, True, 0, 0, 4, 4, 3, 93, 0),
    ),
    'livelock-diagnostic': (
        '8fe1454154c93249b1ea1fb2103b0d4c58b4e5f276e524fa6186d157c0942305',
        'd9fa2a76aeb19bfbb3b24d7e87f1edf0be946828295a69ff00e8aae198bb422f',
        (48, 'budget', None, 0, True, 0, 0, 13, 12, 0, 0, 0),
    ),
    'livelock-full': (
        'c3b3e15f37a6852b5106f193322e4709992ad5f095bcde55596392ec4298b4ec',
        'ccedba3d0c625dcc71518b818a623c42f40391533a44ce141af7b508ed2531dd',
        (4000, 'budget', None, 0, True, 0, 0, 433, 432, 4, 0, 0),
    ),
    'fig2-deadlock': (
        True,
        True,
        'diagnostic ended=quiescent starved=4; full-complement satisfied 4/4 requests',
    ),
    'fig3-livelock': (
        True,
        True,
        'replay cycle 0->8, a starved=True; with priority token a served=True',
    ),
}

STEP_CHAIN_GOLDEN = '055a6d91551c202ebdb320c17e6d31fc9ce49eeb7ccf30ead618972844375735'


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_run_is_pinned(name):
    assert pin(CASES[name]()) == GOLDEN[name]


def test_figure_traces_are_pinned():
    assert figure_pins() == FIGURES_GOLDEN


def test_step_chain_is_pinned():
    assert step_chain(11, 300) == STEP_CHAIN_GOLDEN


if __name__ == "__main__":
    def emit(name: str, pins: dict) -> None:
        print(f"{name}: dict[str, tuple] = {{")
        for key, value in pins.items():
            print(f"    {key!r}: (")
            for part in value:
                print(f"        {part!r},")
            print("    ),")
        print("}\n")

    emit("GOLDEN", {name: pin(CASES[name]()) for name in sorted(CASES)})
    emit("FIGURES_GOLDEN", figure_pins())
    print(f"STEP_CHAIN_GOLDEN = {step_chain(11, 300)!r}")
