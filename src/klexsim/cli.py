"""Experiment runner: single simulations, seeded campaigns, and the built-in
figure regressions.

Exit codes: 0 pass, 1 violation, 2 inconclusive (a run cut short while
unsettled), 64 usage error; ``judge`` decides the first three.  The CLI is
a thin shell over the library; every run is reproducible from its flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from . import monitor, scenarios
from .appmodel import parse_scenario
from .simnet import (
    RandomPolicy,
    ReplayPolicy,
    RoundRobinPolicy,
    SchedulerError,
    SimParams,
    Simulator,
    Trace,
    default_timeout,
    parse_replay,
    traversal_allowance,
)
from .topology import TreeTopology, content_lines, parse_topology

PASS, VIOLATION, INCONCLUSIVE, USAGE = 0, 1, 2, 64
VERDICT_WORDS = {PASS: "pass", VIOLATION: "violation", INCONCLUSIVE: "inconclusive"}


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """One run's flags: each field is the ``klexsim`` flag of the same name,
    with its only default.  ``Simulator`` checks k, ell, cmax and timeout."""

    topology: TreeTopology
    k: int = 1
    ell: int = 1
    cmax: int = 1
    seed: int = 0
    policy: str = "rr"
    replay: str | None = None  # path of a replay file
    budget: int | None = None  # None: 50 controller-traversal allowances
    timeout: int | None = None  # None: the default generous threshold
    fault: str = "none"
    scenario: str | None = None  # path of a scenario file
    out: str | None = None  # directory for the trace and report

    def validate(self) -> None:
        if self.policy not in ("rr", "rand", "replay"):
            raise UsageError(f"policy must be rr, rand or replay, not {self.policy!r}")
        if self.policy == "replay" and not self.replay:
            raise UsageError("policy replay requires --replay PATH")
        if self.replay and self.policy != "replay":
            raise UsageError("--replay needs --policy replay")
        if self.fault not in ("none", "arbitrary"):
            raise UsageError(f"fault must be none or arbitrary, not {self.fault!r}")
        if self.budget is not None and self.budget < 0:
            raise UsageError("budget must be non-negative")

    def effective_budget(self) -> int:
        if self.budget is not None:
            return self.budget
        return 50 * traversal_allowance(self.topology, self.ell, self.cmax)

    def effective_timeout(self) -> int:
        if self.timeout is not None:
            return self.timeout
        return default_timeout(self.topology, self.ell, self.cmax)


def build_simulator(cfg: RunConfig) -> Simulator:
    return Simulator(
        cfg.topology,
        SimParams(k=cfg.k, ell=cfg.ell, cmax=cfg.cmax, timeout=cfg.effective_timeout()),
    )


def make_policy(cfg: RunConfig, seed: int):
    if cfg.policy == "rr":
        return RoundRobinPolicy()
    if cfg.policy == "rand":
        return RandomPolicy(seed)
    text = Path(cfg.replay).read_text()
    return ReplayPolicy(parse_replay(text, cfg.topology),
                        [lineno for lineno, _ in content_lines(text)])


def judge(trace: Trace) -> tuple[int, int | None, int, monitor.SafetyVerdict,
                                  monitor.FairnessVerdict]:
    """The verdicts of one run and the exit status they give, the one rule for
    single runs and campaigns alike: VIOLATION on a safety violation after
    stabilization or a closure regression (a legitimate configuration
    followed by one that is not).  Otherwise a run is unsettled when it never
    stabilizes or a request is still outstanding: VIOLATION if its ending is
    conclusive (``Trace.conclusive``: quiescence), INCONCLUSIVE if not.  PASS
    otherwise.  Returns (status, stabilization time, closure regressions,
    safety, fairness)."""
    stab = monitor.stabilization_time(trace)
    regressions = monitor.closure_regressions(trace)
    safety = monitor.check_safety(trace, stab)
    fairness = monitor.check_fairness(trace)
    unsettled = stab is None or not fairness.passed
    if not safety.passed or regressions or (unsettled and trace.conclusive):
        status = VIOLATION
    elif unsettled:
        status = INCONCLUSIVE
    else:
        status = PASS
    return status, stab, regressions, safety, fairness


def write_out(out_dir: str | None, files: dict[str, Iterable[str]]) -> None:
    """Write each named text, given as its pieces, into ``out_dir``, created
    if missing; nothing, and no piece drawn, when no directory is given."""
    if out_dir is None:
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, pieces in files.items():
        with open(out / name, "w") as f:
            f.writelines(pieces)


def run_once(cfg: RunConfig) -> tuple[int, str, Trace]:
    """Run one simulation; returns (exit status, report text, trace)."""
    cfg.validate()
    sim = build_simulator(cfg)
    workload = None
    if cfg.scenario is not None:
        workload = parse_scenario(Path(cfg.scenario).read_text(), cfg.k, cfg.topology)
    initial = (
        sim.inject_arbitrary(cfg.seed) if cfg.fault == "arbitrary"
        else sim.initial_configuration()
    )
    trace = sim.run(initial, make_policy(cfg, cfg.seed), cfg.effective_budget(),
                    workload=workload)

    status, stab, regressions, safety, fairness = judge(trace)
    report = monitor.render_report(trace, cfg.topology, cfg.ell, stab, regressions,
                                   safety, fairness)
    write_out(cfg.out, {"trace.txt": (line + "\n" for line in trace.lines()),
                        "report.txt": [report]})
    return status, report, trace


def exact_median(values: list[int]) -> str:
    """The median of ``values`` as exact decimal text: ``508`` or ``508.5``."""
    s = sorted(values)
    twice = s[(len(s) - 1) // 2] + s[len(s) // 2]
    return f"{twice // 2}.5" if twice % 2 else str(twice // 2)


def run_campaign(cfg: RunConfig, seeds: int) -> tuple[int, str]:
    """Seeded convergence campaign over arbitrary initial configurations:
    every seed must stabilize within budget, keep legitimacy from then on,
    and stay safe after stabilization.  ``cfg.fault`` is not read: every
    seed starts from ``inject_arbitrary``, so a replay policy, which fits
    one start, is refused.  Returns (exit status, report)."""
    cfg.validate()
    if seeds < 1:
        raise UsageError("campaign needs at least one seed")
    if cfg.scenario is not None:
        raise UsageError("a campaign runs without requests; it takes no scenario")
    if cfg.policy == "replay":
        raise UsageError("a replay fits one start; a campaign takes no --policy replay")
    sim = build_simulator(cfg)
    budget = cfg.effective_budget()
    stabs: list[int] = []
    lines: list[str] = []
    statuses: list[int] = []
    max_wait: int | None = None
    for seed in range(cfg.seed, cfg.seed + seeds):
        trace = sim.run(sim.inject_arbitrary(seed), make_policy(cfg, seed), budget)
        status, stab, regressions, _, fairness = judge(trace)
        if fairness.max_waiting is not None:
            max_wait = max(max_wait or 0, fairness.max_waiting)
        if status == PASS:
            stabs.append(stab)
        statuses.append(status)
        lines.append(f"seed={seed} stabilization={stab} regressions={regressions} "
                     f"verdict={VERDICT_WORDS[status]}")
    failures, inconclusive = statuses.count(VIOLATION), statuses.count(INCONCLUSIVE)
    status = (VIOLATION if failures else
              INCONCLUSIVE if inconclusive else PASS)
    summary = [
        f"campaign: {seeds} seeds, {len(stabs)} stabilized, "
        f"{inconclusive} inconclusive, {failures} violations",
    ]
    if stabs:
        summary.append(
            f"stabilization steps: min={min(stabs)} median={exact_median(stabs)} "
            f"max={max(stabs)} (budget {budget})"
        )
    bound = monitor.waiting_time_bound(cfg.topology.n, cfg.ell)
    if max_wait is not None:
        summary.append(f"max observed waiting: {max_wait} (bound {bound}, "
                       f"ratio {max_wait / bound:.3f})")
    report = "\n".join(summary + lines) + "\n"
    write_out(cfg.out, {"campaign.txt": [report]})
    return status, report


def run_figure(name: str) -> tuple[int, str]:
    result = scenarios.run_figure(name)
    lines = [
        f"{result.name}: failure reproduced in diagnostic mode: "
        f"{'yes' if result.reproduced else 'NO'}",
        f"{result.name}: full token complement satisfies all requests: "
        f"{'yes' if result.recovered else 'NO'}",
        result.detail,
    ]
    status = PASS if (result.reproduced and result.recovered) else VIOLATION
    return status, "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    """The flags, without defaults: ``vars(parse_args())`` holds exactly the
    flags given, and ``RunConfig`` supplies the rest."""
    p = argparse.ArgumentParser(
        prog="klexsim",
        description="Simulate self-stabilizing k-out-of-l exclusion on an "
                    "oriented tree and check its correctness properties.",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--topology", metavar="PATH", help="topology description file")
    p.add_argument("--scenario", metavar="PATH", help="request workload file")
    p.add_argument("--k", type=int, help="max units per request")
    p.add_argument("--ell", type=int, help="total resource units")
    p.add_argument("--cmax", type=int,
                   help="bound on arbitrary initial messages per channel")
    p.add_argument("--seed", type=int)
    p.add_argument("--policy", choices=["rr", "rand", "replay"])
    p.add_argument("--replay", metavar="PATH", help="scheduler choices to replay")
    p.add_argument("--budget", type=int, help="max scheduler steps")
    p.add_argument("--timeout", type=int, help="root timeout threshold in steps")
    p.add_argument("--fault", choices=["none", "arbitrary"])
    p.add_argument("--out", metavar="DIR", help="write trace and report here")
    p.add_argument("--figure", metavar="NAME",
                   help="run a built-in regression scenario: "
                        + ", ".join(scenarios.FIGURE_NAMES))
    p.add_argument("--campaign", type=int, metavar="N",
                   help="run N seeded arbitrary-fault convergence runs")
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        figure = flags.pop("figure", None)
        if figure is not None and flags:
            raise UsageError(f"--figure runs a built-in scenario; it takes no "
                             f"{', '.join('--' + name for name in flags)}")
        campaign = flags.pop("campaign", None)
        if campaign is not None and "fault" in flags:
            raise UsageError("a campaign starts every seed from an arbitrary "
                             "configuration; it takes no --fault")
        if figure is not None:
            status, report = run_figure(figure)
        elif "topology" not in flags:
            raise UsageError("--topology is required unless --figure is used")
        else:
            cfg = RunConfig(parse_topology(Path(flags.pop("topology")).read_text()), **flags)
            status, report = (run_campaign(cfg, campaign) if campaign is not None
                              else run_once(cfg)[:2])
        print(report, end="")
        return status
    except (ValueError, SchedulerError, OSError) as exc:  # ValueError: usage, topology, scenario
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
