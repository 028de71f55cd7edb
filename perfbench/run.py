"""klexsim benchmark: seeded simulation campaigns, timed and traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload converge --seed 0 --seconds 25 --trace 0

``--trace 0`` times the campaign with tracing off and prints the end-to-end
metrics.  ``--trace 1`` runs the campaign once untraced and once with every
layer wrapped, checks that both gave the same output, and prints the
per-layer metrics.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the workload's own figures with their units and the
correctness-gate verdict.  ``--workload all`` (the default) runs every
workload twice, timed and traced, each in its own process.

The library is imported from ``src/`` beside this directory; without it the
benchmark prints no result and exits with code 2.  Reports, spans and the
output digests the repeat check compares are written to ``.perfbench_out/``
at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import refclock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("converge", "scale", "contend")
DEFAULT_SEED = 0
SETUP_REPEATS = 4  # set-ups timed before the passes, and again after them
TRACEMALLOC_STEPS = 1000  # steps of the run whose trace memory is measured

clock = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="shifts every draw; %(default)s reproduces the acceptance draws")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="timed passes repeat while another fits in this many "
                         "seconds; at least one always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke check")
    return ap.parse_args(argv)


# --------------------------------------------------------------------------
# Set-up: import the library and build every run, several times
# --------------------------------------------------------------------------

def set_up(args, ref: refclock.RefClock) -> tuple[object, list, list[float]]:
    """Import klexsim and the campaign module afresh and build the workload's
    runs, SETUP_REPEATS times; returns the last campaign module, its runs
    and every set-up time in reference seconds.  Timing set-up again after
    the passes spreads the samples over the run."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules
                     if m in ("klexsim", "campaigns") or m.startswith("klexsim.")]:
            del sys.modules[name]
        ref.probe()
        r0 = ref.now()[1]
        campaigns = importlib.import_module("campaigns")
        runs = campaigns.CAMPAIGNS[args.workload][0](args.seed, args.size)
        times.append(ref.now()[1] - r0)
    loaded = Path(sys.modules["klexsim"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise ImportError(f"klexsim was loaded from {loaded}, not from {SRC}")
    return campaigns, runs, times


# --------------------------------------------------------------------------
# One pass over a campaign
# --------------------------------------------------------------------------

@dataclass
class PassResult:
    digest: str = ""
    counts: Counter = field(default_factory=Counter)
    wall_s: float = 0.0  # runs plus their verdicts, raw seconds
    wall_ref: float = 0.0  # the same in reference seconds
    run_ref: float = 0.0  # inside Simulator.run only, reference seconds
    run_ms: list[float] = field(default_factory=list)  # per run, reference ms
    per_run: list[tuple[int, int, float]] = field(default_factory=list)  # n, steps, run_ref
    failed: list[tuple[str, list[str]]] = field(default_factory=list)
    errors: int = 0
    problems: list[str] = field(default_factory=list)  # correctness-gate findings
    stabilizations: list[int] = field(default_factory=list)
    wait_ratios: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.run_ms) + self.errors


def census_species(cfg) -> tuple[int, int, int]:
    """Resource, priority and pusher tokens of a configuration, counted
    independently of the library's monitor."""
    res = prio = push = 0
    for queue in cfg.channels.values():
        for m in queue:
            kind = type(m).__name__
            res += kind == "ResT"
            prio += kind == "PrioT"
            push += kind == "PushT"
    for st in cfg.states.values():
        res += len(st.rset)
        prio += st.prio is not None
    return res, prio, push


def run_pass(campaigns, runs, judge, spans=None) -> PassResult:
    """Execute and judge every run once.  Untraced passes probe the host's
    speed between and during runs; a traced pass records a span per run."""
    out = PassResult()
    h = hashlib.sha256()
    ref = refclock.RefClock()
    observer = ref.tick if spans is None else None
    for run in runs:
        ref.tick()
        t0, r0 = ref.now()
        try:
            trace = run.execute(observer)
            _, r1 = ref.now()
            outcome = judge(run, trace)
        except Exception:  # a library call raised: an operation failure, not a bench bug
            traceback.print_exc()
            out.errors += 1
            h.update(f"run {run.label} raised\n".encode())
            continue
        t2, r2 = ref.now()
        steps = len(trace.records)
        out.wall_s += t2 - t0
        out.wall_ref += r2 - r0
        out.run_ref += r1 - r0
        out.run_ms.append((r2 - r0) * 1e3)
        out.per_run.append((run.n, steps, r1 - r0))
        if spans is not None:
            spans.record_run(run.label, t0, t2, steps)
        if outcome.failed:
            out.failed.append((run.label, outcome.reasons))
        if outcome.stabilization is not None:
            out.stabilizations.append(outcome.stabilization)
        if outcome.wait_ratio is not None:
            out.wait_ratios.append(outcome.wait_ratio)
        last = trace.records[-1].census if trace.records else trace.initial_census
        if census_species(trace.final) != last.species():
            out.problems.append(f"{run.label}: final census {last.species()} but "
                                f"{census_species(trace.final)} tokens present")
        campaigns.digest_run(h, run, trace, outcome, out.counts)
    out.digest = h.hexdigest()
    return out


def same_output(a: PassResult, b: PassResult, what: str) -> list[str]:
    if a.digest != b.digest:
        return [f"{what}: output digest {b.digest[:16]} differs from {a.digest[:16]}"]
    if a.counts != b.counts:
        return [f"{what}: exact counts differ: {dict(a.counts)} vs {dict(b.counts)}"]
    return []


def code_id() -> str:
    """Digest of the library's and the benchmark's sources, so that a
    recorded output is only compared with one the same code produced."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_recorded(args, first: PassResult) -> list[str]:
    """Compare with the output an earlier run of the same code, workload,
    seed and size recorded in this checkout; record it if none did."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"digest-{code_id()}-{args.workload}-seed{args.seed}-{args.size}.json"
    mine = {"digest": first.digest, "counts": dict(sorted(first.counts.items()))}
    if path.exists():
        if json.loads(path.read_text()) != mine:
            return [f"output differs from the earlier run recorded in {path.name}"]
        return []
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(mine, indent=1))
    os.replace(tmp, path)
    return []


# --------------------------------------------------------------------------
# Timed run: end-to-end metrics
# --------------------------------------------------------------------------

# setup_s is in reference seconds too; the benchmark contract fixes its label
E2E_UNITS = {"setup_s": "s", "wall_s": "ref_s", "steps_per_s": "1/ref_s",
             "peak_rss_mb": "MB"}


def end_to_end(setup_s: float, passes: list[PassResult], peak_rss_mb: float
               ) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_ref for p in passes),
        "steps_per_s": statistics.median(p.counts["steps"] / p.run_ref for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def workload_figures(workload: str, p: PassResult) -> list[str]:
    """The workload's own results, each with its unit."""
    lines = [f"failed runs: {len(p.failed)} of {p.attempted} attempted "
             f"(failed_share {len(p.failed) / p.attempted} ratio)"]
    lines += [f"  failed {label}: {'; '.join(reasons)}" for label, reasons in p.failed[:5]]
    lines.append(f"wall time: {p.wall_ref} ref_s, {p.wall_s} s raw")
    if len(p.run_ms) >= 2:
        p50 = statistics.median(p.run_ms)
        p95 = statistics.quantiles(p.run_ms, n=100, method="inclusive")[94]
        beyond = sum(v > p95 for v in p.run_ms)
        lines.append(f"run latency: run_ms_p50 {p50} ref_ms, run_ms_p95 {p95} ref_ms "
                     f"({len(p.run_ms)} runs, {beyond} beyond p95)")
    if workload == "converge" and p.stabilizations:
        lines.append(f"stab_steps_p50 {statistics.median(p.stabilizations)} steps "
                     f"({len(p.stabilizations)} stabilized runs)")
    if workload == "contend":
        lines.append(f"wait_ratio_max {max(p.wait_ratios, default=0.0)} ratio "
                     f"(largest waiting / ell(2n-3)^2)")
    if workload == "scale":
        for n, steps, secs in p.per_run:
            lines.append(f"steps_per_s_n{n} {steps / secs} 1/ref_s ({steps} steps)")
    c = p.counts
    lines.append("exact counts: " + ", ".join(f"{k}={c[k]}" for k in sorted(c)))
    lines.append(f"output digest: {p.digest}")
    return lines


# --------------------------------------------------------------------------
# Traced run: per-layer metrics
# --------------------------------------------------------------------------

def trace_bytes_per_step(run) -> float:
    """Memory one finished Trace (records plus final configuration) retains,
    per step, over the first TRACEMALLOC_STEPS steps of ``run``."""
    import gc
    import tracemalloc

    policy = run.policy()
    workload = run.workload() if run.workload else None
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run.sim.run(run.start, policy, min(run.budget, TRACEMALLOC_STEPS),
                            workload=workload)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / max(1, len(trace.records))


# counters the tracer keeps that must equal the same count read from the trace
TRACE_COUNTS = (
    "steps", "wraps", "resets", "mints", "timeouts", "ctrl_dropped", "requests",
    "cs_entries", "legit", "violation_steps", "deliveries.res", "deliveries.push",
    "deliveries.prio", "deliveries.ctrl",
)


def traced_checks(tr, untraced: PassResult, traced: PassResult, traced_wall: float
                  ) -> list[str]:
    problems = same_output(untraced, traced, "traced pass")
    for name in TRACE_COUNTS:
        if tr.counts[name] != traced.counts[name]:
            problems.append(f"tracer counted {name}={tr.counts[name]} but the trace "
                            f"shows {traced.counts[name]}")
    deliveries = sum(traced.counts[f"deliveries.{s}"] for s in ("res", "push", "prio", "ctrl"))
    if tr.calls["protocol.dispatch"] != deliveries:
        problems.append(f"{tr.calls['protocol.dispatch']} dispatch calls for "
                        f"{deliveries} deliveries")
    if tr.calls["monitor.step_checks"] != traced.counts["step_checks"]:
        problems.append("step_checks calls do not match the configurations checked")
    self_sum = sum(tr.self_time.values())
    if self_sum > traced_wall:
        problems.append(f"span self times sum to {self_sum} s, more than the "
                        f"{traced_wall} s traced")
    return problems


def per_layer(tr, traced: PassResult, bytes_per_step: float) -> dict[str, float]:
    c, calls, total = tr.counts, tr.calls, tr.total

    def share(num, den):
        return num / den if den else 0.0

    return {
        "simnet.run.s": total["simnet.run"],
        "simnet.run.self_s": tr.self_time["simnet.run"],
        "simnet.enabled_events.s": total["simnet.enabled_events"],
        "simnet.choose.s": total["simnet.choose"],
        "simnet.setup.s": total["simnet.setup"],
        "protocol.dispatch.s": total["protocol.dispatch"],
        "protocol.local_actions.s": total["protocol.local_actions"],
        "monitor.step_checks.s": total["monitor.step_checks"],
        "monitor.verdicts.s": total["monitor.verdicts"],
        "appmodel.s": total["appmodel.due"] + total["appmodel.apply_workload"]
        + total["appmodel.tick"],
        "appmodel.tick.s": total["appmodel.tick"],
        "topology.s": total["topology"],
        "simnet.steps": c["steps"],
        "simnet.enabled_events.calls": calls["simnet.enabled_events"],
        "simnet.enabled_share": share(c["enabled"], c["channels_scanned"]),
        "simnet.trace_bytes_per_step": bytes_per_step,
        "protocol.dispatch.calls": calls["protocol.dispatch"],
        "protocol.deliveries.res": c["deliveries.res"],
        "protocol.deliveries.push": c["deliveries.push"],
        "protocol.deliveries.prio": c["deliveries.prio"],
        "protocol.deliveries.ctrl": c["deliveries.ctrl"],
        "protocol.ctrl_dropped": c["ctrl_dropped"],
        "protocol.local_actions.calls": calls["protocol.local_actions"],
        "protocol.local_actions.useful_share": share(c["local_actions.useful"],
                                                     calls["protocol.local_actions"]),
        "protocol.wraps": c["wraps"],
        "protocol.resets": c["resets"],
        "protocol.mints": c["mints"],
        "protocol.timeouts": c["timeouts"],
        "monitor.step_checks.calls": calls["monitor.step_checks"],
        "monitor.legit_share": share(c["legit"], calls["monitor.step_checks"]),
        "monitor.violation_steps": c["violation_steps"],
        "monitor.failed_share": share(len(traced.failed), traced.attempted),
        "monitor.stab_steps_p50": float(statistics.median(traced.stabilizations))
        if traced.stabilizations else 0.0,
        "monitor.wait_ratio_max": max(traced.wait_ratios, default=0.0),
        "appmodel.requests": c["requests"],
        "appmodel.cs_entries": c["cs_entries"],
    }


def layer_unit(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith(("_share", "ratio_max")):
        return "ratio"
    if name.endswith("bytes_per_step"):
        return "B/step"
    if name.endswith("steps_p50"):
        return "steps"
    return "count"


# --------------------------------------------------------------------------
# One workload in this process
# --------------------------------------------------------------------------

def measure(args, ref: refclock.RefClock, campaigns, runs, setup_times: list[float]) -> int:
    judge = campaigns.CAMPAIGNS[args.workload][1]
    report: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "trace": args.trace, "setup_times_ref_s": setup_times}
    started = clock()
    passes = [run_pass(campaigns, runs, judge)]
    first = passes[0]
    problems = list(first.problems)
    if args.trace == 0:
        while clock() - started + (clock() - started) / len(passes) <= args.seconds:
            passes.append(run_pass(campaigns, runs, judge))
        for i, p in enumerate(passes[1:], start=2):
            problems += same_output(first, p, f"pass {i}") + p.problems
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += set_up(args, ref)[2]
        metrics = end_to_end(statistics.median(setup_times), passes, peak_rss_mb)
        units = E2E_UNITS
    else:
        import tracer

        tr = tracer.Tracer()
        tr.install()
        t0 = clock()
        try:
            traced_runs = campaigns.CAMPAIGNS[args.workload][0](args.seed, args.size)
            traced = run_pass(campaigns, traced_runs, judge, tr)
        finally:
            traced_wall = clock() - t0
            tr.uninstall()
        passes.append(traced)
        problems += traced_checks(tr, first, traced, traced_wall) + traced.problems
        metrics = per_layer(tr, traced, trace_bytes_per_step(runs[-1]))
        units = {name: layer_unit(name) for name in metrics}
        overhead = traced.wall_ref / first.wall_ref
        print(f"tracing overhead: traced wall_s {traced.wall_ref} ref_s / timed wall_s "
              f"{first.wall_ref} ref_s = {overhead}")
        print(f"span self times: {sum(tr.self_time.values())} s within {traced_wall} s traced")
        report["tracing_overhead"] = overhead
        report["spans"] = tr.dump()
    problems += check_recorded(args, first)

    figures = workload_figures(args.workload, first)
    print(f"workload {args.workload}: seed {args.seed}, size {args.size}, "
          f"{len(passes)} pass(es) of {len(runs)} runs")
    print("\n".join(figures))
    print("correctness gate: " + ("PASS" if not problems else "FAIL"))
    for problem in problems:
        print(f"  {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.errors for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update(result, passes=len(passes), digest=first.digest,
                  counts=dict(sorted(first.counts.items())), problems=problems,
                  failed_runs=first.failed, figures=figures)
    name = f"report-{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------------
# Every workload, each in its own process
# --------------------------------------------------------------------------

def run_all(args) -> int:
    summary = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                summary.append((workload, trace, f"exit code {proc.returncode}"))
                continue
            verdict = "correct" if json.loads(lines[-1])["correct"] else "INCORRECT"
            summary.append((workload, trace, verdict))
    print("== summary")
    for workload, trace, verdict in summary:
        print(f"{workload:9s} trace={trace}: {verdict}")
    return 0 if all(v == "correct" for _, _, v in summary) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    ref = refclock.RefClock()
    try:
        campaigns, runs, setup_times = set_up(args, ref)
    except ImportError as exc:
        print(f"perfbench: cannot import the klexsim library from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    return measure(args, ref, campaigns, runs, setup_times)


if __name__ == "__main__":
    sys.exit(main())
