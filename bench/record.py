"""Record klexsim's performance at one commit as ``bench/BENCH_<label>.json``.

Run from the root of a checkout:

    python3 bench/record.py --label pr6
    python3 bench/record.py --compare bench/BENCH_pr5.json bench/BENCH_pr6.json

A recording runs every perfbench workload timed (``--trace 0``, REPEATS
times, keeping the median and quartiles of each end-to-end metric and of the
scale workload's ``steps_per_s_n*``) and traced once (``--trace 1``, the
per-layer metrics), then the Tier-1 suite once with ``--durations=0``, which
gives its wall time and the time of each acceptance criterion.  It takes
about ten minutes on a 2-vCPU VM.  ``--compare`` prints one line per metric
present in either file.  A timed metric's change is marked "within spread"
when the two recordings' [q1, q3] ranges overlap: recordings made at
different times are not alternating pairs, so host drift alone can move a
median that far.  Per-layer metrics are marked as what they are, one traced
run, with times in raw seconds; each time is also given as a share of the
same recording's ``simnet.run.s`` (``<layer>.share``), which host speed at
recording time moves far less than the seconds.  Last comes one ``<workload>.digest:
same|DIFFERS`` line per workload in both files: whether the two commits'
traced runs gave the same output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("converge", "scale", "contend")
SEED = 0
SECONDS = 25
REPEATS = 3
SETUP_NOTE = ("perfbench imports klexsim afresh for every set-up; with bytecode "
              "writing off (PYTHONDONTWRITEBYTECODE=1) that compiles the source "
              "each time, so setup_s mostly measures compiling klexsim and moves "
              "with the size of its modules, not with the work of building the runs")

CRITERIA_NOTE = ("a criterion's time is its set-up, call and tear-down; a shared "
                 "module fixture is set up by the first criterion that uses it, so "
                 "criterion 1 carries the sweep criteria 2 and 9 reuse, and "
                 "criterion 5 the runs criterion 6 reuses")


def perfbench(workload: str, trace: int) -> tuple[dict, list[str]]:
    """One perfbench run: its closing JSON object and the lines before it."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"perfbench {workload} --trace {trace}: correctness gate failed")
    return result, lines[:-1]


def spread(values: list[float], unit: str) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "unit": unit,
            "runs": values}


def record_workload(workload: str) -> dict:
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for _ in range(REPEATS):
        result, lines = perfbench(workload, 0)
        for name, m in result["metrics"].items():
            samples.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        for line in lines:
            found = re.match(r"(steps_per_s_n\d+) (\S+) (\S+)", line)
            if found:
                samples.setdefault(found[1], []).append(float(found[2]))
                units[found[1]] = found[3]
    out = {name: spread(values, units[name]) for name, values in samples.items()}
    out["setup_s"]["note"] = SETUP_NOTE
    result, lines = perfbench(workload, 1)
    out["per_layer"] = result["metrics"]
    out["failed_runs"] = next(line for line in lines if line.startswith("failed runs:"))
    out["digest"] = next(line.split()[-1] for line in lines
                         if line.startswith("output digest:"))
    return out


def record_tier1() -> dict:
    """Tier-1 wall time and the time of each acceptance criterion."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "--durations=0", "--durations-min=0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    criteria: dict[str, float] = {}
    for line in proc.stdout.splitlines():
        found = re.match(r"([\d.]+)s (?:setup|call|teardown)\s+"
                         r"tests/test_acceptance\.py::(test_criterion_\w+)", line)
        if found:
            criteria[found[2]] = criteria.get(found[2], 0.0) + float(found[1])
    summary = proc.stdout.strip().splitlines()[-1].strip("= ")
    return {"wall_s": {"value": wall, "unit": "s"}, "summary": summary,
            "criteria_s": {name: {"value": secs, "unit": "s"}
                           for name, secs in sorted(criteria.items())},
            "criteria_note": CRITERIA_NOTE}


def commit() -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return head + ("+dirty" if dirty else "")


def record(label: str) -> Path:
    bench = {
        "label": label, "commit": commit(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "bytecode_writing_off": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "seed": SEED, "seconds": SECONDS, "repeats": REPEATS,
        "workloads": {w: record_workload(w) for w in WORKLOADS},
        "tier1": record_tier1(),
    }
    path = ROOT / "bench" / f"BENCH_{label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    return path


def flatten(bench: dict) -> dict[str, tuple[float, str, tuple[float, float] | str]]:
    """Every metric of a recording as name -> (value, unit, how it was taken):
    the median and its [q1, q3] range for the timed metrics, a label for the
    one-run ones; every per-layer time also as a share of ``simnet.run.s``."""
    flat = {}
    for workload, metrics in bench["workloads"].items():
        for name, m in metrics.items():
            if name == "per_layer":
                run_s = m["simnet.run.s"]["value"]
                for layer, v in m.items():
                    how = "one traced run" + (", raw s" if v["unit"] == "s" else "")
                    flat[f"{workload}.{layer}"] = (v["value"], v["unit"], how)
                    if v["unit"] == "s" and layer != "simnet.run.s":
                        flat[f"{workload}.{layer}.share"] = (v["value"] / run_s,
                                                             "of simnet.run.s", "one traced run")
            elif isinstance(m, dict):
                flat[f"{workload}.{name}"] = (m["median"], m["unit"], (m["q1"], m["q3"]))
    flat["tier1.wall_s"] = (bench["tier1"]["wall_s"]["value"], "s", "one run")
    for name, m in bench["tier1"]["criteria_s"].items():
        flat[f"tier1.{name}"] = (m["value"], m["unit"], "one run")
    return flat


def compare(path_a: str, path_b: str) -> None:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(f"# {a['label']} ({a['commit'][:12]}) -> {b['label']} ({b['commit'][:12]})")
    fa, fb = flatten(a), flatten(b)
    for name in sorted(fa.keys() | fb.keys()):
        va, ua, how_a = fa.get(name, (None, None, None))
        vb, ub, how_b = fb.get(name, (None, None, None))
        change = f" ({(vb - va) / abs(va):+.1%})" if va and vb is not None else ""
        if isinstance(how_a, tuple) and isinstance(how_b, tuple):
            overlap = how_a[0] <= how_b[1] and how_b[0] <= how_a[1]
            how = "within spread" if overlap else "beyond spread"
        else:
            how = how_a if isinstance(how_a, str) else how_b
        note = f" [{how}]" if how else ""
        print(f"{name}: {_fmt(va)} -> {_fmt(vb)} {ua or ub}{change}{note}")
    for workload in sorted(a["workloads"].keys() & b["workloads"].keys()):
        same = a["workloads"][workload]["digest"] == b["workloads"][workload]["digest"]
        print(f"{workload}.digest: {'same' if same else 'DIFFERS'}")


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--label", help="write bench/BENCH_<label>.json")
    group.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
    else:
        print(record(args.label))
    return 0


if __name__ == "__main__":
    sys.exit(main())
