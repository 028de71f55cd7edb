"""Smoke check for the benchmark; run from the checkout root:

    python3 perfbench/smoke.py

Runs every workload at the tiny size, timed and traced, and checks that
each prints a result line with every metric BENCHMARK.json names, in its
unit, and a passing correctness gate.  Also checks that design.json records
a layer for every metric, and that the benchmark refuses to run (non-zero
exit, no result line) in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, proc, expected: dict[str, str]) -> None:
    what = f"{workload} trace={trace}"
    if proc.returncode != 0:
        fail(f"{what} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{what} result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{what} correctness gate failed:\n{proc.stdout[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        fail(f"{what} attempted/failed malformed: {result}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(k for k in set(expected) & set(printed) if expected[k] != printed[k])
        fail(f"{what}: missing {missing}, unexpected {extra}, wrong unit {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{what}: {name} is not a number")


def check_design(bench: dict, design: dict) -> None:
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    layers = design["layers"]
    if sorted(layers) != sorted(names):
        fail(f"design.json layers differ from BENCHMARK.json metrics: "
             f"{sorted(set(layers) ^ set(names))}")
    known = {"bench", "topology", "protocol", "appmodel", "simnet", "monitor"}
    if not set(layers.values()) <= known:
        fail(f"unknown layers {set(layers.values()) - known}")
    if sorted(design["workloads"]) != sorted(w["name"] for w in bench["workloads"]):
        fail("design.json workloads differ from BENCHMARK.json")
    for row in design["moves"]:
        for metric in row["layer_metric"]:
            if metric != "exact" and metric not in layers:
                fail(f"moves table names unknown layer metric {metric}")
        for table in ("moves", "unchanged"):
            for workload, metrics in row[table].items():
                for metric in metrics:
                    if metric not in layers and metric not in design["figures"]:
                        fail(f"moves table names unknown metric {metric} on {workload}")


def check_bare_directory(bench_file: Path) -> None:
    bare = ROOT / ".perfbench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(bench_file, bare / "BENCHMARK.json")
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench" / f.name)
    try:
        proc = run_bench(bare, "converge", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        fail("the benchmark exited 0 without the library beside it")
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        fail("the benchmark printed a result without the library beside it")


def main() -> int:
    bench_file = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_file.read_text())
    design = json.loads((HERE / "design.json").read_text())
    check_design(bench, design)
    kinds = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in kinds.items():
            check_result(workload, trace, run_bench(ROOT, workload, trace), expected)
            print(f"smoke: {workload} trace={trace}: {len(expected)} metrics, correct")
    check_bare_directory(bench_file)
    print("smoke: bare directory refused")
    print("smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
