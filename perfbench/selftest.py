"""Fast self-test of the benchmark (about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload in ``BENCHMARK.json`` it runs a tiny-size untraced
run, a tiny-size traced run and a tiny-size run with a planted wrong
output.  It prints every end-to-end and per-layer metric with its unit
and fails unless the untraced and traced runs pass their output checks
and report exactly the metrics ``BENCHMARK.json`` names, and the
planted run fails its checks.  Last, it runs the benchmark in a
directory holding only ``BENCHMARK.json`` and this directory, where it
must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from harness import END_TO_END, PER_LAYER, WORK_DIR  # noqa: E402

TIMEOUT_S = 170


def run(cwd: str, workload: str, *flags: str):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               *flags]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def expect_metrics(result: dict, declared: dict, table: dict,
                   label: str) -> list:
    problems = []
    if set(declared) != set(table):
        problems.append(f"{label}: BENCHMARK.json and harness disagree on "
                        f"names: {sorted(set(declared) ^ set(table))}")
    got = result["metrics"]
    if set(got) != set(declared):
        problems.append(f"{label}: printed {sorted(got)}, "
                        f"declared {sorted(declared)}")
    for name, unit in declared.items():
        entry = got.get(name)
        if entry is None:
            continue
        if entry["unit"] != unit:
            problems.append(f"{label}: {name} unit {entry['unit']!r}, "
                            f"declared {unit!r}")
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as h:
        spec = json.load(h)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared, table in (("0", end_to_end, END_TO_END),
                                       ("1", per_layer, PER_LAYER)):
            label = f"{workload} --trace {trace}"
            print(label)
            code, result, stderr = run(ROOT, workload, "--trace", trace,
                                       "--tiny")
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}, "
                                f"stderr {stderr[-500:]}")
                continue
            problems += expect_metrics(result, declared, table, label)
        code, result, _ = run(ROOT, workload, "--trace", "0", "--tiny",
                              "--plant-wrong-output")
        planted_caught = code != 0 and result is not None \
            and result["correct"] is False
        print(f"{workload} planted wrong output caught: {planted_caught}")
        if not planted_caught:
            problems.append(f"{workload}: planted wrong output not caught")

    bare = os.path.join(WORK_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(bare, "fleet", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {code}, result printed: {result is not None}")
    if code == 0 or result is not None:
        problems.append("bare directory run did not fail cleanly")

    for problem in problems:
        print("PROBLEM:", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
