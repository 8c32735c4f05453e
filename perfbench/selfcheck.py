"""Fast self-check of the benchmark itself.

Runs every workload of ``run.py`` at tiny size, untraced and traced,
and fails unless each run is correct and prints every end-to-end
(untraced) or per-layer (traced) metric named in BENCHMARK.json, with its
unit, as a finite number. Then checks that the benchmark exits nonzero,
without a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files. Takes well under a minute.

Usage, from the root of a checkout: python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(workload: str, trace: int, proc, expected: dict[str, str]) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: not correct:\n{proc.stdout}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted {result.get('attempted')!r}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    for name in sorted(set(expected) - set(got)):
        problems.append(f"{where}: metric {name} missing")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"{where}: metric {name} not in BENCHMARK.json")
    for name in sorted(set(got) & set(expected)):
        value = result["metrics"][name].get("value")
        if got[name] != expected[name]:
            problems.append(f"{where}: {name} unit {got[name]!r}, expected {expected[name]!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def main() -> int:
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            problems += check_result(workload, trace, run(root, workload, trace), expected)

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as bare:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("ran without the program: exit 0 or printed a result")

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
