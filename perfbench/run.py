"""fockkrein benchmark: four closed-loop workloads, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {suites,oracle,closed,enumerate}
        --seed N --seconds S --trace {0,1} [--size tiny]

Each run starts fresh worker processes (``worker.py``) with one BLAS
thread: ``SETUP_SAMPLES - 1`` that only set up, then one that sets up and
runs the timed loop. ``setup_s`` is the median set-up time of all of them.
The report is printed first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The exit code is not 0 when the checkout holds no
``src/fockkrein`` or a worker fails.

BENCHMARK.json gates on oracle and closed with 50 s runs. Suites and
enumerate drift more from run to run on a shared 2-vCPU host, so they are
not gated; they run and check the same way.

Workloads:

* suites:    one in-process ``fockkrein verify`` call per op, the seven
             suites at dims 4 and 6, 20 trials each: what a CLI user runs,
             at small d where per-call overhead dominates.
* oracle:    brute-force vs closed-form check sets at d = 8 (Fock dim 256):
             dense Fock and Lie operators and the brute amplitude sum.
* closed:    closed routes at d in {16, 32} x sigma in {.5, .9, .99, .999}:
             trace-log series, operator norms, exact q_n; no Fock matrices.
* enumerate: the exact (2n)! enumeration at n in {3, 4, 5}, the only
             factorial hot loop.

The loop is single-process and closed, with one client, so no layer queues
or waits; no wait metric is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s
WORKLOADS = ("suites", "oracle", "closed", "enumerate")
UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "fraction",
}

COMPUTED = ("fock.dense_bytes", "cycleindex.perms_walked", "cycleindex.q_terms",
            "boundary.bruteforce_terms")  # work counts derived from input sizes


class WorkerError(Exception):
    pass


def run_worker(args, mode: str, out_dir: str, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--mode", mode, "--out-dir", out_dir,
    ]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker ({mode}) exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker ({mode}) printed nothing:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() or "unavailable"


def report(args, res: dict, setups: list[float], metrics: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  size {args.size}")
    print("environment " + json.dumps({**res["env"], "git_commit": git_commit()}))
    print("load: one closed-loop client in one worker process, BLAS threads "
          f"{res['env']['blas_threads']} of nproc {res['env']['nproc']}; no layer "
          "queues or waits, so no wait metric is reported")
    print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"ops attempted {res['attempted']}, failed {res['failed']}, "
          f"rounds {res['rounds']}, wall {res['wall_s']:.3f} s, tracing off"
          + (" (then the same rounds traced)" if args.trace else ""))
    print(f"op_ms_tail is p{res['tail_pct']:g} of {res['attempted']} ops "
          f"({res['tail_beyond']} beyond it)")
    failed_frac = res["failed"] / res["attempted"]
    print(f"  {'ops_failed_frac':<18} {failed_frac:.6f} fraction  (= 1 - ops_ok_frac)")
    for name, m in metrics.items():
        print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
    for name, d in sorted(res["defects"].items()):
        print(f"known defect {name}: {d['ops']} ops: {d['what']}")
    for bad in res["unexpected"]:
        print(f"UNEXPECTED FAILURE {bad}")
    if "per_layer" in res:
        print(f"tracing overhead: {res['per_layer']['trace.overhead_s'][0]:.4f} s "
              f"({100 * res['trace_overhead_frac']:.2f}% of the untraced pass); "
              f"spans written to {res['trace_file']}")
        print("counts marked (computed) come from input sizes, not measurement")
        for name, (value, unit) in res["per_layer"].items():
            note = " (computed)" if name in COMPUTED else ""
            print(f"  {name:<40} {value:.6g} {unit}{note}")



def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs, for the self-check")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "fockkrein", "__init__.py")):
        print("no src/fockkrein here: run from the root of a fockkrein checkout",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setups = [run_worker(args, "setup", out_dir, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, "measure", out_dir, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    setup_samples = [s["setup_s"] for s in setups] + [res["setup_s"]]
    for s in setups:
        res["unexpected"] += s["unexpected"]
    e2e = {
        "ops_per_s": res["ops_per_s"],
        "op_ms_p50": res["op_ms_p50"],
        "op_ms_tail": res["op_ms_tail"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_frac": 1.0 - res["failed"] / res["attempted"],
    }
    e2e = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    report(args, res, setup_samples, e2e)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not res["unexpected"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
