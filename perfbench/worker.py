"""One workload in one fresh process: set-up, then the timed loop.

Started by ``run.py`` from the root of a checkout; imports ``fockkrein``
from that checkout's ``src``. ``--mode setup`` stops after set-up and
reports only its time, which is how ``run.py`` samples set-up several
times. ``--mode measure`` runs the closed loop and prints one JSON line.

With ``--trace 0`` the loop runs untraced for the whole budget. With
``--trace 1`` it runs untraced for half the budget, then runs the same
rounds again traced, then the probe (``workloads.probe``); per-layer
numbers come from the traced pass and the probe, and the difference in
wall time between the two passes is the tracing overhead.

``workloads`` imports ``fockkrein``, so it is imported only inside
``main``, after the set-up timer has started.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--mode", choices=("setup", "measure"), default="measure")
    p.add_argument("--out-dir", required=True)
    return p.parse_args(argv)


def run_loop(wl, tr, budget_s: float | None = None, rounds: int | None = None) -> dict:
    """Whole rounds, back to back. With a budget, rounds start until the
    budget is spent, so a run may overrun it by up to one round."""
    from workloads import attempt

    latencies, round_s, defects, unexpected = [], [], Counter(), []
    ok_ops = 0
    start = time.perf_counter()
    r = 0
    while True:
        t_round = time.perf_counter()
        for kind, args in wl.round(r):
            tr.op_id, tr.kind = len(latencies), kind
            t = time.perf_counter()
            ok, defect, bad = attempt(wl, tr, kind, args)
            latencies.append(time.perf_counter() - t)
            ok_ops += ok
            if defect:
                defects[defect] += 1
            if bad:
                unexpected.append(bad)
        round_s.append(time.perf_counter() - t_round)
        r += 1
        if r == rounds or (rounds is None and time.perf_counter() - start >= budget_s):
            break
    return {
        "wall_s": time.perf_counter() - start,
        "rounds": r,
        "round_s": round_s,
        "latencies": latencies,
        "ok": ok_ops,
        "defects": dict(defects),
        "unexpected": unexpected,
    }


def environment(fockkrein, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": getattr(fockkrein, "KERNEL_BACKEND", "no backend switch"),
        "fockkrein": fockkrein.__version__,
        "machine": platform.machine(),
    }


def per_layer(wl, tr, cold_s: float, trace_overhead_s: float, cli_overhead_s: float) -> dict:
    """Every per-layer metric: name -> [value, unit]. Times are span self
    times summed over the traced pass and the probe."""
    from workloads import PAIRS

    totals = tr.totals()

    def secs(name):
        return totals[name]["s"] if name in totals else 0.0

    out = {
        "krein.operator_norm.s": [secs("krein.operator_norm"), "s"],
        "krein.operator_norm.calls": [totals.get("krein.operator_norm", {}).get("calls", 0), "count"],
        "fock.annihilation_matrices.cold_s": [cold_s, "s"],
        "fock.operator_matrix.s": [secs("fock.operator_matrix"), "s"],
        "fock.fock_inner.s": [secs("fock.fock_inner"), "s"],
        "fock.dense_bytes": [wl.dense_bytes(), "bytes"],
        "lie.pair_creation_matrix.s": [secs("lie.pair_creation_matrix"), "s"],
        "lie.rep.s": [secs("lie.rep"), "s"],
        "coherent.coherent_series.s": [secs("coherent.coherent_series"), "s"],
        "coherent.coherent_explicit.s": [secs("coherent.coherent_explicit"), "s"],
        "coherent.overlap_closed.s": [secs("coherent.overlap_closed"), "s"],
        "coherent.det_sqrt_tracelog.s": [secs("coherent.det_sqrt_tracelog"), "s"],
        "coherent.det_sqrt_tracelog.failed": [
            totals.get("coherent.det_sqrt_tracelog", {}).get("failed", 0), "count"],
        "cycleindex.p_n_enumerate.s": [secs("cycleindex.p_n_enumerate"), "s"],
        "cycleindex.perms_walked": [tr.counts["cycleindex.perms_walked"], "count"],
        "cycleindex.q_n_closed.s": [secs("cycleindex.q_n_closed"), "s"],
        "cycleindex.q_terms": [tr.counts["cycleindex.q_terms"], "count"],
        "boundary.amplitude_bruteforce.s": [secs("boundary.amplitude_bruteforce"), "s"],
        "boundary.bruteforce_terms": [tr.counts["boundary.bruteforce_terms"], "count"],
        "boundary.amplitude_closed.s": [secs("boundary.amplitude_closed"), "s"],
        "boundary.slice_inner.s": [secs("boundary.slice_inner"), "s"],
        "boundary.amplitude_degree_lemma.s": [secs("boundary.amplitude_degree_lemma"), "s"],
    }
    pair_s = Counter()
    for span in tr.spans:
        if span["name"] == "cli.main" and span["kind"] in PAIRS:
            pair_s[span["kind"]] += span["end"] - span["start"]
    for pair in PAIRS:
        out[f"verify.{pair}.s"] = [pair_s[pair], "s"]
        out[f"verify.{pair}.failed"] = [tr.counts[f"failed.{pair}"], "count"]
    out["cli.main.overhead_s"] = [cli_overhead_s, "s"]
    out["trace.overhead_s"] = [trace_overhead_s, "s"]
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fockkrein

    if not os.path.abspath(fockkrein.__file__).startswith(os.path.join(src, "")):
        print(f"fockkrein was imported from {fockkrein.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    from fockkrein import fock

    import workloads
    from tracing import Tracer

    wl = workloads.make(args.workload, args.seed, args.size == "tiny", args.out_dir)
    t = time.perf_counter()
    fock.annihilation_matrices(wl.fock_dim)
    cold_s = time.perf_counter() - t
    unexpected = wl.warm_up(Tracer(False))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "unexpected": unexpected}
    if args.mode == "measure":
        if args.trace:
            run = run_loop(wl, Tracer(False), budget_s=args.seconds / 2)
            tr = Tracer(True)
            traced = run_loop(wl, tr, rounds=run["rounds"])
            probe_bad, cli_overhead_s = workloads.probe(tr, args.seed, args.out_dir)
            unexpected += traced["unexpected"] + probe_bad
            overhead_s = traced["wall_s"] - run["wall_s"]
            result["per_layer"] = per_layer(wl, tr, cold_s, overhead_s, cli_overhead_s)
            result["trace_overhead_frac"] = overhead_s / run["wall_s"]
            result["trace_file"] = os.path.relpath(os.path.join(
                args.out_dir, f"trace-{args.workload}-seed{args.seed}.json"))
            tr.write(result["trace_file"], {"workload": args.workload, "seed": args.seed})
        else:
            run = run_loop(wl, Tracer(False), budget_s=args.seconds)
        lat = run["latencies"]
        tail = float(np.percentile(lat, wl.tail_pct))
        unexpected += run["unexpected"]
        result.update(
            attempted=len(lat),
            failed=len(lat) - run["ok"],
            defects={name: {"ops": n, "what": workloads.KNOWN_DEFECTS[name]}
                     for name, n in run["defects"].items()},
            rounds=run["rounds"],
            wall_s=run["wall_s"],
            # successful ops per round over the median round time: the
            # rate of the whole run, robust to a burst of load on the host
            ops_per_s=run["ok"] / run["rounds"] / statistics.median(run["round_s"]),
            op_ms_p50=1e3 * statistics.median(lat),
            op_ms_tail=1e3 * tail,
            tail_pct=wl.tail_pct,
            tail_beyond=sum(x > tail for x in lat),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(fockkrein, np),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
