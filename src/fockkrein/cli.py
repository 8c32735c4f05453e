"""Command-line harness.

Subcommands: ``verify`` (run a named randomized suite, optional JSON
report), ``cycle-index`` (print the exact polynomials, optionally
evaluated), ``amplitude`` and ``overlap`` (evaluate a region amplitude or
a coherent overlap from JSON files, with selectable routes).

File formats (complex numbers are [re, im] pairs of finite numbers; NaN and
+-Infinity, which ``json`` reads, are parse errors):

* space:    {"signature": "++--"}
* operator: {"linearity": "linear" | "conjugate-linear",
             "matrix": [[[re, im], ...], ...]}
* vector:   [[re, im], ...]
* region:   {"signature": "+-", "u": <operator>}
* coherent: {"lambda": <operator>, "xi": <vector>}

Exit codes: 0 success, 1 suite failure, 2 usage or parse error,
3 violated norm hypothesis on a closed-form route. The brute-force routes
(``--method bruteforce`` or ``all``) refuse dimensions beyond
``boundary.BRUTEFORCE_DIM_LIMIT`` with exit 2. All numeric output is
locale-independent with '.' as the decimal separator; values print as
"re im" with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import boundary, coherent, cycleindex, fock
from .krein import CONJUGATE_LINEAR, HypothesisViolationError, KOperator, KreinSpace
from .verify import RunConfig, SUITE_NAMES, run_suite, three_way_overlap


def _fmt(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g} {z.imag:.17g}"


# -- JSON decoding ---------------------------------------------------------


def _complex_from(pair) -> complex:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, (int, float)) for x in pair)):
        raise ValueError(f"expected [re, im], got {pair!r}")
    z = complex(float(pair[0]), float(pair[1]))
    if not np.isfinite(z):
        raise ValueError(f"expected finite [re, im], got {pair!r}")
    return z


def _vector_from(obj) -> np.ndarray:
    if not isinstance(obj, list):
        raise ValueError(f"expected a vector [[re, im], ...], got {obj!r}")
    return np.array([_complex_from(p) for p in obj], dtype=complex)


def _operator_from(obj) -> KOperator:
    if not isinstance(obj, dict) or "matrix" not in obj or "linearity" not in obj:
        raise ValueError("operator object needs 'linearity' and 'matrix'")
    if not isinstance(obj["matrix"], list):
        raise ValueError(f"operator 'matrix' must be a list of rows, got {obj['matrix']!r}")
    rows = [_vector_from(row) for row in obj["matrix"]]
    return KOperator(np.array(rows, dtype=complex), obj["linearity"])


def _space_from(obj) -> KreinSpace:
    if not isinstance(obj, dict) or not isinstance(obj.get("signature"), str):
        raise ValueError("space object needs a 'signature' string")
    return KreinSpace.from_string(obj["signature"])


def _region_from(obj) -> boundary.Region:
    space = _space_from(obj)
    u = _operator_from(obj["u"])
    return boundary.Region(space, u)


def _coherent_from(space: KreinSpace, obj) -> coherent.CoherentData:
    if not isinstance(obj, dict) or "lambda" not in obj or "xi" not in obj:
        raise ValueError("coherent object needs 'lambda' and 'xi'")
    lam = _operator_from(obj["lambda"])
    if lam.linearity != CONJUGATE_LINEAR:
        raise ValueError("'lambda' must be conjugate-linear")
    return coherent.CoherentData(space, lam.matrix, _vector_from(obj["xi"]))


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- Subcommands --------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = RunConfig(
        dim=args.dim,
        signature=args.signature,
        seed=args.seed,
        trials=args.trials,
        tol=args.tol,
        max_degree=args.max_degree,
    )
    report = run_suite(args.suite, cfg)
    for line in report.summary_lines():
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    return 0 if report.passed else 1


def cmd_cycle_index(args) -> int:
    n = args.n
    if n < 0:
        raise ValueError("n must be nonnegative")
    if args.family == "x":
        poly = cycleindex.p_n_recursive(n)
        print(cycleindex.format_poly(poly, f"p_{n}"))
    else:
        poly = cycleindex.q_n_closed(n)
        print(cycleindex.format_poly(poly, f"q_{n}"))
    if args.eval:
        values = _vector_from(_load(args.eval))
        print(_fmt(cycleindex.evaluate_poly(poly, values)))
    return 0


def cmd_amplitude(args) -> int:
    region = _region_from(_load(args.region))
    data = _coherent_from(region.space, _load(args.state))
    if args.method in ("bruteforce", "all"):
        boundary.check_bruteforce_dim(region.space.dim)

    def closed():
        return boundary.amplitude_closed(region, data)

    def bruteforce():
        return boundary.amplitude_bruteforce(region, coherent.coherent_series(data))

    def degreewise():
        return sum(boundary.amplitude_degree_terms(region, data.lam))

    routes = {"closed": closed, "bruteforce": bruteforce, "degreewise": degreewise}
    if args.method == "all":
        values = {name: fn() for name, fn in routes.items()}
        for name, v in values.items():
            print(f"{name}: {_fmt(v)}")
        vals = list(values.values())
        dev = max(abs(a - b) for a in vals for b in vals)
        print(f"max_deviation: {dev:.17g}")
    else:
        print(_fmt(routes[args.method]()))
    return 0


def cmd_overlap(args) -> int:
    space = _space_from(_load(args.space))
    left = _coherent_from(space, _load(args.left))
    right = _coherent_from(space, _load(args.right))
    if args.method in ("bruteforce", "all"):
        boundary.check_bruteforce_dim(space.dim)

    def closed():
        return coherent.overlap_closed(left, right)

    def bruteforce():
        return fock.fock_inner(
            coherent.coherent_series(left), coherent.coherent_series(right)
        )

    def via_slice():
        return boundary.slice_inner(space, left, right)

    routes = {"closed": closed, "bruteforce": bruteforce, "slice": via_slice}
    if args.method == "all":
        values = three_way_overlap(space, left, right)
        for name, v in values.items():
            print(f"{name}: {_fmt(v)}")
        vals = list(values.values())
        dev = max(abs(a - b) for a in vals for b in vals)
        print(f"max_deviation: {dev:.17g}")
    else:
        print(_fmt(routes[args.method]()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockkrein",
        description="Verification harness for indefinite-inner-product fermionic "
        "Fock spaces, coherent-state amplitudes, and their exact combinatorics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a randomized verification suite")
    v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v.add_argument("--dim", type=int, default=4)
    v.add_argument("--signature", type=str, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    v.add_argument("--json", type=str, default=None, help="write the JSON report here")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("cycle-index", help="print exact cycle-index polynomials")
    c.add_argument("n", type=int)
    c.add_argument("--family", choices=("y", "x"), default="y")
    c.add_argument("--eval", type=str, default=None,
                   help="vector file of values for the variables")
    c.set_defaults(func=cmd_cycle_index)

    a = sub.add_parser("amplitude", help="amplitude of a coherent state in a region")
    a.add_argument("--region", required=True)
    a.add_argument("--state", required=True)
    a.add_argument("--method", choices=("closed", "bruteforce", "degreewise", "all"),
                   default="closed")
    a.set_defaults(func=cmd_amplitude)

    o = sub.add_parser("overlap", help="inner product of two coherent states")
    o.add_argument("--space", required=True)
    o.add_argument("--left", required=True)
    o.add_argument("--right", required=True)
    o.add_argument("--method", choices=("closed", "bruteforce", "slice", "all"),
                   default="closed")
    o.set_defaults(func=cmd_overlap)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HypothesisViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
