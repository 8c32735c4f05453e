"""The four benchmark workloads and the checks each op makes.

Every workload is a closed loop with one client: an op starts when the
previous one has returned. Ops come in rounds, a fixed multiset of op
kinds per round, so the mix of kinds in a run does not depend on how many
ops fit in the time budget. All inputs are drawn in set-up from
``fockkrein.sampling.trial_rng`` streams derived from the workload seed;
the package only ever receives those generated inputs. Every input lies
inside the hypothesis its route states (balanced region signatures,
norms strictly below 1, slice-safe pairs), so a failed op is the
program's fault.

An op fails if a call raises, if the CLI exits with a code other than 0,
or if two routes disagree beyond the tolerance the package pins for that
identity. Failures are counted, never skipped. Two failures are known
defects of the package and are reported by name (``KNOWN_DEFECTS``);
any other failure makes the run incorrect.

Each call into the package goes through ``Tracer.call`` under the name
``<module>.<function>``, which is where the per-layer spans come from.
"""

from __future__ import annotations

import io
import json
import os
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from math import factorial

import numpy as np

from fockkrein import boundary, cli, coherent, cycleindex, fock, krein, lie, sampling, verify
from fockkrein.coherent import CoherentData

KNOWN_DEFECTS = {
    "axioms-dim6-region": (
        "the axioms suite at dim 6 passes dim_each = 3 to random_region, "
        "which raises ValueError, so the CLI exits 2"
    ),
    "det_sqrt_tracelog-term-cap": (
        "det_sqrt_tracelog raises RuntimeError at sigma = 0.999 although "
        "||a||_op < 1 holds (ROADMAP item 4)"
    ),
}

# Tolerances pinned by the package's suites and acceptance tests.
TOL_REL_CLOSED = 1e-8  # closed form vs brute force / slice route (relative)
TOL_CAR = 1e-10  # CAR anticommutators
TOL_LIE_HOM = 1e-10  # rep of a bracket vs the matrix commutator
TOL_SIGMA = 1e-9  # input norm sits at the stated sigma


class CheckFailed(Exception):
    """Two routes disagree beyond the pinned tolerance."""


class CliExit(Exception):
    """The CLI returned a nonzero exit code."""

    def __init__(self, code: int, stderr: str):
        super().__init__(f"exit {code}: {stderr.strip()[-200:]}")
        self.code = code
        self.stderr = stderr


def check(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel(value, reference) -> float:
    """|value - reference| / max(|reference|, 1), as in the acceptance tests."""
    return abs(value - reference) / max(abs(reference), 1.0)


def derived_rng(seed: int, name: str, index: int) -> np.random.Generator:
    """Input stream ``index`` of workload ``name`` under ``seed``.

    The workload seed picks a base seed through ``trial_rng``, so two
    workload seeds give unrelated streams rather than XOR-shifted ones.
    """
    base = int(sampling.trial_rng(seed, zlib.crc32(name.encode())).integers(2**62))
    return sampling.trial_rng(base, index)


class Workload:
    name = ""
    tail_pct = 50.0  # fixed per workload so runs of any length compare
    fock_dim = 4  # dimension whose annihilation matrices set-up builds cold
    pool_rounds = 16  # rounds of inputs drawn in set-up; later rounds reuse them

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.rounds = [self.make_round(r) for r in range(1 if tiny else self.pool_rounds)]

    def round(self, r: int) -> list[tuple[str, tuple]]:
        return self.rounds[r % len(self.rounds)]

    def make_round(self, r: int) -> list[tuple[str, tuple]]:
        raise NotImplementedError

    def run_op(self, tr, kind: str, args: tuple) -> None:
        raise NotImplementedError

    def known_defect(self, kind: str, exc: BaseException) -> str | None:
        return None

    def warm_up(self, tr) -> list[str]:
        """Fill the package's caches before the timed loop; returns the
        unexpected failures met on the way."""
        raise NotImplementedError

    def dense_bytes(self) -> int:
        """Computed size of the cached annihilation matrices, d 4^d 16 bytes."""
        return self.fock_dim * 4**self.fock_dim * 16


def run_ops(wl: Workload, tr, ops) -> list[str]:
    """Run ops outside the timed loop; returns unexpected failures."""
    bad = []
    for kind, args in ops:
        tr.kind = kind
        unexpected = attempt(wl, tr, kind, args)[2]
        if unexpected:
            bad.append(unexpected)
    return bad


def attempt(wl: Workload, tr, kind: str, args: tuple) -> tuple[bool, str | None, str | None]:
    """Run one op: (ok, known defect name, unexpected failure text)."""
    try:
        tr.call("op", wl.run_op, tr, kind, args)
    except Exception as exc:  # every op failure is counted, none escapes
        tr.count(f"failed.{kind}", 1)
        defect = wl.known_defect(kind, exc)
        if defect is not None:
            return False, defect, None
        return False, None, f"{wl.name}/{kind}: {type(exc).__name__}: {exc}"
    return True, None, None


# -- suites ------------------------------------------------------------------


SUITES = ("krein", "car", "lie", "coherent", "amplitude", "axioms", "combinatorics")
SUITE_DIMS = (4, 6)  # the two dims the suites' clamps make distinct
PAIRS = [f"{s}.d{d}" for s in SUITES for d in SUITE_DIMS]


class Suites(Workload):
    """One in-process ``fockkrein verify`` per op, as a CLI user runs it."""

    name = "suites"
    tail_pct = 90.0  # 14 kinds per round: p90 sits inside one kind's ops
    fock_dim = 6

    def __init__(self, seed: int, tiny: bool, out_dir: str):
        self.trials = 1 if tiny else 20
        self.json_path = os.path.join(out_dir, f"suites-report-{os.getpid()}.json")
        super().__init__(seed, tiny)

    def make_round(self, r):
        rng = derived_rng(self.seed, self.name, r)
        order = rng.permutation(len(PAIRS))
        seeds = rng.integers(2**31, size=len(PAIRS))
        return [(PAIRS[k], (int(seeds[k]), self.trials)) for k in order]

    def argv(self, kind: str, seed: int, trials: int) -> list[str]:
        suite, dim = kind.split(".d")
        return ["verify", "--suite", suite, "--dim", dim, "--seed", str(seed),
                "--trials", str(trials), "--json", self.json_path]

    def run_op(self, tr, kind, args):
        seed, trials = args
        suite = kind.split(".d")[0]
        if os.path.exists(self.json_path):
            os.remove(self.json_path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tr.call("cli.main", cli.main, self.argv(kind, seed, trials))
        if code != 0:
            raise CliExit(code, err.getvalue() or out.getvalue())
        with open(self.json_path, encoding="utf-8") as fh:
            report = json.load(fh)
        check(report["suite"] == suite and report["seed"] == seed, "report names its run")
        check(report["pass"] is True and all(c["pass"] for c in report["checks"]),
              "report passes")
        check(out.getvalue().rstrip().endswith(f"suite {suite}: PASS"), "summary line")

    def warm_up(self, tr):
        return run_ops(self, tr, [(kind, (seed, 1)) for kind, (seed, _) in self.round(0)])

    def known_defect(self, kind, exc):
        if (kind == "axioms.d6" and isinstance(exc, CliExit) and exc.code == 2
                and "region dimension must be even" in exc.stderr):
            return "axioms-dim6-region"
        return None

    def cli_overhead(self, tr, reps: int = 3) -> float:
        """Sum over the 14 pairs of min cli.main time minus min
        verify.run_suite time, on the same one-trial arguments."""
        tr.kind = "cli-overhead"
        total = 0.0
        for kind, (seed, _) in self.round(0):
            suite, dim = kind.split(".d")
            argv = self.argv(kind, seed, 1)
            t_cli, t_run = [], []
            for _ in range(reps):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    t_cli.append(_timed(tr, "cli.main", cli.main, argv))
                    cfg = verify.RunConfig(dim=int(dim), seed=seed, trials=1)
                    try:
                        t_run.append(_timed(tr, "verify.run_suite", verify.run_suite, suite, cfg))
                    except ValueError:  # the axioms dim-6 defect raises here
                        t_run.append(None)
            if None not in t_run:
                total += min(t_cli) - min(t_run)
        return total


def _timed(tr, name, fn, *args) -> float:
    t = time.perf_counter()
    tr.call(name, fn, *args)
    return time.perf_counter() - t


# -- oracle ------------------------------------------------------------------


def _lie_element(space, rng) -> lie.LieElement:
    return lie.LieElement(
        space,
        sampling.random_linear_matrix(space, rng),
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_vector(space, rng),
        sampling.random_vector(space, rng),
    )


class Oracle(Workload):
    """Brute-force vs closed-form check sets on dense 2^d x 2^d operators."""

    name = "oracle"
    tail_pct = 75.0  # about 50 ops in a 50 s run; p75 keeps ten or more beyond it
    ops_per_round = 4  # ops cost the same; rounds only group them for ops_per_s

    def __init__(self, seed: int, tiny: bool):
        self.fock_dim = 4 if tiny else 8
        super().__init__(seed, tiny)

    def make_round(self, r):
        return [self.op_inputs(derived_rng(self.seed, self.name, self.ops_per_round * r + k))
                for k in range(self.ops_per_round)]

    def op_inputs(self, rng):
        d = self.fock_dim
        space = sampling.random_signature(rng, d, balanced=True)
        # slice-safe pair, as tests/test_acceptance.py::slice_safe_pair
        pair = []
        for _ in range(2):
            lam = sampling.scale_operator_to_norm(
                sampling.random_conj_antisymmetric(space, rng), 0.4)
            pair.append(CoherentData(space, lam.matrix,
                                     sampling.random_vector(space, rng, scale=0.25 / np.sqrt(d))))
        region = boundary.random_region(d, rng, signature=space.signature)
        lam = sampling.random_conj_antisymmetric(space, rng).matrix
        lam = lam * (0.5 / krein.operator_norm(region.u.matrix @ np.conj(lam)))
        data = CoherentData(space, lam, sampling.random_vector(space, rng))
        xi, tau = sampling.unit_disc(rng, d), sampling.unit_disc(rng, d)
        x, y = _lie_element(space, rng), _lie_element(space, rng)
        return f"d{d}", (space, pair[0], pair[1], region, data, xi, tau, x, y)

    def run_op(self, tr, kind, args):
        space, d1, d2, region, data, xi, tau, x, y = args
        c = tr.call
        # overlap three-way
        s1 = c("coherent.coherent_series", coherent.coherent_series, d1)
        s2 = c("coherent.coherent_series", coherent.coherent_series, d2)
        direct = c("fock.fock_inner", fock.fock_inner, s1, s2)
        closed = c("coherent.overlap_closed", coherent.overlap_closed, d1, d2)
        via_slice = c("boundary.slice_inner", boundary.slice_inner, space, d1, d2)
        check(rel(closed, direct) <= TOL_REL_CLOSED, "overlap closed vs inner product")
        check(rel(via_slice, direct) <= TOL_REL_CLOSED, "overlap slice vs inner product")
        # amplitude three-way
        state = c("coherent.coherent_series", coherent.coherent_series, data)
        tr.count("boundary.bruteforce_terms", sum(space.dim**n for n in range(space.dim // 2 + 1)))
        brute = c("boundary.amplitude_bruteforce", boundary.amplitude_bruteforce, region, state)
        amp = c("boundary.amplitude_closed", boundary.amplitude_closed, region, data)
        lemma = sum(
            c("boundary.amplitude_degree_lemma", boundary.amplitude_degree_lemma,
              region, data.lam, n)
            for n in range(space.dim // 2 + 1)
        )
        check(rel(amp, brute) <= TOL_REL_CLOSED, "amplitude closed vs brute force")
        check(rel(lemma, brute) <= TOL_REL_CLOSED, "amplitude degree lemma vs brute force")
        # CAR anticommutators
        a_xi = c("fock.operator_matrix", fock.annihilation_operator_matrix, space, xi)
        a_tau = c("fock.operator_matrix", fock.annihilation_operator_matrix, space, tau)
        ad_xi = c("fock.operator_matrix", fock.creation_operator_matrix, space, xi)
        check(np.max(np.abs(a_xi @ a_tau + a_tau @ a_xi)) <= TOL_CAR, "{a, a} = 0")
        eye = np.eye(a_xi.shape[0])
        check(np.max(np.abs(ad_xi @ a_tau + a_tau @ ad_xi
                            - krein.inner(space, xi, tau) * eye)) <= TOL_CAR,
              "{a^dag, a} = <xi, tau>")
        # Lie homomorphism, and the abelian pair-creation sector
        rx = c("lie.rep", lie.rep, x)
        ry = c("lie.rep", lie.rep, y)
        rxy = c("lie.rep", lie.rep, c("lie.bracket", lie.bracket, x, y))
        check(np.max(np.abs(rxy - (rx @ ry - ry @ rx))) <= TOL_LIE_HOM, "rep([x, y])")
        q1 = c("lie.pair_creation_matrix", lie.pair_creation_matrix, space, x.lam_minus)
        q2 = c("lie.pair_creation_matrix", lie.pair_creation_matrix, space, y.lam_minus)
        check(np.max(np.abs(q1 @ q2 - q2 @ q1)) <= TOL_LIE_HOM, "pair creators commute")

    def warm_up(self, tr):
        # sign-product caches are keyed by signature: fill them for every
        # signature in the pool, then run one op for everything else
        for rnd in self.rounds:
            for _, args in rnd:
                psi = sampling.random_state(args[0], np.random.default_rng(0))
                fock.fock_inner(psi, psi)
                fock.fock_signature(args[0])
        return run_ops(self, tr, self.round(0)[:1])


# -- closed ------------------------------------------------------------------


SIGMAS = (0.5, 0.9, 0.99, 0.999)


class Closed(Workload):
    """Closed routes at one (d, sigma) cell per op; no dense Fock matrices."""

    name = "closed"
    tail_pct = 90.0  # 8 kinds per round: p90 sits inside the slowest kind's ops

    def __init__(self, seed: int, tiny: bool):
        self.dims = (4, 8) if tiny else (16, 32)
        super().__init__(seed, tiny)

    def make_round(self, r):
        rng = derived_rng(self.seed, self.name, r)
        cells = [(d, s) for d in self.dims for s in SIGMAS]
        ops = []
        for k in rng.permutation(len(cells)):
            d, sigma = cells[k]
            ops.append((f"d{d}.s{sigma}", (d, sigma) + self.cell_inputs(rng, d, sigma)))
        return ops

    @staticmethod
    def cell_inputs(rng, d, sigma):
        region = boundary.random_region(d, rng)
        space = region.space
        lam = sampling.random_conj_antisymmetric(space, rng).matrix
        lam = lam * (sigma / krein.operator_norm(region.u.matrix @ np.conj(lam)))
        data = CoherentData(space, lam, sampling.random_vector(space, rng))
        a = region.u.matrix @ np.conj(data.lam)
        # Overlap pair with ||L L'||_op = ||L||_op^2 = sigma: L = S B with B
        # antisymmetric and L' = -B S, so L conj(L') = S B B^H S. Both
        # factors then have norm sqrt(sigma) < 1, and small mode vectors keep
        # the assembled slice operator below norm 1 as well.
        m1 = sampling.random_conj_antisymmetric(space, rng).matrix
        signs = space.signs.astype(float)
        m2 = -(signs[:, None] * m1) * signs[None, :]
        f = np.sqrt(sigma / krein.operator_norm(m1 @ np.conj(m2)))
        xi_scale = 0.25 * np.sqrt(1.0 - np.sqrt(sigma)) / np.sqrt(d)
        d1 = CoherentData(space, m1 * f, sampling.random_vector(space, rng, scale=xi_scale))
        d2 = CoherentData(space, m2 * f, sampling.random_vector(space, rng, scale=xi_scale))
        slice_region, assembled = boundary.assemble_slice_data(space, d1, d2)
        slice_norm = krein.operator_norm(slice_region.u.matrix @ np.conj(assembled.lam))
        if slice_norm >= 1.0:
            raise ValueError(f"slice hypothesis fails for a generated pair: {slice_norm}")
        return region, data, a, d1, d2

    def run_op(self, tr, kind, args):
        d, sigma, region, data, a, d1, d2 = args
        c = tr.call
        norm_amp = c("krein.operator_norm", krein.operator_norm, a)
        norm_ovl = c("krein.operator_norm", krein.operator_norm, d1.lam @ np.conj(d2.lam))
        check(abs(norm_amp - sigma) <= TOL_SIGMA and abs(norm_ovl - sigma) <= TOL_SIGMA,
              "inputs sit at the stated sigma")
        root = c("coherent.det_sqrt_tracelog", coherent.det_sqrt_tracelog, a)
        det = abs(np.linalg.det(np.eye(d) - a))
        check(rel(abs(root) ** 2, det) <= TOL_REL_CLOSED, "|det(1 - a)^(1/2)|^2 = |det(1 - a)|")
        q = c("cycleindex.q_n_closed", cycleindex.q_n_closed, d // 2)
        tr.count("cycleindex.q_terms", len(q.terms))  # partitions of d/2
        check(q == cycleindex.q_n_recursive(d // 2), "q_n closed form vs recursion")
        amp = c("boundary.amplitude_closed", boundary.amplitude_closed, region, data)
        lemma = sum(
            c("boundary.amplitude_degree_lemma", boundary.amplitude_degree_lemma,
              region, data.lam, n)
            for n in range(d // 2 + 1)
        )
        check(rel(amp, lemma) <= TOL_REL_CLOSED, "amplitude closed vs degree-lemma sum")
        ovl = c("coherent.overlap_closed", coherent.overlap_closed, d1, d2)
        via_slice = c("boundary.slice_inner", boundary.slice_inner, region.space, d1, d2)
        check(rel(ovl, via_slice) <= TOL_REL_CLOSED, "overlap closed vs slice amplitude")

    def known_defect(self, kind, exc):
        if (kind.endswith("s0.999") and isinstance(exc, RuntimeError)
                and "did not converge within the term cap" in str(exc)):
            return "det_sqrt_tracelog-term-cap"
        return None

    def warm_up(self, tr):
        for d in self.dims:
            cycleindex.q_n_recursive(d // 2)
        return run_ops(self, tr, [op for op in self.round(0) if op[1][1] == SIGMAS[0]])


# -- enumerate ---------------------------------------------------------------


class Enumerate(Workload):
    """The exact (2n)! pairing-graph enumeration, checked three ways."""

    name = "enumerate"
    tail_pct = 75.0  # the n=4 ops span ranks 16%..97% of every round

    def __init__(self, seed: int, tiny: bool):
        # ops per round for each n
        self.mix = {1: 2, 2: 4, 3: 1} if tiny else {3: 6, 4: 30, 5: 1}
        super().__init__(seed, tiny)

    def make_round(self, r):
        ns = [n for n, k in self.mix.items() for _ in range(k)]
        order = derived_rng(self.seed, self.name, r).permutation(len(ns))
        return [(f"n{ns[k]}", (ns[k],)) for k in order]

    def run_op(self, tr, kind, args):
        (n,) = args
        c = tr.call
        tr.count("cycleindex.perms_walked", factorial(2 * n))
        p = c("cycleindex.p_n_enumerate", cycleindex.p_n_enumerate, n)
        check(p == c("cycleindex.p_n_recursive", cycleindex.p_n_recursive, n),
              "enumeration vs recursion")
        q = c("cycleindex.q_n_closed", cycleindex.q_n_closed, n)
        tr.count("cycleindex.q_terms", len(q.terms))
        check(c("cycleindex.p_to_q", cycleindex.p_to_q, p, n) == q, "p_to_q(p_n) vs closed q_n")
        check(p.coefficient_sum() == factorial(2 * n), "coefficient sum (2n)!")

    def warm_up(self, tr):
        for n in self.mix:
            cycleindex.p_n_recursive(n)
            cycleindex.q_n_recursive(n)
        n = min(self.mix)
        return run_ops(self, tr, [(f"n{n}", (n,))])


WORKLOADS = ("suites", "oracle", "closed", "enumerate")


def make(name: str, seed: int, tiny: bool, out_dir: str) -> Workload:
    if name == "suites":
        return Suites(seed, tiny, out_dir)
    return {"oracle": Oracle, "closed": Closed, "enumerate": Enumerate}[name](seed, tiny)


def probe(tr, seed: int, out_dir: str) -> tuple[list[str], float]:
    """One tiny round of every workload, ``coherent_explicit`` on inputs
    drawn as the coherent suite draws them at dim 6, and the CLI overhead.

    Traced runs end with this probe so that every per-layer metric is
    measured on every workload; on the workload a metric belongs to, the
    loop's calls dominate it. Returns the unexpected failures and
    ``Suites.cli_overhead``.
    """
    bad = []
    tiny = {name: make(name, seed, True, out_dir) for name in WORKLOADS}
    for wl in tiny.values():
        bad += run_ops(wl, tr, wl.round(0))
    tr.kind = "probe.coherent_explicit"
    rng = derived_rng(seed, "coherent_explicit", 0)
    space = sampling.random_signature(rng, 6)
    lam = sampling.random_conj_antisymmetric(space, rng, scale=0.7)
    data = CoherentData(space, lam.matrix, sampling.random_vector(space, rng))
    explicit = tr.call("coherent.coherent_explicit", coherent.coherent_explicit, data)
    if explicit.max_abs_diff(coherent.coherent_series(data)) > 1e-12:
        bad.append("probe: coherent_explicit vs coherent_series beyond 1e-12")
    return bad, tiny["suites"].cli_overhead(tr)
