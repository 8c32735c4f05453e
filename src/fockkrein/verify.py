"""Randomized verification suites behind the command-line harness.

Each suite runs a list of named checks over seeded trials (trial i draws
from the PCG64 stream seeded with seed XOR i) and returns a ``Report``
whose overall flag is the conjunction of the per-check flags. Checks that
are exact identities carry zero tolerance; numerical checks carry the
tolerance the identity is specified at, overridable through the config.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from . import boundary, coherent, cycleindex, fock, krein, lie, sampling
from .krein import CONJUGATE_LINEAR, HypothesisViolationError, KOperator, KreinSpace

__all__ = ["RunConfig", "CheckResult", "Report", "run_suite", "SUITE_NAMES"]

SUITE_NAMES = (
    "krein",
    "car",
    "lie",
    "coherent",
    "amplitude",
    "axioms",
    "combinatorics",
    "all",
)


@dataclass
class RunConfig:
    dim: int = 4
    signature: str | None = None
    seed: int = 0
    trials: int = 100
    tol: float | None = None
    max_degree: int | None = None

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.tol is not None and self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_degree is not None and self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.signature is not None:
            space = KreinSpace.from_string(self.signature)
            if space.dim != self.dim:
                raise ValueError(
                    f"signature length {space.dim} does not match dim {self.dim}"
                )

    def space_or_none(self) -> KreinSpace | None:
        return None if self.signature is None else KreinSpace.from_string(self.signature)


@dataclass
class CheckResult:
    name: str
    trials: int
    max_abs_err: float
    max_rel_err: float
    tol: float
    passed: bool
    note: str = ""


@dataclass
class Report:
    suite: str
    seed: int
    config: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self, timestamp: bool = True) -> dict:
        def record(c: CheckResult) -> dict:
            d = asdict(c)
            d["pass"] = d.pop("passed")
            return d

        out = {
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "checks": [record(c) for c in self.checks],
            "pass": self.passed,
        }
        if timestamp:
            out["timestamp"] = time.time()
        return out

    def to_json(self, timestamp: bool = True) -> str:
        return json.dumps(self.to_dict(timestamp=timestamp), indent=2, sort_keys=True)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            flag = "pass" if c.passed else "FAIL"
            note = f"  [{c.note}]" if c.note else ""
            lines.append(
                f"{flag}  {c.name}: trials={c.trials} max_abs={c.max_abs_err:.3e} "
                f"max_rel={c.max_rel_err:.3e} tol={c.tol:.1e}{note}"
            )
        lines.append(f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}")
        return lines


class Tally:
    """Accumulates deviations for one check."""

    def __init__(self):
        self.max_abs = 0.0
        self.max_rel = 0.0
        self.trials = 0

    def add(self, err: float, scale: float = 1.0) -> None:
        err = float(abs(err))
        self.max_abs = max(self.max_abs, err)
        self.max_rel = max(self.max_rel, err / max(scale, 1e-300))
        self.trials += 1

    def add_exact(self, ok: bool) -> None:
        self.add(0.0 if ok else 1.0)

    def result(self, name: str, tol: float, cfg: RunConfig, rel: bool = False,
               note: str = "") -> CheckResult:
        tol = cfg.tol if cfg.tol is not None and tol > 0 else tol
        err = self.max_rel if rel else self.max_abs
        return CheckResult(
            name=name,
            trials=self.trials,
            max_abs_err=self.max_abs,
            max_rel_err=self.max_rel,
            tol=tol,
            passed=bool(err <= tol),
            note=note,
        )


def _unit_state(psi):
    nrm = fock.hilbert_norm_sq(psi)
    return psi * (1.0 / np.sqrt(nrm)) if nrm > 0 else psi


def _space(cfg: RunConfig, rng, dim: int | None = None, balanced: bool = False) -> KreinSpace:
    fixed = cfg.space_or_none()
    if fixed is not None and (dim is None or fixed.dim == dim):
        if balanced and not fixed.is_balanced():
            raise ValueError("this suite needs a balanced signature")
        return fixed
    d = cfg.dim if dim is None else dim
    if balanced and d % 2:
        d += 1
    return sampling.random_signature(rng, d, balanced=balanced)


# -- krein ---------------------------------------------------------------------


def suite_krein(cfg: RunConfig) -> Report:
    rep = Report("krein", cfg.seed, asdict(cfg))
    herm, cness, adj, trinv, neg, equiv, iscale = (Tally() for _ in range(7))
    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed, t)
        space = _space(cfg, rng)
        v = sampling.random_vector(space, rng)
        w = sampling.random_vector(space, rng)

        herm.add(abs(np.conj(krein.inner(space, v, w)) - krein.inner(space, w, v)))

        total = sum(
            space.signature[i]
            * krein.inner(space, v, space.basis_vector(i))
            * krein.inner(space, space.basis_vector(i), w)
            for i in range(space.dim)
        )
        cness.add(abs(krein.inner(space, v, w) - total))

        b = KOperator(sampling.random_linear_matrix(space, rng))
        bstar = krein.adjoint(space, b)
        adj.add(
            abs(
                krein.inner(space, bstar.apply(v), w)
                - krein.inner(space, v, b.apply(w))
            )
        )

        g = sampling.random_adapted_isometry(space, rng)
        ginv = KOperator(np.conj(g.matrix).T)
        lam = KOperator(sampling.random_linear_matrix(space, rng))
        conjugated = krein.compose(krein.compose(g, lam), ginv)
        trinv.add(abs(krein.trace(space, conjugated) - krein.trace(space, lam)))

        op = sampling.random_conj_antisymmetric(space, rng)
        sq = krein.compose(op, op)
        neg.add(
            abs(
                krein.inner(space, v, sq.apply(v))
                + krein.inner(space, op.apply(v), op.apply(v))
            )
        )
        neg.add(
            float(np.max(np.abs(krein.adjoint(space, sq).matrix - sq.matrix)))
        )

        J = sampling.random_involution(space, rng)
        flags = krein.structural_predicates(space, J)
        equiv.add_exact(flags.real_antisymmetric == flags.real_anti_isometry)

        scaled = krein.scale_i(op)
        iscale.add_exact(krein.is_conj_antisymmetric(space, scaled))
        iscale.add(float(np.max(np.abs(scaled.apply(v) - 1j * op.apply(v)))))
        iscale.add(float(np.max(np.abs(scaled.apply(1j * v) - op.apply(v)))))
        twice = krein.scale_i(scaled)
        iscale.add(float(np.max(np.abs(twice.apply(v) + op.apply(v)))))

    rep.checks += [
        herm.result("hermitian_symmetry", 1e-14, cfg),
        cness.result("completeness_relation", 1e-12, cfg),
        adj.result("adjoint_defining_identity", 1e-12, cfg),
        trinv.result("trace_similarity_invariance", 1e-12, cfg),
        neg.result("conj_antisymmetric_square_negative", 1e-12, cfg),
        equiv.result("involution_antisym_iff_anti_isometry", 0.0, cfg),
        iscale.result("scale_i_structure", 1e-13, cfg),
    ]
    return rep


# -- car -----------------------------------------------------------------------


def suite_car(cfg: RunConfig) -> Report:
    rep = Report("car", cfg.seed, asdict(cfg))
    addv, scal, anti, mixed, adjness = (Tally() for _ in range(5))
    eyecache: dict[int, np.ndarray] = {}
    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed, t)
        space = _space(cfg, rng)
        d = space.dim
        xi = sampling.unit_disc(rng, d)
        tau = sampling.unit_disc(rng, d)
        c = complex(rng.normal(), rng.normal())
        a_xi = fock.annihilation_operator_matrix(space, xi)
        a_tau = fock.annihilation_operator_matrix(space, tau)
        ad_xi = fock.creation_operator_matrix(space, xi)
        eye = eyecache.setdefault(d, np.eye(fock.fock_dimension(d)))

        addv.add(_mx(fock.annihilation_operator_matrix(space, xi + tau) - a_xi - a_tau))
        scal.add(_mx(fock.annihilation_operator_matrix(space, c * xi) - c * a_xi))
        anti.add(_mx(a_xi @ a_tau + a_tau @ a_xi))
        mixed.add(_mx(ad_xi @ a_tau + a_tau @ ad_xi - krein.inner(space, xi, tau) * eye))

        psi = _unit_state(sampling.random_state(space, rng))
        phi = _unit_state(sampling.random_state(space, rng))
        adjness.add(
            abs(
                fock.fock_inner(fock.create(tau, psi), phi)
                - fock.fock_inner(psi, fock.annihilate(tau, phi))
            )
        )
    rep.checks += [
        addv.result("car_additivity", 1e-12, cfg),
        scal.result("car_scaling", 1e-12, cfg),
        anti.result("car_anticommutator_aa", 1e-10, cfg),
        mixed.result("car_anticommutator_ada", 1e-10, cfg),
        adjness.result("creation_annihilation_adjointness", 1e-12, cfg),
    ]
    return rep


# -- lie -----------------------------------------------------------------------


def _random_lie_element(space, rng) -> lie.LieElement:
    return lie.LieElement(
        space,
        sampling.random_linear_matrix(space, rng),
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_vector(space, rng),
        sampling.random_vector(space, rng),
    )


def _random_real_form_element(space, rng) -> lie.LieElement:
    a = sampling.random_conj_antisymmetric(space, rng).matrix
    xi = sampling.random_vector(space, rng)
    return lie.LieElement(
        space, sampling.random_skew_adjoint(space, rng), a, -a, xi, -xi
    )


def suite_lie(cfg: RunConfig) -> Report:
    rep = Report("lie", cfg.seed, asdict(cfg))
    hom, jac, abel, expl, staradj, adinv, gipreal, norms = (Tally() for _ in range(8))
    rep_dim = min(cfg.dim, 3)
    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed, t)
        space = _space(cfg, rng, dim=rep_dim)
        x = _random_lie_element(space, rng)
        y = _random_lie_element(space, rng)
        z = _random_lie_element(space, rng)

        rx, ry = lie.rep(x), lie.rep(y)
        hom.add(_mx(lie.rep(lie.bracket(x, y)) - (rx @ ry - ry @ rx)))

        jacobi = (
            lie.bracket(x, lie.bracket(y, z))
            + lie.bracket(y, lie.bracket(z, x))
            + lie.bracket(z, lie.bracket(x, y))
        )
        jac.add(jacobi.max_abs())

        p1 = lie.pair_annihilation_matrix(space, x.lam_plus)
        p2 = lie.pair_annihilation_matrix(space, y.lam_plus)
        q1 = lie.pair_creation_matrix(space, x.lam_minus)
        q2 = lie.pair_creation_matrix(space, y.lam_minus)
        abel.add(_mx(p1 @ p2 - p2 @ p1))
        abel.add(_mx(q1 @ q2 - q2 @ q1))

        psi = sampling.random_state(space, rng)
        via_matrix = fock.FockState(
            space, lie.pair_annihilation_matrix(space, x.lam_plus) @ psi.vector
        )
        expl.add(lie.pair_annihilation_explicit(space, x.lam_plus, psi).max_abs_diff(via_matrix))
        via_matrix = fock.FockState(
            space, lie.pair_creation_matrix(space, x.lam_minus) @ psi.vector
        )
        expl.add(lie.pair_creation_explicit(space, x.lam_minus, psi).max_abs_diff(via_matrix))

        staradj.add(_mx(lie.rep(lie.star(x)) - fock.fock_adjoint_matrix(space, rx)))

        xr = _random_real_form_element(space, rng)
        yr = _random_real_form_element(space, rng)
        zr = _random_real_form_element(space, rng)
        adinv.add(
            abs(
                lie.gip(lie.bracket(zr, xr), yr) + lie.gip(xr, lie.bracket(zr, yr))
            )
        )
        gipreal.add(abs(lie.gip(xr, yr).imag))

    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed + 7919, t)
        space = _space(cfg, rng, dim=min(cfg.dim, 4))
        lam = sampling.random_conj_antisymmetric(space, rng)
        xi = sampling.random_vector(space, rng)
        res = lie.norm_identities(space, lam, xi)
        norms.add(res["pair_max_deviation"])
        norms.add(res["mode_max_deviation"])

    rep.checks += [
        hom.result("rep_bracket_homomorphism", 1e-10, cfg),
        jac.result("jacobi_identity", 1e-10, cfg),
        abel.result("pair_sectors_abelian", 1e-10, cfg),
        expl.result("pair_action_explicit_vs_generators", 1e-12, cfg),
        staradj.result("star_matches_fock_adjoint", 1e-10, cfg),
        adinv.result("gip_ad_invariance_real_form", 1e-9, cfg),
        gipreal.result("gip_real_on_real_form", 1e-10, cfg),
        norms.result("operator_norm_identities", 1e-8, cfg),
    ]
    return rep


# -- coherent --------------------------------------------------------------------


def suite_coherent(cfg: RunConfig) -> Report:
    rep = Report("coherent", cfg.seed, asdict(cfg))
    constr, ovl, anchors, repro, evenxi, antih, inj, guard = (Tally() for _ in range(8))
    dim = min(cfg.dim, 6)
    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed, t)
        space = _space(cfg, rng, dim=dim)
        data = _random_coherent(space, rng)

        constr.add(
            coherent.coherent_series(data).max_abs_diff(coherent.coherent_explicit(data))
        )

        other = _random_coherent(space, rng)
        a1, a2 = sampling.scale_pair_for_product(
            data.operator(), other.operator(), 0.5
        )
        d1 = coherent.CoherentData(space, a1.matrix, data.xi)
        d2 = coherent.CoherentData(space, a2.matrix, other.xi)
        closed = coherent.overlap_closed(d1, d2)
        direct = fock.fock_inner(coherent.coherent_series(d1), coherent.coherent_series(d2))
        ovl.add(abs(closed - direct), scale=abs(direct))

        zero = np.zeros((space.dim, space.dim), dtype=complex)
        z1 = coherent.CoherentData(space, zero, data.xi)
        z2 = coherent.CoherentData(space, zero, other.xi)
        expected = 1.0 + 0.5 * krein.inner(space, other.xi, data.xi)
        anchors.add(abs(coherent.overlap_closed(z1, z2) - expected))

        repro.add(
            abs(coherent.wave_function(d1, coherent.coherent_series(d2)) - closed),
            scale=abs(closed),
        )

        redone = coherent.CoherentData(space, data.lam, sampling.random_vector(space, rng))
        built = coherent.coherent_series(data)
        rebuilt = coherent.coherent_series(redone)
        evenxi.add(
            max(
                float(np.max(np.abs(built.component(n) - rebuilt.component(n))))
                for n in range(0, space.dim + 1, 2)
            )
        )

        antih.add(_antiholomorphy_residual(space, data, rng))

        inj.add_exact(
            coherent.coherent_series(data).max_abs_diff(coherent.coherent_series(other))
            > 1e-6
        )

        bad1, bad2 = _violating_pair(space, rng)
        try:
            coherent.overlap_closed(bad1, bad2)
            guard.add_exact(False)
        except HypothesisViolationError:
            guard.add_exact(True)

    rep.checks += [
        constr.result("series_equals_explicit", 1e-12, cfg),
        ovl.result("overlap_closed_vs_inner", 1e-8, cfg, rel=True),
        anchors.result("overlap_zero_lambda_anchor", 1e-12, cfg),
        repro.result("reproducing_identity", 1e-8, cfg, rel=True),
        evenxi.result("even_components_xi_independent", 0.0, cfg),
        antih.result("wave_function_antiholomorphic", 1e-6, cfg),
        inj.result("injectivity_spot_check", 0.0, cfg),
        guard.result("norm_hypothesis_guard", 0.0, cfg),
    ]
    return rep


def _random_coherent(space, rng, scale: float = 0.7) -> coherent.CoherentData:
    lam = sampling.random_conj_antisymmetric(space, rng, scale=scale)
    return coherent.CoherentData(space, lam.matrix, sampling.random_vector(space, rng))


def _violating_pair(space, rng):
    a = sampling.random_conj_antisymmetric(space, rng)
    b = sampling.random_conj_antisymmetric(space, rng)
    nrm = krein.operator_norm(krein.compose(a, b))
    scaled = KOperator(a.matrix * (1.2 / nrm), CONJUGATE_LINEAR)
    return (
        coherent.CoherentData(space, scaled.matrix, sampling.random_vector(space, rng)),
        coherent.CoherentData(space, b.matrix, sampling.random_vector(space, rng)),
    )


def _antiholomorphy_residual(space, data, rng, h: float = 1e-5) -> float:
    """Holomorphy of the raw-coordinate wave function: the parameter space
    carries the opposite complex structure, so anti-holomorphy there is
    vanishing of the conj-Wirtinger derivative in raw xi coordinates."""
    psi = sampling.random_state(space, rng)
    j = int(rng.integers(space.dim))
    e = space.basis_vector(j)

    def f(shift):
        return coherent.wave_function(
            coherent.CoherentData(space, data.lam, data.xi + shift), psi
        )

    d_re = (f(h * e) - f(-h * e)) / (2 * h)
    d_im = (f(1j * h * e) - f(-1j * h * e)) / (2 * h)
    return abs(0.5 * (d_re + 1j * d_im))


# -- amplitude ---------------------------------------------------------------------


def suite_amplitude(cfg: RunConfig) -> Report:
    rep = Report("amplitude", cfg.seed, asdict(cfg))
    closed_vs_bf, lemma, xifree, anchor, generator, guard = (Tally() for _ in range(6))
    dim = cfg.dim if cfg.dim % 2 == 0 else cfg.dim + 1
    dim = min(dim, 10)
    fixed = cfg.space_or_none()
    if fixed is not None and not fixed.is_balanced():
        raise ValueError("the amplitude suite needs a balanced signature")
    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed, t)
        if fixed is not None:
            region = boundary.random_region(fixed.dim, rng, signature=fixed.signature)
        else:
            region = boundary.random_region(dim, rng)
        space = region.space
        lam = sampling.random_conj_antisymmetric(space, rng)
        lam = _scale_against_u(region, lam, 0.5)
        data = coherent.CoherentData(space, lam.matrix, sampling.random_vector(space, rng))

        state = coherent.coherent_series(data)
        brute = boundary.amplitude_bruteforce(region, state)
        closed = boundary.amplitude_closed(region, data)
        closed_vs_bf.add(abs(closed - brute), scale=abs(brute))

        for n, via_lemma in enumerate(boundary.amplitude_degree_terms(region, data.lam)):
            comp = fock.FockState.from_components(space, {2 * n: state.component(2 * n)})
            lemma.add(abs(boundary.amplitude_bruteforce(region, comp) - via_lemma))

        other = coherent.CoherentData(space, data.lam, sampling.random_vector(space, rng))
        xifree.add(
            abs(boundary.amplitude_closed(region, other) - closed)
        )

        flags = krein.structural_predicates(space, region.u, tol=1e-9)
        generator.add_exact(flags.involution and flags.real_anti_isometry and flags.adapted)
        usq = krein.compose(region.u, region.u)
        generator.add(_mx(usq.matrix - np.eye(space.dim)))

        bad = sampling.scale_operator_to_norm(
            sampling.random_conj_antisymmetric(space, rng), 1.0
        )
        bad = _scale_against_u(region, bad, 1.2)
        try:
            boundary.amplitude_closed(
                region, coherent.CoherentData(space, bad.matrix, data.xi)
            )
            guard.add_exact(False)
        except HypothesisViolationError:
            guard.add_exact(True)

    anchor.add(_dim2_amplitude_anchor())
    rep.checks += [
        closed_vs_bf.result("closed_vs_bruteforce", 1e-8, cfg, rel=True),
        lemma.result("degreewise_cycle_index_vs_bruteforce", 1e-9, cfg),
        xifree.result("closed_amplitude_xi_independent", 0.0, cfg),
        anchor.result("dim2_worked_anchor", 1e-12, cfg),
        generator.result("region_generator_contract", 1e-13, cfg),
        guard.result("norm_hypothesis_guard", 0.0, cfg),
    ]
    return rep


def _scale_against_u(region: boundary.Region, lam: KOperator, target: float) -> KOperator:
    prod = region.u.matrix @ np.conj(lam.matrix)
    nrm = float(np.linalg.norm(prod, 2))
    if nrm == 0.0:
        return lam
    return KOperator(lam.matrix * (target / nrm), CONJUGATE_LINEAR)


def _dim2_amplitude_anchor() -> float:
    """Worked two-dimensional case: u swaps the +- directions with
    conjugation, Lam = [[0, a], [a, 0]], amplitude 1 - conj(a)."""
    space = KreinSpace(2, (1, -1))
    u = KOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), CONJUGATE_LINEAR)
    region = boundary.Region(space, u)
    a = 0.35 + 0.2j
    lam = np.array([[0.0, a], [a, 0.0]])
    data = coherent.CoherentData(space, lam, np.zeros(2, dtype=complex))
    closed = boundary.amplitude_closed(region, data)
    brute = boundary.amplitude_bruteforce(region, coherent.coherent_series(data))
    expected = 1.0 - np.conj(a)
    return max(abs(closed - expected), abs(brute - expected))


# -- axioms ------------------------------------------------------------------------


def suite_axioms(cfg: RunConfig) -> Report:
    rep = Report("axioms", cfg.seed, asdict(cfg))
    invol, iotacoh, graded, taui, taucoh, oddtr = (Tally() for _ in range(6))
    dim_each = min(max(cfg.dim // 2, 1), 3)
    for t in range(cfg.trials):
        rng = sampling.trial_rng(cfg.seed, t)
        space = sampling.random_signature(rng, dim_each)
        psi = sampling.random_state(space, rng)
        invol.add(boundary.iota(boundary.iota(psi)).max_abs_diff(psi))

        data = _random_coherent(space, rng)
        rev = boundary.reversed_space(space)
        expected = coherent.coherent_series(
            coherent.CoherentData(
                rev,
                boundary.reverse_conj_antisymmetric(data.lam),
                -boundary.reverse_vector(data.xi),
            )
        )
        iotacoh.add(boundary.iota(coherent.coherent_series(data)).max_abs_diff(expected))

        m = int(rng.integers(0, space.dim + 1))
        p1 = sampling.random_state(space, rng, degree=m)
        p2 = sampling.random_state(space, rng, degree=m)
        lhs = fock.fock_inner(boundary.iota(p1), boundary.iota(p2)).real
        rhs = fock.fock_inner(p1, p2).real
        graded.add(abs(lhs - (-1.0) ** m * rhs))

        s2 = sampling.random_signature(rng, dim_each)
        q1 = sampling.random_state(s2, rng, degree=int(rng.integers(0, s2.dim + 1)))
        q2 = sampling.random_state(s2, rng, degree=q1.pure_degree() or 0)
        left = fock.fock_inner(
            boundary.tau(space, s2, p1, q1), boundary.tau(space, s2, p2, q2)
        )
        right = fock.fock_inner(p1, p2) * fock.fock_inner(q1, q2)
        taui.add(abs(left - right))

        datab = _random_coherent(s2, rng)
        taucoh.add(
            boundary.tau(
                space, s2, coherent.coherent_series(data), coherent.coherent_series(datab)
            ).max_abs_diff(
                coherent.coherent_series(boundary.tau_coherent_data(space, s2, data, datab))
            )
        )

        region, assembled = boundary.assemble_slice_data(
            space, data, _random_coherent(space, rng)
        )
        underline = assembled.lam.copy()
        d = space.dim
        underline[:d, d:] = 0.0
        underline[d:, :d] = 0.0
        a = region.u.matrix @ np.conj(underline)
        power = a.copy()
        for k in range(1, 6):
            if k % 2 == 1:
                oddtr.add(abs(np.trace(power)))
            power = power @ a

    core = boundary.axiom_suite(seed=cfg.seed, trials=cfg.trials, dim_each=dim_each)
    t2, t2b, t3x, t5a = (Tally() for _ in range(4))
    for tally, key in ((t2, "T2"), (t2b, "T2b"), (t3x, "T3x"), (t5a, "T5a")):
        tally.add(float(core[key]))
        tally.trials = cfg.trials

    rep.checks += [
        invol.result("iota_involution", 1e-14, cfg),
        iotacoh.result("iota_on_coherent_states", 1e-12, cfg),
        graded.result("iota_real_f_graded_isometry", 1e-12, cfg),
        taui.result("tau_isometry", 1e-10, cfg),
        taucoh.result("tau_coherent_factorization", 1e-12, cfg),
        t2.result("axiom_T2_graded_transposition", 1e-10, cfg),
        t2b.result("axiom_T2b_reversal_compatibility", 1e-10, cfg),
        t3x.result("axiom_T3x_inner_product_from_slice", 1e-10, cfg),
        t5a.result("axiom_T5a_disjoint_multiplicativity", 1e-10, cfg),
        oddtr.result("slice_odd_power_traces_vanish", 1e-12, cfg),
        CheckResult("axiom_T5b_self_gluing", 0, 0.0, 0.0, 0.0, True,
                    note="not checked (out of scope)"),
    ]
    return rep


# -- combinatorics --------------------------------------------------------------


def suite_combinatorics(cfg: RunConfig) -> Report:
    rep = Report("combinatorics", cfg.seed, asdict(cfg))
    enum_rec, rec_closed, csum, expid, anchors, invar, order = (Tally() for _ in range(7))
    limit = cycleindex.ENUMERATION_LIMIT
    max_enum = min(cfg.max_degree or limit, limit)
    for n in range(max_enum + 1):
        p_enum = cycleindex.p_n_enumerate(n)
        enum_rec.add_exact(p_enum == cycleindex.p_n_recursive(n))
        csum.add_exact(p_enum.coefficient_sum() == Fraction(factorial(2 * n)))
        enum_rec.add_exact(p_enum.is_weight_homogeneous(n))
    top = cfg.max_degree or 8
    for n in range(top + 1):
        q_rec = cycleindex.q_n_recursive(n)
        rec_closed.add_exact(q_rec == cycleindex.q_n_closed(n))
        rec_closed.add_exact(
            cycleindex.p_to_q(cycleindex.p_n_recursive(n), n) == q_rec
        )
        csum.add_exact(
            cycleindex.p_n_recursive(n).coefficient_sum() == Fraction(factorial(2 * n))
        )
    for n_ok in cycleindex.series_identity_check(min(top, 8)).values():
        expid.add_exact(n_ok)

    anchors.add_exact(
        cycleindex.p_n_recursive(1)
        == cycleindex.CycleIndexPoly("x", {(1,): Fraction(2)})
    )
    anchors.add_exact(
        cycleindex.q_n_recursive(2)
        == cycleindex.CycleIndexPoly(
            "y", {(2,): Fraction(1, 2), (0, 1): Fraction(1, 2)}
        )
    )
    anchors.add_exact(
        cycleindex.p_n_enumerate(2)
        == cycleindex.CycleIndexPoly("x", {(2,): Fraction(8), (0, 1): Fraction(16)})
    )
    anchors.add_exact(
        cycleindex.evaluate_poly(cycleindex.q_n_closed(2), [0.0, 2.0]) == 1.0
    )

    for t in range(min(cfg.trials, 200)):
        rng = sampling.trial_rng(cfg.seed, t)
        n = int(rng.integers(1, 5))
        sigma = list(rng.permutation(2 * n))
        base = cycleindex.p_sigma(sigma)
        relabel = _pair_preserving_relabeling(rng, n)
        left = cycleindex.p_sigma([relabel[sigma[i]] for i in range(2 * n)])
        right = cycleindex.p_sigma([sigma[relabel[i]] for i in range(2 * n)])
        invar.add_exact(base == left == right)
        invar.add_exact(sum((k + 1) * j for k, j in enumerate(base)) == n)

    for n in range(1, 7):
        order.add_exact(2 ** (2 * n) * factorial(n) ** 2 == (2**n * factorial(n)) ** 2)
    for n in (1, 2, 3):
        order.add_exact(len(_pair_group(n)) == 2**n * factorial(n))

    rep.checks += [
        enum_rec.result("enumeration_equals_recursion", 0.0, cfg),
        rec_closed.result("recursion_equals_closed_form", 0.0, cfg),
        csum.result("coefficient_sums_factorial", 0.0, cfg),
        expid.result("exp_series_identity", 0.0, cfg),
        anchors.result("anchor_polynomials", 0.0, cfg),
        invar.result("pairing_monomial_relabeling_invariance", 0.0, cfg),
        order.result("symmetry_group_order", 0.0, cfg),
    ]
    return rep


def _pair_preserving_relabeling(rng, n: int) -> list[int]:
    """Random element of the vertex relabeling group generated by in-pair
    swaps and whole-pair permutations (order 2^n n!)."""
    pair_order = list(rng.permutation(n))
    out = []
    for k in range(n):
        a, b = 2 * pair_order[k], 2 * pair_order[k] + 1
        if rng.random() < 0.5:
            a, b = b, a
        out += [a, b]
    return out


def _pair_group(n: int) -> set[tuple[int, ...]]:
    import itertools as it

    members = set()
    for pair_order in it.permutations(range(n)):
        for flips in it.product((False, True), repeat=n):
            out = []
            for k in range(n):
                a, b = 2 * pair_order[k], 2 * pair_order[k] + 1
                out += [b, a] if flips[k] else [a, b]
            members.add(tuple(out))
    return members


# -- slice three-way (used by the overlap CLI path and acceptance) ---------------


def three_way_overlap(space: KreinSpace, d1: coherent.CoherentData,
                      d2: coherent.CoherentData) -> dict[str, complex]:
    direct = fock.fock_inner(coherent.coherent_series(d1), coherent.coherent_series(d2))
    closed = coherent.overlap_closed(d1, d2)
    via_slice = boundary.slice_inner(space, d1, d2)
    return {"bruteforce": direct, "closed": closed, "slice": via_slice}


SUITES = {
    "krein": suite_krein,
    "car": suite_car,
    "lie": suite_lie,
    "coherent": suite_coherent,
    "amplitude": suite_amplitude,
    "axioms": suite_axioms,
    "combinatorics": suite_combinatorics,
}


def run_suite(name: str, cfg: RunConfig) -> Report:
    cfg.validate()
    if name == "all":
        rep = Report("all", cfg.seed, asdict(cfg))
        for sub, fn in SUITES.items():
            sub_report = fn(cfg)
            for c in sub_report.checks:
                c.name = f"{sub}.{c.name}"
                rep.checks.append(c)
        return rep
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name](cfg)


def _mx(m) -> float:
    return float(np.max(np.abs(m)))
