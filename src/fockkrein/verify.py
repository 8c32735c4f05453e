"""Randomized verification suites behind the command-line harness.

Each suite is a table of ``Check`` records (name, tolerance, absolute or
relative, note) and one generator that yields ``(name, err)`` or
``(name, err, scale)`` samples. The checks of a suite share each trial's
draws, so one generator per suite keeps the draw order fixed. Trial i
draws from ``_trials``, the only place that makes a random stream (PCG64
seeded by ``SeedSequence([seed, 0, i])``), and each suite runs one loop
over the trials. ``run_suite`` tallies the
samples into a ``Report`` whose overall flag is the conjunction of the
per-check flags. Checks that are exact identities carry zero tolerance;
numerical checks carry the tolerance the identity is specified at,
overridable through the config. A check that receives no sample fails
unless its note says why it is not checked.
"""

from __future__ import annotations

import json
import time
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import factorial, isfinite, isnan

import numpy as np

from . import boundary, coherent, cycleindex, fock, krein, lie, sampling
from .krein import CONJUGATE_LINEAR, HypothesisViolationError, KOperator, KreinSpace

__all__ = ["RunConfig", "Check", "CheckResult", "Report", "run_suite", "SUITE_NAMES"]


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
        if self.tol is not None and not (isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
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


@dataclass(frozen=True)
class Check:
    name: str
    tol: float
    rel: bool = False
    note: str = ""


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
    # suite -> the dims at which it drew random signatures although the
    # config fixes one; kept out of the JSON report
    signature_unused: dict[str, list[int]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        def record(c: CheckResult) -> dict:
            d = asdict(c)
            d["pass"] = d.pop("passed")
            return d

        return {
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "checks": [record(c) for c in self.checks],
            "pass": self.passed,
            "timestamp": time.time(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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


def _tally(checks, samples, cfg: RunConfig) -> list[CheckResult]:
    """One result per declared check, in table order: the largest absolute
    and relative deviation over its samples and the number of samples. A
    sample naming an undeclared check raises ``KeyError``. A sample whose
    error or scale is not finite fails its check and shows as a max_abs of
    inf or NaN, or a max_rel of NaN: the fold keeps the first NaN."""
    acc = {c.name: [0.0, 0.0, 0] for c in checks}
    for name, err, *scale in samples:
        a = acc[name]
        err = float(abs(err))
        scale = float(scale[0]) if scale else 1.0
        rel = err / max(scale, 1e-300) if isfinite(scale) else float("nan")
        a[0] = err if isnan(err) else max(a[0], err)  # max(nan, x) is nan
        a[1] = rel if isnan(rel) else max(a[1], rel)
        a[2] += 1
    out = []
    for c in checks:
        max_abs, max_rel, trials = acc[c.name]
        tol = cfg.tol if cfg.tol is not None and c.tol > 0 else c.tol
        err = max_rel if c.rel else max_abs
        finite = isfinite(max_abs) and not isnan(max_rel)
        passed = bool(err <= tol) and finite and (trials > 0 or bool(c.note))
        out.append(CheckResult(c.name, trials, max_abs, max_rel, tol, passed, c.note))
    return out


def _trials(cfg: RunConfig, count: int | None = None):
    """The generator of each trial: trial t draws from the PCG64 stream of
    ``SeedSequence([seed mod 2^64, 0, t])``, for ``count`` (default
    ``cfg.trials``) trials; nearby seeds share no stream."""
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF
    for t in range(cfg.trials if count is None else count):
        # The middle word stays 0: changing it would redraw every trial and
        # move every report value.
        yield np.random.default_rng(np.random.SeedSequence([seed, 0, t]))


SUITES: dict = {}


def _suite(name: str, *checks: Check):
    """Register a sample generator under ``name`` with its check table."""
    def register(samples):
        SUITES[name] = (checks, samples)
        return samples
    return register


def _unit_state(psi):
    nrm = fock.hilbert_norm_sq(psi)
    return psi * (1.0 / np.sqrt(nrm)) if nrm > 0 else psi


# The dims the running suite noted through ``_note_unused_signature``;
# ``run_suite`` gives each suite a fresh set.
_unused_signature_dims: ContextVar[set[int] | None] = ContextVar(
    "_unused_signature_dims", default=None
)


def _note_unused_signature(cfg: RunConfig, *dims: int) -> None:
    """Note that the running suite draws random signatures at ``dims``
    although ``cfg`` fixes a signature."""
    noted = _unused_signature_dims.get()
    if cfg.signature is not None and noted is not None:
        noted.update(dims)


def _space(cfg: RunConfig, rng, dim: int | None = None) -> KreinSpace:
    """The configured signature when it has ``dim`` (default ``cfg.dim``)
    entries, else a random signature of that length."""
    fixed = cfg.space_or_none()
    if fixed is not None and (dim is None or fixed.dim == dim):
        return fixed
    dim = cfg.dim if dim is None else dim
    _note_unused_signature(cfg, dim)
    return sampling.random_signature(rng, dim)


def _refused(fn, *args) -> float:
    """0 when ``fn(*args)`` raises ``HypothesisViolationError``, else 1."""
    try:
        fn(*args)
    except HypothesisViolationError:
        return 0.0
    return 1.0


def _mx(m) -> float:
    return float(np.max(np.abs(m)))


# -- krein ---------------------------------------------------------------------


@_suite(
    "krein",
    Check("hermitian_symmetry", 1e-14),
    Check("completeness_relation", 1e-12),
    Check("adjoint_defining_identity", 1e-12),
    Check("trace_similarity_invariance", 1e-12),
    Check("conj_antisymmetric_square_negative", 1e-12),
    Check("involution_antisym_iff_anti_isometry", 0.0),
    Check("scale_i_structure", 1e-13),
)
def suite_krein(cfg: RunConfig):
    for rng in _trials(cfg):
        space = _space(cfg, rng)
        v = sampling.random_vector(space, rng)
        w = sampling.random_vector(space, rng)

        yield "hermitian_symmetry", abs(
            np.conj(krein.inner(space, v, w)) - krein.inner(space, w, v)
        )

        total = sum(
            space.signature[i]
            * krein.inner(space, v, space.basis_vector(i))
            * krein.inner(space, space.basis_vector(i), w)
            for i in range(space.dim)
        )
        yield "completeness_relation", abs(krein.inner(space, v, w) - total)

        b = KOperator(sampling.random_linear_matrix(space, rng))
        bstar = krein.adjoint(space, b)
        yield "adjoint_defining_identity", abs(
            krein.inner(space, bstar.apply(v), w) - krein.inner(space, v, b.apply(w))
        )

        g = sampling.random_adapted_isometry(space, rng)
        ginv = KOperator(np.conj(g.matrix).T)
        lam = KOperator(sampling.random_linear_matrix(space, rng))
        conjugated = krein.compose(krein.compose(g, lam), ginv)
        yield "trace_similarity_invariance", abs(
            krein.trace(space, conjugated) - krein.trace(space, lam)
        )

        op = sampling.random_conj_antisymmetric(space, rng)
        sq = krein.compose(op, op)
        yield "conj_antisymmetric_square_negative", abs(
            krein.inner(space, v, sq.apply(v))
            + krein.inner(space, op.apply(v), op.apply(v))
        )
        yield "conj_antisymmetric_square_negative", _mx(
            krein.adjoint(space, sq).matrix - sq.matrix
        )

        J = sampling.random_involution(space, rng)
        flags = krein.structural_predicates(space, J)
        yield "involution_antisym_iff_anti_isometry", float(
            not flags.real_antisymmetric == flags.real_anti_isometry
        )

        scaled = krein.scale_i(op)
        yield "scale_i_structure", float(not krein.is_conj_antisymmetric(space, scaled))
        yield "scale_i_structure", _mx(scaled.apply(v) - 1j * op.apply(v))
        yield "scale_i_structure", _mx(scaled.apply(1j * v) - op.apply(v))
        twice = krein.scale_i(scaled)
        yield "scale_i_structure", _mx(twice.apply(v) + op.apply(v))


# -- car -----------------------------------------------------------------------


@_suite(
    "car",
    Check("car_additivity", 1e-12),
    Check("car_scaling", 1e-12),
    Check("car_anticommutator_aa", 1e-10),
    Check("car_anticommutator_ada", 1e-10),
    Check("creation_annihilation_adjointness", 1e-12),
)
def suite_car(cfg: RunConfig):
    """The CAR relations as operator identities, applied with
    ``LadderSum @ v`` to the trial's first unit random state, so no 2^d x 2^d
    matrix is formed; the literal ``create`` and ``annihilate`` are checked
    for adjointness under ``fock_inner``. Clamped to dim 16, since those two
    loop in Python over all 2^d basis tuples."""
    dim = min(cfg.dim, 16)
    for rng in _trials(cfg):
        space = _space(cfg, rng, dim=dim)
        xi = sampling.unit_disc(rng, dim)
        tau = sampling.unit_disc(rng, dim)
        c = complex(rng.normal(), rng.normal())
        psi = _unit_state(sampling.random_state(space, rng))
        phi = _unit_state(sampling.random_state(space, rng))

        v = psi.vector
        a_xi = fock.annihilation_operator(space, xi)
        a_tau = fock.annihilation_operator(space, tau)
        ad_xi = fock.creation_operator(space, xi)
        a_xi_v, a_tau_v = a_xi @ v, a_tau @ v
        yield "car_additivity", _mx(
            fock.annihilation_operator(space, xi + tau) @ v - a_xi_v - a_tau_v
        )
        yield "car_scaling", _mx(fock.annihilation_operator(space, c * xi) @ v - c * a_xi_v)
        yield "car_anticommutator_aa", _mx(a_xi @ a_tau_v + a_tau @ a_xi_v)
        yield "car_anticommutator_ada", _mx(
            ad_xi @ a_tau_v + a_tau @ (ad_xi @ v) - krein.inner(space, xi, tau) * v
        )

        yield "creation_annihilation_adjointness", abs(
            fock.fock_inner(fock.create(tau, psi), phi)
            - fock.fock_inner(psi, fock.annihilate(tau, phi))
        )


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


@_suite(
    "lie",
    Check("rep_bracket_homomorphism", 1e-10),
    Check("jacobi_identity", 1e-10),
    Check("pair_sectors_abelian", 1e-10),
    Check("pair_action_explicit_vs_generators", 1e-12),
    Check("star_matches_fock_adjoint", 1e-10),
    Check("gip_ad_invariance_real_form", 1e-9),
    Check("gip_real_on_real_form", 1e-10),
    Check("operator_norm_identities", 1e-8),
)
def suite_lie(cfg: RunConfig):
    """The representation checks run to dim 12 with ``lie.rep_apply`` on the
    trial's unit random states, so no 2^d x 2^d matrix is formed. The last
    draws of each trial are on one space of dim at most 4: the literal
    oracles ``pair_*_explicit``, which call ``fock.evaluate`` once per
    ordered pair of positions, and the operator-norm identities, which form
    dense Fock matrices and hold for the pair operators only while Lam has
    rank at most 4, that is at dim 5 or less."""
    for rng in _trials(cfg):
        space = _space(cfg, rng, dim=min(cfg.dim, 12))
        x = _random_lie_element(space, rng)
        y = _random_lie_element(space, rng)
        z = _random_lie_element(space, rng)
        psi = _unit_state(sampling.random_state(space, rng))
        v = psi.vector

        yield "rep_bracket_homomorphism", _mx(
            lie.rep_apply(lie.bracket(x, y), v) - _commutator_apply(x, y, v)
        )

        jacobi = (
            lie.bracket(x, lie.bracket(y, z))
            + lie.bracket(y, lie.bracket(z, x))
            + lie.bracket(z, lie.bracket(x, y))
        )
        yield "jacobi_identity", jacobi.max_abs()

        p1, p2 = (lie.LieElement.from_parts(space, lam_plus=e.lam_plus) for e in (x, y))
        q1, q2 = (lie.LieElement.from_parts(space, lam_minus=e.lam_minus) for e in (x, y))
        yield "pair_sectors_abelian", _mx(_commutator_apply(p1, p2, v))
        yield "pair_sectors_abelian", _mx(_commutator_apply(q1, q2, v))

        xr = _random_real_form_element(space, rng)
        yr = _random_real_form_element(space, rng)
        zr = _random_real_form_element(space, rng)
        yield "gip_ad_invariance_real_form", abs(
            lie.gip(lie.bracket(zr, xr), yr) + lie.gip(xr, lie.bracket(zr, yr))
        )
        yield "gip_real_on_real_form", abs(lie.gip(xr, yr).imag)

        phi = _unit_state(sampling.random_state(space, rng))
        yield "star_matches_fock_adjoint", abs(
            fock.fock_inner(fock.FockState(space, lie.rep_apply(lie.star(x), v)), phi)
            - fock.fock_inner(psi, fock.FockState(space, lie.rep_apply(x, phi.vector)))
        )

        small = _space(cfg, rng, dim=min(cfg.dim, 4))
        lam_plus = sampling.random_conj_antisymmetric(small, rng).matrix
        lam_minus = sampling.random_conj_antisymmetric(small, rng).matrix
        chi = sampling.random_state(small, rng)
        via_generators = lie.rep_apply(lie.LieElement.from_parts(small, lam_plus=lam_plus),
                                       chi.vector)
        yield "pair_action_explicit_vs_generators", lie.pair_annihilation_explicit(
            small, lam_plus, chi
        ).max_abs_diff(fock.FockState(small, via_generators))
        via_generators = lie.rep_apply(lie.LieElement.from_parts(small, lam_minus=lam_minus),
                                       chi.vector)
        yield "pair_action_explicit_vs_generators", lie.pair_creation_explicit(
            small, lam_minus, chi
        ).max_abs_diff(fock.FockState(small, via_generators))

        res = lie.norm_identities(small, lam_minus, sampling.random_vector(small, rng))
        yield "operator_norm_identities", res["pair_max_deviation"]
        yield "operator_norm_identities", res["mode_max_deviation"]


def _commutator_apply(x: lie.LieElement, y: lie.LieElement, v: np.ndarray) -> np.ndarray:
    """[rep x, rep y] v, with no matrix formed."""
    return lie.rep_apply(x, lie.rep_apply(y, v)) - lie.rep_apply(y, lie.rep_apply(x, v))


# -- coherent --------------------------------------------------------------------


@_suite(
    "coherent",
    Check("series_equals_explicit", 1e-12),
    Check("overlap_closed_vs_inner", 1e-8, rel=True),
    Check("overlap_zero_lambda_anchor", 1e-12),
    Check("even_components_xi_independent", 0.0),
    Check("wave_function_antiholomorphic", 1e-6),
    Check("injectivity_spot_check", 0.0),
    Check("norm_hypothesis_guard", 0.0),
)
def suite_coherent(cfg: RunConfig):
    """The checks run at dims 2..10: on one dimension no pair can violate
    the norm hypothesis. Anti-holomorphy is the last draw of each trial, on
    the trial's own coherent data."""
    dim = min(max(cfg.dim, 2), 10)
    for rng in _trials(cfg):
        space = _space(cfg, rng, dim=dim)
        data = _random_coherent(space, rng)

        series = coherent.coherent_series(data)
        yield "series_equals_explicit", series.max_abs_diff(coherent.coherent_explicit(data))

        other = _random_coherent(space, rng)
        a1, a2 = sampling.scale_pair_for_product(
            data.operator(), other.operator(), 0.5
        )
        d1 = coherent.CoherentData(space, a1.matrix, data.xi)
        d2 = coherent.CoherentData(space, a2.matrix, other.xi)
        closed = coherent.overlap_closed(d1, d2)
        direct = coherent.wave_function(d1, coherent.coherent_series(d2))
        yield "overlap_closed_vs_inner", abs(closed - direct), abs(direct)

        zero = np.zeros((space.dim, space.dim), dtype=complex)
        z1 = coherent.CoherentData(space, zero, data.xi)
        z2 = coherent.CoherentData(space, zero, other.xi)
        expected = 1.0 + 0.5 * krein.inner(space, other.xi, data.xi)
        yield "overlap_zero_lambda_anchor", abs(coherent.overlap_closed(z1, z2) - expected)

        redone = coherent.CoherentData(space, data.lam, sampling.random_vector(space, rng))
        rebuilt = coherent.coherent_series(redone)
        yield "even_components_xi_independent", max(
            _mx(series.component(n) - rebuilt.component(n))
            for n in range(0, space.dim + 1, 2)
        )

        yield "injectivity_spot_check", float(
            not series.max_abs_diff(coherent.coherent_series(other)) > 1e-6
        )

        yield "norm_hypothesis_guard", _refused(
            coherent.overlap_closed, *_violating_pair(space, rng)
        )

        yield "wave_function_antiholomorphic", _antiholomorphy_residual(space, data, rng)


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


def _antiholomorphy_residual(space, data, rng) -> float:
    """Holomorphy of the raw-coordinate wave function: the parameter space
    carries the opposite complex structure, so anti-holomorphy there is
    vanishing of the conj-Wirtinger derivative in raw xi coordinates.

    K(Lam, xi) is real-affine in xi, so the central differences with step 1
    are exact up to rounding, at any basis scale."""
    psi = sampling.random_state(space, rng)
    j = int(rng.integers(space.dim))
    e = space.basis_vector(j)

    def f(shift):
        return coherent.wave_function(
            coherent.CoherentData(space, data.lam, data.xi + shift), psi
        )

    d_re = (f(e) - f(-e)) / 2
    d_im = (f(1j * e) - f(-1j * e)) / 2
    return abs(0.5 * (d_re + 1j * d_im))


# -- amplitude ---------------------------------------------------------------------


@_suite(
    "amplitude",
    Check("closed_vs_bruteforce", 1e-8, rel=True),
    Check("degreewise_cycle_index_vs_bruteforce", 1e-9),
    Check("closed_amplitude_xi_independent", 0.0),
    Check("dim2_worked_anchor", 1e-12),
    Check("region_generator_contract", 1e-13),
    Check("norm_hypothesis_guard", 0.0),
)
def suite_amplitude(cfg: RunConfig):
    """The checks run at the even dim next to ``cfg.dim``, at most 10, where
    the brute-force sum stays cheap; the configured signature is used only
    when it has that many entries."""
    dim = cfg.dim if cfg.dim % 2 == 0 else cfg.dim + 1
    dim = min(dim, 10)
    fixed = cfg.space_or_none()
    if fixed is not None and fixed.dim != dim:
        _note_unused_signature(cfg, dim)
        fixed = None
    if fixed is not None and not fixed.is_balanced():
        raise ValueError("the amplitude suite needs a balanced signature")
    signature = None if fixed is None else fixed.signature
    for rng in _trials(cfg):
        region = boundary.random_region(dim, rng, signature=signature)
        space = region.space
        lam = sampling.random_conj_antisymmetric(space, rng)
        lam = _scale_against_u(region, lam, 0.5)
        data = coherent.CoherentData(space, lam.matrix, sampling.random_vector(space, rng))

        state = coherent.coherent_series(data)
        brute = boundary.amplitude_bruteforce(region, state)
        closed = boundary.amplitude_closed(region, data)
        yield "closed_vs_bruteforce", abs(closed - brute), abs(brute)

        for n, via_lemma in enumerate(boundary.amplitude_degree_terms(region, data.lam)):
            comp = fock.FockState.from_components(space, {2 * n: state.component(2 * n)})
            yield "degreewise_cycle_index_vs_bruteforce", abs(
                boundary.amplitude_bruteforce(region, comp) - via_lemma
            )

        other = coherent.CoherentData(space, data.lam, sampling.random_vector(space, rng))
        yield "closed_amplitude_xi_independent", abs(
            boundary.amplitude_closed(region, other) - closed
        )

        flags = krein.structural_predicates(space, region.u, tol=1e-9)
        yield "region_generator_contract", float(
            not (flags.involution and flags.real_anti_isometry and flags.adapted)
        )
        usq = krein.compose(region.u, region.u)
        yield "region_generator_contract", _mx(usq.matrix - np.eye(space.dim))

        bad = _scale_against_u(region, sampling.random_conj_antisymmetric(space, rng), 1.2)
        yield "norm_hypothesis_guard", _refused(
            boundary.amplitude_closed,
            region,
            coherent.CoherentData(space, bad.matrix, data.xi),
        )

    yield "dim2_worked_anchor", _dim2_amplitude_anchor()


def _scale_against_u(region: boundary.Region, lam: KOperator, target: float) -> KOperator:
    prod = region.u.matrix @ np.conj(lam.matrix)
    nrm = krein.operator_norm(prod)
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


@_suite(
    "axioms",
    Check("iota_involution", 1e-14),
    Check("iota_on_coherent_states", 1e-12),
    Check("iota_real_f_graded_isometry", 1e-12),
    Check("tau_isometry", 1e-10),
    Check("tau_coherent_factorization", 1e-12),
    Check("axiom_T2_graded_transposition", 1e-10),
    Check("axiom_T2b_reversal_compatibility", 1e-10),
    Check("axiom_T3x_inner_product_from_slice", 1e-10),
    Check("axiom_T5a_disjoint_multiplicativity", 1e-10),
    Check("slice_odd_power_traces_vanish", 1e-12),
    Check("axiom_T5b_self_gluing", 0.0, note="not checked (out of scope)"),
)
def suite_axioms(cfg: RunConfig):
    """Reversal, tau and the slice on random factors of dim at most 3, then
    the functorial axioms T2, T2b, T3x and T5a on draws made last in each
    trial. Every signature is random."""
    dim_each = min(max(cfg.dim // 2, 1), 3)
    # The T5a regions need a balanced, hence even, boundary: they take the
    # largest even dimension up to dim_each, and at least 2.
    region_dim = 2 * max(dim_each // 2, 1)
    _note_unused_signature(cfg, dim_each, region_dim)  # every signature is random
    for rng in _trials(cfg):
        space = sampling.random_signature(rng, dim_each)
        psi = sampling.random_state(space, rng)
        yield "iota_involution", boundary.iota(boundary.iota(psi)).max_abs_diff(psi)

        data = _random_coherent(space, rng)
        rev = boundary.reversed_space(space)
        expected = coherent.coherent_series(
            coherent.CoherentData(
                rev,
                boundary.reverse_conj_antisymmetric(data.lam),
                -boundary.reverse_vector(data.xi),
            )
        )
        yield "iota_on_coherent_states", boundary.iota(
            coherent.coherent_series(data)
        ).max_abs_diff(expected)

        m = int(rng.integers(0, space.dim + 1))
        p1 = sampling.random_state(space, rng, degree=m)
        p2 = sampling.random_state(space, rng, degree=m)
        lhs = fock.fock_inner(boundary.iota(p1), boundary.iota(p2)).real
        rhs = fock.fock_inner(p1, p2).real
        yield "iota_real_f_graded_isometry", abs(lhs - (-1.0) ** m * rhs)

        s2 = sampling.random_signature(rng, dim_each)
        q1 = sampling.random_state(s2, rng, degree=int(rng.integers(0, s2.dim + 1)))
        q2 = sampling.random_state(s2, rng, degree=q1.pure_degree() or 0)
        left = fock.fock_inner(
            boundary.tau(space, s2, p1, q1), boundary.tau(space, s2, p2, q2)
        )
        right = fock.fock_inner(p1, p2) * fock.fock_inner(q1, q2)
        yield "tau_isometry", abs(left - right)

        datab = _random_coherent(s2, rng)
        yield "tau_coherent_factorization", boundary.tau(
            space, s2, coherent.coherent_series(data), coherent.coherent_series(datab)
        ).max_abs_diff(
            coherent.coherent_series(boundary.tau_coherent_data(space, s2, data, datab))
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
                yield "slice_odd_power_traces_vanish", abs(np.trace(power))
            power = power @ a

        # The functorial axioms on random pure-degree states, drawn last.
        # T1 (graded state spaces) holds by construction.
        s1 = sampling.random_signature(rng, dim_each)
        s2 = sampling.random_signature(rng, dim_each)
        m = int(rng.integers(0, s1.dim + 1))
        n = int(rng.integers(0, s2.dim + 1))
        psi1 = sampling.random_state(s1, rng, degree=m)
        psi2 = sampling.random_state(s2, rng, degree=n)

        # T2: tau_{12}(psi1, psi2) = (-1)^(mn) * swap(tau_{21}(psi2, psi1))
        left = boundary.tau(s1, s2, psi1, psi2)
        right = boundary.swap_blocks_state(
            boundary.tau(s2, s1, psi2, psi1), s2.dim, s1.dim
        )
        yield "axiom_T2_graded_transposition", (left - (-1.0) ** (m * n) * right).max_abs()

        # T2b: tau-bar(iota psi1, iota psi2) = (-1)^(mn) iota(tau(psi1, psi2))
        left2 = boundary.tau(
            boundary.reversed_space(s1), boundary.reversed_space(s2),
            boundary.iota(psi1), boundary.iota(psi2),
        )
        right2 = boundary.iota(boundary.tau(s1, s2, psi1, psi2))
        yield "axiom_T2b_reversal_compatibility", (
            left2 - (-1.0) ** (m * n) * right2
        ).max_abs()

        # T3x: <psi', psi> = rho_slice(tau(iota(psi'), psi)) on one space
        phi1 = sampling.random_state(s1, rng, degree=int(rng.integers(0, s1.dim + 1)))
        phi2 = sampling.random_state(s1, rng, degree=int(rng.integers(0, s1.dim + 1)))
        glued = boundary.tau(boundary.reversed_space(s1), s1, boundary.iota(phi1), phi2)
        via_slice = boundary.amplitude_bruteforce(boundary.slice_region(s1), glued)
        yield "axiom_T3x_inner_product_from_slice", abs(via_slice - fock.fock_inner(phi1, phi2))

        # T5a: rho_{M1 u M2}(tau(chi1, chi2)) = rho_{M1}(chi1) rho_{M2}(chi2)
        r1 = boundary.random_region(region_dim, rng)
        r2 = boundary.random_region(region_dim, rng)
        chi1 = sampling.random_state(r1.space, rng)
        chi2 = sampling.random_state(r2.space, rng)
        union = boundary.disjoint_union(r1, r2)
        product = boundary.amplitude_bruteforce(r1, chi1) * boundary.amplitude_bruteforce(r2, chi2)
        joint = boundary.amplitude_bruteforce(
            union, boundary.tau(r1.space, r2.space, chi1, chi2)
        )
        yield "axiom_T5a_disjoint_multiplicativity", abs(joint - product)


# -- combinatorics --------------------------------------------------------------


@_suite(
    "combinatorics",
    Check("enumeration_equals_recursion", 0.0),
    Check("enumeration_weight_homogeneous", 0.0),
    Check("recursion_equals_closed_form", 0.0),
    Check("coefficient_sums_factorial", 0.0),
    Check("exp_series_identity", 0.0),
    Check("anchor_polynomials", 0.0),
    Check("pairing_monomial_relabeling_invariance", 0.0),
    Check("symmetry_group_order", 0.0),
)
def suite_combinatorics(cfg: RunConfig):
    limit = cycleindex.ENUMERATION_LIMIT
    max_enum = min(cfg.max_degree or limit, limit)
    for n in range(max_enum + 1):
        p_enum = cycleindex.p_n_enumerate(n)
        yield "enumeration_equals_recursion", float(not p_enum == cycleindex.p_n_recursive(n))
        yield "coefficient_sums_factorial", float(
            not p_enum.coefficient_sum() == Fraction(factorial(2 * n))
        )
        yield "enumeration_weight_homogeneous", float(not p_enum.is_weight_homogeneous(n))
    top = cfg.max_degree or 8
    for n in range(top + 1):
        q_rec = cycleindex.q_n_recursive(n)
        yield "recursion_equals_closed_form", float(not q_rec == cycleindex.q_n_closed(n))
        yield "recursion_equals_closed_form", float(
            not cycleindex.p_to_q(cycleindex.p_n_recursive(n), n) == q_rec
        )
        yield "coefficient_sums_factorial", float(
            not cycleindex.p_n_recursive(n).coefficient_sum() == Fraction(factorial(2 * n))
        )
    for n_ok in cycleindex.series_identity_check(min(top, 8)).values():
        yield "exp_series_identity", float(not n_ok)

    anchors = (
        cycleindex.p_n_recursive(1)
        == cycleindex.CycleIndexPoly("x", {(1,): Fraction(2)}),
        cycleindex.q_n_recursive(2)
        == cycleindex.CycleIndexPoly("y", {(2,): Fraction(1, 2), (0, 1): Fraction(1, 2)}),
        cycleindex.p_n_enumerate(2)
        == cycleindex.CycleIndexPoly("x", {(2,): Fraction(8), (0, 1): Fraction(16)}),
        cycleindex.evaluate_poly(cycleindex.q_n_closed(2), [0.0, 2.0]) == 1.0,
    )
    for ok in anchors:
        yield "anchor_polynomials", float(not ok)

    for rng in _trials(cfg, count=min(cfg.trials, 200)):
        n = int(rng.integers(1, 5))
        sigma = list(rng.permutation(2 * n))
        base = cycleindex.p_sigma(sigma)
        relabel = _pair_preserving_relabeling(rng, n)
        left = cycleindex.p_sigma([relabel[sigma[i]] for i in range(2 * n)])
        right = cycleindex.p_sigma([sigma[relabel[i]] for i in range(2 * n)])
        yield "pairing_monomial_relabeling_invariance", float(not base == left == right)
        yield "pairing_monomial_relabeling_invariance", float(
            not sum((k + 1) * j for k, j in enumerate(base)) == n
        )

    for n in (1, 2, 3):
        yield "symmetry_group_order", float(not len(_pair_group(n)) == 2**n * factorial(n))


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


SUITE_NAMES = (*SUITES, "all")


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run one suite, or every suite in table order for ``"all"`` (check
    names then carry their suite as a prefix). ``signature_unused`` of the
    report lists, per suite, the dims at which it drew random signatures
    in place of the configured one."""
    cfg.validate()
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    rep = Report(name, cfg.seed, asdict(cfg))
    for sub in SUITES if name == "all" else (name,):
        checks, samples = SUITES[sub]
        noted = set()
        token = _unused_signature_dims.set(noted)
        try:
            results = _tally(checks, samples(cfg), cfg)
        finally:
            _unused_signature_dims.reset(token)
        if noted:
            rep.signature_unused[sub] = sorted(noted)
        for c in results:
            if name == "all":
                c.name = f"{sub}.{c.name}"
            rep.checks.append(c)
    return rep
