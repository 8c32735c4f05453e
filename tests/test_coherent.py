"""Coherent states: constructions, closed-form overlap, reproducing map."""

import inspect
import itertools
import logging
import re
from math import factorial, pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockkrein import boundary, coherent, fock, krein, sampling
from fockkrein.coherent import (
    CoherentData,
    coherent_explicit,
    coherent_series,
    det_sqrt_tracelog,
    overlap_closed,
    wave_function,
)
from fockkrein.krein import HypothesisViolationError, KreinSpace
from test_lie import perm_sign


def make_data(space, rng, scale=0.7):
    lam = sampling.random_conj_antisymmetric(space, rng, scale=scale)
    return CoherentData(space, lam.matrix, sampling.random_vector(space, rng))


def test_zero_data_gives_vacuum():
    space = KreinSpace(3, (1, -1, 1))
    data = CoherentData.zero(space)
    assert coherent_series(data).max_abs_diff(fock.vacuum(space)) == 0
    assert coherent_explicit(data).max_abs_diff(fock.vacuum(space)) == 0


def test_pure_mode_data_truncates():
    space = KreinSpace(3, (1, 1, -1))
    rng = np.random.default_rng(0)
    xi = sampling.random_vector(space, rng)
    data = CoherentData(space, np.zeros((3, 3)), xi)
    expected = fock.vacuum(space) + (1 / sqrt(2)) * fock.create(xi, fock.vacuum(space))
    assert coherent_series(data).max_abs_diff(expected) < 1e-15
    assert coherent_explicit(data).max_abs_diff(expected) < 1e-15


def test_degree_one_component_formula():
    space = KreinSpace(2, (1, -1))
    rng = np.random.default_rng(1)
    xi = sampling.random_vector(space, rng)
    data = CoherentData(space, np.zeros((2, 2)), xi)
    state = coherent_explicit(data)
    for j in range(2):
        expected = 0.5 * krein.inner(space, xi, space.basis_vector(j))
        assert state.coefficient((j,)) == pytest.approx(expected)


def test_dim2_degree_two_coefficient():
    space = KreinSpace(2, (1, 1))
    a = 0.45 + 0.35j
    data = CoherentData(space, np.array([[0, a], [-a, 0]]), np.zeros(2))
    assert coherent_series(data).coefficient((0, 1)) == pytest.approx(np.conj(a) / 4)
    assert coherent_explicit(data).coefficient((0, 1)) == pytest.approx(np.conj(a) / 4)


def permutation_walk(data):
    """The literal degree-wise permutation sums over all (2n)! or (2n+1)!
    permutations, the reference for ``coherent_explicit``'s matching sum."""
    space = data.space
    d = space.dim
    sig = space.signature
    m = data.lam
    comps = {0: np.ones(1, dtype=complex)}
    for deg in range(1, d + 1):
        tuples = fock.index_tuples(d, deg)
        coeffs = np.zeros(len(tuples), dtype=complex)
        n = deg // 2
        pref = 1.0 / (2.0 ** deg * factorial(n) * factorial(deg))
        for idx, J in enumerate(tuples):
            w = np.array([[sig[a] * np.conj(m[a, b]) for b in J] for a in J])
            xw = np.array([sig[j] * np.conj(data.xi[j]) for j in J])
            odd = deg % 2
            acc = 0j
            for perm in itertools.permutations(range(deg)):
                term = complex(perm_sign(perm)) * (xw[perm[0]] if odd else 1.0)
                for k in range(n):
                    term *= w[perm[2 * k + odd], perm[2 * k + 1 + odd]]
                acc += term
            coeffs[idx] = pref * acc
        comps[deg] = coeffs
    return fock.FockState.from_components(space, comps)


@pytest.mark.parametrize("dim", range(1, 7))
def test_matching_sum_equals_permutation_walk(dim):
    rng = np.random.default_rng(20 + dim)
    space = sampling.random_signature(rng, dim)
    lam = sampling.random_conj_antisymmetric(space, rng).matrix
    xi = sampling.random_vector(space, rng)
    for data in (make_data(space, rng), make_data(space, rng, scale=1.5),
                 CoherentData(space, lam, np.zeros(dim)),
                 CoherentData(space, np.zeros((dim, dim)), xi)):
        assert coherent_explicit(data).max_abs_diff(permutation_walk(data)) < 1e-15


def test_series_equals_explicit_across_dims_and_signatures():
    rng = np.random.default_rng(2)
    for dim in range(1, 11):
        for _ in range(10):
            space = sampling.random_signature(rng, dim)
            data = make_data(space, rng)
            dev = coherent_series(data).max_abs_diff(coherent_explicit(data))
            assert dev < 1e-12


def test_explicit_guard():
    assert coherent.EXPLICIT_PAIR_LIMIT == 5
    space = KreinSpace(12, tuple([1] * 12))
    with pytest.raises(ValueError):
        coherent_explicit(CoherentData.zero(space))


def test_overlap_anchors():
    space = KreinSpace(3, (1, -1, 1))
    assert overlap_closed(CoherentData.zero(space), CoherentData.zero(space)) == 1
    rng = np.random.default_rng(3)
    xi = sampling.random_vector(space, rng)
    xi2 = sampling.random_vector(space, rng)
    z1 = CoherentData(space, np.zeros((3, 3)), xi)
    z2 = CoherentData(space, np.zeros((3, 3)), xi2)
    expected = 1 + 0.5 * krein.inner(space, xi2, xi)
    assert overlap_closed(z1, z2) == pytest.approx(expected, abs=1e-12)
    direct = fock.fock_inner(coherent_series(z1), coherent_series(z2))
    assert direct == pytest.approx(expected, abs=1e-12)


def test_overlap_dim2_worked_case():
    space = KreinSpace(2, (1, 1))
    a = 0.6 - 0.25j
    data = CoherentData(space, np.array([[0, a], [-a, 0]]), np.zeros(2))
    prod = data.lam @ np.conj(data.lam)
    assert np.allclose(prod, -abs(a) ** 2 * np.eye(2))
    assert overlap_closed(data, data) == pytest.approx(1 + abs(a) ** 2, abs=1e-12)
    direct = fock.fock_inner(coherent_series(data), coherent_series(data))
    assert direct == pytest.approx(1 + abs(a) ** 2, abs=1e-12)


def test_overlap_matches_inner_product_random():
    rng = np.random.default_rng(4)
    for dim in range(1, 7):
        for _ in range(8):
            space = sampling.random_signature(rng, dim)
            d1 = make_data(space, rng)
            d2 = make_data(space, rng)
            a1, a2 = sampling.scale_pair_for_product(d1.operator(), d2.operator(), 0.5)
            d1 = CoherentData(space, a1.matrix, d1.xi)
            d2 = CoherentData(space, a2.matrix, d2.xi)
            closed = overlap_closed(d1, d2)
            direct = fock.fock_inner(coherent_series(d1), coherent_series(d2))
            assert abs(closed - direct) <= 1e-8 * max(abs(direct), 1.0)


def test_overlap_norm_guard():
    space = KreinSpace(4, (1, 1, -1, -1))
    rng = np.random.default_rng(5)
    d1 = make_data(space, rng, scale=1.0)
    d2 = make_data(space, rng, scale=1.0)
    nrm = krein.operator_norm(krein.compose(d1.operator(), d2.operator()))
    d1 = CoherentData(space, d1.lam * (1.2 / nrm), d1.xi)
    with pytest.raises(HypothesisViolationError):
        overlap_closed(d1, d2)


def test_det_sqrt_tracelog_against_direct_determinant():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = 0.3 * sampling.unit_disc(rng, (4, 4))
        val = det_sqrt_tracelog(a)
        assert val**2 == pytest.approx(np.linalg.det(np.eye(4) - a), abs=1e-12)
    with pytest.raises(HypothesisViolationError):
        det_sqrt_tracelog(np.eye(2) * 1.5)


def plain_series(a, tol=1e-15):
    """det(1 - a)^(1/2) as exp(1/2 sum_k -tr(a^k)/k) summed on a itself until
    the tail bound d sigma^(k+1) / ((k+1)(1 - sigma)) falls below tol: an
    algorithm that shares no step with the root ``det_sqrt_tracelog`` takes."""
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    sigma = float(np.linalg.norm(a, 2))
    if sigma == 0.0:
        return 1.0 + 0j
    log_half = 0j
    power = a
    k = 1
    while True:
        log_half += -np.trace(power) / (2.0 * k)
        if d * sigma ** (k + 1) / ((k + 1) * (1.0 - sigma)) < tol:
            break
        power = power @ a
        k += 1
    return complex(np.exp(log_half))


def denman_beavers_root(r, step_tol=1e-8):
    """Principal square root of r (spectrum off the closed negative axis) by
    the product-form Denman-Beavers iteration run to convergence (Higham,
    Functions of Matrices, 2008, eq. 6.17): M <- (1 + (M + M^-1)/2)/2,
    X <- X (1 + M^-1)/2 from M = X = r, so X -> r^(1/2) and M -> 1. Since
    M' - 1 = (M - 1)^2 M^-1 / 4, one more step after ||M - 1||_1 < step_tol
    leaves M at rounding level, and the iteration stops there."""
    eye = np.eye(len(r))
    x = m = r
    last = False
    while True:
        m_inv = np.linalg.inv(m)
        x = 0.5 * (x + x @ m_inv)
        if last:
            return x
        m = 0.5 * eye + 0.25 * (m + m_inv)
        last = np.linalg.norm(m - eye, 1) < step_tol


def multi_root(a, tol=1e-15):
    """det(1 - a)^(1/2) by inverse scaling and squaring, the route
    ``det_sqrt_tracelog`` took for ||a||_op > 1/2 before it took one root and
    one determinant: replace a by 1 - (1 - a)^(1/2) until ||a||_op <= 1/2,
    sum the plain series there to tol / 2^k and raise it to the power 2^k
    for k roots."""
    a = np.asarray(a, dtype=complex)
    eye = np.eye(len(a))
    roots = 0
    while np.linalg.norm(a, 2) > 0.5:
        a = eye - denman_beavers_root(eye - a)
        roots += 1
    return plain_series(a, tol / 2.0**roots) ** (2**roots)


def sample_matrix(kind, d, sigma, rng, noise=0.0):
    """A d x d matrix with ||a||_op = sigma up to rounding: a dense Gaussian,
    a non-normal shift matrix plus ``noise`` times a Gaussian, a normal
    matrix with every eigenvalue on the circle of radius sigma, or a
    Hermitian Q diag(sigma u) Q^H with u in [-1, 1] and top eigenvalue sigma,
    so that 1 - a has an eigenvalue 1 - sigma."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "shift":
        g = np.eye(d, k=1) + noise * g
    elif kind in ("normal", "hermitian"):
        q = np.linalg.qr(g)[0]
        if kind == "normal":
            spectrum = np.exp(2j * pi * rng.uniform(size=d))
        else:
            spectrum = rng.uniform(-1.0, 1.0, size=d)
            spectrum[0] = 1.0
        g = (q * spectrum) @ q.conj().T
    return g * (sigma / np.linalg.norm(g, 2))


# "hermitian" stays out of KINDS: its eigenvalue 1 - sigma of 1 - a gives
# det(1 - a) a relative condition of about eps / (1 - sigma) under the
# rounding of a alone, beyond the fixed tolerances of the tests over KINDS
# as sigma -> 1 for any double-precision route or reference.
KINDS = ("gaussian", "shift", "normal")


@st.composite
def matrices(draw, low, high):
    """(sigma, a) with ||a||_op = sigma in [low, high), up to rounding, from
    ``sample_matrix`` with the shift noise drawn from {0, 1e-6, 1e-3, 0.1}."""
    d = draw(st.integers(2, 32))
    sigma = draw(st.floats(low, high, exclude_max=True))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.sampled_from((0.0, 1e-6, 1e-3, 0.1))) if kind == "shift" else 0.0
    a = sample_matrix(kind, d, sigma, rng, noise)
    assume(np.linalg.norm(a, 2) < 1.0)
    return sigma, a


NEAR_BOUNDARY = settings(max_examples=60, deadline=None, derandomize=True)


@NEAR_BOUNDARY
@given(matrices(0.9, 1.0))
def test_det_sqrt_squares_to_determinant_near_norm_one(case):
    _, a = case
    rho = det_sqrt_tracelog(a)
    det = np.linalg.det(np.eye(len(a)) - a)
    assert abs(abs(rho) ** 2 - abs(det)) <= 1e-10 * abs(det)
    assert abs(rho**2 - det) <= 1e-10 * abs(det)


@NEAR_BOUNDARY
@given(matrices(0.0, 0.99))
def test_det_sqrt_agrees_with_plain_series(case):
    _, a = case
    reference = plain_series(a)
    assert abs(det_sqrt_tracelog(a) - reference) <= 1e-12 * abs(reference)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(matrices(0.9, 1.0))
def test_det_sqrt_stays_on_the_continuous_branch(case):
    # Along t a, t in [0, 1], the branch continued from rho(0) = 1 is the
    # product of principal roots (1 - t lam_j)^(1/2) over the eigenvalues
    # lam_j of a (each factor stays in the right half-plane). A sign flip
    # would show as a relative jump of 2 between consecutive steps.
    _, a = case
    lam = np.linalg.eigvals(a)
    previous = None
    for t in np.linspace(0.0, 1.0, 65):
        rho = det_sqrt_tracelog(t * a)
        branch = np.prod(np.sqrt(1.0 - t * lam))
        assert abs(rho - branch) <= 1e-10 * abs(branch)
        if previous is not None:  # no larger jump than the branch makes over the step
            assert abs(rho / previous[0] - 1) <= abs(branch / previous[1] - 1) + 1e-9
        previous = rho, branch


def counted_roots(monkeypatch):
    """Route ``coherent._det_root`` through a wrapper; returns its call list."""
    calls = []
    det_root = coherent._det_root

    def counting(r):
        calls.append(len(r))
        return det_root(r)

    monkeypatch.setattr(coherent, "_det_root", counting)
    return calls


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 0.999, 1 - 1e-9])
def test_det_sqrt_takes_one_root(sigma, monkeypatch):
    a = sample_matrix("gaussian", 16, sigma, np.random.default_rng(12))
    calls = counted_roots(monkeypatch)
    det_sqrt_tracelog(a)
    assert calls == [16]


def test_det_sqrt_of_zero_is_one():
    for d in (0, 1, 16):  # the empty determinant is 1 as well
        assert det_sqrt_tracelog(np.zeros((d, d))) == 1


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 0.0]],
    [[np.inf, 0.0], [0.0, 0.0]],
    [[0.0, -np.inf], [0.0, 0.0]],
    [[np.nan, np.inf], [0.1, 1j * np.inf]],
], ids=["nan", "inf", "minus-inf", "mixed"])
def test_det_sqrt_refuses_non_finite_input(entries):
    with pytest.raises(ValueError, match="non-finite"):
        det_sqrt_tracelog(np.array(entries))


@pytest.mark.parametrize("entries", [
    np.zeros(3), 0.5, np.zeros((2, 2, 2)), np.zeros((2, 3)),
], ids=["1-D", "scalar", "3-D", "2x3"])
def test_det_sqrt_refuses_a_non_square_input(entries):
    shape = np.shape(entries)
    with pytest.raises(ValueError, match=re.escape(f"square matrix, got shape {shape}")):
        det_sqrt_tracelog(entries)


def counted_svds(monkeypatch):
    """Route ``np.linalg.svd``, the one ``np.linalg.norm`` calls included,
    through a wrapper; returns its call list."""
    calls = []
    svd = np.linalg.svd

    def counting(m, *args, **kwargs):
        calls.append(np.shape(m))
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", counting)
    return calls


def coherent_pair(d, sigma, rng):
    """A balanced space and a coherent pair on it with ||L L'||_op = sigma:
    L = S B with B antisymmetric and L' = -B S, and small mode vectors."""
    space = sampling.random_signature(rng, d, balanced=True)
    m1 = sampling.random_conj_antisymmetric(space, rng).matrix
    m2 = -(space.signs[:, None] * m1) * space.signs[None, :]
    f = np.sqrt(sigma / krein.operator_norm(m1 @ np.conj(m2)))
    xi_scale = 0.25 * np.sqrt(abs(1.0 - np.sqrt(sigma))) / np.sqrt(d)
    return space, *(CoherentData(space, m * f, sampling.random_vector(space, rng, scale=xi_scale))
                    for m in (m1, m2))


def slice_matrix(d, sigma, rng):
    """u Lam of the slice region for a ``coherent_pair``."""
    region, assembled = boundary.assemble_slice_data(*coherent_pair(d, sigma, rng))
    return region.u.matrix @ np.conj(assembled.lam)


EPS = np.finfo(float).eps
ACROSS_ONE = [1 + k * EPS for k in range(-400, 401, 16)] + [1 - 1e-3, 1 - 1e-9, 1 - 1e-12]


@pytest.mark.parametrize("d", [4, 16, 64, 128])
def test_guard_refuses_exactly_when_the_svd_norm_reaches_one(d, monkeypatch):
    # The Cholesky certificate may only accept: every refusal is the SVD's,
    # one SVD call, with the wording that names the norm it read.
    rng = np.random.default_rng(20 + d)
    bases = [sample_matrix(kind, d, 1.0, rng, noise=1e-3) for kind in KINDS]
    cases = [(base * s, krein.operator_norm(base * s)) for base in bases for s in ACROSS_ONE]
    assert {sigma >= 1.0 for _, sigma in cases} == {False, True}
    calls = counted_svds(monkeypatch)
    for a, sigma in cases:
        calls.clear()
        if sigma >= 1.0:
            with pytest.raises(HypothesisViolationError, match=f"operator norm {sigma:.6g} >= 1"):
                det_sqrt_tracelog(a)
            assert len(calls) == 1
        else:
            rho = det_sqrt_tracelog(a)
            assert len(calls) <= 1
            assert np.isfinite(rho)


def closed_routes(d, sigma, rng):
    """(route, call, norm wording) for each closed route at norm sigma: the
    root of a Gaussian, the overlap of a pair with ||L L'||_op = sigma, the
    amplitude with ||u Lam||_op = sigma, and the slice inner product of the
    overlap pair (||u Lam||_op about sigma^(1/2) on its slice region)."""
    a = sample_matrix("gaussian", d, sigma, rng)
    space, d1, d2 = coherent_pair(d, sigma, rng)
    region = boundary.random_region(d, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    lam = lam * (sigma / krein.operator_norm(region.u.matrix @ np.conj(lam)))
    data = CoherentData(region.space, lam, sampling.random_vector(region.space, rng))
    return [
        ("det_sqrt_tracelog", lambda: det_sqrt_tracelog(a), "operator norm"),
        ("overlap_closed", lambda: overlap_closed(d1, d2), "||L L'||_op ="),
        ("amplitude_closed", lambda: boundary.amplitude_closed(region, data), "||u Lam||_op ="),
        ("slice_inner", lambda: boundary.slice_inner(space, d1, d2), "||u Lam||_op ="),
    ]


@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("d", [4, 16, 32])
def test_closed_routes_take_no_svd_inside_the_hypothesis(d, sigma, monkeypatch):
    routes = closed_routes(d, sigma, np.random.default_rng(21))
    calls = counted_svds(monkeypatch)
    for _, call, _ in routes:
        assert np.isfinite(call())
    assert calls == []


@pytest.mark.parametrize("d", [4, 16])
def test_closed_route_refusals_take_one_svd_and_keep_their_wording(d, monkeypatch):
    routes = closed_routes(d, 1.5, np.random.default_rng(22))
    calls = counted_svds(monkeypatch)
    for route, call, wording in routes:
        calls.clear()
        with pytest.raises(HypothesisViolationError,
                           match=re.escape(wording) + r" \S+ >= 1; the closed form does not apply"):
            call()
        assert len(calls) == 1, route


@pytest.mark.parametrize("norm", [1.3e100, 1.3e155])
def test_closed_routes_refuse_where_a_h_a_overflows(norm):
    # At 1.3e155, a^H a overflows, and LAPACK's Cholesky completes on its
    # NaN entries; the SVD decides instead.
    rng = np.random.default_rng(0)
    region = boundary.random_region(4, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    lam = lam * (norm / krein.operator_norm(region.u.matrix @ np.conj(lam)))
    data = CoherentData(region.space, lam, np.zeros(4))
    for call in (lambda: boundary.amplitude_closed(region, data),
                 lambda: det_sqrt_tracelog(region.u.matrix @ np.conj(lam)),
                 lambda: boundary.slice_inner(region.space, data, data)):
        with pytest.raises(HypothesisViolationError, match=" >= 1; the closed form does not apply"):
            call()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
def test_closed_routes_answer_finitely_or_refuse_at_every_scale(k, seed):
    # Every Lam scaled by 10^k, so L L' by 10^(2k): it overflows from k = 155.
    rng = np.random.default_rng(seed)
    region = boundary.random_region(4, rng)
    space = region.space
    one, two = (CoherentData(space, sampling.random_conj_antisymmetric(space, rng, 10.0**k).matrix,
                             sampling.random_vector(space, rng)) for _ in range(2))
    for call in (lambda: det_sqrt_tracelog(region.u.matrix @ np.conj(one.lam)),
                 lambda: boundary.amplitude_closed(region, one),
                 lambda: overlap_closed(one, two),
                 lambda: boundary.slice_inner(space, one, two)):
        try:
            assert np.isfinite(call())
        except HypothesisViolationError:
            pass


def test_guard_logs_the_root_at_debug_only(caplog, monkeypatch):
    a = sample_matrix("gaussian", 16, 0.9, np.random.default_rng(23))
    near = sample_matrix("normal", 16, 1 - 1e-15, np.random.default_rng(23))
    assert krein.operator_norm(near) < 1.0
    logged = []
    monkeypatch.setattr(coherent._LOG, "debug", lambda *args: logged.append(args))
    det_sqrt_tracelog(a)  # the logger's default level is WARNING
    assert logged == [] and caplog.records == []
    monkeypatch.undo()
    with caplog.at_level(logging.DEBUG, logger="fockkrein"):
        det_sqrt_tracelog(a)
        det_sqrt_tracelog(near)
    assert [(r.name, r.levelno) for r in caplog.records] == [("fockkrein", logging.DEBUG)] * 2
    for message, m, svd_ran in zip(caplog.messages, (a, near), ("False", "True")):
        logged = re.fullmatch(r"det root: n=16 svd_fallback=(\w+) min_re_pivot=(\S+)", message)
        assert logged and logged[1] == svd_ran
        assert 1.0 - krein.operator_norm(m) <= float(logged[2]) < 2.0  # the record bounds the margin


@pytest.mark.parametrize("sigma", [0.9, 0.999, 1 - 1e-6])
@pytest.mark.parametrize("d", [16, 64])
def test_det_sqrt_agrees_with_multi_root_reference(d, sigma):
    rng = np.random.default_rng(14)
    for kind in KINDS:
        a = sample_matrix(kind, d, sigma, rng, noise=1e-3)
        reference = multi_root(a)
        assert abs(det_sqrt_tracelog(a) - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("sigma", [0.6, 0.999, 1 - 1e-9, 1 - 1e-12])
@pytest.mark.parametrize("d", [16, 64, 128, 256])
@pytest.mark.parametrize("kind", KINDS)
def test_det_sqrt_is_the_product_of_principal_eigenvalue_roots(kind, d, sigma):
    a = sample_matrix(kind, d, sigma, np.random.default_rng(16), noise=1e-3)
    for m in (a, a * (0.49 / np.linalg.norm(a))):  # and below Frobenius norm 1/2
        branch = np.prod(np.sqrt(1.0 - np.linalg.eigvals(m)))
        assert abs(det_sqrt_tracelog(m) - branch) <= 1e-12 * abs(branch)


@pytest.mark.parametrize("sigma", [0.9, 0.999, 1 - 1e-9])
@pytest.mark.parametrize("d", [16, 64, 128])
@pytest.mark.parametrize("theta", [pi / 3, pi / 2, 2 * pi / 3], ids=["pi/3", "pi/2", "2pi/3"])
def test_det_root_keeps_the_branch_on_a_clustered_spectrum(theta, d, sigma):
    # Every eigenvalue of a sits near sigma e^(i theta), so sum_j Arg(1 - lam_j)
    # runs to many times pi and a root that stopped with the eigenvalues of
    # M too far from 1 would land on the wrong sign of det(1 - a)^(1/2).
    rng = np.random.default_rng(24)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = sigma * np.exp(1j * theta) * np.eye(d) + 1e-3 * g
    a *= sigma / np.linalg.norm(a, 2)
    lam = np.linalg.eigvals(a)
    assert abs(np.sum(np.angle(1.0 - lam))) > 2 * pi
    branch = np.prod(np.sqrt(1.0 - lam))
    assert abs(det_sqrt_tracelog(a) - branch) <= 1e-12 * abs(branch)


def test_det_root_keeps_the_principal_branch_where_sqrt_det_has_the_wrong_sign(caplog):
    # r = e^(i alpha) 1 at n = 64: sum_j Arg r_j = 3.84 > pi, so the
    # principal root of det(r) is the wrong sign of
    # prod_j r_j^(1/2) = e^(i n alpha / 2); each pivot is e^(i alpha).
    n, alpha = 64, 0.06
    r = np.exp(1j * alpha) * np.eye(n)
    assert n * alpha > pi
    branch = np.exp(0.5j * n * alpha)
    assert abs(np.sqrt(np.linalg.det(r)) + branch) < 1e-12  # the principal root is -branch
    root, min_re_pivot = coherent._det_root(r)
    assert abs(root - branch) <= 1e-12
    assert min_re_pivot == pytest.approx(np.cos(alpha), abs=1e-15)
    with caplog.at_level(logging.DEBUG, logger="fockkrein"):
        assert abs(det_sqrt_tracelog(np.eye(n) - r) - branch) <= 1e-12
    assert re.fullmatch(r"det root: n=64 svd_fallback=False min_re_pivot=0\.9982\d*",
                        caplog.messages[0])


def root_input(kind, d, sigma, rng):
    """``sample_matrix`` of that kind (shift noise 1e-3), or for "slice" the
    2d x 2d ``slice_matrix``."""
    if kind == "slice":
        return slice_matrix(d, sigma, rng)
    return sample_matrix(kind, d, sigma, rng, noise=1e-3)


def unpivoted_lu_pivots(r):
    """The pivots of Gaussian elimination without row exchanges on r, one
    rank-1 update per column (Golub and Van Loan, Matrix Computations,
    alg. 3.2.1): a reference that shares no step with ``coherent._pivots``."""
    u = np.array(r, dtype=complex)
    for k in range(len(u) - 1):
        u[k + 1:, k + 1:] -= np.outer(u[k + 1:, k] / u[k, k], u[k, k + 1:])
    return np.diag(u).copy()


@pytest.mark.parametrize("n", [0, 1, 5, 8, 9, 13, 16, 24, 31, 40, 64])
def test_pivots_are_the_unpivoted_lu_pivots(n):
    # Sizes off a multiple of 8 check the identity padding of ``_pivots``.
    a = sample_matrix("gaussian", n, 0.9, np.random.default_rng(29)) if n else np.zeros((0, 0))
    r = np.eye(n) - a
    pivots = coherent._pivots(r)
    reference = unpivoted_lu_pivots(r)
    assert pivots.shape == (n,)
    assert np.all(np.abs(pivots - reference) <= 1e-13 * np.abs(reference))
    assert abs(np.prod(pivots) - np.linalg.det(r)) <= 1e-12 * abs(np.linalg.det(r))


@pytest.mark.parametrize("sigma", [0.5, 0.999, 1 - 1e-6, 1 - 1e-12])
@pytest.mark.parametrize("d", [8, 16, 32, 64, 128])
@pytest.mark.parametrize("kind", (*KINDS, "hermitian", "slice"))
def test_every_pivot_keeps_the_norm_margin(kind, d, sigma):
    # Re r >= (1 - ||a||_op) 1 for r = 1 - a, and the real part of every
    # pivot of the unpivoted LU factorization is at least lambda_min(Re r),
    # which is what keeps prod_k u_kk^(1/2) on the principal branch.
    a = root_input(kind, d, sigma, np.random.default_rng(28))
    margin = 1.0 - krein.operator_norm(a)
    assert margin > 0.0
    pivots = coherent._pivots(np.eye(len(a)) - a)
    assert len(pivots) == len(a)
    assert pivots.real.min() >= margin


@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.999])
@pytest.mark.parametrize("d", [4, 16, 64])
def test_closed_routes_make_no_inversion(d, sigma, monkeypatch):
    routes = closed_routes(d, sigma, np.random.default_rng(30))

    def refusing(m):
        raise AssertionError("np.linalg.inv was called")

    monkeypatch.setattr(np.linalg, "inv", refusing)
    for _, call, _ in routes:
        assert np.isfinite(call())


def weyl_stopped_root(r):
    """det(r)^(1/2) by the unscaled product-form Denman-Beavers iteration
    stopped once n ||M - 1||_F^2 < 1 (the Weyl bound, under which
    sum_j |Arg m_j| < pi/2), then det(X) / det(M)^(1/2) with the principal
    root: a reference with neither the scaling nor the trace pick of
    ``_det_root``."""
    n = len(r)
    eye = np.eye(n)
    x = m = r
    while n * np.linalg.norm(m - eye) ** 2 >= 1.0:
        m_inv = np.linalg.inv(m)
        x = 0.5 * (x + x @ m_inv)
        m = 0.5 * eye + 0.25 * (m + m_inv)
    return np.linalg.det(x) / np.sqrt(complex(np.linalg.det(m)))


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("d", [8, 32, 64])
@pytest.mark.parametrize("kind", (*KINDS, "hermitian", "slice"))
def test_det_root_agrees_with_the_weyl_stopped_root(kind, d, sigma):
    a = root_input(kind, d, sigma, np.random.default_rng(27))
    r = np.eye(len(a)) - a
    for reference in (weyl_stopped_root(r), np.linalg.det(denman_beavers_root(r))):
        assert abs(coherent._det_root(r)[0] - reference) <= 1e-12 * abs(reference)


@pytest.mark.parametrize("sigma", [0.9, 0.999, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12])
@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("kind", KINDS)
def test_det_sqrt_squares_to_determinant_at_large_dims(kind, d, sigma):
    a = sample_matrix(kind, d, sigma, np.random.default_rng(15), noise=1e-3)
    assert np.linalg.norm(a, 2) < 1.0
    rho = det_sqrt_tracelog(a)
    det = np.linalg.det(np.eye(d) - a)
    assert abs(rho**2 - det) <= 1e-10 * abs(det)


def test_wave_function_on_vacuum_and_reproducing():
    rng = np.random.default_rng(7)
    space = sampling.random_signature(rng, 4)
    data = make_data(space, rng)
    assert wave_function(data, fock.vacuum(space)) == pytest.approx(1.0)
    other = make_data(space, rng)
    a1, a2 = sampling.scale_pair_for_product(data.operator(), other.operator(), 0.5)
    d1 = CoherentData(space, a1.matrix, data.xi)
    d2 = CoherentData(space, a2.matrix, other.xi)
    assert wave_function(d1, coherent_series(d2)) == pytest.approx(
        overlap_closed(d1, d2), rel=1e-8
    )


def test_even_components_independent_of_xi():
    rng = np.random.default_rng(8)
    space = sampling.random_signature(rng, 4)
    lam = sampling.random_conj_antisymmetric(space, rng).matrix
    s1 = coherent_series(CoherentData(space, lam, sampling.random_vector(space, rng)))
    s2 = coherent_series(CoherentData(space, lam, sampling.random_vector(space, rng)))
    for n in range(0, 5, 2):
        assert np.array_equal(s1.component(n), s2.component(n))
    assert s1.max_abs_diff(s2) > 0  # odd components do change


def test_wave_function_antiholomorphy_residual():
    # The parameter space carries the opposite complex structure, so
    # anti-holomorphy there reads as a vanishing conj-Wirtinger derivative
    # in the raw xi coordinates.
    rng = np.random.default_rng(9)
    space = sampling.random_signature(rng, 3)
    data = make_data(space, rng)
    psi = sampling.random_state(space, rng)
    h = 1e-5
    for j in range(space.dim):
        e = space.basis_vector(j)

        def f(shift):
            return wave_function(CoherentData(space, data.lam, data.xi + shift), psi)

        d_re = (f(h * e) - f(-h * e)) / (2 * h)
        d_im = (f(1j * h * e) - f(-1j * h * e)) / (2 * h)
        assert abs(0.5 * (d_re + 1j * d_im)) < 1e-6


def test_injectivity_spot_check():
    rng = np.random.default_rng(10)
    space = sampling.random_signature(rng, 4)
    for _ in range(50):
        s1 = coherent_series(make_data(space, rng))
        s2 = coherent_series(make_data(space, rng))
        assert s1.max_abs_diff(s2) > 1e-6


def test_coherent_span_reaches_full_rank():
    # random coherent families of size 2^d are generically a spanning set
    rng = np.random.default_rng(11)
    space = sampling.random_signature(rng, 3)
    vectors = [
        coherent_series(make_data(space, rng)).vector
        for _ in range(fock.fock_dimension(3))
    ]
    assert np.linalg.matrix_rank(np.array(vectors), tol=1e-10) == 8
