"""Coherent states: constructions, closed-form overlap, reproducing map."""

from math import pi, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockkrein import coherent, fock, krein, sampling
from fockkrein.coherent import (
    CoherentData,
    coherent_explicit,
    coherent_series,
    det_sqrt_tracelog,
    overlap_closed,
    wave_function,
)
from fockkrein.krein import HypothesisViolationError, KreinSpace


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


def test_series_equals_explicit_across_dims_and_signatures():
    rng = np.random.default_rng(2)
    for dim in range(1, 7):
        for _ in range(10):
            space = sampling.random_signature(rng, dim)
            data = make_data(space, rng)
            dev = coherent_series(data).max_abs_diff(coherent_explicit(data))
            assert dev < 1e-12


def test_explicit_guard():
    space = KreinSpace(8, tuple([1] * 8))
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
    """det(1 - a)^(1/2) as exp(1/2 sum_k -tr(a^k)/k) summed on a itself, the
    route ``det_sqrt_tracelog`` takes for ||a||_op <= 1/2 without any root."""
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
        a = eye - coherent._sqrtm(eye - a)
        roots += 1
    return plain_series(a, tol / 2.0**roots) ** (2**roots)


def sample_matrix(kind, d, sigma, rng, noise=0.0):
    """A d x d matrix with ||a||_op = sigma up to rounding: a dense Gaussian,
    a non-normal shift matrix plus ``noise`` times a Gaussian, or a normal
    matrix with every eigenvalue on the circle of radius sigma."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "shift":
        g = np.eye(d, k=1) + noise * g
    elif kind == "normal":
        q = np.linalg.qr(g)[0]
        g = (q * np.exp(2j * pi * rng.uniform(size=d))) @ q.conj().T
    return g * (sigma / np.linalg.norm(g, 2))


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
@given(matrices(0.9, 0.99))
def test_det_sqrt_agrees_with_plain_series(case):
    _, a = case
    reference = plain_series(a)
    assert abs(det_sqrt_tracelog(a) - reference) <= 1e-12 * abs(reference)


@NEAR_BOUNDARY
@given(matrices(0.0, 0.5))
def test_det_sqrt_is_the_plain_series_up_to_one_half(case):
    _, a = case
    assume(np.linalg.norm(a, 2) <= 0.5)
    assert det_sqrt_tracelog(a) == plain_series(a)


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
    """Route ``coherent._sqrtm`` through a wrapper; returns its call list."""
    calls = []
    sqrtm = coherent._sqrtm

    def counting(r):
        calls.append(len(r))
        return sqrtm(r)

    monkeypatch.setattr(coherent, "_sqrtm", counting)
    return calls


@pytest.mark.parametrize("sigma", [0.6, 0.9, 0.999, 1 - 1e-9])
def test_det_sqrt_takes_one_root_above_one_half(sigma, monkeypatch):
    a = sample_matrix("gaussian", 16, sigma, np.random.default_rng(12))
    calls = counted_roots(monkeypatch)
    det_sqrt_tracelog(a)
    assert calls == [16]


@pytest.mark.parametrize("sigma", [0.0, 0.1, 0.3, 0.5])
def test_det_sqrt_takes_no_root_up_to_one_half(sigma, monkeypatch):
    a = sigma * np.eye(16, k=1)  # ||a||_op is sigma exactly
    assert krein.operator_norm(a) <= 0.5
    calls = counted_roots(monkeypatch)
    det_sqrt_tracelog(a)
    det_sqrt_tracelog(sample_matrix("gaussian", 16, 0.45, np.random.default_rng(13)))
    assert calls == []


@pytest.mark.parametrize("sigma", [0.9, 0.999, 1 - 1e-6])
@pytest.mark.parametrize("d", [16, 64])
def test_det_sqrt_agrees_with_multi_root_reference(d, sigma):
    rng = np.random.default_rng(14)
    for kind in KINDS:
        a = sample_matrix(kind, d, sigma, rng, noise=1e-3)
        reference = multi_root(a)
        assert abs(det_sqrt_tracelog(a) - reference) <= 1e-12 * abs(reference)


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
