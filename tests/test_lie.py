"""Dynamical Lie algebra: representation, bracket table, invariant form."""

from math import sqrt

import numpy as np
import pytest

from fockkrein import fock, krein, lie, sampling
from fockkrein.krein import KreinSpace
from fockkrein.lie import LieElement, bracket, gip, norm_identities, rep
from fockkrein.verify import _random_lie_element, _random_real_form_element
from test_fock import fock_adjoint_matrix


def test_rep_identity_current_is_shifted_number_operator():
    space = KreinSpace(3, (1, -1, 1))
    x = LieElement.from_parts(space, lam=np.eye(3, dtype=complex))
    m = rep(x)
    expected = np.diag(
        [n - 1.5 for n in range(4) for _ in fock.index_tuples(3, n)]
    )
    assert np.allclose(m, expected, atol=1e-13)


def test_rep_mode_creation_on_vacuum():
    space = KreinSpace(2, (1, -1))
    rng = np.random.default_rng(0)
    xi = sampling.random_vector(space, rng)
    x = LieElement.from_parts(space, xi_minus=xi)
    state = fock.FockState(space, rep(x) @ fock.vacuum(space).vector)
    expected = (1 / sqrt(2)) * fock.create(xi, fock.vacuum(space))
    assert state.max_abs_diff(expected) < 1e-14
    assert fock.fock_inner(state, state) == pytest.approx(
        0.5 * krein.inner(space, xi, xi)
    )


def test_rep_zero():
    space = KreinSpace(2, (1, 1))
    assert np.max(np.abs(rep(LieElement.zero(space)))) == 0.0


def test_pair_sector_brackets_vanish():
    space = KreinSpace(3, (1, -1, 1))
    rng = np.random.default_rng(1)
    a = sampling.random_conj_antisymmetric(space, rng).matrix
    b = sampling.random_conj_antisymmetric(space, rng).matrix
    x = LieElement.from_parts(space, lam_plus=a)
    y = LieElement.from_parts(space, lam_plus=b)
    assert bracket(x, y).max_abs() == 0.0
    rx, ry = rep(x), rep(y)
    assert np.max(np.abs(rx @ ry - ry @ rx)) < 1e-13


def test_bracket_current_with_pair_creation_formula():
    space = KreinSpace(3, (1, 1, -1))
    rng = np.random.default_rng(2)
    lam = sampling.random_linear_matrix(space, rng)
    q = sampling.random_conj_antisymmetric(space, rng).matrix
    x = LieElement.from_parts(space, lam=lam)
    y = LieElement.from_parts(space, lam_minus=q)
    out = bracket(x, y)
    expected = krein.adjoint_matrix(space, lam) @ q + q @ np.conj(lam)
    assert np.allclose(out.lam_minus, expected)
    assert out.max_abs() == pytest.approx(np.max(np.abs(expected)))


def test_rep_is_bracket_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(100):
        space = sampling.random_signature(rng, int(rng.integers(1, 4)))
        x = _random_lie_element(space, rng)
        y = _random_lie_element(space, rng)
        rx, ry = rep(x), rep(y)
        dev = np.max(np.abs(rep(bracket(x, y)) - (rx @ ry - ry @ rx)))
        assert dev < 1e-10


def test_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(4)
    space = sampling.random_signature(rng, 3)
    x, y, z = (_random_lie_element(space, rng) for _ in range(3))
    assert (bracket(x, y) + bracket(y, x)).max_abs() < 1e-14
    total = (
        bracket(x, bracket(y, z))
        + bracket(y, bracket(z, x))
        + bracket(z, bracket(x, y))
    )
    assert total.max_abs() < 1e-10


def test_rep_star_is_fock_adjoint():
    rng = np.random.default_rng(5)
    space = sampling.random_signature(rng, 3)
    x = _random_lie_element(space, rng)
    assert np.max(
        np.abs(rep(lie.star(x)) - fock_adjoint_matrix(space, rep(x)))
    ) < 1e-12


def test_gip_identity_and_component_blocks():
    for d in (2, 3):
        space = KreinSpace(d, tuple([1] * d))
        x = LieElement.from_parts(space, lam=np.eye(d, dtype=complex))
        assert gip(x, x) == pytest.approx(2 * d)
    # no cross-component terms: orthogonal placements pair to zero
    space = KreinSpace(2, (1, -1))
    rng = np.random.default_rng(6)
    x = LieElement.from_parts(space, lam=sampling.random_linear_matrix(space, rng))
    y = LieElement.from_parts(space, xi_plus=sampling.random_vector(space, rng))
    assert gip(x, y) == 0


def test_gip_ad_invariance_on_real_form():
    rng = np.random.default_rng(7)
    for _ in range(100):
        space = sampling.random_signature(rng, 3)
        x, y, z = (_random_real_form_element(space, rng) for _ in range(3))
        assert abs(gip(bracket(z, x), y) + gip(x, bracket(z, y))) < 1e-9
        assert abs(gip(x, y).imag) < 1e-10


def test_conj_pair_trace_matches_basis_sum():
    space = KreinSpace(3, (1, -1, 1))
    rng = np.random.default_rng(8)
    a = sampling.random_conj_antisymmetric(space, rng)
    b = sampling.random_conj_antisymmetric(space, rng)
    composite = krein.compose(a, b)
    via_basis = sum(
        space.signature[i]
        * krein.inner(space, space.basis_vector(i), composite.apply(space.basis_vector(i)))
        for i in range(3)
    )
    assert lie.conj_pair_trace(a.matrix, b.matrix) == pytest.approx(via_basis)


def test_explicit_pair_actions_match_generator_sums():
    rng = np.random.default_rng(9)
    for _ in range(20):
        space = sampling.random_signature(rng, int(rng.integers(2, 5)))
        lam = sampling.random_conj_antisymmetric(space, rng).matrix
        psi = sampling.random_state(space, rng)
        vec = psi.vector
        lower = fock.FockState(space, lie._pair_annihilation_operator(space, lam).matrix() @ vec)
        assert lie.pair_annihilation_explicit(space, lam, psi).max_abs_diff(lower) < 1e-12
        raised = fock.FockState(space, lie.pair_creation_matrix(space, lam) @ vec)
        assert lie.pair_creation_explicit(space, lam, psi).max_abs_diff(raised) < 1e-12


def test_norm_identities_zero_and_worked_case():
    space = KreinSpace(2, (1, 1))
    res = norm_identities(space, np.zeros((2, 2)), np.zeros(2))
    assert res["pair_max_deviation"] == 0.0 and res["pair_block_traces"] == 0.0

    a = 0.6 - 0.2j
    res = norm_identities(space, np.array([[0, a], [-a, 0]]), np.zeros(2))
    assert res["pair_block_traces"] == pytest.approx(abs(a) ** 2)
    assert res["pair_vacuum_norm_sq"] == pytest.approx(abs(a) ** 2)
    assert res["pair_max_deviation"] < 1e-12


def test_norm_identities_random_mixed_signature():
    rng = np.random.default_rng(10)
    for _ in range(25):
        space = sampling.random_signature(rng, 4)
        lam = sampling.random_conj_antisymmetric(space, rng)
        xi = sampling.random_vector(space, rng)
        res = norm_identities(space, lam, xi)
        assert res["pair_max_deviation"] < 1e-8
        assert res["mode_max_deviation"] < 1e-8


def test_lie_element_validation():
    space = KreinSpace(2, (1, 1))
    bad = np.array([[0.5, 0.0], [0.0, 0.0]])  # not conjugate-anti-symmetric
    with pytest.raises(ValueError):
        LieElement.from_parts(space, lam_plus=bad)
