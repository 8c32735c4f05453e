"""Dynamical Lie algebra: representation, bracket table, invariant form."""

from itertools import permutations
from math import factorial, sqrt

import numpy as np
import pytest

from fockkrein import fock, krein, lie, sampling
from fockkrein.krein import KreinSpace
from fockkrein.lie import LieElement, bracket, gip, norm_identities, rep
from fockkrein.verify import _random_lie_element, _random_real_form_element
from test_fock import fock_adjoint_matrix


def perm_sign(perm) -> int:
    """Sign of a permutation of 0..n-1, from the parity of its inversions."""
    perm = list(perm)
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def pair_creation_walk(space, lam_minus, psi):
    """The literal sum over all (n+2)! permutations,
    1/(4 (n+2)!) sum_sigma sign(sigma) {Lam eta_s2, eta_s1} psi(eta_s3, ...),
    the reference for ``pair_creation_explicit``'s ordered-pair sum."""
    d = space.dim
    sig = space.signature
    basis = np.eye(d, dtype=complex)
    comps = {}
    for n in psi.degrees:
        deg = n + 2
        if deg > d:
            continue
        coeffs = np.zeros(len(fock.index_tuples(d, deg)), dtype=complex)
        for idx, J in enumerate(fock.index_tuples(d, deg)):
            acc = 0j
            for perm in permutations(range(deg)):
                a, b = J[perm[0]], J[perm[1]]
                rest = [basis[J[p]] for p in perm[2:]]
                acc += perm_sign(perm) * sig[a] * np.conj(lam_minus[a, b]) * fock.evaluate(
                    psi, rest)
            coeffs[idx] = acc / (4.0 * factorial(deg))
        comps[deg] = coeffs
    return fock.FockState.from_components(space, comps)


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


@pytest.mark.parametrize("dim", range(2, 6))
def test_pair_creation_explicit_matches_permutation_walk(dim):
    rng = np.random.default_rng(30 + dim)
    for _ in range(3):
        space = sampling.random_signature(rng, dim)
        lam = sampling.random_conj_antisymmetric(space, rng).matrix
        psi = sampling.random_state(space, rng)
        walk = pair_creation_walk(space, lam, psi)
        assert lie.pair_creation_explicit(space, lam, psi).max_abs_diff(walk) < 1e-15


@pytest.mark.parametrize("dim", range(2, 8))
def test_pair_creation_explicit_matches_pair_creation_matrix(dim):
    rng = np.random.default_rng(40 + dim)
    space = sampling.random_signature(rng, dim)
    lam = sampling.random_conj_antisymmetric(space, rng).matrix
    psi = sampling.random_state(space, rng)
    raised = fock.FockState(space, lie.pair_creation_matrix(space, lam) @ psi.vector)
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


def test_pair_norm_identities_fail_with_three_pairs():
    # Lam = three unit pairs has rank 6: the pair operators' norms squared
    # exceed the vacuum norm and the block traces, so the pair identities
    # need rank <= 4. The mode identities still hold.
    space = KreinSpace(6, (1,) * 6)
    lam = np.zeros((6, 6))
    for k in range(3):
        lam[2 * k, 2 * k + 1], lam[2 * k + 1, 2 * k] = 1.0, -1.0
    xi = np.arange(1.0, 7.0)
    res = norm_identities(space, lam, xi)
    assert res["pair_lower_norm_sq"] == pytest.approx(4.0, abs=1e-12)
    assert res["pair_raise_norm_sq"] == pytest.approx(4.0, abs=1e-12)
    assert res["pair_vacuum_norm_sq"] == pytest.approx(3.0, abs=1e-12)
    assert res["pair_block_traces"] == pytest.approx(3.0, abs=1e-12)
    assert res["pair_max_deviation"] == pytest.approx(1.0, abs=1e-12)
    assert res["mode_max_deviation"] < 1e-12


def test_mode_norm_identities_hold_at_dim_8():
    rng = np.random.default_rng(11)
    for _ in range(5):
        space = sampling.random_signature(rng, 8)
        lam = sampling.random_conj_antisymmetric(space, rng)
        xi = sampling.random_vector(space, rng)
        assert norm_identities(space, lam, xi)["mode_max_deviation"] < 1e-8


def test_lie_element_validation():
    space = KreinSpace(2, (1, 1))
    bad = np.array([[0.5, 0.0], [0.0, 0.0]])  # not conjugate-anti-symmetric
    with pytest.raises(ValueError):
        LieElement.from_parts(space, lam_plus=bad)
