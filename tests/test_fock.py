"""Fock layer: states, evaluation, inner products, CAR operators."""

from math import sqrt

import numpy as np
import pytest

from fockkrein import fock, krein, sampling, verify
from fockkrein.fock import (
    FockState,
    annihilate,
    create,
    evaluate,
    fock_inner,
    fock_inner_literal,
    pm_decompose,
    vacuum,
)
from fockkrein.krein import KreinSpace


def unit(psi):
    return psi * (1.0 / sqrt(fock.hilbert_norm_sq(psi)))


def fock_adjoint_matrix(space, m):
    """Dense Krein adjoint on Fock space: S_F M^H S_F."""
    sf = fock.fock_signature(space)
    return sf[:, None] * np.conj(m).T * sf[None, :]


def test_vacuum():
    space = KreinSpace(3, (1, -1, 1))
    psi0 = vacuum(space)
    assert fock_inner(psi0, psi0) == 1
    assert psi0.f_degree() == 0
    rng = np.random.default_rng(0)
    tau = sampling.random_vector(space, rng)
    assert annihilate(tau, psi0).is_zero()


def test_evaluate_basis_tuples_and_antisymmetry():
    space = KreinSpace(4, (1, 1, -1, -1))
    rng = np.random.default_rng(1)
    psi = sampling.random_state(space, rng, degree=2)
    basis = np.eye(4, dtype=complex)
    for (i, j) in fock.index_tuples(4, 2):
        assert evaluate(psi, [basis[i], basis[j]]) == pytest.approx(
            psi.coefficient((i, j))
        )
    v = sampling.random_vector(space, rng)
    w = sampling.random_vector(space, rng)
    assert evaluate(psi, [v, w]) == pytest.approx(-evaluate(psi, [w, v]))
    assert abs(evaluate(psi, [v, v])) < 1e-14
    with pytest.raises(ValueError):
        evaluate(psi, [v[:3], w[:3]])  # wrong vector dimension


def test_fock_inner_degree_one_signs():
    for lead in (1, -1):
        space = KreinSpace(2, (lead, 1))
        psi = create(space.basis_vector(0), vacuum(space))
        assert fock_inner(psi, psi) == pytest.approx(lead)


def test_fock_inner_graded_orthogonality():
    space = KreinSpace(3, (1, -1, 1))
    rng = np.random.default_rng(2)
    a = sampling.random_state(space, rng, degree=1)
    b = sampling.random_state(space, rng, degree=2)
    assert fock_inner(a, b) == 0
    other = sampling.random_state(KreinSpace(3, (1, 1, 1)), rng)
    with pytest.raises(ValueError):
        fock_inner(a, other)


def test_fock_inner_matches_literal_tuple_sum():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4):
        space = sampling.random_signature(rng, dim)
        for degree in range(min(dim, 3) + 1):
            eta = unit(sampling.random_state(space, rng, degree=degree))
            psi = unit(sampling.random_state(space, rng, degree=degree))
            assert fock_inner(eta, psi) == pytest.approx(
                fock_inner_literal(eta, psi), abs=1e-12
            )


def test_create_on_vacuum_coefficient():
    space = KreinSpace(3, (1, -1, 1))
    for j in range(3):
        psi = create(space.basis_vector(j), vacuum(space))
        assert psi.coefficient((j,)) == pytest.approx(space.signature[j] / sqrt(2))


def test_car_on_vacuum_and_nilpotency():
    space = KreinSpace(3, (1, -1, 1))
    rng = np.random.default_rng(4)
    tau = sampling.random_vector(space, rng)
    lhs = annihilate(tau, create(tau, vacuum(space))) + create(
        tau, annihilate(tau, vacuum(space))
    )
    expected = krein.inner(space, tau, tau) * vacuum(space)
    assert lhs.max_abs_diff(expected) < 1e-14
    assert create(tau, create(tau, vacuum(space))).is_zero(tol=1e-16)


def test_creation_annihilation_adjointness():
    space = KreinSpace(4, (1, 1, -1, -1))
    rng = np.random.default_rng(5)
    for _ in range(25):
        tau = sampling.random_vector(space, rng)
        psi = unit(sampling.random_state(space, rng))
        phi = unit(sampling.random_state(space, rng))
        assert fock_inner(create(tau, psi), phi) == pytest.approx(
            fock_inner(psi, annihilate(tau, phi)), abs=1e-12
        )


def test_grading_under_create():
    space = KreinSpace(3, (1, 1, 1))
    rng = np.random.default_rng(6)
    psi = sampling.random_state(space, rng, degree=1)
    raised = create(sampling.random_vector(space, rng), psi)
    assert raised.pure_degree() == 2
    assert (psi.f_degree() + 1) % 2 == raised.f_degree()


def test_car_suite_small_and_mixed():
    space1 = KreinSpace(1, (-1,))
    a = fock.annihilation_operator_matrix(space1, np.array([1.0 + 0j]))
    assert np.max(np.abs(a @ a)) == 0.0
    report = verify.run_suite(
        "car", verify.RunConfig(dim=4, signature="++--", seed=42, trials=100)
    )
    assert report.passed and all(c.max_abs_err < 1e-10 for c in report.checks)


def test_operator_matrices_consistent_with_state_ops():
    space = KreinSpace(3, (1, -1, -1))
    rng = np.random.default_rng(7)
    tau = sampling.random_vector(space, rng)
    psi = sampling.random_state(space, rng)
    vec = psi.vector
    via_matrix = FockState(space, fock.creation_operator_matrix(space, tau) @ vec)
    assert via_matrix.max_abs_diff(create(tau, psi)) < 1e-13
    via_matrix = FockState(space, fock.annihilation_operator_matrix(space, tau) @ vec)
    assert via_matrix.max_abs_diff(annihilate(tau, psi)) < 1e-13


def test_creation_matrix_is_fock_adjoint_of_annihilation():
    space = KreinSpace(4, (1, -1, 1, -1))
    rng = np.random.default_rng(8)
    tau = sampling.random_vector(space, rng)
    a = fock.annihilation_operator_matrix(space, tau)
    adag = fock.creation_operator_matrix(space, tau)
    assert np.max(np.abs(adag - fock_adjoint_matrix(space, a))) == 0.0


def test_pm_decompose():
    space = KreinSpace(2, (1, -1))
    plus, minus = pm_decompose(vacuum(space))
    assert plus.max_abs_diff(vacuum(space)) == 0 and minus.is_zero()

    negated = create(space.basis_vector(1), vacuum(space))  # sig -1 direction
    plus, minus = pm_decompose(negated)
    assert plus.is_zero() and minus.max_abs_diff(negated) == 0

    rng = np.random.default_rng(9)
    big = KreinSpace(4, (1, 1, -1, -1))
    for _ in range(100):
        psi = sampling.random_state(big, rng)
        p, m = pm_decompose(psi)
        assert (p + m).max_abs_diff(psi) == 0
        assert fock_inner(p, m) == 0
        assert fock_inner(p, p).real >= 0 and abs(fock_inner(p, p).imag) < 1e-12
        assert fock_inner(m, m).real <= 0 and abs(fock_inner(m, m).imag) < 1e-12


def test_state_validation_and_arithmetic():
    space = KreinSpace(2, (1, 1))
    with pytest.raises(ValueError):
        FockState.from_components(space, {3: np.zeros(1)})
    with pytest.raises(ValueError):
        FockState.from_components(space, {1: np.zeros(3)})
    with pytest.raises(ValueError):
        FockState(space, np.zeros(3))  # the vector has length 2^d = 4
    source = np.arange(4, dtype=complex)
    psi = FockState(space, source)
    with pytest.raises(ValueError):
        psi.vector[0] = 1.0
    source[0] = 7.0
    assert np.array_equal(psi.vector, np.arange(4))
    assert psi.coefficient((0, 1)) == 3.0 / 4.0  # c_I = v_I / (sqrt(2^2) 2!)
    rng = np.random.default_rng(10)
    a = sampling.random_state(space, rng)
    b = sampling.random_state(space, rng)
    assert (a + b - a).max_abs_diff(b) < 1e-15
    other = KreinSpace(2, (1, -1))
    with pytest.raises(ValueError):
        _ = a + sampling.random_state(other, rng)
