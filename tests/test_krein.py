"""Krein-space layer: inner products, adjoints, structural predicates."""

import numpy as np
import pytest

from fockkrein import boundary, krein, sampling
from fockkrein.krein import CONJUGATE_LINEAR, LINEAR, KOperator, KreinSpace


def identity_operator(space):
    return KOperator(np.eye(space.dim), LINEAR)


def conjugation_operator(space):
    """The coordinate conjugation v -> conj(v)."""
    return KOperator(np.eye(space.dim), CONJUGATE_LINEAR)


def test_space_validation():
    with pytest.raises(ValueError):
        KreinSpace(0, ())
    with pytest.raises(ValueError):
        KreinSpace(2, (1,))
    with pytest.raises(ValueError):
        KreinSpace(1, (2,))
    assert KreinSpace.from_string("+ +--").signature == (1, 1, -1, -1)
    with pytest.raises(ValueError):
        KreinSpace.from_string("+0-")


def test_inner_adapted_basis_values():
    space = KreinSpace(2, (1, -1))
    e2 = space.basis_vector(1)
    assert krein.inner(space, e2, e2) == -1
    plus = KreinSpace(1, (1,))
    v = np.array([1j])
    assert krein.inner(plus, v, v) == 1


def test_inner_sesquilinearity_and_hermitian():
    space = KreinSpace(3, (1, -1, 1))
    rng = np.random.default_rng(0)
    v = sampling.random_vector(space, rng)
    w = sampling.random_vector(space, rng)
    c = 0.7 - 0.3j
    assert krein.inner(space, c * v, w) == pytest.approx(
        np.conj(c) * krein.inner(space, v, w)
    )
    assert krein.inner(space, v, c * w) == pytest.approx(c * krein.inner(space, v, w))
    assert np.conj(krein.inner(space, v, w)) == pytest.approx(
        krein.inner(space, w, v), abs=1e-14
    )


def test_inner_completeness_relation():
    space = KreinSpace(4, (1, 1, -1, -1))
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = sampling.random_vector(space, rng)
        w = sampling.random_vector(space, rng)
        total = sum(
            space.signature[i]
            * krein.inner(space, v, space.basis_vector(i))
            * krein.inner(space, space.basis_vector(i), w)
            for i in range(4)
        )
        assert abs(krein.inner(space, v, w) - total) < 1e-12


def test_completeness_holds_in_transformed_adapted_bases():
    space = KreinSpace(4, (1, -1, 1, -1))
    rng = np.random.default_rng(11)
    g = sampling.random_adapted_isometry(space, rng)
    basis = [g.apply(space.basis_vector(i)) for i in range(4)]
    for _ in range(10):
        v = sampling.random_vector(space, rng)
        w = sampling.random_vector(space, rng)
        total = sum(
            space.signature[i]
            * krein.inner(space, v, basis[i])
            * krein.inner(space, basis[i], w)
            for i in range(4)
        )
        assert abs(krein.inner(space, v, w) - total) < 1e-12


def test_inner_dimension_mismatch():
    space = KreinSpace(2, (1, 1))
    with pytest.raises(ValueError):
        krein.inner(space, np.zeros(3), np.zeros(2))


def test_trace_values_and_errors():
    space3 = KreinSpace(3, (1, 1, 1))
    assert krein.trace(space3, identity_operator(space3)) == 3
    space = KreinSpace(2, (1, -1))
    a, b = 1.5 - 2j, 0.25j
    assert krein.trace(space, KOperator(np.diag([a, b]))) == pytest.approx(a + b)
    with pytest.raises(ValueError):
        krein.trace(space, conjugation_operator(space))


def test_trace_similarity_invariance():
    space = KreinSpace(4, (1, -1, 1, -1))
    rng = np.random.default_rng(2)
    lam = KOperator(sampling.random_linear_matrix(space, rng))
    g = sampling.random_adapted_isometry(space, rng)
    ginv = KOperator(np.conj(g.matrix).T)
    moved = krein.compose(krein.compose(g, lam), ginv)
    assert abs(krein.trace(space, moved) - krein.trace(space, lam)) < 1e-12


def test_adjoint_hilbert_case_is_conjugate_transpose():
    space = KreinSpace(3, (1, 1, 1))
    rng = np.random.default_rng(3)
    m = sampling.random_linear_matrix(space, rng)
    assert np.allclose(krein.adjoint(space, KOperator(m)).matrix, np.conj(m).T)


def test_adjoint_indefinite_example_and_involutive():
    space = KreinSpace(2, (1, -1))
    m = KOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    star = krein.adjoint(space, m)
    assert np.allclose(star.matrix, [[0.0, 0.0], [-1.0, 0.0]])
    assert np.allclose(krein.adjoint(space, star).matrix, m.matrix)


def test_adjoint_defining_identity():
    space = KreinSpace(5, (1, -1, 1, -1, 1))
    rng = np.random.default_rng(4)
    for _ in range(100):
        b = KOperator(sampling.random_linear_matrix(space, rng))
        bstar = krein.adjoint(space, b)
        v = sampling.random_vector(space, rng)
        w = sampling.random_vector(space, rng)
        assert (
            abs(krein.inner(space, bstar.apply(v), w) - krein.inner(space, v, b.apply(w)))
            < 1e-12
        )


def test_adjoint_rejects_conjugate_linear():
    space = KreinSpace(2, (1, 1))
    with pytest.raises(ValueError):
        krein.adjoint(space, conjugation_operator(space))


def test_conj_antisymmetric_examples():
    a = 0.8 - 0.1j
    plus = KreinSpace(2, (1, 1))
    m1 = KOperator(np.array([[0, a], [-a, 0]]), CONJUGATE_LINEAR)
    assert krein.is_conj_antisymmetric(plus, m1)
    mixed = KreinSpace(2, (1, -1))
    m2 = KOperator(np.array([[0, a], [a, 0]]), CONJUGATE_LINEAR)
    assert krein.is_conj_antisymmetric(mixed, m2)
    assert not krein.is_conj_antisymmetric(plus, KOperator(np.array([[0, a], [-a, 0]])))


def test_conj_antisymmetric_defining_identity():
    space = KreinSpace(3, (1, -1, -1))
    rng = np.random.default_rng(5)
    op = sampling.random_conj_antisymmetric(space, rng)
    for _ in range(50):
        v = sampling.random_vector(space, rng)
        w = sampling.random_vector(space, rng)
        assert abs(
            krein.inner(space, v, op.apply(w)) + krein.inner(space, w, op.apply(v))
        ) < 1e-13


def test_conj_antisymmetric_square_is_krein_negative():
    space = KreinSpace(4, (1, 1, -1, -1))
    rng = np.random.default_rng(6)
    op = sampling.random_conj_antisymmetric(space, rng)
    sq = krein.compose(op, op)
    assert sq.is_linear
    assert np.allclose(krein.adjoint(space, sq).matrix, sq.matrix, atol=1e-13)
    for _ in range(30):
        v = sampling.random_vector(space, rng)
        lhs = krein.inner(space, v, sq.apply(v))
        rhs = -krein.inner(space, op.apply(v), op.apply(v))
        assert abs(lhs - rhs) < 1e-13


def test_structural_predicates_identity():
    space = KreinSpace(3, (1, -1, 1))
    flags = krein.structural_predicates(space, identity_operator(space))
    assert flags.real_isometry and flags.involution and flags.adapted
    assert not flags.real_anti_isometry


def test_structural_predicates_swap_conjugation():
    # u(v) = (conj v2, conj v1) on signature (+,-): adapted anti-isometry
    space = KreinSpace(2, (1, -1))
    u = KOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), CONJUGATE_LINEAR)
    flags = krein.structural_predicates(space, u)
    assert flags.involution
    assert flags.real_anti_isometry and flags.adapted
    assert flags.real_antisymmetric
    assert not flags.real_isometry
    # {uv, uw} = -conj({v, w})
    rng = np.random.default_rng(7)
    v = sampling.random_vector(space, rng)
    w = sampling.random_vector(space, rng)
    assert krein.inner(space, u.apply(v), u.apply(w)) == pytest.approx(
        -np.conj(krein.inner(space, v, w))
    )


def test_involution_antisymmetric_iff_anti_isometry():
    rng = np.random.default_rng(8)
    seen = set()
    for _ in range(100):
        space = sampling.random_signature(rng, 4)
        J = sampling.random_involution(space, rng)
        flags = krein.structural_predicates(space, J)
        assert flags.involution
        assert flags.real_antisymmetric == flags.real_anti_isometry
        seen.add(flags.real_anti_isometry)
    assert seen == {True, False}  # both branches of the equivalence exercised


def real_basis_predicates(space, op, tol=1e-10):
    """``structural_predicates`` from the 2d x 2d Gram matrices of Re{., .}
    on the real basis {e_1..e_d, i e_1..i e_d} and its image."""
    d = space.dim
    basis = np.hstack([np.eye(d, dtype=complex), 1j * np.eye(d, dtype=complex)])
    image = op.apply_columns(basis)
    s = space.signs[:, None]
    gram = np.real(np.conj(basis).T @ (s * basis))
    gram_image = np.real(np.conj(image).T @ (s * image))
    pairing = np.real(np.conj(basis).T @ (s * image))

    isometry = np.max(np.abs(gram_image - gram)) <= tol
    anti_isometry = np.max(np.abs(gram_image + gram)) <= tol
    antisymmetric = np.max(np.abs(pairing + pairing.T)) <= tol

    sq = krein.compose(op, op)
    involution = sq.is_linear and np.max(np.abs(sq.matrix - np.eye(d))) <= tol

    p, q = space.plus_indices, space.minus_indices
    m = op.matrix
    off = max(
        np.max(np.abs(m[np.ix_(p, q)])) if p.size and q.size else 0.0,
        np.max(np.abs(m[np.ix_(q, p)])) if p.size and q.size else 0.0,
    )
    diag = max(
        np.max(np.abs(m[np.ix_(p, p)])) if p.size else 0.0,
        np.max(np.abs(m[np.ix_(q, q)])) if q.size else 0.0,
    )
    adapted = (isometry and off <= tol) or (anti_isometry and diag <= tol)

    return krein.StructuralPredicates(
        real_isometry=bool(isometry),
        real_anti_isometry=bool(anti_isometry),
        involution=bool(involution),
        adapted=bool(adapted),
        real_antisymmetric=bool(antisymmetric),
    )


def skew_gram_operator(space, rng, t=0.3):
    """A matrix M with M^H S M = S + i t B for a real antisymmetric B of
    norm 1: its Gram matrix has the real part of a real isometry's but not
    the imaginary part. M = (1 + i t S B)^(1/2) = K^(1/2) works because
    S K = K^H S and hence (K^(1/2))^H S = S K^(1/2)."""
    b = rng.normal(size=(space.dim, space.dim))
    b = b - b.T
    b /= np.linalg.norm(b, 2) or 1.0  # B = 0 at dim 1
    w, v = np.linalg.eig(np.eye(space.dim) + 1j * t * space.signs[:, None] * b)
    return (v * np.sqrt(w)) @ np.linalg.inv(v)


def predicate_operators(space, rng):
    """One operator of each kind the predicates tell apart on ``space``."""
    ops = [
        KOperator(skew_gram_operator(space, rng), LINEAR),
        KOperator(skew_gram_operator(space, rng), CONJUGATE_LINEAR),
        KOperator(sampling.random_linear_matrix(space, rng), LINEAR),
        KOperator(sampling.random_linear_matrix(space, rng), CONJUGATE_LINEAR),
        sampling.random_involution(space, rng),
        sampling.random_conj_antisymmetric(space, rng),
        krein.scale_i(sampling.random_conj_antisymmetric(space, rng)),
        identity_operator(space),
        conjugation_operator(space),
        sampling.random_adapted_isometry(space, rng),
        krein.compose(sampling.random_adapted_isometry(space, rng),
                      conjugation_operator(space)),
    ]
    if space.is_balanced():
        ops.append(boundary.random_region(space.dim, rng, space.signature).u)
    return ops


def test_structural_predicates_match_the_real_basis_reference():
    rng = np.random.default_rng(12)
    seen, checked = set(), 0
    for d in range(1, 9):
        for _ in range(45):
            space = sampling.random_signature(rng, d, balanced=d % 2 == 0 and rng.random() < 0.5)
            for op in predicate_operators(space, rng):
                flags = krein.structural_predicates(space, op)
                assert flags == real_basis_predicates(space, op)
                seen |= {(name, value) for name, value in vars(flags).items()}
                checked += 1
    assert checked >= 3000
    assert len(seen) == 10  # every flag seen both true and false


@pytest.mark.parametrize("d", [16, 32, 64])
def test_structural_predicates_match_the_reference_on_large_regions(d):
    rng = np.random.default_rng(d)
    region = boundary.random_region(d, rng)
    sliced = boundary.slice_region(sampling.random_signature(rng, d))
    for r in (region, sliced):
        for tol in (1e-10, 1e-9):
            flags = krein.structural_predicates(r.space, r.u, tol)
            assert flags == real_basis_predicates(r.space, r.u, tol)
            assert flags.involution and flags.real_anti_isometry and flags.adapted


@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_structural_predicates_flip_with_the_reference_near_the_tolerance(scale):
    tol = 1e-9
    rng = np.random.default_rng(13)
    region = boundary.random_region(6, rng)
    false_flags = set()
    for i, j in np.ndindex(6, 6):
        for step in (scale * tol, 1j * scale * tol):
            m = region.u.matrix.copy()
            m[i, j] += step
            op = KOperator(m, CONJUGATE_LINEAR)
            flags = krein.structural_predicates(region.space, op, tol)
            assert flags == real_basis_predicates(region.space, op, tol)
            false_flags |= {name for name, value in vars(flags).items() if not value}
    # half the tolerance keeps the region's flags; twice it breaks them
    expected = {"real_isometry"} if scale < 1 else {
        "real_isometry", "real_anti_isometry", "involution", "adapted", "real_antisymmetric"}
    assert false_flags == expected


def test_operator_norm():
    space = KreinSpace(2, (1, -1))
    assert krein.operator_norm(identity_operator(space)) == pytest.approx(1.0)
    c = -2.5 + 1j
    assert krein.operator_norm(KOperator(c * np.eye(2))) == pytest.approx(abs(c))
    assert krein.operator_norm(KOperator(np.array([[0.0, 2.0], [0.0, 0.0]]))) == pytest.approx(2.0)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_operator_norm_keeps_the_bits_of_the_matrix_two_norm(field):
    # The first singular value is the bits np.linalg.norm(m, 2) returns.
    rng = np.random.default_rng(31)
    for n in range(1, 66):
        for scale in (1e-3, 1.0, 1e3):
            m = scale * rng.normal(size=(n, n))
            if field == "complex":
                m = m + 1j * scale * rng.normal(size=(n, n))
            expected = float(np.linalg.norm(np.asarray(m, dtype=complex), 2))
            assert krein.operator_norm(m) == expected
            assert krein.operator_norm(KOperator(m)) == expected


def test_operator_norm_of_an_empty_matrix_is_zero():
    norm = krein.operator_norm(np.zeros((0, 0)))
    assert norm == 0.0 and type(norm) is float


def test_scale_i():
    space = KreinSpace(3, (1, -1, 1))
    rng = np.random.default_rng(9)
    zero = KOperator(np.zeros((3, 3)), CONJUGATE_LINEAR)
    assert not np.any(krein.scale_i(zero).matrix)
    for _ in range(100):
        op = sampling.random_conj_antisymmetric(space, rng)
        scaled = krein.scale_i(op)
        assert krein.is_conj_antisymmetric(space, scaled)
        v = sampling.random_vector(space, rng)
        assert np.allclose(scaled.apply(v), 1j * op.apply(v))
        assert np.allclose(scaled.apply(1j * v), op.apply(v))
        assert np.allclose(krein.scale_i(scaled).apply(v), -op.apply(v))
    with pytest.raises(ValueError):
        krein.scale_i(identity_operator(space))


def test_compose_linearity_algebra():
    space = KreinSpace(2, (1, 1))
    rng = np.random.default_rng(10)
    lin = KOperator(sampling.random_linear_matrix(space, rng))
    conj = KOperator(sampling.random_linear_matrix(space, rng), CONJUGATE_LINEAR)
    v = sampling.random_vector(space, rng)
    for a, b in ((lin, lin), (lin, conj), (conj, lin), (conj, conj)):
        comp = krein.compose(a, b)
        assert np.allclose(comp.apply(v), a.apply(b.apply(v)))
    assert krein.compose(conj, conj).is_linear
    assert not krein.compose(lin, conj).is_linear
