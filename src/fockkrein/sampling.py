"""Seedable random inputs for the verification suites.

All randomness flows through numpy's PCG64 generator. ``trial_rng(seed, i)``
is PCG64(seed XOR i), so nearby seeds share most of their trial streams;
the ``verify`` suites draw independent streams in ``verify._trials``
instead.

Complex entries are drawn uniformly from the unit disc and then scaled
where a norm hypothesis has to hold by construction.
"""

from __future__ import annotations

import numpy as np

from .krein import CONJUGATE_LINEAR, KOperator, KreinSpace, adjoint_matrix, compose, operator_norm


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng((int(seed) ^ int(trial)) & 0xFFFFFFFFFFFFFFFF)


def unit_disc(rng: np.random.Generator, shape=()) -> np.ndarray:
    """Uniform samples from the closed complex unit disc."""
    r = np.sqrt(rng.random(shape))
    phase = np.exp(2j * np.pi * rng.random(shape))
    return r * phase


def random_signature(rng: np.random.Generator, dim: int, balanced: bool = False) -> KreinSpace:
    if balanced:
        if dim % 2:
            raise ValueError("balanced signature needs even dim")
        sig = [1] * (dim // 2) + [-1] * (dim // 2)
        rng.shuffle(sig)
    else:
        sig = [int(s) for s in rng.choice([1, -1], size=dim)]
        # keep non-degenerate but allow definite patterns too
    return KreinSpace(dim, tuple(sig))


def random_vector(space: KreinSpace, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * unit_disc(rng, space.dim)


def random_linear_matrix(space: KreinSpace, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return scale * unit_disc(rng, (space.dim, space.dim))


def random_conj_antisymmetric(
    space: KreinSpace, rng: np.random.Generator, scale: float = 1.0
) -> KOperator:
    """A conjugate-linear operator with S M complex antisymmetric."""
    b = unit_disc(rng, (space.dim, space.dim))
    b = (b - b.T) / 2.0
    m = space.signs[:, None] * b
    return KOperator(scale * m, CONJUGATE_LINEAR)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_adapted_isometry(space: KreinSpace, rng: np.random.Generator) -> KOperator:
    """Complex-linear Krein isometry preserving the decomposition: an
    independent unitary on the positive and on the negative block."""
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for idx in (space.plus_indices, space.minus_indices):
        if idx.size:
            m[np.ix_(idx, idx)] = haar_unitary(rng, idx.size)
    return KOperator(m)


def random_state(space, rng: np.random.Generator, degree: int | None = None, scale: float = 1.0):
    """Random Fock state; a single pure degree when ``degree`` is given,
    otherwise independent coefficients in every degree."""
    from math import comb

    from .fock import FockState

    degrees = range(space.dim + 1) if degree is None else [degree]
    comps = {n: scale * unit_disc(rng, comb(space.dim, n)) for n in degrees}
    return FockState.from_components(space, comps)


def scale_operator_to_norm(op: KOperator, target: float) -> KOperator:
    """Rescale so the operator norm equals ``target`` (zero stays zero)."""
    nrm = operator_norm(op)
    if nrm == 0.0:
        return op
    return KOperator(op.matrix * (target / nrm), op.linearity)


def scale_pair_for_product(a: KOperator, b: KOperator, target: float) -> tuple[KOperator, KOperator]:
    """Rescale both factors so that ||a b||_op <= target holds by
    construction (split evenly across the factors)."""
    nrm = operator_norm(compose(a, b))
    if nrm <= target or nrm == 0.0:
        return a, b
    f = np.sqrt(target / nrm)
    return (
        KOperator(a.matrix * f, a.linearity),
        KOperator(b.matrix * f, b.linearity),
    )


def random_skew_adjoint(space: KreinSpace, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """lambda with lambda = -lambda* (Krein adjoint)."""
    a = random_linear_matrix(space, rng, scale)
    return a - adjoint_matrix(space, a)


def random_involutive_permutation(rng: np.random.Generator, n: int) -> list[int]:
    """A random permutation equal to its own inverse."""
    perm = list(range(n))
    order = list(rng.permutation(n))
    while len(order) >= 2:
        a = order.pop()
        if rng.random() < 0.5:
            b = order.pop()
            perm[a], perm[b] = b, a
    return perm


def random_involution(space: KreinSpace, rng: np.random.Generator) -> KOperator:
    """Random involutions of mixed character for predicate testing.

    Draws from: permutation-plus-conjugation maps (conjugate-linear; real
    anti-isometries exactly when the permutation exchanges opposite-sign
    directions), and unitary-conjugated sign reflections (linear,
    generically neither isometry flavor in the real sense).
    """
    d = space.dim
    if rng.random() < 0.5:
        perm = random_involutive_permutation(rng, d)
        m = np.zeros((d, d), dtype=complex)
        for i, j in enumerate(perm):
            m[j, i] = 1.0
        return KOperator(m, CONJUGATE_LINEAR)
    g = haar_unitary(rng, d)
    signs = rng.choice([1.0, -1.0], size=d)
    return KOperator(g @ (signs[:, None] * np.conj(g).T), "linear")
