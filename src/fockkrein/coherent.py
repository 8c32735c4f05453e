"""Fermionic coherent states and their closed-form overlap.

A coherent state is exp(pair_creation(Lam) + mode_creation(xi)) psi0 for a
conjugate-anti-symmetric Lam and a vector xi. Two constructions are kept
deliberately independent:

* ``coherent_series``: the exponential series applied on the Fock space;
  nilpotency truncates it at degree d, and the degree-0 component is
  exactly 1. The pair and mode creators act on coordinate vectors (graded
  basis order) through the Jordan-Wigner ladder maps of ``fock``, so no
  2^d x 2^d matrix is formed and the series reaches d = 12 and beyond.
* ``coherent_explicit``: the literal degree-wise permutation sums

    K_{2n}(eta_1..eta_{2n})   = 1/(2^{2n} n! (2n)!) sum_sigma sign(sigma)
                                prod_k {Lam eta_{s(2k)}, eta_{s(2k-1)}},
    K_{2n+1}(eta_1..eta_{2n+1}) = 1/(2^{2n+1} n! (2n+1)!) sum_sigma
                                sign(sigma) {xi, eta_{s(1)}}
                                prod_k {Lam eta_{s(2k+1)}, eta_{s(2k)}},

  evaluated on increasing basis tuples. This is a literal oracle: it
  never calls the ladder kernel.

The overlap of two coherent states has the closed form

    <K(L, xi), K(L', xi')> = (1 + b/2) det(1 - L L')^(1/2),
    b = {xi', (1 - L L')^(-1) xi},

valid for ||L L'||_op < 1; inputs violating the norm hypothesis are
rejected. ``det_sqrt_tracelog`` evaluates det(1 - a)^(1/2) by inverse
scaling and squaring (Higham, Functions of Matrices, 2008, ch. 11): it
replaces R = 1 - a by its principal square root until ||1 - R||_op <= 1/2,
sums the trace-log series exp(1/2 sum_m -tr((1 - R)^m) / m) there and
raises the result to the power 2^k for k roots, so its cost does not grow
as ||a||_op -> 1. The branch is the one the plain series on a picks:
along 1 - t a, t in [0, 1], the spectrum stays in the disc
|z - 1| <= t ||a||_op < 1, where the principal root is the continuation
from a = 0. No eigenvalue logarithm is taken. For ||a||_op <= 1/2 no root
is taken and the plain series on a is summed directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .fock import (
    FockState,
    LadderSum,
    creation_operator,
    fock_inner,
    index_tuples,
    vacuum,
)
from .krein import (
    CONJUGATE_LINEAR,
    HypothesisViolationError,
    KOperator,
    KreinSpace,
    inner,
    is_conj_antisymmetric,
    operator_norm,
)
from .lie import _perm_sign, pair_creation_operator

__all__ = [
    "CoherentData",
    "coherent_series",
    "coherent_explicit",
    "overlap_closed",
    "wave_function",
    "det_sqrt_tracelog",
    "EXPLICIT_PAIR_LIMIT",
]

EXPLICIT_PAIR_LIMIT = 3  # literal (2n)! sums; n <= 3 covers dims <= 6
_ROOT_THRESHOLD = 0.5  # det_sqrt_tracelog takes square roots while ||1 - R||_op > 1/2
_ROOT_STEP_TOL = 1e-8  # Denman-Beavers stopping point, see _sqrtm


@dataclass(frozen=True)
class CoherentData:
    """Parameters (Lam, xi) of a coherent state."""

    space: KreinSpace
    lam: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        d = self.space.dim
        m = np.array(self.lam.matrix if isinstance(self.lam, KOperator) else self.lam,
                     dtype=complex)
        v = np.array(self.xi, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"lam must be {d}x{d}")
        if v.shape != (d,):
            raise ValueError(f"xi must have length {d}")
        if not is_conj_antisymmetric(self.space, m, tol=1e-9):
            raise ValueError("lam must be conjugate-anti-symmetric")
        m.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "lam", m)
        object.__setattr__(self, "xi", v)

    @classmethod
    def zero(cls, space: KreinSpace) -> "CoherentData":
        return cls(space, np.zeros((space.dim, space.dim), dtype=complex),
                   np.zeros(space.dim, dtype=complex))

    def operator(self) -> KOperator:
        return KOperator(self.lam, CONJUGATE_LINEAR)


def coherent_series(data: CoherentData) -> FockState:
    """exp(pair_creation + mode_creation) applied to the vacuum.

    The two generators commute and the mode creator is nilpotent, so the
    exponential splits as exp(pair) (1 + mode) psi0. Evaluating the even
    part as exp(pair) psi0 keeps it bit-exactly independent of xi; the odd
    part is exp(pair) applied to the one-mode state. Both generators act on
    coordinate vectors through the ladder maps; no 2^d x 2^d matrix is
    formed.
    """
    space = data.space
    pair = pair_creation_operator(space, data.lam)
    vec = vacuum(space).vector
    total = _exp_apply(pair, vec, space.dim)
    total += _exp_apply(pair, creation_operator(space, data.xi / sqrt(2.0)) @ vec, space.dim)
    return FockState(space, total)


def _exp_apply(gen: LadderSum, vec: np.ndarray, dim: int) -> np.ndarray:
    total = vec.copy()
    term = vec
    for m in range(1, dim + 1):
        term = gen @ term / m
        if not np.any(term):
            break
        total += term
    return total


def coherent_explicit(data: CoherentData) -> FockState:
    """The literal degree-wise permutation sums, on increasing basis tuples.

    Guarded: the even/odd degree 2n or 2n+1 needs (2n)!/(2n+1)!
    permutations; degrees with n beyond ``EXPLICIT_PAIR_LIMIT`` are rejected.
    """
    space = data.space
    d = space.dim
    if d // 2 > EXPLICIT_PAIR_LIMIT:
        raise ValueError(
            f"explicit construction guard: dim {d} needs pair count > {EXPLICIT_PAIR_LIMIT}"
        )
    sig = space.signature
    m = data.lam
    comps = {0: np.ones(1, dtype=complex)}
    for deg in range(1, d + 1):
        tuples = index_tuples(d, deg)
        coeffs = np.zeros(len(tuples), dtype=complex)
        if deg % 2 == 0:
            n = deg // 2
            pref = 1.0 / (2.0 ** (2 * n) * factorial(n) * factorial(deg))
            for idx, J in enumerate(tuples):
                w = _pair_weights(sig, m, J)
                acc = 0j
                for perm in itertools.permutations(range(deg)):
                    term = complex(_perm_sign(perm))
                    for k in range(n):
                        term *= w[perm[2 * k], perm[2 * k + 1]]
                        if term == 0:
                            break
                    acc += term
                coeffs[idx] = pref * acc
        else:
            n = (deg - 1) // 2
            pref = 1.0 / (2.0 ** (2 * n + 1) * factorial(n) * factorial(deg))
            for idx, J in enumerate(tuples):
                w = _pair_weights(sig, m, J)
                xw = np.array([sig[j] * np.conj(data.xi[j]) for j in J])
                acc = 0j
                for perm in itertools.permutations(range(deg)):
                    term = _perm_sign(perm) * xw[perm[0]]
                    if term == 0:
                        continue
                    for k in range(n):
                        term *= w[perm[2 * k + 1], perm[2 * k + 2]]
                        if term == 0:
                            break
                    acc += term
                coeffs[idx] = pref * acc
        comps[deg] = coeffs
    return FockState.from_components(space, comps)


def _pair_weights(sig, m, J):
    """w[a, b] = {Lam zeta_{J[b]}, zeta_{J[a]}} = s_{J[a]} conj(M[J[a], J[b]])."""
    deg = len(J)
    w = np.empty((deg, deg), dtype=complex)
    for a in range(deg):
        for b in range(deg):
            w[a, b] = sig[J[a]] * np.conj(m[J[a], J[b]])
    return w


def det_sqrt_tracelog(a: np.ndarray, tol: float = 1e-15) -> complex:
    """det(1 - a)^(1/2) by inverse scaling and squaring, for ||a||_op < 1.

    With R = 1 - a, principal square roots are taken until
    beta = ||1 - R^(1/2^k)||_op <= 1/2; then with b = 1 - R^(1/2^k)

        det(1 - a)^(1/2) = exp(2^k sum_m -tr(b^m) / (2m)).

    Branch: along 1 - t a, t in [0, 1], the spectrum stays in the disc
    |z - 1| <= t sigma < 1 (sigma = ||a||_op), so each principal root is the
    continuation from a = 0, the branch the plain series exp(1/2 sum_k
    -tr(a^k)/k) picks; no eigenvalue logarithm is taken. Truncation: the
    tail after m terms is bounded by d beta^(m+1) / ((m+1)(1-beta)); the
    loop stops once 2^k times that bound falls below ``tol`` (individual
    terms may vanish by symmetry long before the series has converged, so
    the bound, not the term size, drives termination). With beta <= 1/2
    this takes at most about 60 terms. For sigma <= 1/2 no root is taken and
    the result is the plain series on a itself.
    """
    a = np.asarray(a, dtype=complex)
    sigma = operator_norm(a)
    if sigma >= 1.0:
        raise HypothesisViolationError(
            f"operator norm {sigma:.6g} >= 1; the closed form does not apply"
        )
    return _det_sqrt(a, sigma, tol)


def _det_sqrt(a: np.ndarray, sigma: float, tol: float = 1e-15) -> complex:
    """``det_sqrt_tracelog`` for a caller that has checked sigma = ||a||_op < 1."""
    if sigma == 0.0:
        return 1.0 + 0j
    d = a.shape[0]
    eye = np.eye(d)
    roots = 0
    while sigma > _ROOT_THRESHOLD:
        a = eye - _sqrtm(eye - a)
        sigma = operator_norm(a)
        roots += 1
    tol = tol / 2.0**roots
    log_half = 0j
    power = a
    for k in itertools.count(1):
        log_half += -np.trace(power) / (2.0 * k)
        if d * sigma ** (k + 1) / ((k + 1) * (1.0 - sigma)) < tol:
            break
        power = power @ a
    return complex(np.exp(2.0**roots * log_half))


def _sqrtm(r: np.ndarray) -> np.ndarray:
    """Principal square root of r (spectrum off the closed negative axis) by
    the product-form Denman-Beavers iteration (Higham, Functions of
    Matrices, 2008, eq. 6.17): M <- (1 + (M + M^-1)/2)/2, X <- X (1 + M^-1)/2
    from M = X = r, so X -> r^(1/2) and M -> 1. Since M' - 1 = (M - 1)^2
    M^-1 / 4, one more step after ||M - 1||_1 < ``_ROOT_STEP_TOL`` leaves
    M at rounding level, and the iteration stops there."""
    eye = np.eye(len(r))
    x = m = r
    last = False
    while True:
        m_inv = np.linalg.inv(m)
        x = 0.5 * (x + x @ m_inv)
        if last:
            return x
        m = 0.5 * eye + 0.25 * (m + m_inv)
        last = np.linalg.norm(m - eye, 1) < _ROOT_STEP_TOL


def overlap_closed(data: CoherentData, other: CoherentData) -> complex:
    """<K(L, xi), K(L', xi')> = (1 + b/2) det(1 - L L')^(1/2)."""
    if data.space != other.space:
        raise ValueError("coherent data live on different spaces")
    space = data.space
    a = data.lam @ np.conj(other.lam)  # linear composite L L'
    nrm = operator_norm(a)
    if nrm >= 1.0:
        raise HypothesisViolationError(
            f"||L L'||_op = {nrm:.6g} >= 1; the closed form does not apply"
        )
    det_half = _det_sqrt(a, nrm)
    try:
        y = np.linalg.solve(np.eye(space.dim) - a, data.xi)
    except np.linalg.LinAlgError as exc:
        raise HypothesisViolationError(f"1 - L L' is singular: {exc}") from exc
    b = inner(space, other.xi, y)
    return (1.0 + 0.5 * b) * det_half


def wave_function(data: CoherentData, psi: FockState) -> complex:
    """<K(data), psi>: the reproducing evaluation map. For psi = K(data')
    under the norm hypothesis it reproduces ``overlap_closed``."""
    return fock_inner(coherent_series(data), psi)
