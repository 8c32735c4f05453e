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

  evaluated on increasing basis tuples as signed perfect-matching sums.
  This is a literal oracle: it never calls the ladder kernel.

The overlap of two coherent states has the closed form

    <K(L, xi), K(L', xi')> = (1 + b/2) det(1 - L L')^(1/2),
    b = {xi', (1 - L L')^(-1) xi},

valid for ||L L'||_op < 1; inputs violating the norm hypothesis are
rejected. ``det_sqrt_tracelog`` evaluates det(1 - a)^(1/2) for
sigma = ||a||_op < 1 as the product of the principal roots of the
unpivoted LU pivots of 1 - a (``_det_root``), the principal branch
continued from a = 0. The closed routes reach ``_det_root`` through one
guard, ``_guarded_det_sqrt``: a Cholesky certificate of sigma < 1 that
leaves every refusal to the SVD of ``krein.operator_norm``.
"""

from __future__ import annotations

import logging
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
from .lie import pair_creation_operator

__all__ = [
    "CoherentData",
    "coherent_series",
    "coherent_explicit",
    "overlap_closed",
    "wave_function",
    "det_sqrt_tracelog",
    "EXPLICIT_PAIR_LIMIT",
]

EXPLICIT_PAIR_LIMIT = 5  # literal (2n-1)!! matching sums; n <= 5 covers dims <= 11

_LOG = logging.getLogger("fockkrein")


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
    """The literal degree-wise sums, each one signed sum over perfect matchings.

    Border w[a, b] = {Lam zeta_b, zeta_a} = s_a conj(Lam_ab) with a ghost
    index 0: W[0, 1+a] = s_a conj(xi_a) = -W[1+a, 0], W[1+a, 1+b] = w[a, b],
    so W is antisymmetric. Degree m = 2n sums over J; degree 2n+1 over
    (0, J), as a permutation of J with the xi factor first is one of (0, J)
    with the ghost first. A swap within a pair flips sign(sigma) and W
    together, and a swap of two pairs is even, so each perfect matching
    stands for 2^n n! equal terms (the hyperoctahedral cosets of Macdonald,
    Symmetric Functions and Hall Polynomials, ch. VII.2; at odd degree, those
    of its 2^(n+1) (n+1)! permutations that put the ghost first). Both
    prefactors become 1/(2^ceil(m/2) m!). The sum recurses: the first free
    index pairs with the i-th remaining one, with sign (-1)^i. No
    elimination and no ladder kernel enter. Dims with d // 2 beyond
    ``EXPLICIT_PAIR_LIMIT`` are rejected.
    """
    space = data.space
    d = space.dim
    if d // 2 > EXPLICIT_PAIR_LIMIT:
        raise ValueError(
            f"explicit construction guard: dim {d} needs pair count > {EXPLICIT_PAIR_LIMIT}"
        )
    w = np.zeros((d + 1, d + 1), dtype=complex)
    w[1:, 1:] = space.signs[:, None] * np.conj(data.lam)
    w[0, 1:] = space.signs * np.conj(data.xi)
    w[1:, 0] = -w[0, 1:]
    w = w.tolist()
    comps = {}
    for m in range(d + 1):
        pref = 1.0 / (2.0 ** ((m + 1) // 2) * factorial(m))
        ghost = (0,) * (m % 2)
        comps[m] = np.array([pref * _matching_sum(w, ghost + tuple(1 + a for a in J))
                             for J in index_tuples(d, m)], dtype=complex)
    return FockState.from_components(space, comps)


def _matching_sum(w, idx: tuple[int, ...]) -> complex:
    """sum over the perfect matchings of idx of sign * prod w[i][j]."""
    if not idx:
        return 1.0
    first, rest = idx[0], idx[1:]
    total = 0j
    for i, j in enumerate(rest):
        if w[first][j]:
            total += (-1) ** i * w[first][j] * _matching_sum(w, rest[:i] + rest[i + 1:])
    return total


def det_sqrt_tracelog(a: np.ndarray) -> complex:
    """det(1 - a)^(1/2) for sigma = ||a||_op < 1.

    This is the product of the principal roots (1 - lam_j)^(1/2) over the
    eigenvalues lam_j of a, the branch the trace-log series
    exp(sum_k -tr(a^k) / (2k)) picks, taken by ``_det_root`` from the pivots
    of the unpivoted LU factorization of 1 - a at every sigma in [0, 1). The
    name is kept from that series, for the callers that use it.
    An input that is not a square 2-D matrix or has a non-finite entry
    raises ``ValueError``; sigma >= 1 raises ``HypothesisViolationError``.
    """
    return _guarded_det_sqrt(a, "operator norm")


def _guarded_det_sqrt(a: np.ndarray, norm_name: str) -> complex:
    """``_det_root(1 - a)`` behind the one guard of the closed routes.

    An input that is not a square 2-D matrix, or has a non-finite entry,
    raises ``ValueError`` before any factorization. Then sigma < 1 is proven
    by a Cholesky certificate: with G = a^H a (n = dim a), if the Cholesky
    factorization of (1 - delta) - G runs to completion for
    delta = n (n + 2) eps, then ||a||_op^2 = lambda_max(G) < 1, and no SVD
    runs. Bound, in the unit roundoff u = eps / 2 and
    gamma_k = k u / (1 - k u) (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3.6 and thm 10.3):

    * the computed G^ = fl(a^H a) has |G^ - G| <= gamma_{n+2} |a|^H |a|
      entrywise, so ||G^ - G||_2 <= gamma_{n+2} ||a||_F^2
      = gamma_{n+2} tr(G);
    * B^ = fl(c - G^), c = fl(1 - delta) <= 1 - delta + u, rounds only its
      diagonal, by at most u B^_jj <= u once every pivot B^_jj is positive,
      as a completed factorization requires; then G^_jj < c, so
      tr(G^) < n;
    * a completed factorization gives R^H R = B^ + dB with
      |dB| <= gamma_{n+1} |R|^H |R| entrywise, so
      ||dB||_2 <= gamma_{n+1} ||R||_F^2 = gamma_{n+1} tr(B^ + dB), at most
      gamma_{n+1} (n - tr(G^)) to first order.

    Since R^H R is positive semidefinite, lambda_max(G) <= c + u + ||dB||_2
    + ||G^ - G||_2 <= 1 - delta + 2u + (n + 2) u n (1 + O(n u)), which
    delta = 2 (n + 2) n u exceeds. The Cholesky backward error scales with
    tr(B^) ~ n, not with tr(G), which is why delta grows like n^2 eps; at
    n = 256 it is 1.5e-11, so only inputs with sigma within about 1e-10 of
    1 are left to the SVD.

    If the factorization fails (``LinAlgError``), or its factor is not
    finite (G^ overflows from ||a||_op near 1e154, and LAPACK completes on
    NaN), the SVD of ``operator_norm`` decides: sigma >= 1 raises
    ``HypothesisViolationError`` naming the norm as ``norm_name``, otherwise
    the root is taken. A certified input has 1 - sigma above about
    n (n + 2) u / 2, far beyond the SVD's own error, so the certificate
    accepts no input the SVD would refuse, and the accept/refuse decision is
    the SVD's. With the ``fockkrein`` logger at DEBUG, one record gives n,
    whether the SVD ran, and the smallest real part of a pivot of
    ``_det_root``, which is at least 1 - sigma.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("the matrix has a non-finite entry")
    n = len(a)
    eye = np.eye(n)
    delta = n * (n + 2) * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        g = a.conj().T @ a
    try:  # an entry of G^ that is not finite makes the factor fail or not finite
        svd_ran = not np.isfinite(np.linalg.cholesky((1.0 - delta) * eye - g)).all()
    except np.linalg.LinAlgError:
        svd_ran = True
    if svd_ran and (sigma := operator_norm(a)) >= 1.0:
        raise HypothesisViolationError(
            f"{norm_name} {sigma:.6g} >= 1; the closed form does not apply")
    root, min_re_pivot = _det_root(eye - a)
    if _LOG.isEnabledFor(logging.DEBUG):
        _LOG.debug("det root: n=%d svd_fallback=%s min_re_pivot=%.6g", n, svd_ran, min_re_pivot)
    return root


def _det_root(r: np.ndarray) -> tuple[complex, float]:
    """det(r)^(1/2) as prod_k u_kk^(1/2) over the pivots of ``_pivots(r)``,
    each with the principal root, and the smallest Re u_kk.

    For r = 1 - a with sigma = ||a||_op < 1, Re r = (r + r^H) / 2 >=
    (1 - sigma) 1 is positive definite, and so is the Hermitian part of every
    leading block of r and of every Schur complement of one (Golub and Van
    Loan, Linear Algebra Appl. 28 (1979) 85-97; Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 10.4). So the unpivoted LU
    factorization of r exists, and every pivot has
    Re u_kk >= lambda_min(Re r) >= 1 - sigma > 0. Along r(t) = 1 - t a,
    t in [0, 1], the same bound holds with t sigma, so
    f(t) = prod_k u_kk(t)^(1/2) is continuous, is 1 at t = 0 and squares to
    det r(t): it is the branch continued from a = 0, the product of the
    principal roots of the eigenvalues of r. No iteration, sign pick or
    eigenvalue logarithm enters.
    """
    pivots = _pivots(r)
    return complex(np.prod(np.sqrt(pivots))), float(pivots.real.min(initial=np.inf))


_LEAF = 8  # the size of the diagonal blocks whose pivots come from minors
_LEAF_EYE = np.eye(_LEAF)
_LEADING = (np.maximum.outer(np.arange(_LEAF), np.arange(_LEAF))[None]
            <= np.arange(_LEAF)[:, None, None])  # [k, i, j]: i, j <= k


def _pivots(r: np.ndarray) -> np.ndarray:
    """The n pivots u_kk of the unpivoted LU factorization of the n x n r.

    r is padded with the identity to s, of a multiple of 8 rows; the padding
    meets r through zero blocks only, so it stays the exact identity, and its
    pivots, exactly 1, are dropped. ``_leaf_blocks`` cuts s into the 8 x 8
    diagonal blocks of its block LU factorization, whose pivots are those
    of s. A block's pivots are D_k / D_(k-1) for its leading principal
    minors D_k (D_0 = 1), taken for all blocks by one batched
    ``np.linalg.det``, as the per-call cost dominates at this size.
    """
    n = len(r)
    s = np.eye(_LEAF * max(1, -(-n // _LEAF)), dtype=complex)
    s[:n, :n] = r
    blocks = np.array(_leaf_blocks(s))
    minors = np.linalg.det(np.where(_LEADING, blocks[:, None], _LEAF_EYE))
    minors[:, 1:] /= minors[:, :-1]
    return minors.ravel()[:n]


def _leaf_blocks(s: np.ndarray) -> list[np.ndarray]:
    """The 8 x 8 diagonal blocks of the block LU factorization of s (its
    size a multiple of 8): split s at h, a multiple of 8 near half its size,
    and take the blocks of s11 and of s22 - s21 s11^-1 s12."""
    if len(s) == _LEAF:
        return [s]
    h = _LEAF * (len(s) // (2 * _LEAF))
    schur = s[h:, h:] - s[h:, :h] @ np.linalg.solve(s[:h, :h], s[:h, h:])
    return _leaf_blocks(s[:h, :h]) + _leaf_blocks(schur)


def _composite(m: np.ndarray, lam: np.ndarray, name: str) -> np.ndarray:
    """The linear composite ``name`` = m conj(lam); an entry that overflows
    is refused with ``HypothesisViolationError``, as a norm of at least 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = m @ np.conj(lam)
    if not np.isfinite(a).all():
        raise HypothesisViolationError(f"{name} overflows; the closed form does not apply")
    return a


def overlap_closed(data: CoherentData, other: CoherentData) -> complex:
    """<K(L, xi), K(L', xi')> = (1 + b/2) det(1 - L L')^(1/2)."""
    if data.space != other.space:
        raise ValueError("coherent data live on different spaces")
    space = data.space
    a = _composite(data.lam, other.lam, "L L'")
    det_half = _guarded_det_sqrt(a, "||L L'||_op =")
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
