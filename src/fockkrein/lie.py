"""The dynamical Lie algebra acting on the Fock space.

An element decomposes into five parts,

    x = current(lam) + pair_annihilation(lam_plus)
      + pair_creation(lam_minus) + mode_annihilation(xi_plus)
      + mode_creation(xi_minus),

with lam a complex-linear matrix, lam_plus/lam_minus conjugate-linear
conjugate-anti-symmetric matrices and xi_plus/xi_minus vectors. On the
Fock space these act as

    current(lam)      = sum_i s_i a^dag_{zeta_i} a_{lam zeta_i} - tr(lam)/2,
    pair_annihilation = 1/2 sum_i s_i a_{zeta_i} a_{Lam zeta_i},
    pair_creation     = 1/2 sum_i s_i a^dag_{Lam zeta_i} a^dag_{zeta_i},
    mode_annihilation = a_xi / sqrt(2),   mode_creation = a^dag_xi / sqrt(2).

``rep`` adds these generator sums into one dense matrix, and ``rep_apply``
applies them to a coordinate vector with no matrix formed; both take the
nonzero sums from one private builder. With a^dag_{zeta_i} = s_i a_i^T the
current and pair generators are sums of two-letter ladder words, e.g.
current = sum_{i,j} lam_ji a_i^T a_j - tr(lam)/2. Each is a
``fock.LadderSum``: the entries of its word shape are found from the
Jordan-Wigner ladder maps (graded basis order) once per shape and
dimension, then one gather per operator gives their values.
``pair_creation_operator`` is the pair creator that the coherent-state
series applies. The independent explicit-action formulas for the pair
operators live in ``pair_annihilation_explicit`` /
``pair_creation_explicit``: literal oracles that evaluate the
antisymmetric forms through ``fock.evaluate`` and never touch the ladder
maps. The creator's antisymmetrized sum over permutations is grouped by
its first two positions, so it runs over ordered pairs of positions. The
two routes are required to agree.

The bracket table is implemented structurally (componentwise closed
formulas); ``rep_apply`` of a bracket must reproduce the commutator of the
two ``rep_apply`` on a state, which is the oracle the verify suite runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .fock import (
    FockState,
    LadderSum,
    annihilation_operator,
    creation_operator,
    evaluate,
    fock_dimension,
    index_tuples,
    vacuum,
)
from .krein import (
    KOperator,
    KreinSpace,
    adjoint_matrix,
    inner,
    is_conj_antisymmetric,
    operator_norm,
)

__all__ = [
    "LieElement",
    "rep",
    "rep_apply",
    "bracket",
    "gip",
    "star",
    "norm_identities",
    "pair_creation_operator",
    "pair_creation_matrix",
    "pair_annihilation_explicit",
    "pair_creation_explicit",
]


@dataclass(frozen=True)
class LieElement:
    """Five-component element (lam, lam_plus, lam_minus, xi_plus, xi_minus).

    lam_plus parametrizes a pair annihilator, lam_minus a pair creator,
    xi_plus a mode annihilator, xi_minus a mode creator; both lam_plus and
    lam_minus must be conjugate-anti-symmetric.
    """

    space: KreinSpace
    lam: np.ndarray
    lam_plus: np.ndarray
    lam_minus: np.ndarray
    xi_plus: np.ndarray
    xi_minus: np.ndarray

    def __post_init__(self):
        d = self.space.dim
        for name in ("lam", "lam_plus", "lam_minus"):
            m = np.array(getattr(self, name), dtype=complex)
            if m.shape != (d, d):
                raise ValueError(f"{name} must be {d}x{d}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        for name in ("xi_plus", "xi_minus"):
            v = np.array(getattr(self, name), dtype=complex)
            if v.shape != (d,):
                raise ValueError(f"{name} must have length {d}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        for name in ("lam_plus", "lam_minus"):
            if not is_conj_antisymmetric(self.space, getattr(self, name), tol=1e-9):
                raise ValueError(f"{name} must be conjugate-anti-symmetric")

    @classmethod
    def zero(cls, space: KreinSpace) -> "LieElement":
        d = space.dim
        z = np.zeros((d, d), dtype=complex)
        v = np.zeros(d, dtype=complex)
        return cls(space, z, z, z, v, v)

    @classmethod
    def from_parts(cls, space, lam=None, lam_plus=None, lam_minus=None,
                   xi_plus=None, xi_minus=None) -> "LieElement":
        d = space.dim
        z = np.zeros((d, d), dtype=complex)
        v = np.zeros(d, dtype=complex)

        def mat(m):
            return z if m is None else (m.matrix if isinstance(m, KOperator) else m)

        return cls(
            space,
            mat(lam),
            mat(lam_plus),
            mat(lam_minus),
            v if xi_plus is None else xi_plus,
            v if xi_minus is None else xi_minus,
        )

    def __add__(self, other: "LieElement") -> "LieElement":
        if self.space != other.space:
            raise ValueError("elements live on different spaces")
        return LieElement(
            self.space,
            self.lam + other.lam,
            self.lam_plus + other.lam_plus,
            self.lam_minus + other.lam_minus,
            self.xi_plus + other.xi_plus,
            self.xi_minus + other.xi_minus,
        )

    def scaled(self, c: complex) -> "LieElement":
        return LieElement(
            self.space, c * self.lam, c * self.lam_plus, c * self.lam_minus,
            c * self.xi_plus, c * self.xi_minus,
        )

    def max_abs(self) -> float:
        return max(
            float(np.max(np.abs(p)))
            for p in (self.lam, self.lam_plus, self.lam_minus, self.xi_plus, self.xi_minus)
        )


# -- Fock operators of the generators ----------------------------------------


def pair_creation_operator(space: KreinSpace, lam_minus: np.ndarray) -> LadderSum:
    """1/2 sum_i s_i a^dag_{Lam zeta_i} a^dag_{zeta_i}
    = 1/2 sum_{i,j} s_j conj(M_ji) a_j^T a_i^T."""
    coef = 0.5 * (space.signs[:, None] * np.conj(lam_minus)).T
    return LadderSum(space.dim, coef, (True, True))


def _pair_annihilation_operator(space: KreinSpace, lam_plus: np.ndarray) -> LadderSum:
    """1/2 sum_i s_i a_{zeta_i} a_{Lam zeta_i} with (Lam zeta_i)_j = M_ji
    = 1/2 sum_{i,j} s_i M_ji a_i a_j."""
    return LadderSum(space.dim, 0.5 * lam_plus * space.signs[None, :], (False, False))


def pair_creation_matrix(space: KreinSpace, lam_minus: np.ndarray) -> np.ndarray:
    """Dense matrix of ``pair_creation_operator``."""
    return pair_creation_operator(space, lam_minus).matrix()


def _rep_parts(x: LieElement) -> tuple[LadderSum, ...]:
    """The generator sums of ``rep`` with a nonzero coefficient, in order:
    the current's ladder words sum_{i,j} lam_ji a_i^T a_j (without its
    -tr(lam)/2), the pair annihilator and creator, and the mode operators."""
    space = x.space
    parts = (
        (x.lam, lambda m: LadderSum(space.dim, m, (False, True))),
        (x.lam_plus, lambda m: _pair_annihilation_operator(space, m)),
        (x.lam_minus, lambda m: pair_creation_operator(space, m)),
        (x.xi_plus / sqrt(2.0), lambda v: annihilation_operator(space, v)),
        (x.xi_minus / sqrt(2.0), lambda v: creation_operator(space, v)),
    )
    return tuple(build(coef) for coef, build in parts if np.any(coef))


def rep(x: LieElement) -> np.ndarray:
    """Matrix of the element on the full Fock space (normalized basis).

    The ladder entries of the nonzero generator sums are added into one
    matrix that starts as the current's -tr(lam)/2 diagonal."""
    out = np.zeros((fock_dimension(x.space.dim),) * 2, dtype=complex)
    out[np.diag_indices_from(out)] = -0.5 * np.trace(x.lam)
    for part in _rep_parts(x):
        part.add_to(out)
    return out


def rep_apply(x: LieElement, v) -> np.ndarray:
    """``rep(x) @ v`` for a coordinate vector v, with no matrix formed:
    the -tr(lam)/2 shift of v plus the nonzero generator sums applied to v."""
    v = np.asarray(v)
    out = -0.5 * np.trace(x.lam) * v
    for part in _rep_parts(x):
        out += part @ v
    return out


# -- Explicit pair-operator actions (independent of the generator sums) -----


def pair_annihilation_explicit(space: KreinSpace, lam_plus: np.ndarray, psi: FockState) -> FockState:
    """Action on a state via n(n-1) sum_i s_i psi(Lam zeta_i, zeta_i, ...)."""
    d = space.dim
    basis = np.eye(d, dtype=complex)
    comps = {}
    for n in psi.degrees:
        if n < 2:
            continue
        deg = n - 2
        coeffs = np.zeros(len(index_tuples(d, deg)), dtype=complex)
        for idx, I in enumerate(index_tuples(d, deg)):
            tail = [basis[i] for i in I]
            acc = 0j
            for i in range(d):
                col = lam_plus[:, i]  # Lam zeta_i in coordinates
                acc += space.signature[i] * evaluate(psi, [col, basis[i]] + tail)
            coeffs[idx] = n * (n - 1) * acc
        comps[deg] = coeffs
    return FockState.from_components(space, comps)


def pair_creation_explicit(space: KreinSpace, lam_minus: np.ndarray, psi: FockState) -> FockState:
    """Action via the antisymmetrized sum
    1/(4 (n+2)!) sum_sigma sign(sigma) {Lam eta_s2, eta_s1} psi(eta_s3, ...),
    grouped by the first two positions (p, q) of sigma. With the other
    positions in increasing order, their n! orderings give equal terms, so
    the coefficient on J is n!/(4 (n+2)!) sum_{p != q} (-1)^(p+q-[p<q])
    {Lam zeta_{J_q}, zeta_{J_p}} psi(J minus {J_p, J_q})."""
    d = space.dim
    sig = space.signature
    basis = np.eye(d, dtype=complex)
    comps: dict[int, np.ndarray] = {}
    for n in psi.degrees:
        deg = n + 2
        if deg > d:
            continue
        coeffs = np.zeros(len(index_tuples(d, deg)), dtype=complex)
        for idx, J in enumerate(index_tuples(d, deg)):
            acc = 0j
            for p in range(deg):
                for q in range(deg):
                    a, b = J[p], J[q]
                    w = sig[a] * np.conj(lam_minus[a, b])  # {Lam eta_b, eta_a}
                    if p == q or w == 0:
                        continue
                    rest = [basis[J[k]] for k in range(deg) if k not in (p, q)]
                    acc += (-1) ** (p + q - (p < q)) * w * evaluate(psi, rest)
            coeffs[idx] = acc * factorial(n) / (4.0 * factorial(deg))
        comps[deg] = coeffs
    return FockState.from_components(space, comps)


# -- Bracket table -----------------------------------------------------------


def bracket(x: LieElement, y: LieElement) -> LieElement:
    """Structural Lie bracket; rep(bracket(x, y)) = [rep x, rep y]."""
    if x.space != y.space:
        raise ValueError("elements live on different spaces")
    space = x.space
    s = space.signs
    d = space.dim
    lam = np.zeros((d, d), dtype=complex)
    lp = np.zeros((d, d), dtype=complex)
    lm = np.zeros((d, d), dtype=complex)
    xp = np.zeros(d, dtype=complex)
    xm = np.zeros(d, dtype=complex)

    def pair_map(a, b):
        # matrix of eta -> a {eta, b} - b {eta, a}, conjugate-linear
        return np.outer(a, s * b) - np.outer(b, s * a)

    # [current, current]: lam'' = lam_y lam_x - lam_x lam_y
    lam += y.lam @ x.lam - x.lam @ y.lam

    # [current(l), pair_annihilation(P)] = pair_annihilation(-l P - P l*)
    for l, P, sgn in ((x.lam, y.lam_plus, 1.0), (y.lam, x.lam_plus, -1.0)):
        lp += sgn * (-(l @ P) - P @ np.conj(adjoint_matrix(space, l)))

    # [current(l), pair_creation(Q)] = pair_creation(l* Q + Q l)
    for l, Q, sgn in ((x.lam, y.lam_minus, 1.0), (y.lam, x.lam_minus, -1.0)):
        lm += sgn * (adjoint_matrix(space, l) @ Q + Q @ np.conj(l))

    # [pair_annihilation(P), pair_creation(Q)] = current(P Q)
    lam += x.lam_plus @ np.conj(y.lam_minus)
    lam -= y.lam_plus @ np.conj(x.lam_minus)

    # [current(l), mode_annihilation(v)] = mode_annihilation(-l v)
    xp += -(x.lam @ y.xi_plus)
    xp -= -(y.lam @ x.xi_plus)

    # [current(l), mode_creation(v)] = mode_creation(l* v)
    xm += adjoint_matrix(space, x.lam) @ y.xi_minus
    xm -= adjoint_matrix(space, y.lam) @ x.xi_minus

    # [pair_creation(Q), mode_annihilation(v)] = mode_creation(Q v)
    xm += x.lam_minus @ np.conj(y.xi_plus)
    xm -= y.lam_minus @ np.conj(x.xi_plus)

    # [pair_annihilation(P), mode_creation(v)] = mode_annihilation(-P v)
    xp += -(x.lam_plus @ np.conj(y.xi_minus))
    xp -= -(y.lam_plus @ np.conj(x.xi_minus))

    # [mode_annihilation(v), mode_annihilation(w)] = pair_annihilation(w{.,v} - v{.,w})
    lp += 0.5 * (pair_map(y.xi_plus, x.xi_plus) - pair_map(x.xi_plus, y.xi_plus))

    # [mode_creation(v), mode_creation(w)] = pair_creation(v{.,w} - w{.,v})
    lm += 0.5 * (pair_map(x.xi_minus, y.xi_minus) - pair_map(y.xi_minus, x.xi_minus))

    # [mode_creation(v), mode_annihilation(w)] = current(eta -> w {v, eta})
    lam += np.outer(y.xi_plus, s * np.conj(x.xi_minus))
    lam -= np.outer(x.xi_plus, s * np.conj(y.xi_minus))

    return LieElement(space, lam, lp, lm, xp, xm)


def star(x: LieElement) -> LieElement:
    """The adjoint involution: rep(star(x)) is the Fock-Krein adjoint of
    rep(x). It conjugates lam and swaps the +/- component roles."""
    return LieElement(
        x.space,
        adjoint_matrix(x.space, x.lam),
        x.lam_minus,
        x.lam_plus,
        x.xi_minus,
        x.xi_plus,
    )


def conj_pair_trace(a: np.ndarray, b: np.ndarray) -> complex:
    """Trace of the linear composite of two conjugate-linear operators,
    tr(a b) = tr(M_a conj(M_b))."""
    return complex(np.trace(a @ np.conj(b)))


def gip(x: LieElement, y: LieElement) -> complex:
    """The ad-invariant inner product

        2 tr(lam_x* lam_y) - tr(P_y P_x) - tr(Q_x Q_y)
        + 2 {xi-_y, xi-_x} + 2 {xi+_x, xi+_y},

    with P the pair-annihilation parts, Q the pair-creation parts, and
    traces of conjugate-linear products taken as traces of the linear
    composites.
    """
    if x.space != y.space:
        raise ValueError("elements live on different spaces")
    space = x.space
    return (
        2.0 * complex(np.trace(adjoint_matrix(space, x.lam) @ y.lam))
        - conj_pair_trace(y.lam_plus, x.lam_plus)
        - conj_pair_trace(x.lam_minus, y.lam_minus)
        + 2.0 * inner(space, y.xi_minus, x.xi_minus)
        + 2.0 * inner(space, x.xi_plus, y.xi_plus)
    )


# -- Operator-norm identities -------------------------------------------------


def norm_identities(space: KreinSpace, lam_op, xi) -> dict[str, float]:
    """Evaluate the operator-norm identities for the pair and mode operators.

    Returns the quantities and their pairwise deviations:
    ||pair_annihilation||_op^2 = ||pair_creation||_op^2
    = ||pair_creation psi0||^2 = -tr(L0^2)/2 + tr(L1^2)/2, with L0/L1 the
    decomposition-preserving/swapping blocks, and ||mode ops||_op^2
    = ||mode_creation psi0||^2 = ||xi||^2 / 2 (Hilbertized norms).

    The pair identities need Lam of rank at most 4 (one or two pairs), which
    every Lam has at dim 5 or less. With three pairs they fail: at dim 6,
    signature all +, and Lam_{2k,2k+1} = 1 = -Lam_{2k+1,2k}, the operator
    norms squared are 4 while the vacuum norm and the block traces are 3.
    The mode identities hold at every dim.
    """
    m = lam_op.matrix if isinstance(lam_op, KOperator) else np.asarray(lam_op, dtype=complex)
    if not is_conj_antisymmetric(space, m, tol=1e-9):
        raise ValueError("lam must be conjugate-anti-symmetric")
    xi = np.asarray(xi, dtype=complex)
    s = space.signs
    same = (s[:, None] * s[None, :]) > 0
    m0 = np.where(same, m, 0.0)
    m1 = np.where(~same, m, 0.0)
    block_value = float(
        np.real(-0.5 * np.trace(m0 @ np.conj(m0)) + 0.5 * np.trace(m1 @ np.conj(m1)))
    )

    low = _pair_annihilation_operator(space, m).matrix()
    high = pair_creation_operator(space, m).matrix()
    vac = vacuum(space).vector
    pair_vac = high @ vac
    res = {
        "pair_lower_norm_sq": operator_norm(low) ** 2,
        "pair_raise_norm_sq": operator_norm(high) ** 2,
        "pair_vacuum_norm_sq": float(np.sum(np.abs(pair_vac) ** 2)),
        "pair_block_traces": block_value,
    }
    vals = [res["pair_lower_norm_sq"], res["pair_raise_norm_sq"],
            res["pair_vacuum_norm_sq"], res["pair_block_traces"]]
    res["pair_max_deviation"] = max(vals) - min(vals)

    mode_low = annihilation_operator(space, xi).matrix() / sqrt(2.0)
    mode_high = creation_operator(space, xi).matrix() / sqrt(2.0)
    mode_vac = mode_high @ vac
    half_norm = 0.5 * float(np.sum(np.abs(xi) ** 2))
    res.update(
        mode_lower_norm_sq=operator_norm(mode_low) ** 2,
        mode_raise_norm_sq=operator_norm(mode_high) ** 2,
        mode_vacuum_norm_sq=float(np.sum(np.abs(mode_vac) ** 2)),
        mode_half_norm=half_norm,
    )
    vals = [res["mode_lower_norm_sq"], res["mode_raise_norm_sq"],
            res["mode_vacuum_norm_sq"], res["mode_half_norm"]]
    res["mode_max_deviation"] = max(vals) - min(vals)
    return res
