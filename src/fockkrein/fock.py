"""Fermionic Fock space over a finite-dimensional Krein space.

A state of degree n is an antisymmetric n-linear form on the base space,
with coefficients c_I = psi(zeta_{i1}, ..., zeta_{in}) on strictly
increasing basis-index tuples I; the full Fock space over a d-dimensional
base has dimension 2^d.

A ``FockState`` is held as one coordinate vector v in the NORMALIZED
basis e_I = phi_I / (sqrt(2^n) n!), whose Gram matrix is the diagonal Fock
signature prod_{i in I} s_i. Coordinates follow the graded order: degree
blocks 0..d, lexicographic increasing tuples inside each block. The form
coefficients are c_I = v_I / (sqrt(2^n) n!); ``component(n)`` and
``coefficient(I)`` return them, and ``FockState.from_components`` builds a
state from them. In this basis the graded inner product

    <eta, psi> = sum_n 2^n (n!)^2 sum_I (prod_{i in I} s_i)
                 conj(eta_I) psi_I

is the Fock-signature-weighted dot product of the coordinate vectors, the
Hilbertized norm of a state is the Euclidean norm of its vector, and Krein
adjoints of operator matrices are S_F M^H S_F. The reduction from the sum
over all ordered basis tuples (each increasing tuple occurs n! times, with
squared signs) is a derived identity; ``fock_inner_literal`` keeps the
literal tuple sum as an independent oracle.

One cached table per dimension describes the graded basis: the occupation
bitmask, degree and scale sqrt(2^n) n! of each basis index, and the index
of each bitmask. The Fock signature is (-1)^popcount(mask & negatives).
Maps between Fock spaces are index gathers on the vectors: ``boundary.tau``
is the unsigned Kronecker product v1 (x) v2 placed at the bitmask
mask1 | mask2 << d1, ``boundary.iota`` a sign per degree and a complex
conjugation, and ``boundary.swap_blocks_state`` one signed gather.

Every fast Fock operator (the ladder matrices here, the Lie generators in
``lie``, the coherent-state series in ``coherent``) is built from one
kernel, the Jordan-Wigner ladder maps of ``ladder_maps``: for each mode j
and graded basis index, the index of the state with j removed or added
(-1 when the move is impossible) and the sign
(-1)^popcount(mask & ((1 << j) - 1)), the parity of the number of occupied
modes below j in the occupation bitmask. Thus a_j e_I = sign e_{I - j},
and a^dag_{zeta_j} = s_j a_j^T. ``LadderSum`` holds sums of ladder words
of length k as their O(d^k 2^d) matrix entries. The positions and signs of
those entries depend only on the dimension and the word shape, so
``_word_plan`` follows the maps from every basis state once per shape and
dimension and caches the entries sorted by (row, col), with the start of
each run of equal positions and of equal rows. An operator is then one
gather of its coefficients; entries at one position, or in one row when
the operator is applied to a vector with no matrix formed, add as
segmented sums. The maps and the plans are built on first use and cached
per dimension; they hold O(d^k 2^d) index data. No dense 2^d x 2^d matrix
is cached: ``LadderSum.matrix`` and ``annihilation_matrices`` build a fresh
one on every call, and it is freed when the caller drops it.

The literal oracles never call that kernel: ``create``, ``annihilate``,
``evaluate`` and ``fock_inner_literal`` here, ``coherent_explicit`` and
``pair_annihilation_explicit``/``pair_creation_explicit`` work on the
tuple-indexed coefficients with Python loops over index tuples and
permutations or perfect matchings, so that the two routes check each other.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, sqrt
from typing import NamedTuple

import numpy as np

from .krein import KreinSpace

__all__ = [
    "FockState",
    "vacuum",
    "evaluate",
    "fock_inner",
    "fock_inner_literal",
    "hilbert_norm_sq",
    "create",
    "annihilate",
    "pm_decompose",
    "index_tuples",
    "tuple_position",
    "fock_dimension",
    "fock_signature",
    "ladder_maps",
    "LadderSum",
    "annihilation_operator",
    "creation_operator",
    "annihilation_matrices",
    "annihilation_operator_matrix",
    "creation_operator_matrix",
]


@lru_cache(maxsize=None)
def index_tuples(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing index tuples, in lexicographic order."""
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def tuple_position(dim: int, degree: int) -> dict[tuple[int, ...], int]:
    return {t: k for k, t in enumerate(index_tuples(dim, degree))}


@lru_cache(maxsize=None)
def _tuple_array(dim: int, degree: int) -> np.ndarray:
    a = np.array(index_tuples(dim, degree), dtype=np.intp).reshape(
        comb(dim, degree), degree
    )
    a.setflags(write=False)
    return a


def fock_dimension(dim: int) -> int:
    return 2**dim


@lru_cache(maxsize=None)
def _degree_offsets(dim: int) -> tuple[int, ...]:
    offs = [0]
    for n in range(dim + 1):
        offs.append(offs[-1] + comb(dim, n))
    return tuple(offs)


class _GradedBasis(NamedTuple):
    mask: np.ndarray  # occupation bitmask of the tuple I of each basis index
    degree: np.ndarray  # n = |I|
    scale: np.ndarray  # sqrt(2^n) n!, so that v_I = scale c_I
    index: np.ndarray  # inverse of ``mask``: the basis index of each bitmask


@lru_cache(maxsize=None)
def _graded_basis(dim: int) -> _GradedBasis:
    """The normalized graded basis of the 2^dim Fock space, one entry per
    basis index: degree blocks 0..dim, lexicographic tuples inside each."""
    offs = _degree_offsets(dim)
    mask = np.empty(fock_dimension(dim), dtype=np.intp)
    for n in range(dim + 1):
        mask[offs[n] : offs[n + 1]] = np.sum(1 << _tuple_array(dim, n), axis=1)
    degree = np.bitwise_count(mask).astype(np.intp)
    scale = np.array([sqrt(2.0**n) * factorial(n) for n in range(dim + 1)])[degree]
    index = np.empty_like(mask)
    index[mask] = np.arange(len(mask))
    table = _GradedBasis(mask, degree, scale, index)
    for a in table:
        a.setflags(write=False)
    return table


class FockState:
    """A Fock state as its coordinate vector in the normalized graded basis.

    ``vector`` holds the 2^d read-only coordinates v; the coefficients of
    the antisymmetric forms are c_I = v_I / (sqrt(2^n) n!) for a tuple I of
    degree n, as ``component`` and ``coefficient`` return them, and
    ``max_abs``, ``max_abs_diff`` and ``is_zero`` measure them. States are
    immutable; arithmetic returns new states.
    """

    __slots__ = ("space", "vector")

    def __init__(self, space: KreinSpace, vector):
        v = np.array(vector, dtype=complex)
        if v.shape != (fock_dimension(space.dim),):
            raise ValueError(f"state vector must have length {fock_dimension(space.dim)}")
        v.setflags(write=False)
        self.space = space
        self.vector = v

    @classmethod
    def from_components(cls, space: KreinSpace, components: dict[int, np.ndarray]) -> "FockState":
        """The state with degree-n coefficients ``components[n]`` over the
        increasing tuples; absent degrees are zero."""
        offs = _degree_offsets(space.dim)
        c = np.zeros(fock_dimension(space.dim), dtype=complex)
        for n, arr in components.items():
            if not 0 <= n <= space.dim:
                raise ValueError(f"degree {n} outside 0..{space.dim}")
            a = np.asarray(arr, dtype=complex)
            if a.shape != (comb(space.dim, n),):
                raise ValueError(
                    f"degree-{n} component must have length {comb(space.dim, n)}"
                )
            c[offs[n] : offs[n + 1]] = a
        return cls(space, c * _graded_basis(space.dim).scale)

    @property
    def degrees(self) -> tuple[int, ...]:
        """The degrees with a nonzero coefficient."""
        live = _graded_basis(self.space.dim).degree[self.vector != 0]
        return tuple(sorted(set(live.tolist())))

    def component(self, n: int) -> np.ndarray:
        offs = _degree_offsets(self.space.dim)
        block = slice(offs[n], offs[n + 1])
        return self.vector[block] / _graded_basis(self.space.dim).scale[block]

    def coefficient(self, indices: tuple[int, ...]) -> complex:
        n = len(indices)
        g = _degree_offsets(self.space.dim)[n] + tuple_position(self.space.dim, n)[tuple(indices)]
        return complex(self.vector[g] / _graded_basis(self.space.dim).scale[g])

    def pure_degree(self) -> int | None:
        """The single nonzero degree, or None if mixed or zero."""
        live = self.degrees
        return live[0] if len(live) == 1 else None

    def f_degree(self) -> int | None:
        """Fock degree mod 2 when homogeneous mod 2, else None."""
        live = {n % 2 for n in self.degrees}
        if not live:
            return 0
        return live.pop() if len(live) == 1 else None

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.vector) / _graded_basis(self.space.dim).scale))

    def max_abs_diff(self, other: "FockState") -> float:
        return (self - other).max_abs()

    def __add__(self, other: "FockState") -> "FockState":
        if self.space != other.space:
            raise ValueError("states live on different spaces")
        return FockState(self.space, self.vector + other.vector)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + (-1.0) * other

    def __mul__(self, c) -> "FockState":
        return FockState(self.space, c * self.vector)

    __rmul__ = __mul__

    def __neg__(self) -> "FockState":
        return (-1.0) * self

    def __repr__(self):
        return f"FockState(dim={self.space.dim}, degrees={self.degrees})"


def vacuum(space: KreinSpace) -> FockState:
    """The degree-0 state with coefficient 1; <psi0, psi0> = 1."""
    return FockState.from_components(space, {0: np.ones(1)})


def evaluate(state: FockState, args) -> complex:
    """Evaluate the antisymmetric form on len(args) vectors.

    Expands over increasing tuples I: sum_I c_I det(A_I) with
    (A_I)_{kl} = (args_k)_{i_l}. Multilinear and fully antisymmetric.
    """
    n = len(args)
    if not 0 <= n <= state.space.dim:
        return 0j
    comp = state.component(n)
    if n == 0:
        return complex(comp[0])
    rows = np.array(args, dtype=complex)
    if rows.shape != (n, state.space.dim):
        raise ValueError("argument count or dimension mismatch")
    mats = np.moveaxis(rows[:, _tuple_array(state.space.dim, n)], 1, 0)
    return complex(np.dot(comp, np.linalg.det(mats)))


def fock_inner(eta: FockState, psi: FockState) -> complex:
    """Graded Krein inner product: the Fock-signature-weighted dot product
    of the coordinate vectors."""
    if eta.space != psi.space:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(eta.vector, fock_signature(eta.space) * psi.vector))


def fock_inner_literal(eta: FockState, psi: FockState) -> complex:
    """Independent oracle: the inner product as the literal sum over all
    ordered basis-index tuples, 2^n n! sum_{j_1..j_n} s_{j_1}..s_{j_n}
    conj(eta(zeta_j)) psi(zeta_j). Exponential cost; small dims only."""
    if eta.space != psi.space:
        raise ValueError("states live on different spaces")
    space = eta.space
    d = space.dim
    basis = np.eye(d, dtype=complex)
    total = 0j
    for n in set(eta.degrees) | set(psi.degrees):
        w = (2.0**n) * factorial(n)
        for js in itertools.product(range(d), repeat=n):
            sgn = 1.0
            for j in js:
                sgn *= space.signature[j]
            args = [basis[j] for j in js]
            total += w * sgn * np.conj(evaluate(eta, args)) * evaluate(psi, args)
    return total


def hilbert_norm_sq(psi: FockState) -> float:
    """Squared norm in the Hilbertization attached to the decomposition."""
    return float(np.vdot(psi.vector, psi.vector).real)


def create(tau, psi: FockState) -> FockState:
    """Creation operator a^dag_tau; conjugate-linear in tau.

    (a^dag_tau psi)(eta_1..eta_{n+1}) = 1/(sqrt(2)(n+1)) *
    sum_k (-1)^{k-1} {tau, eta_k} psi(eta_1..without k..eta_{n+1}).
    """
    space = psi.space
    d = space.dim
    tau = np.asarray(tau, dtype=complex)
    sig = space.signature
    out: dict[int, np.ndarray] = {}
    for n in psi.degrees:
        m = n + 1
        if m > d:
            continue
        c = psi.component(n)
        pos = tuple_position(d, n)
        new = np.zeros(comb(d, m), dtype=complex)
        pref = 1.0 / (sqrt(2.0) * m)
        for idx, J in enumerate(index_tuples(d, m)):
            acc = 0j
            for k, j in enumerate(J):
                t = tau[j]
                if t == 0:
                    continue
                acc += (-1.0) ** k * sig[j] * np.conj(t) * c[pos[J[:k] + J[k + 1 :]]]
            new[idx] = pref * acc
        out[m] = new
    return FockState.from_components(space, out)


def annihilate(tau, psi: FockState) -> FockState:
    """Annihilation operator a_tau; linear in tau.

    (a_tau psi)(eta_1..eta_{n-1}) = sqrt(2) n psi(tau, eta_1..eta_{n-1});
    annihilating degree 0 yields the zero state.
    """
    space = psi.space
    d = space.dim
    tau = np.asarray(tau, dtype=complex)
    out: dict[int, np.ndarray] = {}
    for n in psi.degrees:
        if n == 0:
            continue
        c = psi.component(n)
        pos = tuple_position(d, n - 1)
        new = np.zeros(comb(d, n - 1), dtype=complex)
        pref = sqrt(2.0) * n
        for idx, I in enumerate(index_tuples(d, n)):
            ci = c[idx]
            if ci == 0:
                continue
            for p, j in enumerate(I):
                t = tau[j]
                if t == 0:
                    continue
                new[pos[I[:p] + I[p + 1 :]]] += pref * (-1.0) ** p * t * ci
        out[n - 1] = new
    return FockState.from_components(space, out)


def pm_decompose(psi: FockState) -> tuple[FockState, FockState]:
    """Split into the positive/negative Krein parts F+ and F-.

    A coordinate belongs to F+ when its index tuple holds an even number
    of negative-signature basis vectors (Fock signature +1), to F- when
    odd. The parts are orthogonal and sign-definite under the graded
    inner product.
    """
    negative = fock_signature(psi.space) < 0
    v = psi.vector
    return (FockState(psi.space, np.where(negative, 0.0, v)),
            FockState(psi.space, np.where(negative, v, 0.0)))


# -- Jordan-Wigner ladder maps and operators on the full 2^d Fock space -----


@lru_cache(maxsize=None)
def ladder_maps(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jordan-Wigner ladder maps of the unsigned a_j in the graded basis.

    Returns ``(lower, upper, sign)``, each of shape (dim, 2^dim) and indexed
    [j, g] by mode j and graded basis index g (degree blocks in increasing
    order, lexicographic tuples inside a block). ``lower[j, g]`` is the
    graded index of e_I with j removed, or -1 when j is not in I;
    ``upper[j, g]`` the index with j added, or -1 when j is in I; and
    ``sign[j, g] = (-1)^popcount(mask & ((1 << j) - 1))`` for the
    occupation mask of I, i.e. (-1)^(number of indices of I below j).
    So a_j e_I = sign e_{I - j} and a_j^T e_I = sign e_{I + j}.
    """
    mask_of, _, _, graded_of = _graded_basis(dim)
    bit = 1 << np.arange(dim, dtype=np.intp)[:, None]
    present = (mask_of & bit) != 0
    flipped = graded_of[mask_of ^ bit]
    lower = np.where(present, flipped, -1)
    upper = np.where(present, -1, flipped)
    below = np.cumsum(present, axis=0) - present
    sign = np.where(below % 2, -1.0, 1.0)
    for a in (lower, upper, sign):
        a.setflags(write=False)
    return lower, upper, sign


class _WordPlan(NamedTuple):
    """The matrix entries of one ladder word shape, sorted by (row, col)."""

    word: np.ndarray  # flat index (j_1 .. j_k in base dim) into coef
    sign: np.ndarray  # the product of the Jordan-Wigner signs of the steps
    col: np.ndarray  # the basis index the word acts on
    positions: np.ndarray  # the distinct flat positions row * 2^dim + col
    position_starts: np.ndarray  # the first entry of each position
    rows: np.ndarray  # the distinct rows
    row_starts: np.ndarray  # the first entry of each row


@lru_cache(maxsize=None)
def _word_plan(dim: int, raising: tuple[bool, ...]) -> _WordPlan:
    """Follow ``ladder_maps`` from every basis state through the word shape
    ``raising`` (see ``LadderSum``) and sort the entries by (row, col).

    The entries depend on the dimension and the shape only, so each shape
    is walked once per dimension; a stable sort keeps walk order inside a
    position."""
    lower, upper, sign = ladder_maps(dim)
    n_states = fock_dimension(dim)
    rows = cols = np.arange(n_states)
    signs = np.ones(n_states)
    word = np.zeros(n_states, dtype=np.intp)
    for step_raising in raising:
        to = (upper if step_raising else lower)[:, rows]
        j, m = np.nonzero(to >= 0)
        signs = signs[m] * sign[j, rows[m]]
        cols = cols[m]
        word = word[m] * dim + j
        rows = to[j, m]
    flat = rows * n_states + cols
    order = np.argsort(flat, kind="stable")
    flat, rows = flat[order], rows[order]
    position_starts = np.flatnonzero(np.diff(flat, prepend=-1))
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    plan = _WordPlan(word[order], signs[order], cols[order], flat[position_starts],
                     position_starts, rows[row_starts], row_starts)
    for a in plan:
        a.setflags(write=False)
    return plan


def _segment_sums(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The sums of ``vals`` over the segments that begin at ``starts``;
    empty (two-letter words at dim 1) without calling ``reduceat``."""
    return np.add.reduceat(vals, starts) if len(vals) else vals


class LadderSum:
    """An operator on the full Fock space built from ladder words.

    ``LadderSum(dim, coef, raising)`` is the sum over index tuples
    (j_1, .., j_k) of coef[j_1, .., j_k] L_k .. L_1, where step i applies
    L_i = a_{j_i}^T if ``raising[i - 1]`` else a_{j_i} (unsigned ladders;
    the signature enters through ``coef``), so j_1 acts first. The
    positions and signs of the operator's matrix entries in the normalized
    graded basis depend only on ``dim`` and the word shape: ``_word_plan``
    finds them once per shape and dimension by following ``ladder_maps``
    from every basis state, sorted by (row, col). An operator is then one
    gather ``vals = coef[word] * sign``; entries at the same position add
    as segmented sums. ``matrix()`` gives the dense 2^d x 2^d matrix,
    ``add_to(out)`` adds it into an existing C-contiguous one, one sum per
    position, and ``op @ v`` applies the operator to a coordinate vector
    without forming it, one sum per row.
    """

    __slots__ = ("dim", "plan", "vals")

    def __init__(self, dim: int, coef, raising):
        self.dim = dim
        self.plan = _word_plan(dim, tuple(raising))
        self.vals = np.asarray(coef, dtype=complex).ravel()[self.plan.word] * self.plan.sign

    def matrix(self) -> np.ndarray:
        out = np.zeros((fock_dimension(self.dim),) * 2, dtype=complex)
        self.add_to(out)
        return out

    def add_to(self, out: np.ndarray) -> None:
        """Add the operator's matrix entries into the C-contiguous
        2^d x 2^d ``out``."""
        if not out.flags.c_contiguous:
            raise ValueError("add_to needs a C-contiguous matrix")
        out.ravel()[self.plan.positions] += _segment_sums(self.vals, self.plan.position_starts)

    def __matmul__(self, v) -> np.ndarray:
        out = np.zeros(fock_dimension(self.dim), dtype=complex)
        terms = self.vals * np.asarray(v)[self.plan.col]
        out[self.plan.rows] = _segment_sums(terms, self.plan.row_starts)
        return out


def annihilation_operator(space: KreinSpace, tau) -> LadderSum:
    """a_tau = sum_j tau_j a_j; linear in tau."""
    return LadderSum(space.dim, tau, (False,))


def creation_operator(space: KreinSpace, tau) -> LadderSum:
    """a^dag_tau = sum_j conj(tau_j) s_j a_j^T; conjugate-linear in tau."""
    return LadderSum(space.dim, np.conj(np.asarray(tau, dtype=complex)) * space.signs, (True,))


def annihilation_matrices(dim: int) -> tuple[np.ndarray, ...]:
    """Fresh dense matrices of a_{zeta_j} in the normalized Fock basis.

    Signature-independent: entry [I - j, I] = (-1)^(position of j in I).
    Nothing is cached: the d 4^d complex entries are freed with the
    caller's reference.
    """
    return tuple(LadderSum(dim, np.eye(dim)[j], (False,)).matrix() for j in range(dim))


def annihilation_operator_matrix(space: KreinSpace, tau) -> np.ndarray:
    return annihilation_operator(space, tau).matrix()


def creation_operator_matrix(space: KreinSpace, tau) -> np.ndarray:
    return creation_operator(space, tau).matrix()


@lru_cache(maxsize=None)
def _fock_signature_cached(signature: tuple[int, ...]) -> np.ndarray:
    negatives = sum(1 << i for i, s in enumerate(signature) if s < 0)
    odd = np.bitwise_count(_graded_basis(len(signature)).mask & negatives) % 2
    out = np.where(odd, -1.0, 1.0)
    out.setflags(write=False)
    return out


def fock_signature(space: KreinSpace) -> np.ndarray:
    """Diagonal of the Gram matrix of the normalized Fock basis:
    prod_{i in I} s_i = (-1)^popcount(mask & negatives)."""
    return _fock_signature_cached(space.signature)
