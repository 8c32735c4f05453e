"""Fermionic Fock space over a finite-dimensional Krein space.

A state of degree n is an antisymmetric n-linear form on the base space,
stored through its coefficients c_I = psi(zeta_{i1}, ..., zeta_{in}) on
strictly increasing basis-index tuples I; the full Fock space over a
d-dimensional base has dimension 2^d. Absent degrees mean zero.

The graded inner product, reduced to increasing tuples, is

    <eta, psi> = sum_n 2^n (n!)^2 sum_I (prod_{i in I} s_i)
                 conj(eta_I) psi_I.

The reduction from the sum over all ordered basis tuples (each increasing
tuple occurs n! times, with squared signs) is a derived identity;
``fock_inner_literal`` keeps the literal tuple sum as an independent
oracle.

Matrices of operators on the full Fock space are taken in the NORMALIZED
basis e_I = phi_I / (sqrt(2^n) n!), whose Gram matrix is the diagonal
Fock signature prod_{i in I} s_i. In that basis the Hilbertized norm of a
state is the Euclidean norm of its coordinate vector and Krein adjoints
are S_F M^H S_F. Coordinates follow the graded order: degree blocks
0..d, lexicographic increasing tuples inside each block.

Every fast Fock operator (the ladder matrices here, the Lie generators in
``lie``, the coherent-state series in ``coherent``) is built from one
kernel, the Jordan-Wigner ladder maps of ``ladder_maps``: for each mode j
and graded basis index, the index of the state with j removed or added
(-1 when the move is impossible) and the sign
(-1)^popcount(mask & ((1 << j) - 1)), the parity of the number of occupied
modes below j in the occupation bitmask. Thus a_j e_I = sign e_{I - j},
and a^dag_{zeta_j} = s_j a_j^T. ``LadderSum`` follows these maps from every
basis state to assemble sums of ladder words in O(d^k 2^d) for words of
length k, either as a dense matrix or applied to a vector with no matrix
formed. The tables are built on first use, one per dimension.

The literal oracles never call that kernel: ``create``, ``annihilate``,
``evaluate`` and ``fock_inner_literal`` here, ``coherent_explicit`` and
``pair_annihilation_explicit``/``pair_creation_explicit`` work on the
tuple-indexed coefficients with Python loops over index tuples and
permutations, so that the two routes check each other.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial, sqrt

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
    "state_to_vector",
    "vector_to_state",
    "ladder_maps",
    "LadderSum",
    "annihilation_operator",
    "creation_operator",
    "annihilation_matrices",
    "creation_matrices",
    "annihilation_operator_matrix",
    "creation_operator_matrix",
    "fock_adjoint_matrix",
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


@lru_cache(maxsize=None)
def _sign_products(signature: tuple[int, ...], degree: int) -> np.ndarray:
    """prod_{i in I} s_i for every increasing tuple I."""
    s = np.array(signature, dtype=float)
    out = np.array(
        [np.prod(s[list(t)]) if t else 1.0 for t in index_tuples(len(signature), degree)]
    )
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _negative_parity(signature: tuple[int, ...], degree: int) -> np.ndarray:
    """Number of negative-signature indices in each tuple, mod 2."""
    s = np.array(signature)
    out = np.array(
        [sum(1 for i in t if s[i] < 0) % 2 for t in index_tuples(len(signature), degree)],
        dtype=np.intp,
    )
    out.setflags(write=False)
    return out


def fock_dimension(dim: int) -> int:
    return 2**dim


@lru_cache(maxsize=None)
def _degree_offsets(dim: int) -> tuple[int, ...]:
    offs = [0]
    for n in range(dim + 1):
        offs.append(offs[-1] + comb(dim, n))
    return tuple(offs)


class FockState:
    """Degree-graded table of antisymmetric-form coefficients.

    ``components`` maps degree n to the length-C(d, n) coefficient array
    over increasing basis tuples. States are immutable; arithmetic returns
    new states.
    """

    __slots__ = ("space", "components")

    def __init__(self, space: KreinSpace, components: dict[int, np.ndarray] | None = None):
        comps: dict[int, np.ndarray] = {}
        for n, arr in (components or {}).items():
            if not 0 <= n <= space.dim:
                raise ValueError(f"degree {n} outside 0..{space.dim}")
            a = np.array(arr, dtype=complex)
            if a.shape != (comb(space.dim, n),):
                raise ValueError(
                    f"degree-{n} component must have length {comb(space.dim, n)}"
                )
            a.setflags(write=False)
            comps[n] = a
        self.space = space
        self.components = comps

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self.components))

    def component(self, n: int) -> np.ndarray:
        got = self.components.get(n)
        if got is not None:
            return got
        z = np.zeros(comb(self.space.dim, n), dtype=complex)
        z.setflags(write=False)
        return z

    def coefficient(self, indices: tuple[int, ...]) -> complex:
        n = len(indices)
        comp = self.components.get(n)
        if comp is None:
            return 0j
        return complex(comp[tuple_position(self.space.dim, n)[tuple(indices)]])

    def pure_degree(self) -> int | None:
        """The single nonzero degree, or None if mixed or zero."""
        live = [n for n, c in self.components.items() if np.any(c != 0)]
        return live[0] if len(live) == 1 else None

    def f_degree(self) -> int | None:
        """Fock degree mod 2 when homogeneous mod 2, else None."""
        live = {n % 2 for n, c in self.components.items() if np.any(c != 0)}
        if not live:
            return 0
        return live.pop() if len(live) == 1 else None

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(np.max(np.abs(c)) <= tol for c in self.components.values())

    def max_abs(self) -> float:
        if not self.components:
            return 0.0
        return max(float(np.max(np.abs(c))) for c in self.components.values())

    def max_abs_diff(self, other: "FockState") -> float:
        if self.space != other.space:
            raise ValueError("states live on different spaces")
        worst = 0.0
        for n in set(self.components) | set(other.components):
            worst = max(worst, float(np.max(np.abs(self.component(n) - other.component(n)))))
        return worst

    def __add__(self, other: "FockState") -> "FockState":
        if self.space != other.space:
            raise ValueError("states live on different spaces")
        out = {}
        for n in set(self.components) | set(other.components):
            out[n] = self.component(n) + other.component(n)
        return FockState(self.space, out)

    def __sub__(self, other: "FockState") -> "FockState":
        return self + (-1.0) * other

    def __mul__(self, c) -> "FockState":
        return FockState(self.space, {n: c * a for n, a in self.components.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "FockState":
        return (-1.0) * self

    def __repr__(self):
        return f"FockState(dim={self.space.dim}, degrees={self.degrees})"


def vacuum(space: KreinSpace) -> FockState:
    """The degree-0 state with coefficient 1; <psi0, psi0> = 1."""
    return FockState(space, {0: np.ones(1, dtype=complex)})


def evaluate(state: FockState, args) -> complex:
    """Evaluate the antisymmetric form on len(args) vectors.

    Expands over increasing tuples I: sum_I c_I det(A_I) with
    (A_I)_{kl} = (args_k)_{i_l}. Multilinear and fully antisymmetric.
    """
    n = len(args)
    if not 0 <= n <= state.space.dim:
        return 0j
    comp = state.components.get(n)
    if comp is None:
        return 0j
    if n == 0:
        return complex(comp[0])
    rows = np.array(args, dtype=complex)
    if rows.shape != (n, state.space.dim):
        raise ValueError("argument count or dimension mismatch")
    mats = np.moveaxis(rows[:, _tuple_array(state.space.dim, n)], 1, 0)
    return complex(np.dot(comp, np.linalg.det(mats)))


def fock_inner(eta: FockState, psi: FockState) -> complex:
    """Graded Krein inner product, reduced to increasing tuples."""
    if eta.space != psi.space:
        raise ValueError("states live on different spaces")
    sig = eta.space.signature
    total = 0j
    for n in set(eta.components) & set(psi.components):
        w = (2.0**n) * factorial(n) ** 2
        total += w * complex(
            np.sum(_sign_products(sig, n) * np.conj(eta.components[n]) * psi.components[n])
        )
    return total


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
    for n in set(eta.components) | set(psi.components):
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
    total = 0.0
    for n, c in psi.components.items():
        w = (2.0**n) * factorial(n) ** 2
        total += w * float(np.sum(np.abs(c) ** 2))
    return total


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
    for n, c in psi.components.items():
        m = n + 1
        if m > d:
            continue
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
        if m in out:
            out[m] = out[m] + new
        else:
            out[m] = new
    return FockState(space, out)


def annihilate(tau, psi: FockState) -> FockState:
    """Annihilation operator a_tau; linear in tau.

    (a_tau psi)(eta_1..eta_{n-1}) = sqrt(2) n psi(tau, eta_1..eta_{n-1});
    annihilating degree 0 yields the zero state.
    """
    space = psi.space
    d = space.dim
    tau = np.asarray(tau, dtype=complex)
    out: dict[int, np.ndarray] = {}
    for n, c in psi.components.items():
        if n == 0:
            continue
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
        if n - 1 in out:
            out[n - 1] = out[n - 1] + new
        else:
            out[n - 1] = new
    return FockState(space, out)


def pm_decompose(psi: FockState) -> tuple[FockState, FockState]:
    """Split into the positive/negative Krein parts F+ and F-.

    A coefficient belongs to F+ when its index tuple holds an even number
    of negative-signature basis vectors, to F- when odd. The parts are
    orthogonal and sign-definite under the graded inner product.
    """
    sig = psi.space.signature
    plus: dict[int, np.ndarray] = {}
    minus: dict[int, np.ndarray] = {}
    for n, c in psi.components.items():
        parity = _negative_parity(sig, n)
        plus[n] = np.where(parity == 0, c, 0.0)
        minus[n] = np.where(parity == 1, c, 0.0)
    return FockState(psi.space, plus), FockState(psi.space, minus)


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
    N = fock_dimension(dim)
    offs = _degree_offsets(dim)
    mask_of = np.empty(N, dtype=np.intp)
    for n in range(dim + 1):
        mask_of[offs[n] : offs[n + 1]] = np.sum(1 << _tuple_array(dim, n), axis=1)
    graded_of = np.empty(N, dtype=np.intp)
    graded_of[mask_of] = np.arange(N)
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


class LadderSum:
    """An operator on the full Fock space built from ladder words.

    ``LadderSum(dim, coef, raising)`` is the sum over index tuples
    (j_1, .., j_k) of coef[j_1, .., j_k] L_k .. L_1, where step i applies
    L_i = a_{j_i}^T if ``raising[i - 1]`` else a_{j_i} (unsigned ladders;
    the signature enters through ``coef``), so j_1 acts first. The
    operator is held as the sparse entries (rows, cols, vals) of its matrix
    in the normalized graded basis, found by following ``ladder_maps`` from
    every basis state; entries at the same position add.
    ``matrix()`` gives the dense 2^d x 2^d matrix, ``add_to(out)`` adds it
    into an existing one and ``op @ v`` applies the operator to a
    coordinate vector without forming it.
    """

    __slots__ = ("dim", "rows", "cols", "vals")

    def __init__(self, dim: int, coef, raising):
        lower, upper, sign = ladder_maps(dim)
        coef = np.asarray(coef, dtype=complex)
        rows = cols = np.arange(fock_dimension(dim))
        signs = np.ones(len(cols))
        word = np.zeros(len(cols), dtype=np.intp)  # flat index into coef
        for step_raising in raising:
            to = (upper if step_raising else lower)[:, rows]
            j, m = np.nonzero(to >= 0)
            signs = signs[m] * sign[j, rows[m]]
            cols = cols[m]
            word = word[m] * dim + j
            rows = to[j, m]
        self.dim = dim
        self.rows = rows
        self.cols = cols
        self.vals = coef.ravel()[word] * signs

    def matrix(self) -> np.ndarray:
        out = np.zeros((fock_dimension(self.dim),) * 2, dtype=complex)
        self.add_to(out)
        return out

    def add_to(self, out: np.ndarray) -> None:
        """Add the operator's matrix entries into the 2^d x 2^d ``out``."""
        np.add.at(out, (self.rows, self.cols), self.vals)

    def __matmul__(self, v) -> np.ndarray:
        out = np.zeros(fock_dimension(self.dim), dtype=complex)
        np.add.at(out, self.rows, self.vals * np.asarray(v)[self.cols])
        return out


def annihilation_operator(space: KreinSpace, tau) -> LadderSum:
    """a_tau = sum_j tau_j a_j; linear in tau."""
    return LadderSum(space.dim, tau, (False,))


def creation_operator(space: KreinSpace, tau) -> LadderSum:
    """a^dag_tau = sum_j conj(tau_j) s_j a_j^T; conjugate-linear in tau."""
    return LadderSum(space.dim, np.conj(np.asarray(tau, dtype=complex)) * space.signs, (True,))


@lru_cache(maxsize=None)
def annihilation_matrices(dim: int) -> tuple[np.ndarray, ...]:
    """Matrices of a_{zeta_j} in the normalized Fock basis.

    Signature-independent: entry [I - j, I] = (-1)^(position of j in I).
    """
    mats = tuple(LadderSum(dim, np.eye(dim)[j], (False,)).matrix() for j in range(dim))
    for m in mats:
        m.setflags(write=False)
    return mats


def creation_matrices(space: KreinSpace) -> tuple[np.ndarray, ...]:
    """Matrices of a^dag_{zeta_j}; equal to s_j times the transposed
    annihilation matrix, which is also the Fock-Krein adjoint of a_{zeta_j}."""
    return tuple(
        space.signature[j] * annihilation_matrices(space.dim)[j].T
        for j in range(space.dim)
    )


def annihilation_operator_matrix(space: KreinSpace, tau) -> np.ndarray:
    return annihilation_operator(space, tau).matrix()


def creation_operator_matrix(space: KreinSpace, tau) -> np.ndarray:
    return creation_operator(space, tau).matrix()


@lru_cache(maxsize=None)
def _fock_signature_cached(signature: tuple[int, ...]) -> np.ndarray:
    dim = len(signature)
    parts = [
        _sign_products(signature, n) for n in range(dim + 1)
    ]
    out = np.concatenate(parts)
    out.setflags(write=False)
    return out


def fock_signature(space: KreinSpace) -> np.ndarray:
    """Diagonal of the Gram matrix of the normalized Fock basis."""
    return _fock_signature_cached(space.signature)


def fock_adjoint_matrix(space: KreinSpace, m: np.ndarray) -> np.ndarray:
    """Krein adjoint on Fock space: S_F M^H S_F."""
    sf = fock_signature(space)
    return sf[:, None] * np.conj(m).T * sf[None, :]


def state_to_vector(psi: FockState) -> np.ndarray:
    """Coordinates in the normalized Fock basis (length 2^d)."""
    d = psi.space.dim
    offs = _degree_offsets(d)
    v = np.zeros(fock_dimension(d), dtype=complex)
    for n, c in psi.components.items():
        v[offs[n] : offs[n + 1]] = c * (sqrt(2.0**n) * factorial(n))
    return v


def vector_to_state(space: KreinSpace, v: np.ndarray) -> FockState:
    d = space.dim
    offs = _degree_offsets(d)
    comps = {}
    for n in range(d + 1):
        block = np.asarray(v, dtype=complex)[offs[n] : offs[n + 1]]
        if np.any(block != 0):
            comps[n] = block / (sqrt(2.0**n) * factorial(n))
    return FockState(space, comps)
