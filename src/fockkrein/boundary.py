"""Oriented boundaries, regions, and amplitudes.

Orientation reversal is realized on a shared coordinate array: the
reversed space negates the signature, and the canonical identification
conjugates coordinates (the opposite complex structure), which makes
{xi, eta}_reversed = -conj({xi, eta}) a literal coordinate fact. A
conjugate-anti-symmetric operator transports to the reversed space by
matrix conjugation, a vector by coordinate conjugation.

A region is a balanced-signature boundary space together with a
conjugate-linear involutive adapted real anti-isometry u encoding the
dynamics. The amplitude of a boundary state is

    rho(psi_2n) = (2n)!/n! sum_{j_1..j_n} s_{j_1}..s_{j_n}
                  psi(u zeta_{j_1}, zeta_{j_1}, .., u zeta_{j_n}, zeta_{j_n}),

zero on odd degrees and the degree-0 coefficient at degree 0. Three
routes to coherent-state amplitudes coexist, and ``AMPLITUDE_ROUTES``
lists them for the CLI, as ``OVERLAP_ROUTES`` lists the overlap's: the
brute-force sum above, the degree-wise cycle-index form q_n(y) with
y_k = -tr((u Lam)^k) / 2, and the determinant det(1 - u Lam)^(1/2) by the
guarded root of ``coherent.det_sqrt_tracelog``, the principal branch
continued from Lam = 0 for ||u Lam||_op < 1. The cycle-index route shares
no code with the determinant: it evaluates q_0..q_max from its own traces
by Newton's identities (Macdonald, Symmetric Functions and Hall
Polynomials, I.2), the recursion of ``cycleindex.q_n_recursive`` run on
the numbers, kept in the one-entry sweep table of ``_sweep_table``. It
needs no norm hypothesis: the amplitude of a coherent state is the finite
sum of its degree terms at every ||u Lam||_op, and that sum squares to
det(1 - u Lam). The slice region over a hypersurface recovers the
state-space inner product from the amplitude. The axioms suite of
``verify`` checks this for states (T3x, the brute-force amplitude of
``slice_region``) and the slice assembly of ``assemble_slice_data``; the
three-way agreement of ``slice_inner`` with the closed overlap and the
graded inner product is checked by ``tests/test_acceptance.py`` and by the
``closed`` and ``oracle`` workloads of ``perfbench``.
Every ``Region`` is validated by ``krein.structural_predicates`` on
construction. The slice region depends on the boundary signature alone:
``slice_region`` builds and validates it once per signature and returns
that shared, read-only region on every later call.

The brute-force route evaluates the terms of the sum literally and skips
only those that vanish identically: a repeated j gives two equal
arguments, and a minor I missing some j a zero row, so it sums over
increasing tuples J and minors I containing J, with n! for the
reorderings of J (prefactor (2n)!). It shares no code with the other two
routes and refuses boundaries beyond ``BRUTEFORCE_DIM_LIMIT``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Callable, NamedTuple

import numpy as np

from .coherent import CoherentData, _composite, _guarded_det_sqrt, coherent_series, overlap_closed
from .fock import FockState, _graded_basis, fock_inner, index_tuples, tuple_position
from .krein import (
    CONJUGATE_LINEAR,
    KOperator,
    KreinSpace,
    structural_predicates,
)
from .sampling import random_adapted_isometry

__all__ = [
    "reversed_space",
    "reverse_vector",
    "reverse_conj_antisymmetric",
    "iota",
    "direct_sum_space",
    "tau",
    "tau_coherent_data",
    "permute_basis",
    "swap_blocks_state",
    "Region",
    "random_region",
    "disjoint_union",
    "slice_region",
    "BRUTEFORCE_DIM_LIMIT",
    "check_bruteforce_dim",
    "amplitude_bruteforce",
    "amplitude_degree_lemma",
    "amplitude_degree_terms",
    "amplitude_closed",
    "assemble_slice_data",
    "slice_inner",
    "Route", "AMPLITUDE_ROUTES", "OVERLAP_ROUTES",
]


# -- Orientation reversal ----------------------------------------------------


def reversed_space(space: KreinSpace) -> KreinSpace:
    return KreinSpace(space.dim, tuple(-s for s in space.signature))


def reverse_vector(v: np.ndarray) -> np.ndarray:
    """Canonical identification of a vector with its reversed-space copy."""
    return np.conj(np.asarray(v, dtype=complex))


def reverse_conj_antisymmetric(m: np.ndarray) -> np.ndarray:
    """Transport of a conjugate-anti-symmetric operator to the reversed
    orientation: conjugate the matrix."""
    return np.conj(np.asarray(m, dtype=complex))


def iota(psi: FockState) -> FockState:
    """Orientation-reversal on states: (iota psi)(xi_1..xi_n)
    = conj(psi(xi_n..xi_1)); an involution, coordinate form
    (-1)^(n(n-1)/2) conj(v_I) over the reversed space."""
    n = _graded_basis(psi.space.dim).degree
    sign = np.where(n * (n - 1) // 2 % 2, -1.0, 1.0)
    return FockState(reversed_space(psi.space), sign * np.conj(psi.vector))


# -- Hypersurface decomposition ----------------------------------------------


def direct_sum_space(a: KreinSpace, b: KreinSpace) -> KreinSpace:
    return KreinSpace(a.dim + b.dim, a.signature + b.signature)


def tau(space1: KreinSpace, space2: KreinSpace, psi1: FockState, psi2: FockState) -> FockState:
    """Graded antisymmetrized product onto the direct-sum space.

    With block-ordered indices every merged tuple I cup (shifted J) is
    already sorted, and its coefficient m! n! / (m+n)! a_I b_J is, in the
    normalized basis, the unsigned product of coordinates v1_I v2_J: each
    basis state of the sum space gathers its two factors through the low
    and high bits of its occupation mask. The map is isometric for the
    graded inner products and f-graded commutative up to the sign
    (-1)^(|psi1| |psi2|).
    """
    if psi1.space != space1 or psi2.space != space2:
        raise ValueError("factor states do not match the factor spaces")
    total = direct_sum_space(space1, space2)
    d1 = space1.dim
    mask = _graded_basis(total.dim).mask
    first = _graded_basis(d1).index[mask & ((1 << d1) - 1)]
    second = _graded_basis(space2.dim).index[mask >> d1]
    return FockState(total, psi1.vector[first] * psi2.vector[second])


def tau_coherent_data(space1: KreinSpace, space2: KreinSpace,
                      data1: CoherentData, data2: CoherentData) -> CoherentData:
    """Coherent factorization of tau: parameters combine as
    (Lam + Lam' + Lam~, xi + xi') on the sum space, with the rank-two
    cross piece Lam~(eta) = (xi {eta, xi'} - xi' {eta, xi}) / 2."""
    total = direct_sum_space(space1, space2)
    d, d1 = total.dim, space1.dim
    # Each block is added onto zeros, as the sum of the zero-padded pieces
    # added it, so every entry has the bits of that sum, the sign of a zero
    # included; Lam~ lives in the off-diagonal blocks alone.
    xi = np.zeros(d, dtype=complex)
    xi[:d1] += data1.xi
    xi[d1:] += data2.xi
    sxi = total.signs * xi
    lam = np.zeros((d, d), dtype=complex)
    lam[:d1, :d1] += data1.lam
    lam[d1:, d1:] += data2.lam
    lam[:d1, d1:] += 0.5 * (xi[:d1, None] * sxi[d1:])
    lam[d1:, :d1] -= 0.5 * (xi[d1:, None] * sxi[:d1])
    return CoherentData(total, lam, xi)


def permute_basis(psi: FockState, perm, new_space: KreinSpace) -> FockState:
    """Transport a state along the basis relabeling i -> perm[i].

    ``perm`` must be a permutation of range(d) onto a space of the same
    dimension with new_space.signature[perm[i]] = psi.space.signature[i];
    otherwise ``ValueError``. The basis state with tuple I goes to the
    sorted image of I, with the sign of the permutation that sorts it.
    """
    d = psi.space.dim
    p = np.asarray(perm)
    if p.shape != (d,) or not np.array_equal(np.sort(p), np.arange(d)):
        raise ValueError(f"perm must be a permutation of range({d})")
    p = p.astype(np.intp)
    if new_space.dim != d or not np.array_equal(
        np.array(new_space.signature)[p], psi.space.signature
    ):
        raise ValueError("new_space must carry the signature of psi.space along perm")
    table = _graded_basis(d)
    occupied = (table.mask[:, None] >> np.arange(d)) & 1
    inverted = np.triu(p[:, None] > p[None, :], 1)  # pairs i < j with perm[i] > perm[j]
    odd = np.einsum("gi,ij,gj->g", occupied, inverted, occupied) % 2
    out = np.empty_like(psi.vector)
    out[table.index[occupied @ (1 << p)]] = np.where(odd, -1.0, 1.0) * psi.vector
    return FockState(new_space, out)


def swap_blocks_state(psi: FockState, d1: int, d2: int) -> FockState:
    """Relabel a state over A (+) B onto B (+) A."""
    perm = [i + d2 for i in range(d1)] + [i - d1 for i in range(d1, d1 + d2)]
    sig = psi.space.signature
    new_space = KreinSpace(d1 + d2, sig[d1:] + sig[:d1])
    return permute_basis(psi, perm, new_space)


# -- Regions ------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Balanced boundary space plus the dynamics map u: a conjugate-linear
    involutive adapted real anti-isometry."""

    space: KreinSpace
    u: KOperator

    def __post_init__(self):
        if not self.space.is_balanced():
            raise ValueError("region boundary signature must be balanced")
        if self.u.is_linear or self.u.dim != self.space.dim:
            raise ValueError("u must be conjugate-linear on the boundary space")
        flags = structural_predicates(self.space, self.u, tol=1e-9)
        if not (flags.involution and flags.real_anti_isometry and flags.adapted):
            raise ValueError("u must be an involutive adapted real anti-isometry")


def base_anti_involution(space: KreinSpace) -> KOperator:
    """Swap paired +/- basis directions with coordinate conjugation: an
    involutive adapted real anti-isometry by construction."""
    if not space.is_balanced():
        raise ValueError("signature must be balanced")
    base = np.zeros((space.dim, space.dim), dtype=complex)
    for p, q in zip(space.plus_indices, space.minus_indices):
        base[p, q] = 1.0
        base[q, p] = 1.0
    return KOperator(base, CONJUGATE_LINEAR)


def random_region(d: int, rng_or_seed, signature: tuple[int, ...] | None = None) -> Region:
    """A random region on a balanced d-dimensional boundary.

    The base anti-involution is conjugated by a random adapted
    complex-linear isometry g: u = g u0 g^-1, which preserves all the
    structural predicates.
    """
    rng = rng_or_seed if isinstance(rng_or_seed, np.random.Generator) else np.random.default_rng(rng_or_seed)
    if d % 2:
        raise ValueError("region dimension must be even (balanced signature)")
    if signature is None:
        sig = [1] * (d // 2) + [-1] * (d // 2)
        rng.shuffle(sig)
        signature = tuple(int(s) for s in sig)
    space = KreinSpace(d, tuple(signature))
    base = base_anti_involution(space).matrix
    g = random_adapted_isometry(space, rng).matrix
    g_inv = np.conj(g).T  # block-unitary
    u = KOperator(g @ base @ np.conj(g_inv), CONJUGATE_LINEAR)
    return Region(space, u)


def disjoint_union(r1: Region, r2: Region) -> Region:
    space = direct_sum_space(r1.space, r2.space)
    d, d1 = space.dim, r1.space.dim
    m = np.zeros((d, d), dtype=complex)
    m[:d1, :d1] = r1.u.matrix
    m[d1:, d1:] = r2.u.matrix
    return Region(space, KOperator(m, CONJUGATE_LINEAR))


def slice_region(space: KreinSpace) -> Region:
    """The infinitesimally thickened hypersurface: boundary reversed(space)
    (+) space, with u interchanging the components through the canonical
    identifications, i.e. (w, v) -> (conj v, conj w).

    The region depends on the signature alone, so one shared, read-only
    region per signature is built and validated on the first call."""
    return _slice_region_cached(space.dim, tuple(space.signature))


@lru_cache(maxsize=None)
def _slice_region_cached(dim: int, signature: tuple[int, ...]) -> Region:
    space = KreinSpace(dim, signature)
    return Region(direct_sum_space(reversed_space(space), space), _slice_swap(dim))


@lru_cache(maxsize=None)
def _slice_swap(d: int) -> KOperator:
    """The read-only swap (w, v) -> (conj v, conj w) of the slice boundary,
    shared by every signature of dimension d."""
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    m[:d, d:] = np.eye(d)
    m[d:, :d] = np.eye(d)
    return KOperator(m, CONJUGATE_LINEAR)


# -- Amplitudes ----------------------------------------------------------------


DET_CHUNK = 2**16  # complex entries per batched determinant call

# Largest dimension the brute-force routes accept: amplitude_bruteforce takes
# about 0.2 s at d = 12, and its term count grows about eightfold with every
# two dimensions beyond.
BRUTEFORCE_DIM_LIMIT = 12


def check_bruteforce_dim(dim: int) -> None:
    """Raise ``ValueError`` for a dimension beyond ``BRUTEFORCE_DIM_LIMIT``."""
    if dim > BRUTEFORCE_DIM_LIMIT:
        raise ValueError(
            f"dimension {dim} exceeds BRUTEFORCE_DIM_LIMIT = {BRUTEFORCE_DIM_LIMIT} "
            "of the brute-force routes"
        )


@lru_cache(maxsize=None)
def _nonvanishing_terms(d: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the degree-2n amplitude terms that can be nonzero:
    every increasing n-tuple J, every increasing 2n-tuple I containing J,
    and the position of I among the increasing 2n-tuples."""
    pos = tuple_position(d, 2 * n)
    js, minors, where = [], [], []
    for J in index_tuples(d, n):
        rest = [i for i in range(d) if i not in J]
        for K in itertools.combinations(rest, n):
            I = tuple(sorted(J + K))
            js.append(J)
            minors.append(I)
            where.append(pos[I])
    out = tuple(np.array(a, dtype=np.intp) for a in (js, minors, where))
    for a in out:
        a.setflags(write=False)
    return out


def amplitude_bruteforce(region: Region, psi: FockState) -> complex:
    """The definitional amplitude sum, evaluated degree by degree.

    Each term s_{j_1}..s_{j_n} c_I det(A_I) of the sum over index tuples
    (j_1..j_n) and minors I, where rows 2k and 2k+1 of A are u zeta_{j_k}
    and zeta_{j_k}, is taken literally, as ``evaluate`` would expand it;
    only the terms that vanish identically are skipped. A repeated j gives
    two equal rows zeta_j, and a j outside I a zero row of A_I, so only
    tuples of distinct indices and minors I containing them remain.
    Reordering a tuple permutes pairs of rows, an even permutation, and
    leaves s_{j_1}..s_{j_n} unchanged, so the sum runs over increasing
    tuples J and is multiplied by n!: the prefactor (2n)!/n! becomes (2n)!.
    The 2n x 2n determinants are taken in batches of at most ``DET_CHUNK``
    complex entries. Boundaries beyond ``BRUTEFORCE_DIM_LIMIT`` raise
    ``ValueError`` before any work.
    """
    space = region.space
    d = space.dim
    check_bruteforce_dim(d)
    u = region.u.matrix  # u zeta_j is column j (basis vectors are real)
    sig = np.array(space.signature, dtype=float)
    total = 0j
    for deg in psi.degrees:
        comp = psi.component(deg)
        if deg == 0:
            total += complex(comp[0])
            continue
        if deg % 2:
            continue
        js, minors, where = _nonvanishing_terms(d, deg // 2)
        weights = np.prod(sig[js], axis=1) * comp[where]
        per_call = max(1, DET_CHUNK // deg**2)  # determinants per call
        acc = 0j
        for start in range(0, len(js), per_call):
            part = slice(start, start + per_call)
            J, I = js[part], minors[part]
            mats = np.empty((len(J), deg, deg), dtype=complex)
            mats[:, 0::2] = u[I[:, None, :], J[:, :, None]]
            mats[:, 1::2] = J[:, :, None] == I[:, None, :]
            acc += complex(np.dot(weights[part], np.linalg.det(mats)))
        total += factorial(deg) * acc
    return total


def amplitude_degree_lemma(region: Region, lam: np.ndarray, n: int) -> complex:
    """Amplitude of the degree-2n coherent component through the cycle
    index: q_n evaluated at y_k = f_k / 2 with f_k = -tr((u Lam)^k).

    The value is entry n of the sweep table of ``_sweep_table``, so a sweep
    over the degrees of one (region, Lam) forms the powers of u Lam and
    runs Newton's identities once. No norm hypothesis applies."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1.0 + 0j
    _, amplitudes = _sweep_table(region, lam, n)
    return complex(amplitudes[n])


def amplitude_degree_terms(region: Region, lam: np.ndarray) -> list[complex]:
    """``amplitude_degree_lemma`` for n = 0..d/2, all read from one sweep
    table: entry n is the degree-2n amplitude."""
    _, amplitudes = _sweep_table(region, lam, 0)  # top = d/2
    return amplitudes.tolist()


# The one entry of the sweep table: (key, y, amplitudes), None before the
# first sweep.
_sweep_entry = None


def _sweep_table(region: Region, lam: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only y_1..y_top and amplitudes q_0..q_top of degrees
    0..top of (region, Lam), at top = max(n, d/2), from ``_build_sweep``.

    The one entry is keyed by (d, top, the bytes of u, the bytes of Lam),
    found by bytes equality alone: no hash and no product on a hit. It is
    never keyed by the identity of u or Lam, so either changed in place
    gives a new key. Every n <= d/2 on one (region, Lam) reads the same
    entry, so a sweep over the degrees builds it once and each degree sees
    the same bits."""
    global _sweep_entry
    u = region.u.matrix
    d = u.shape[0]
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (d, d):
        raise ValueError(f"Lam must be {d} x {d}, got shape {lam.shape}")
    key = (d, max(n, d // 2), u.tobytes(), lam.tobytes())
    if _sweep_entry is None or _sweep_entry[0] != key:
        _sweep_entry = (key, *_build_sweep(u @ np.conj(lam), key[1]))
    return _sweep_entry[1:]


def _build_sweep(a: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """y_k = -tr(a^k) / 2 for k = 1..top and q_n(y_1..y_n) for n = 0..top,
    both read-only, with a = u conj(Lam) the d x d linear composite u Lam.

    Only the powers P_j = a^j for j = 1..ceil(top/2) are formed:
    tr(P_i P_j) = sum(P_i * P_j^T) for every pair (i, j) is one product of
    the stacked, flattened powers, and tr(a^k) for k >= 2 is its entry at
    i = ceil(k/2), j = floor(k/2). The cycle indices follow from Newton's
    identities q_0 = 1, q_n = (1/n) sum_{k=1..n} y_k q_{n-k}, a plain loop
    over Python complex numbers in O(top^2) flops.
    """
    d = a.shape[0]
    m = (top + 1) // 2
    p = np.empty((m, d, d), dtype=complex)
    p[0] = a
    for j in range(1, m):
        np.matmul(p[j - 1], a, out=p[j])
    pairs = p.reshape(m, d * d) @ p.transpose(0, 2, 1).reshape(m, d * d).T
    k = np.arange(2, top + 1)
    traces = np.empty(top, dtype=complex)
    traces[0] = np.trace(a)
    traces[1:] = pairs[(k + 1) // 2 - 1, k // 2 - 1]
    y = -traces / 2.0
    ys, q = y.tolist(), [1.0 + 0j]
    for n in range(1, top + 1):
        q.append(sum(map(mul, ys, reversed(q))) / n)  # y_k q_{n-k}, k = 1..n
    amplitudes = np.array(q)
    y.setflags(write=False)
    amplitudes.setflags(write=False)
    return y, amplitudes


def amplitude_closed(region: Region, data: CoherentData) -> complex:
    """det(1 - u Lam)^(1/2) by the one guarded root of ``det_sqrt_tracelog``
    (the product of the principal roots of the unpivoted LU pivots of
    1 - u Lam, ``_det_root``) at every ||u Lam||_op < 1; requires that
    hypothesis and is independent of xi."""
    if data.space != region.space:
        raise ValueError("coherent data does not live on the boundary space")
    return _guarded_det_sqrt(_composite(region.u.matrix, data.lam, "u Lam"), "||u Lam||_op =")


# -- Slice-region inner product ------------------------------------------------


def assemble_slice_data(space: KreinSpace, data1: CoherentData,
                        data2: CoherentData) -> tuple[Region, CoherentData]:
    """Region and coherent data of tau(iota(K(data1)) (x) K(data2)) on the
    slice boundary: (transport(Lam1) (+) Lam2 + Lam~, -transport(xi1) (+) xi2)."""
    if data1.space != space or data2.space != space:
        raise ValueError("coherent data must live on the sliced hypersurface")
    region = slice_region(space)
    rev = reversed_space(space)
    left = CoherentData(
        rev, reverse_conj_antisymmetric(data1.lam), -reverse_vector(data1.xi)
    )
    # tau_coherent_data's sum space equals region.space (a frozen dataclass,
    # compared by value), so its data is returned without a second check
    return region, tau_coherent_data(rev, space, left, data2)


def slice_inner(space: KreinSpace, data1: CoherentData, data2: CoherentData) -> complex:
    """The inner product <K(data1), K(data2)> recovered as the slice-region
    amplitude; agrees with the closed overlap and with the graded inner
    product under the norm hypotheses."""
    region, assembled = assemble_slice_data(space, data1, data2)
    return amplitude_closed(region, assembled)


# -- Route tables: the routes of each result, in the order ``--method all`` prints


class Route(NamedTuple):
    evaluate: Callable[..., complex]  # on the objects the CLI parses
    dim_limited: bool = False  # whether BRUTEFORCE_DIM_LIMIT applies


AMPLITUDE_ROUTES = {  # evaluate(region, data)
    "closed": Route(amplitude_closed),
    "bruteforce": Route(lambda region, data: amplitude_bruteforce(region, coherent_series(data)),
                        True),
    "degreewise": Route(lambda region, data: sum(amplitude_degree_terms(region, data.lam))),
}
OVERLAP_ROUTES = {  # evaluate(space, left, right)
    "bruteforce": Route(lambda space, left, right: fock_inner(coherent_series(left),
                                                              coherent_series(right)), True),
    "closed": Route(lambda space, left, right: overlap_closed(left, right)),
    "slice": Route(slice_inner),
}
