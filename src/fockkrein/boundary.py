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
routes to coherent-state amplitudes coexist: the brute-force sum above,
the degree-wise cycle-index form with f_k = -tr((u Lam)^k)
(``amplitude_degree_terms`` takes every degree from one pass over the
powers), and the determinant det(1 - u Lam)^(1/2) via
``coherent.det_sqrt_tracelog``: above ||u Lam||_op = 1/2 one principal
square root of 1 - u Lam and one LU determinant of it, the principal
branch continued from Lam = 0, and at or below 1/2 the plain trace-log
series on u Lam. The slice region over a hypersurface recovers the
state-space inner product from the amplitude, which is the three-way
agreement the suite checks.

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

import numpy as np

from .coherent import CoherentData, _det_sqrt
from .cycleindex import evaluate_poly, q_n_closed
from .fock import FockState, _graded_basis, fock_inner, index_tuples, tuple_position
from .krein import (
    CONJUGATE_LINEAR,
    HypothesisViolationError,
    KOperator,
    KreinSpace,
    inner,
    operator_norm,
    structural_predicates,
)
from .sampling import random_adapted_isometry, random_signature, random_state, trial_rng

__all__ = [
    "reversed_space",
    "reverse_vector",
    "reverse_conj_antisymmetric",
    "iota",
    "direct_sum_space",
    "embed_vector",
    "embed_conj_antisymmetric",
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
    "slice_g_terms",
    "axiom_suite",
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


def embed_vector(v: np.ndarray, total: int, offset: int) -> np.ndarray:
    out = np.zeros(total, dtype=complex)
    out[offset : offset + len(v)] = v
    return out


def embed_conj_antisymmetric(m: np.ndarray, total: int, offset: int) -> np.ndarray:
    out = np.zeros((total, total), dtype=complex)
    d = m.shape[0]
    out[offset : offset + d, offset : offset + d] = m
    return out


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
    lam = embed_conj_antisymmetric(data1.lam, d, 0) + embed_conj_antisymmetric(
        data2.lam, d, d1
    )
    xi1 = embed_vector(data1.xi, d, 0)
    xi2 = embed_vector(data2.xi, d, d1)
    s = total.signs
    lam_tilde = 0.5 * (np.outer(xi1, s * xi2) - np.outer(xi2, s * xi1))
    return CoherentData(total, lam + lam_tilde, xi1 + xi2)


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
    identifications, i.e. (w, v) -> (conj v, conj w)."""
    d = space.dim
    total = direct_sum_space(reversed_space(space), space)
    m = np.zeros((2 * d, 2 * d), dtype=complex)
    m[:d, d:] = np.eye(d)
    m[d:, :d] = np.eye(d)
    return Region(total, KOperator(m, CONJUGATE_LINEAR))


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
    index: q_n evaluated at y_k = f_k / 2 with f_k = -tr((u Lam)^k)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1.0 + 0j
    return evaluate_poly(q_n_closed(n), _half_traces(region, lam, n))


def amplitude_degree_terms(region: Region, lam: np.ndarray) -> list[complex]:
    """``amplitude_degree_lemma`` for n = 0..d/2 from one pass over the
    powers (u Lam)^k: entry n is the degree-2n amplitude."""
    top = region.space.dim // 2
    y = _half_traces(region, lam, top)
    return [1.0 + 0j] + [evaluate_poly(q_n_closed(n), y[:n]) for n in range(1, top + 1)]


def _half_traces(region: Region, lam: np.ndarray, n: int) -> list[complex]:
    """y_k = f_k / 2 = -tr((u Lam)^k) / 2 for k = 1..n."""
    a = region.u.matrix @ np.conj(lam)  # linear composite u Lam
    y = []
    power = np.eye(region.space.dim, dtype=complex)
    for _ in range(n):
        power = power @ a
        y.append(-np.trace(power) / 2.0)
    return y


def amplitude_closed(region: Region, data: CoherentData) -> complex:
    """det(1 - u Lam)^(1/2) via ``det_sqrt_tracelog``; requires
    ||u Lam||_op < 1 and is independent of xi."""
    if data.space != region.space:
        raise ValueError("coherent data does not live on the boundary space")
    a = region.u.matrix @ np.conj(data.lam)
    nrm = operator_norm(a)
    if nrm >= 1.0:
        raise HypothesisViolationError(
            f"||u Lam||_op = {nrm:.6g} >= 1; the closed form does not apply"
        )
    return _det_sqrt(a, nrm)


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
    assembled = tau_coherent_data(rev, space, left, data2)
    return region, CoherentData(region.space, assembled.lam, assembled.xi)


def slice_inner(space: KreinSpace, data1: CoherentData, data2: CoherentData) -> complex:
    """The inner product <K(data1), K(data2)> recovered as the slice-region
    amplitude; agrees with the closed overlap and with the graded inner
    product under the norm hypotheses."""
    region, assembled = assemble_slice_data(space, data1, data2)
    return amplitude_closed(region, assembled)


def slice_g_terms(space: KreinSpace, data1: CoherentData, data2: CoherentData,
                  terms: int = 64) -> tuple[list[complex], complex]:
    """The factor sequence g_k = -{xi', (Lam Lam')^k xi}/2 appearing in the
    slice resummation, plus b = {xi', (1 - Lam Lam')^(-1) xi}; the partial
    sums of g converge to -b/2."""
    a = data1.lam @ np.conj(data2.lam)
    g = []
    power = np.eye(space.dim, dtype=complex)
    for _ in range(terms):
        g.append(-0.5 * inner(space, data2.xi, power @ data1.xi))
        power = power @ a
    y = np.linalg.solve(np.eye(space.dim) - a, data1.xi)
    b = inner(space, data2.xi, y)
    return g, b


# -- Axiom checks ---------------------------------------------------------------


def axiom_suite(seed: int = 0, trials: int = 50, dim_each: int = 2) -> dict[str, float | str]:
    """Randomized numerical checks of the functorial axioms.

    T1 (graded state spaces) is structural; T2 (graded transposition),
    T2b (reversal/decomposition compatibility), T3x (inner product from the
    slice amplitude), and T5a (disjoint-union multiplicativity) are checked
    on random pure-degree states; self-gluing (T5b) is reported unchecked.
    The T5a regions need a balanced, hence even, boundary: they take the
    largest even dimension up to ``dim_each``, and at least 2.
    Returns max deviations per axiom.
    """
    dev = {"T2": 0.0, "T2b": 0.0, "T3x": 0.0, "T5a": 0.0}
    region_dim = 2 * max(dim_each // 2, 1)
    for t in range(trials):
        rng = trial_rng(seed, t)
        s1 = random_signature(rng, dim_each)
        s2 = random_signature(rng, dim_each)
        m = int(rng.integers(0, s1.dim + 1))
        n = int(rng.integers(0, s2.dim + 1))
        psi1 = random_state(s1, rng, degree=m)
        psi2 = random_state(s2, rng, degree=n)

        # T2: tau_{12}(psi1, psi2) = (-1)^(mn) * swap(tau_{21}(psi2, psi1))
        left = tau(s1, s2, psi1, psi2)
        right = swap_blocks_state(tau(s2, s1, psi2, psi1), s2.dim, s1.dim)
        dev["T2"] = max(dev["T2"], (left - (-1.0) ** (m * n) * right).max_abs())

        # T2b: tau-bar(iota psi1, iota psi2) = (-1)^(mn) iota(tau(psi1, psi2))
        left2 = tau(reversed_space(s1), reversed_space(s2), iota(psi1), iota(psi2))
        right2 = iota(tau(s1, s2, psi1, psi2))
        dev["T2b"] = max(dev["T2b"], (left2 - (-1.0) ** (m * n) * right2).max_abs())

        # T3x: <psi', psi> = rho_slice(tau(iota(psi'), psi)) on one space
        phi1 = random_state(s1, rng, degree=int(rng.integers(0, s1.dim + 1)))
        phi2 = random_state(s1, rng, degree=int(rng.integers(0, s1.dim + 1)))
        glued = tau(reversed_space(s1), s1, iota(phi1), phi2)
        via_slice = amplitude_bruteforce(slice_region(s1), glued)
        dev["T3x"] = max(dev["T3x"], abs(via_slice - fock_inner(phi1, phi2)))

        # T5a: rho_{M1 u M2}(tau(chi1, chi2)) = rho_{M1}(chi1) rho_{M2}(chi2)
        r1 = random_region(region_dim, rng)
        r2 = random_region(region_dim, rng)
        chi1 = random_state(r1.space, rng)
        chi2 = random_state(r2.space, rng)
        union = disjoint_union(r1, r2)
        product = amplitude_bruteforce(r1, chi1) * amplitude_bruteforce(r2, chi2)
        joint = amplitude_bruteforce(union, tau(r1.space, r2.space, chi1, chi2))
        dev["T5a"] = max(dev["T5a"], abs(joint - product))

    out: dict[str, float | str] = dict(dev)
    out["T1"] = "structural (graded Krein state spaces by construction)"
    out["T5b"] = "not checked (out of scope)"
    return out
