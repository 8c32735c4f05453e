"""Boundary layer: orientation maps, regions, amplitudes, slice identity."""

import itertools
from math import factorial, prod

import numpy as np
import pytest

from fockkrein import boundary, coherent, cycleindex, fock, krein, lie, sampling, verify
from fockkrein.boundary import (
    BRUTEFORCE_DIM_LIMIT,
    Region,
    amplitude_bruteforce,
    amplitude_closed,
    amplitude_degree_lemma,
    amplitude_degree_terms,
    assemble_slice_data,
    disjoint_union,
    iota,
    random_region,
    reversed_space,
    slice_inner,
    slice_region,
    tau,
    tau_coherent_data,
)
from fockkrein.coherent import CoherentData, coherent_series, overlap_closed
from fockkrein.krein import CONJUGATE_LINEAR, HypothesisViolationError, KOperator, KreinSpace


def worked_region(a=0.35 + 0.2j):
    space = KreinSpace(2, (1, -1))
    u = KOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), CONJUGATE_LINEAR)
    region = Region(space, u)
    lam = np.array([[0, a], [a, 0]], dtype=complex)
    return region, CoherentData(space, lam, np.zeros(2, dtype=complex)), a


def make_data(space, rng, scale=0.6):
    lam = sampling.random_conj_antisymmetric(space, rng, scale=scale)
    return CoherentData(space, lam.matrix, sampling.random_vector(space, rng))


# -- orientation reversal ------------------------------------------------------


def test_reversed_space_and_double_reversal():
    space = KreinSpace(3, (1, -1, 1))
    rev = reversed_space(space)
    assert rev.signature == (-1, 1, -1)
    assert reversed_space(rev) == space
    v = np.array([1.0, 2j, -1.0])
    assert np.array_equal(boundary.reverse_vector(boundary.reverse_vector(v)), v)


def test_reversed_inner_product_rule():
    space = KreinSpace(3, (1, -1, 1))
    rev = reversed_space(space)
    rng = np.random.default_rng(0)
    v = sampling.random_vector(space, rng)
    w = sampling.random_vector(space, rng)
    lhs = krein.inner(rev, boundary.reverse_vector(v), boundary.reverse_vector(w))
    assert lhs == pytest.approx(-np.conj(krein.inner(space, v, w)))


def test_iota_vacuum_and_involution():
    space = KreinSpace(3, (1, 1, -1))
    assert iota(fock.vacuum(space)).max_abs_diff(fock.vacuum(reversed_space(space))) == 0
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = sampling.random_state(space, rng)
        assert iota(iota(psi)).max_abs_diff(psi) == 0


def test_iota_on_coherent_states():
    rng = np.random.default_rng(2)
    for _ in range(20):
        space = sampling.random_signature(rng, 4)
        data = make_data(space, rng)
        transported = CoherentData(
            reversed_space(space),
            boundary.reverse_conj_antisymmetric(data.lam),
            -boundary.reverse_vector(data.xi),
        )
        dev = iota(coherent_series(data)).max_abs_diff(coherent_series(transported))
        assert dev < 1e-12


def test_iota_real_f_graded_isometry():
    rng = np.random.default_rng(3)
    space = sampling.random_signature(rng, 3)
    for degree in range(4):
        p1 = sampling.random_state(space, rng, degree=degree)
        p2 = sampling.random_state(space, rng, degree=degree)
        lhs = fock.fock_inner(iota(p1), iota(p2)).real
        rhs = fock.fock_inner(p1, p2).real
        assert lhs == pytest.approx((-1.0) ** degree * rhs, abs=1e-12)


# -- tau -----------------------------------------------------------------------


def test_tau_vacua():
    s1 = KreinSpace(2, (1, -1))
    s2 = KreinSpace(1, (1,))
    out = tau(s1, s2, fock.vacuum(s1), fock.vacuum(s2))
    assert out.max_abs_diff(fock.vacuum(boundary.direct_sum_space(s1, s2))) == 0


def test_tau_isometry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        s1 = sampling.random_signature(rng, 2)
        s2 = sampling.random_signature(rng, 2)
        m = int(rng.integers(0, 3))
        n = int(rng.integers(0, 3))
        p1, p2 = (sampling.random_state(s1, rng, degree=m) for _ in range(2))
        q1, q2 = (sampling.random_state(s2, rng, degree=n) for _ in range(2))
        lhs = fock.fock_inner(tau(s1, s2, p1, q1), tau(s1, s2, p2, q2))
        rhs = fock.fock_inner(p1, p2) * fock.fock_inner(q1, q2)
        assert abs(lhs - rhs) < 1e-10


def test_tau_transposition_sign():
    rng = np.random.default_rng(5)
    s1 = sampling.random_signature(rng, 2)
    s2 = sampling.random_signature(rng, 2)
    for m in range(3):
        for n in range(3):
            p = sampling.random_state(s1, rng, degree=m)
            q = sampling.random_state(s2, rng, degree=n)
            left = tau(s1, s2, p, q)
            right = boundary.swap_blocks_state(tau(s2, s1, q, p), s2.dim, s1.dim)
            assert (left - (-1.0) ** (m * n) * right).max_abs() < 1e-14


def test_tau_coherent_factorization():
    rng = np.random.default_rng(6)
    for _ in range(20):
        s1 = sampling.random_signature(rng, 2)
        s2 = sampling.random_signature(rng, 2)
        d1 = make_data(s1, rng)
        d2 = make_data(s2, rng)
        glued = tau(s1, s2, coherent_series(d1), coherent_series(d2))
        assembled = coherent_series(tau_coherent_data(s1, s2, d1, d2))
        assert glued.max_abs_diff(assembled) < 1e-12


def per_tuple_tau(space1, space2, psi1, psi2):
    """tau as the loop over pairs of tuples: m! n! / (m+n)! a_I b_J at the
    merged tuple I cup (J + d1)."""
    total = boundary.direct_sum_space(space1, space2)
    d1, d = space1.dim, total.dim
    comps = {}
    for m in psi1.degrees:
        for n in psi2.degrees:
            deg = m + n
            pref = factorial(m) * factorial(n) / factorial(deg)
            pos = fock.tuple_position(d, deg)
            block = comps.setdefault(deg, np.zeros(len(pos), dtype=complex))
            for I, ai in zip(fock.index_tuples(d1, m), psi1.component(m)):
                for J, bj in zip(fock.index_tuples(space2.dim, n), psi2.component(n)):
                    block[pos[I + tuple(d1 + j for j in J)]] += pref * ai * bj
    return fock.FockState.from_components(total, comps)


def per_tuple_permute_basis(psi, perm, new_space):
    """permute_basis as the loop over tuples: c_I moves to the sorted image
    of I, times the sign of the permutation that sorts it."""
    d = psi.space.dim
    comps = {}
    for n in psi.degrees:
        c = psi.component(n)
        pos = fock.tuple_position(d, n)
        out = np.zeros_like(c)
        for idx, I in enumerate(fock.index_tuples(d, n)):
            image = [perm[i] for i in I]
            out[pos[tuple(sorted(image))]] = lie._perm_sign(np.argsort(image)) * c[idx]
        comps[n] = out
    return fock.FockState.from_components(new_space, comps)


def block_pairs(max_dim):
    return [(d1, d2) for d1 in range(1, max_dim) for d2 in range(1, max_dim - d1 + 1)]


@pytest.mark.parametrize("d1, d2", block_pairs(6))
def test_tau_matches_per_tuple_loop(d1, d2):
    rng = np.random.default_rng(100 * d1 + d2)
    for _ in range(3):
        s1 = sampling.random_signature(rng, d1)
        s2 = sampling.random_signature(rng, d2)
        p = sampling.random_state(s1, rng)
        q = sampling.random_state(s2, rng)
        reference = per_tuple_tau(s1, s2, p, q)
        assert tau(s1, s2, p, q).max_abs_diff(reference) <= 1e-15 * reference.max_abs()


@pytest.mark.parametrize("d1, d2", block_pairs(6))
def test_permute_basis_matches_per_tuple_loop(d1, d2):
    rng = np.random.default_rng(200 * d1 + d2)
    d = d1 + d2
    for _ in range(3):
        space = sampling.random_signature(rng, d)
        psi = sampling.random_state(space, rng)
        perm = [int(i) for i in rng.permutation(d)]
        sig = [0] * d
        for i in range(d):
            sig[perm[i]] = space.signature[i]
        new_space = KreinSpace(d, tuple(sig))
        reference = per_tuple_permute_basis(psi, perm, new_space)
        moved = boundary.permute_basis(psi, perm, new_space)
        assert moved.space == new_space
        assert moved.max_abs_diff(reference) <= 1e-15 * reference.max_abs()

        swap = [i + d2 for i in range(d1)] + [i - d1 for i in range(d1, d)]
        swapped_space = KreinSpace(d, space.signature[d1:] + space.signature[:d1])
        reference = per_tuple_permute_basis(psi, swap, swapped_space)
        swapped = boundary.swap_blocks_state(psi, d1, d2)
        assert swapped.space == swapped_space
        assert swapped.max_abs_diff(reference) <= 1e-15 * reference.max_abs()


@pytest.mark.parametrize("perm, new_signature, match", [
    ([1, 0, 2], (1, -1, 1), "signature"),  # moves a + direction onto a -
    ([0, 0, 1], (1, -1, 1), "permutation"),  # a repeated index
    ([0, 1, 5], (1, -1, 1), "permutation"),  # an index outside range(3)
    ([1, 0], (1, -1, 1), "permutation"),  # too few entries
    ([0, 1, 2], (1, -1, 1, 1), "signature"),  # a target space of another dimension
])
def test_permute_basis_rejects_bad_relabelings(perm, new_signature, match):
    space = KreinSpace(3, (1, -1, 1))
    psi = sampling.random_state(space, np.random.default_rng(0))
    with pytest.raises(ValueError, match=match):
        boundary.permute_basis(psi, perm, KreinSpace(len(new_signature), new_signature))


# -- regions -------------------------------------------------------------------


def test_region_validation():
    space = KreinSpace(2, (1, 1))  # unbalanced
    u = KOperator(np.eye(2), CONJUGATE_LINEAR)
    with pytest.raises(ValueError):
        Region(space, u)
    balanced = KreinSpace(2, (1, -1))
    with pytest.raises(ValueError):
        Region(balanced, KOperator(np.eye(2), CONJUGATE_LINEAR))  # not anti-isometry
    with pytest.raises(ValueError):
        Region(balanced, KOperator(np.array([[0, 1], [1, 0]])))  # linear tag


def test_random_region_base_case_matches_worked_map():
    # with the identity isometry the generator's base map at d=2 IS the
    # worked u(v) = (conj v2, conj v1)
    space = KreinSpace(2, (1, -1))
    base = boundary.base_anti_involution(space)
    assert np.array_equal(base.matrix, np.array([[0, 1], [1, 0]]))
    assert not base.is_linear
    region = random_region(2, np.random.default_rng(0), signature=(1, -1))
    flags = krein.structural_predicates(region.space, region.u, tol=1e-10)
    assert flags.involution and flags.real_anti_isometry and flags.adapted


def test_random_region_contract_many_seeds():
    for seed in range(100):
        region = random_region(4, seed)
        flags = krein.structural_predicates(region.space, region.u, tol=1e-10)
        assert flags.involution and flags.real_anti_isometry and flags.adapted
        usq = krein.compose(region.u, region.u)
        assert np.max(np.abs(usq.matrix - np.eye(4))) < 1e-13
    with pytest.raises(ValueError):
        random_region(3, 0)


# -- amplitudes ------------------------------------------------------------------


def test_amplitude_on_vacuum_and_odd_degrees():
    rng = np.random.default_rng(7)
    region = random_region(4, rng)
    assert amplitude_bruteforce(region, fock.vacuum(region.space)) == 1
    odd = sampling.random_state(region.space, rng, degree=3)
    assert amplitude_bruteforce(region, odd) == 0


def test_amplitude_worked_case_all_routes():
    region, data, a = worked_region()
    expected = 1 - np.conj(a)
    state = coherent_series(data)
    assert amplitude_bruteforce(region, state) == pytest.approx(expected, abs=1e-12)
    assert amplitude_closed(region, data) == pytest.approx(expected, abs=1e-12)
    # composite u Lam is conj(a) * identity
    prod = region.u.matrix @ np.conj(data.lam)
    assert np.allclose(prod, np.conj(a) * np.eye(2))
    assert amplitude_degree_lemma(region, data.lam, 1) == pytest.approx(-np.conj(a))
    assert amplitude_degree_lemma(region, data.lam, 0) == 1


def test_amplitude_degree_lemma_matches_bruteforce():
    rng = np.random.default_rng(8)
    for _ in range(25):
        region = random_region(4, rng)
        lam = sampling.random_conj_antisymmetric(region.space, rng, scale=0.6)
        data = CoherentData(region.space, lam.matrix, sampling.random_vector(region.space, rng))
        state = coherent_series(data)
        for n in range(3):
            comp = fock.FockState.from_components(region.space, {2 * n: state.component(2 * n)})
            assert abs(
                amplitude_bruteforce(region, comp)
                - amplitude_degree_lemma(region, data.lam, n)
            ) < 1e-10


def test_amplitude_degree_lemma_vanishes_beyond_top_degree():
    # the cycle-index expressions cancel identically once 2n exceeds the
    # boundary dimension, which is what truncates the amplitude series
    region, data, a = worked_region()
    for n in (2, 3, 4):
        assert abs(amplitude_degree_lemma(region, data.lam, n)) < 1e-14
    amplitude_degree_terms(region, data.lam)  # the table at top = d/2 = 1 is warm
    for n in (4, 3, 2):
        assert abs(amplitude_degree_lemma(region, data.lam, n)) < 1e-14
    assert amplitude_degree_lemma(region, data.lam, 1) == pytest.approx(-np.conj(a))


@pytest.mark.parametrize("sigma", [0.9, 0.999])
def test_amplitude_degree_lemma_sum_matches_closed_at_dim_32(sigma):
    rng = np.random.default_rng(32)
    region = random_region(32, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    lam = lam * (sigma / krein.operator_norm(region.u.matrix @ np.conj(lam)))
    data = CoherentData(region.space, lam, sampling.random_vector(region.space, rng))
    closed = amplitude_closed(region, data)
    lemma = sum(amplitude_degree_lemma(region, lam, n) for n in range(17))
    assert abs(lemma - closed) <= 1e-8 * abs(closed)


def region_and_lam(d, rng, sigma=0.9):
    """A random region and a Lam with ||u conj(Lam)||_op = sigma."""
    region = random_region(d, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    return region, lam * (sigma / krein.operator_norm(region.u.matrix @ np.conj(lam)))


@pytest.mark.parametrize("d", [8, 32])
def test_amplitude_degree_terms_match_per_degree_calls(d):
    region, lam = region_and_lam(d, np.random.default_rng(d))
    terms = amplitude_degree_terms(region, lam)
    assert len(terms) == d // 2 + 1
    assert terms == [amplitude_degree_lemma(region, lam, n) for n in range(d // 2 + 1)]


def power_loop_half_traces(region, lam, n):
    """-tr((u Lam)^k) / 2 for k = 1..n from the n successive powers."""
    a = region.u.matrix @ np.conj(lam)
    y = []
    power = np.eye(region.space.dim, dtype=complex)
    for _ in range(n):
        power = power @ a
        y.append(-np.trace(power) / 2.0)
    return y


@pytest.mark.parametrize("sigma", [0.5, 0.999])
@pytest.mark.parametrize("d", [2, 8, 16, 32])
def test_half_traces_match_the_power_loop(d, sigma):
    rng = np.random.default_rng(100 + d)
    region = random_region(d, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    lam = lam * (sigma / krein.operator_norm(region.u.matrix @ np.conj(lam)))
    for n in range(1, d // 2 + 1):
        y = boundary._sweep_table(region, lam, n)[0][:n]
        assert len(y) == n
        assert np.max(np.abs(y - np.array(power_loop_half_traces(region, lam, n)))) <= 1e-13 * d


@pytest.fixture
def sweep_builds(monkeypatch):
    """The top of every build of the sweep table, from an empty table on."""
    builds = []
    build = boundary._build_sweep

    def counting(a, top):
        builds.append(top)
        return build(a, top)

    monkeypatch.setattr(boundary, "_build_sweep", counting)
    monkeypatch.setattr(boundary, "_sweep_entry", None)
    return builds


@pytest.mark.parametrize("d", [8, 32])
def test_degree_sweep_builds_the_trace_table_once(d, sweep_builds):
    region, lam = region_and_lam(d, np.random.default_rng(200 + d))
    for n in range(d // 2 + 1):
        amplitude_degree_lemma(region, lam, n)
    assert sweep_builds == [d // 2]
    amplitude_degree_terms(region, lam)
    y = boundary._sweep_table(region, lam, d // 2)[0][: d // 2]
    assert sweep_builds == [d // 2]
    for table in (y, *boundary._sweep_table(region, lam, d // 2)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_trace_table_follows_a_lam_changed_in_place(sweep_builds):
    region, lam = region_and_lam(8, np.random.default_rng(208))
    before = amplitude_degree_terms(region, lam)
    lam *= 0.5  # same array object, new content
    after = amplitude_degree_terms(region, lam)
    assert len(sweep_builds) == 2
    boundary._sweep_entry = None
    assert after == amplitude_degree_terms(region, lam)
    for n in range(1, 5):
        assert after[n] != before[n]
        assert abs(after[n] - 0.5**n * before[n]) <= 1e-12 * abs(before[n])
    u = region.u.matrix
    u.setflags(write=True)
    u *= -1  # same region and array, new content: y_k -> (-1)^k y_k
    u.setflags(write=False)
    flipped = amplitude_degree_terms(region, lam)
    assert len(sweep_builds) == 4
    for n in range(1, 5):
        assert abs(flipped[n] - (-1) ** n * after[n]) <= 1e-12 * abs(after[n])


@pytest.mark.parametrize("d", [8, 32])
def test_cold_degree_call_equals_the_call_after_a_sweep(d, sweep_builds):
    region, lam = region_and_lam(d, np.random.default_rng(300 + d), sigma=0.999)
    for n in range(1, d // 2 + 1):
        boundary._sweep_entry = None
        cold = amplitude_degree_lemma(region, lam, n)
        assert amplitude_degree_terms(region, lam)[n] == cold
        assert amplitude_degree_lemma(region, lam, n) == cold
    assert sweep_builds == [d // 2] * (d // 2)


def test_amplitude_closed_xi_independent_bitwise():
    rng = np.random.default_rng(9)
    region = random_region(4, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng, scale=0.4).matrix
    v1 = amplitude_closed(region, CoherentData(region.space, lam, sampling.random_vector(region.space, rng)))
    v2 = amplitude_closed(region, CoherentData(region.space, lam, sampling.random_vector(region.space, rng)))
    assert v1 == v2


def test_amplitude_norm_guard():
    region, data, a = worked_region(a=1.2)  # ||u Lam|| = 1.2
    with pytest.raises(HypothesisViolationError):
        amplitude_closed(region, data)


# -- the literal amplitude sum ------------------------------------------------------


def per_tuple_amplitude(region, psi):
    """The definitional sum over every index tuple (j_1..j_n) and every
    minor, batched by consecutive tuples: the full sum that
    ``amplitude_bruteforce`` reduces to its nonvanishing terms."""
    space = region.space
    d = space.dim
    u = region.u.matrix
    sig = np.array(space.signature, dtype=float)
    total = 0j
    for deg in psi.degrees:
        comp = psi.component(deg)
        if deg == 0:
            total += complex(comp[0])
            continue
        if deg % 2:
            continue
        n = deg // 2
        minors = np.array(fock.index_tuples(d, deg), dtype=np.intp)
        per_call = max(1, boundary.DET_CHUNK // deg**2)
        tuples_per_call = max(1, per_call // len(minors))
        acc = 0j
        for start in range(0, d**n, tuples_per_call):
            flat = np.arange(start, min(start + tuples_per_call, d**n))
            js = np.stack(np.unravel_index(flat, (d,) * n), axis=1)
            dets = np.concatenate([
                argument_minor_dets(u, js, minors[m : m + per_call])
                for m in range(0, len(minors), per_call)
            ], axis=1)
            terms = np.prod(sig[js], axis=1) * np.array([comp.dot(row) for row in dets])
            acc = complex(np.add.accumulate(np.concatenate(([acc], terms)))[-1])
        total += factorial(deg) / factorial(n) * acc
    return total


def argument_minor_dets(u, js, cols):
    """det(A_I) for each index tuple (rows of js) and minor I (rows of cols),
    where rows 2k and 2k+1 of A are u zeta_{j_k} and zeta_{j_k}."""
    deg = cols.shape[1]
    mats = np.empty((len(js), len(cols), deg, deg), dtype=complex)
    mats[:, :, 0::2] = u[cols[None, :, None, :], js[:, None, :, None]]
    mats[:, :, 1::2] = js[:, None, :, None] == cols[None, :, None, :]
    return np.linalg.det(mats)


def evaluated_amplitude(region, psi):
    """The amplitude as written: (2n)!/n! times the signed sum of
    psi(u zeta_{j_1}, zeta_{j_1}, ..) over all d^n tuples, through
    ``fock.evaluate``."""
    space = region.space
    basis = np.eye(space.dim, dtype=complex)
    total = 0j
    for deg in psi.degrees:
        if deg % 2:
            continue
        n = deg // 2
        for js in itertools.product(range(space.dim), repeat=n):
            args = [v for j in js for v in (region.u.matrix[:, j], basis[j])]
            sign = prod(space.signature[j] for j in js)
            total += factorial(deg) / factorial(n) * sign * fock.evaluate(psi, args)
    return total


def amplitude_inputs(d, rng):
    """A random region with a coherent state at ||u Lam|| = 1/2 and a
    random mixed-degree state."""
    region = random_region(d, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    lam = lam * (0.5 / krein.operator_norm(region.u.matrix @ np.conj(lam)))
    data = CoherentData(region.space, lam, sampling.random_vector(region.space, rng))
    return region, data, sampling.random_state(region.space, rng)


@pytest.mark.parametrize("d", [2, 4, 6])
def test_bruteforce_matches_per_tuple_sum(d):
    rng = np.random.default_rng(60 + d)
    for _ in range(4):
        region, data, mixed = amplitude_inputs(d, rng)
        for psi in (coherent_series(data), mixed):
            reference = per_tuple_amplitude(region, psi)
            assert abs(amplitude_bruteforce(region, psi) - reference) <= 1e-13 * abs(reference)
            for n in range(d // 2 + 1):
                comp = fock.FockState.from_components(region.space, {2 * n: psi.component(2 * n)})
                reference = per_tuple_amplitude(region, comp)
                assert abs(amplitude_bruteforce(region, comp) - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("d", [2, 4])
def test_bruteforce_matches_evaluated_sum(d):
    rng = np.random.default_rng(70 + d)
    for _ in range(4):
        region, data, mixed = amplitude_inputs(d, rng)
        for psi in (coherent_series(data), mixed):
            reference = evaluated_amplitude(region, psi)
            assert abs(amplitude_bruteforce(region, psi) - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("d", [8, 10, 12])
def test_bruteforce_matches_closed_at_larger_dims(d):
    region, data, _ = amplitude_inputs(d, np.random.default_rng(80 + d))
    closed = amplitude_closed(region, data)
    assert abs(amplitude_bruteforce(region, coherent_series(data)) - closed) <= 1e-8 * abs(closed)


def test_bruteforce_refuses_beyond_the_limit():
    region = random_region(BRUTEFORCE_DIM_LIMIT + 2, 0)
    built = boundary._nonvanishing_terms.cache_info().currsize
    with pytest.raises(ValueError, match=f"BRUTEFORCE_DIM_LIMIT = {BRUTEFORCE_DIM_LIMIT}"):
        amplitude_bruteforce(region, fock.vacuum(region.space))
    assert boundary._nonvanishing_terms.cache_info().currsize == built


def test_bruteforce_reaches_no_closed_form():
    from test_ladder import reached

    names = reached(amplitude_bruteforce)
    assert not names & {
        coherent._guarded_det_sqrt,
        coherent._det_root,
        coherent.det_sqrt_tracelog,
        krein.operator_norm,
        cycleindex.evaluate_poly,
        cycleindex.evaluate_polys,
        cycleindex.q_n_closed,
        fock.ladder_maps,
        fock._word_plan,
        fock.LadderSum,
    }
    assert fock.tuple_position in names  # the walk does see the index tables


@pytest.mark.parametrize("route", [amplitude_degree_lemma, amplitude_degree_terms],
                         ids=lambda fn: fn.__name__)
def test_degree_lemma_reaches_no_determinant_route(route):
    from test_ladder import reached

    names = reached(route)
    assert not names & {
        coherent._guarded_det_sqrt,
        coherent._det_root,
        coherent.det_sqrt_tracelog,
        krein.operator_norm,
    }
    assert {  # the walk sees the table and the evaluator
        boundary._sweep_table, boundary._build_sweep, cycleindex.evaluate_polys, cycleindex._plan,
    } <= names


@pytest.mark.parametrize("route", [
    amplitude_closed, overlap_closed, coherent.det_sqrt_tracelog, slice_inner,
], ids=lambda fn: fn.__name__)
def test_determinant_routes_reach_no_degree_lemma(route):
    from test_ladder import reached

    names = reached(route)
    assert not names & {
        boundary._sweep_table, boundary._build_sweep,
        cycleindex.evaluate_poly, cycleindex.evaluate_polys, cycleindex._plan,
    }
    assert {coherent._guarded_det_sqrt, coherent._det_root} <= names  # the walk sees the guard


# -- slice region -----------------------------------------------------------------


def test_slice_region_structure():
    space = KreinSpace(2, (1, -1))
    region = slice_region(space)
    assert region.space.signature == (-1, 1, 1, -1)
    flags = krein.structural_predicates(region.space, region.u)
    assert flags.involution and flags.real_anti_isometry and flags.adapted


def test_slice_region_is_built_once_per_signature():
    space = KreinSpace(4, (1, -1, -1, 1))
    region = slice_region(space)
    assert slice_region(KreinSpace(space.dim, tuple(space.signature))) is region
    other = slice_region(KreinSpace(4, (1, 1, -1, -1)))
    assert other is not region and other.space != region.space
    assert other.u is region.u  # one swap per dimension
    with pytest.raises(ValueError, match="read-only"):
        region.u.matrix[0, 0] = 1.0


def test_slice_inner_validates_each_slice_region_once(monkeypatch):
    validated = []
    predicates = boundary.structural_predicates

    def counting(space, op, tol=1e-10):
        validated.append(space.signature)
        return predicates(space, op, tol=tol)

    monkeypatch.setattr(boundary, "structural_predicates", counting)
    boundary._slice_region_cached.cache_clear()
    spaces = [KreinSpace(3, (1, -1, 1)), KreinSpace(3, (-1, -1, 1))]
    for _ in range(3):
        for space in spaces:
            zero = CoherentData.zero(space)
            assert slice_inner(space, zero, zero) == 1.0
    assert validated == [(-1, 1, -1, 1, -1, 1), (1, 1, -1, -1, -1, 1)]


def embed_and_add_coherent_data(space1, space2, data1, data2):
    """The coherent data of tau as the sum of zero-padded embeddings of
    both factors and of the full-size cross piece."""
    total = KreinSpace(space1.dim + space2.dim, space1.signature + space2.signature)
    d, d1 = total.dim, space1.dim
    lam1 = np.zeros((d, d), dtype=complex)
    lam1[:d1, :d1] = data1.lam
    lam2 = np.zeros((d, d), dtype=complex)
    lam2[d1:, d1:] = data2.lam
    xi1 = np.zeros(d, dtype=complex)
    xi1[:d1] = data1.xi
    xi2 = np.zeros(d, dtype=complex)
    xi2[d1:] = data2.xi
    s = total.signs
    lam_tilde = 0.5 * (np.outer(xi1, s * xi2) - np.outer(xi2, s * xi1))
    return CoherentData(total, lam1 + lam2 + lam_tilde, xi1 + xi2)


def uncached_slice_data(space, data1, data2):
    """A fresh, validated slice region and the embed-and-add slice data."""
    d = space.dim
    rev = reversed_space(space)
    swap = np.zeros((2 * d, 2 * d), dtype=complex)
    swap[:d, d:] = np.eye(d)
    swap[d:, :d] = np.eye(d)
    region = Region(
        KreinSpace(2 * d, rev.signature + space.signature), KOperator(swap, CONJUGATE_LINEAR)
    )
    left = CoherentData(rev, np.conj(data1.lam), -np.conj(data1.xi))
    return region, embed_and_add_coherent_data(rev, space, left, data2)


def same_bits(a, b):
    return a.space == b.space and all(
        x.tobytes() == y.tobytes() for x, y in ((a.lam, b.lam), (a.xi, b.xi))
    )


@pytest.mark.parametrize("sigma", [0.5, 0.999])
@pytest.mark.parametrize("d", [2, 8, 16, 32])
def test_slice_assembly_keeps_the_bits_of_the_uncached_assembly(d, sigma):
    rng = np.random.default_rng(300 + d)
    space = sampling.random_signature(rng, d)
    d1, d2 = (
        CoherentData(
            space,
            sampling.scale_operator_to_norm(sampling.random_conj_antisymmetric(space, rng), sigma).matrix,
            sampling.random_vector(space, rng, scale=1e-3 / np.sqrt(d)),
        )
        for _ in range(2)
    )
    ref_region, ref = uncached_slice_data(space, d1, d2)
    assert krein.operator_norm(ref_region.u.matrix @ np.conj(ref.lam)) < 1.0
    region, assembled = assemble_slice_data(space, d1, d2)
    assert region.space == ref_region.space
    assert region.u.matrix.tobytes() == ref_region.u.matrix.tobytes()
    assert same_bits(assembled, ref)
    assert slice_inner(space, d1, d2) == amplitude_closed(ref_region, ref)


@pytest.mark.parametrize("inputs", ["random", "zeros"])
@pytest.mark.parametrize("dims", [(2, 4), (3, 5)], ids=lambda p: f"{p[0]}+{p[1]}")
def test_tau_coherent_data_keeps_the_bits_of_embed_and_add(dims, inputs):
    rng = np.random.default_rng(sum(dims))
    spaces = [sampling.random_signature(rng, n) for n in dims]
    if inputs == "random":
        data = [make_data(space, rng) for space in spaces]
    else:  # signed zeros, the only entries whose bits the sum could change
        data = [CoherentData(space, -np.zeros((space.dim, space.dim)),
                             np.full(space.dim, complex(-0.0, -0.0)))
                for space in spaces]
        data[1] = CoherentData(spaces[1], np.conj(make_data(spaces[1], rng).lam), data[1].xi)
    for pair in (data, data[::-1]):
        first, second = (p.space for p in pair)
        assert same_bits(tau_coherent_data(first, second, *pair),
                         embed_and_add_coherent_data(first, second, *pair))


def test_slice_inner_trivial_and_mode_cases():
    space = KreinSpace(2, (1, -1))
    z = CoherentData.zero(space)
    assert slice_inner(space, z, z) == pytest.approx(1.0)
    rng = np.random.default_rng(10)
    xi1 = sampling.random_vector(space, rng)
    xi2 = sampling.random_vector(space, rng)
    d1 = CoherentData(space, np.zeros((2, 2)), xi1)
    d2 = CoherentData(space, np.zeros((2, 2)), xi2)
    expected = 1 + 0.5 * krein.inner(space, xi2, xi1)
    assert slice_inner(space, d1, d2) == pytest.approx(expected, abs=1e-10)
    assert overlap_closed(d1, d2) == pytest.approx(expected, abs=1e-12)
    direct = fock.fock_inner(coherent_series(d1), coherent_series(d2))
    assert direct == pytest.approx(expected, abs=1e-12)


def test_slice_inner_dim2_positive_definite_anchor():
    space = KreinSpace(2, (1, 1))
    a = 0.5
    data = CoherentData(space, np.array([[0, a], [-a, 0]]), np.zeros(2))
    assert slice_inner(space, data, data) == pytest.approx(1 + a * a, abs=1e-12)


def test_slice_three_way_agreement_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        space = sampling.random_signature(rng, int(rng.integers(1, 5)))
        xi_scale = 0.25 / np.sqrt(space.dim)
        d1, d2 = (
            CoherentData(
                space,
                sampling.scale_operator_to_norm(
                    sampling.random_conj_antisymmetric(space, rng), 0.4
                ).matrix,
                sampling.random_vector(space, rng, scale=xi_scale),
            )
            for _ in range(2)
        )
        direct = fock.fock_inner(coherent_series(d1), coherent_series(d2))
        closed = overlap_closed(d1, d2)
        via_slice = slice_inner(space, d1, d2)
        scale = max(abs(direct), 1.0)
        assert abs(closed - direct) <= 1e-8 * scale
        assert abs(via_slice - direct) <= 1e-8 * scale


def test_assemble_slice_data_lives_on_the_slice_region_space():
    # The tau data is returned as it is: re-validating it on region.space
    # gives bit for bit the same slice inner product.
    rng = np.random.default_rng(14)
    for d in (1, 2, 3, 4, 8):
        space = sampling.random_signature(rng, d)
        d1, d2 = (
            CoherentData(space, sampling.random_conj_antisymmetric(space, rng, scale=0.3).matrix,
                         sampling.random_vector(space, rng, scale=0.25 / np.sqrt(d)))
            for _ in range(2)
        )
        region, assembled = assemble_slice_data(space, d1, d2)
        assert assembled.space == region.space
        rewrapped = CoherentData(region.space, assembled.lam, assembled.xi)
        assert slice_inner(space, d1, d2) == amplitude_closed(region, rewrapped)


def test_slice_odd_power_traces_vanish():
    rng = np.random.default_rng(12)
    for _ in range(25):
        space = sampling.random_signature(rng, 3)
        region, assembled = assemble_slice_data(space, make_data(space, rng), make_data(space, rng))
        underline = assembled.lam.copy()
        d = space.dim
        underline[:d, d:] = 0.0
        underline[d:, :d] = 0.0
        a = region.u.matrix @ np.conj(underline)
        power = a
        for k in range(1, 6):
            if k % 2 == 1:
                assert abs(np.trace(power)) < 1e-12
            power = power @ a


def slice_g_terms(space, data1, data2, terms=64):
    """The factor sequence g_k = -{xi', (Lam Lam')^k xi}/2 of the slice
    resummation for k < ``terms``, and b = {xi', (1 - Lam Lam')^(-1) xi};
    the partial sums of g converge to -b/2."""
    a = data1.lam @ np.conj(data2.lam)
    g = []
    power = np.eye(space.dim, dtype=complex)
    for _ in range(terms):
        g.append(-0.5 * krein.inner(space, data2.xi, power @ data1.xi))
        power = power @ a
    y = np.linalg.solve(np.eye(space.dim) - a, data1.xi)
    return g, krein.inner(space, data2.xi, y)


def test_slice_g_sequence_sums_to_minus_half_b():
    rng = np.random.default_rng(13)
    space = sampling.random_signature(rng, 4)
    d1 = make_data(space, rng, scale=0.4)
    d2 = make_data(space, rng, scale=0.4)
    g, b = slice_g_terms(space, d1, d2)
    assert sum(g) == pytest.approx(-0.5 * b, abs=1e-10)


# -- axioms -----------------------------------------------------------------------


def test_axiom_suite_deviations():
    # dim 4 gives factors of dim 2
    rep = verify.run_suite("axioms", verify.RunConfig(dim=4, seed=123, trials=40))
    checks = {c.name: c for c in rep.checks}
    for key in ("T2_graded_transposition", "T2b_reversal_compatibility",
                "T3x_inner_product_from_slice", "T5a_disjoint_multiplicativity"):
        assert checks[f"axiom_{key}"].trials == 40
        assert checks[f"axiom_{key}"].max_abs_err < 1e-10
    assert checks["axiom_T5b_self_gluing"].note == "not checked (out of scope)"


def test_disjoint_union_multiplicative_on_coherent():
    rng = np.random.default_rng(14)
    r1 = random_region(2, rng)
    r2 = random_region(2, rng)
    union = disjoint_union(r1, r2)
    d1 = make_data(r1.space, rng, scale=0.4)
    d2 = make_data(r2.space, rng, scale=0.4)
    joint_data = tau_coherent_data(r1.space, r2.space, d1, d2)
    joint = amplitude_closed(union, CoherentData(union.space, joint_data.lam, joint_data.xi))
    product = amplitude_closed(r1, d1) * amplitude_closed(r2, d2)
    assert joint == pytest.approx(product, abs=1e-10)
