"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Relative errors are measured against
max(|reference|, 1), matching order-1 target quantities.
"""

import itertools
from fractions import Fraction
from math import factorial

import numpy as np

from fockkrein import boundary, cycleindex, fock, krein, lie, sampling, verify
from fockkrein.coherent import CoherentData, coherent_explicit, coherent_series, overlap_closed
from fockkrein.krein import CONJUGATE_LINEAR, HypothesisViolationError, KOperator, KreinSpace
from fockkrein.verify import _random_lie_element, _random_real_form_element


def report(num, label, worst, tol, exact=False):
    ok = worst <= tol
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}: "
    line += f"max deviation {worst:.3e} (tolerance {tol:.1e})" if not exact else (
        f"exact, deviation {worst:g}")
    print(line)
    assert ok, line
    return ok


def rel(diff, reference):
    return abs(diff) / max(abs(reference), 1.0)


def scaled_pair(space, rng, target=0.5):
    d1 = sampling.random_conj_antisymmetric(space, rng)
    d2 = sampling.random_conj_antisymmetric(space, rng)
    a1, a2 = sampling.scale_pair_for_product(d1, d2, target)
    return (
        CoherentData(space, a1.matrix, sampling.random_vector(space, rng)),
        CoherentData(space, a2.matrix, sampling.random_vector(space, rng)),
    )


def slice_safe_pair(space, rng):
    """Pair satisfying the hypotheses of BOTH closed forms: the factor
    norms drive the assembled slice operator, so cap them individually and
    keep the mode vectors small enough for the rank-two cross piece."""
    xi_scale = 0.25 / np.sqrt(space.dim)
    out = []
    for _ in range(2):
        lam = sampling.scale_operator_to_norm(
            sampling.random_conj_antisymmetric(space, rng), 0.4
        )
        out.append(
            CoherentData(space, lam.matrix, sampling.random_vector(space, rng, scale=xi_scale))
        )
    return out[0], out[1]


def test_criterion_01_car_relations():
    """dims 1..6, every signature pattern, >=100 pairs per dim, <1e-10."""
    worst = 0.0
    for d in range(1, 7):
        patterns = list(itertools.product((1, -1), repeat=d))
        per_pattern = max(1, -(-100 // len(patterns)))
        pairs = 0
        for p_idx, pattern in enumerate(patterns):
            space = KreinSpace(d, pattern)
            eye = np.eye(fock.fock_dimension(d))
            for t in range(per_pattern):
                rng = sampling.trial_rng(1000 * d + p_idx, t)
                xi = sampling.unit_disc(rng, d)
                tau = sampling.unit_disc(rng, d)
                c = complex(rng.normal(), rng.normal())
                a_xi = fock.annihilation_operator_matrix(space, xi)
                a_tau = fock.annihilation_operator_matrix(space, tau)
                ad_xi = fock.creation_operator_matrix(space, xi)
                worst = max(
                    worst,
                    np.max(np.abs(fock.annihilation_operator_matrix(space, xi + tau) - a_xi - a_tau)),
                    np.max(np.abs(fock.annihilation_operator_matrix(space, c * xi) - c * a_xi)),
                    np.max(np.abs(a_xi @ a_tau + a_tau @ a_xi)),
                    np.max(np.abs(ad_xi @ a_tau + a_tau @ ad_xi - krein.inner(space, xi, tau) * eye)),
                )
                pairs += 1
        assert pairs >= 100
    report(1, "CAR relations as Fock-operator identities", worst, 1e-10)


def test_criterion_02_coherent_constructions_agree():
    """series vs explicit, componentwise <1e-12, dims <=6, >=100 seeds."""
    worst = 0.0
    seeds = 0
    for seed in range(102):
        rng = sampling.trial_rng(20, seed)
        space = sampling.random_signature(rng, 1 + seed % 6)
        lam = sampling.random_conj_antisymmetric(space, rng, scale=0.8)
        data = CoherentData(space, lam.matrix, sampling.random_vector(space, rng))
        worst = max(worst, coherent_series(data).max_abs_diff(coherent_explicit(data)))
        seeds += 1
    assert seeds >= 100
    report(2, "coherent series equals explicit construction", worst, 1e-12)


def test_criterion_03_overlap_closed_form():
    """closed overlap vs graded inner product, rel <1e-8, >=200 pairs."""
    worst = 0.0
    for trial in range(204):
        rng = sampling.trial_rng(30, trial)
        space = sampling.random_signature(rng, 1 + trial % 6)
        d1, d2 = scaled_pair(space, rng)
        direct = fock.fock_inner(coherent_series(d1), coherent_series(d2))
        worst = max(worst, rel(overlap_closed(d1, d2) - direct, direct))
    report(3, "overlap determinant formula vs inner product", worst, 1e-8)

    anchor = 0.0
    for trial in range(25):
        rng = sampling.trial_rng(31, trial)
        space = sampling.random_signature(rng, 1 + trial % 6)
        z = np.zeros((space.dim, space.dim))
        xi1, xi2 = (sampling.random_vector(space, rng) for _ in range(2))
        got = overlap_closed(CoherentData(space, z, xi1), CoherentData(space, z, xi2))
        anchor = max(anchor, abs(got - (1 + 0.5 * krein.inner(space, xi2, xi1))))
    space2 = KreinSpace(2, (1, 1))
    a = 0.55 - 0.2j
    dd = CoherentData(space2, np.array([[0, a], [-a, 0]]), np.zeros(2))
    anchor = max(anchor, abs(overlap_closed(dd, dd) - (1 + abs(a) ** 2)))
    report(3, "overlap exact anchors (zero pair part; dim-2 case)", anchor, 1e-12)


def test_criterion_04_and_05_amplitude_closed_form_and_degree_lemma():
    """closed amplitude vs brute-force sum (rel <1e-8, >=200 regions),
    bit-exact xi independence, dim-2 anchor, degree lemma <1e-9."""
    worst_total = 0.0
    worst_degree = 0.0
    worst_xi = 0.0
    for trial in range(201):
        rng = sampling.trial_rng(40, trial)
        d = (2, 4, 6)[trial % 3]
        region = boundary.random_region(d, rng)
        space = region.space
        lam = sampling.random_conj_antisymmetric(space, rng)
        prod_norm = krein.operator_norm(region.u.matrix @ np.conj(lam.matrix))
        lam = KOperator(lam.matrix * (0.5 / prod_norm), CONJUGATE_LINEAR)
        data = CoherentData(space, lam.matrix, sampling.random_vector(space, rng))
        state = coherent_series(data)
        brute_total = 0j
        for n in range(d // 2 + 1):
            comp = fock.FockState.from_components(space, {2 * n: state.component(2 * n)})
            brute_n = boundary.amplitude_bruteforce(region, comp)
            brute_total += brute_n
            worst_degree = max(
                worst_degree,
                abs(brute_n - boundary.amplitude_degree_lemma(region, data.lam, n)),
            )
        closed = boundary.amplitude_closed(region, data)
        worst_total = max(worst_total, rel(closed - brute_total, brute_total))
        other = CoherentData(space, data.lam, sampling.random_vector(space, rng))
        worst_xi = max(worst_xi, abs(boundary.amplitude_closed(region, other) - closed))

    space2 = KreinSpace(2, (1, -1))
    u = KOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), CONJUGATE_LINEAR)
    region2 = boundary.Region(space2, u)
    a = 0.4 + 0.3j
    data2 = CoherentData(space2, np.array([[0, a], [a, 0]]), np.zeros(2))
    anchor = abs(boundary.amplitude_closed(region2, data2) - (1 - np.conj(a)))

    report(4, "amplitude determinant formula vs brute-force sum", worst_total, 1e-8)
    report(4, "closed amplitude is xi-independent (bit-exact)", worst_xi, 0.0, exact=True)
    report(4, "amplitude dim-2 anchor 1 - conj(a)", anchor, 1e-12)
    report(5, "degree-wise cycle-index lemma vs brute force", worst_degree, 1e-9)


def test_criterion_06_combinatorics_exact():
    """zero-tolerance combinatorial identities."""
    ok = True
    for n in range(7):
        ok &= cycleindex.p_n_enumerate(n) == cycleindex.p_n_recursive(n)
        ok &= cycleindex.p_n_enumerate(n).coefficient_sum() == Fraction(factorial(2 * n))
    for n in range(9):
        ok &= cycleindex.q_n_recursive(n) == cycleindex.q_n_closed(n)
        ok &= cycleindex.p_to_q(cycleindex.p_n_recursive(n), n) == cycleindex.q_n_closed(n)
        ok &= cycleindex.p_n_recursive(n).coefficient_sum() == Fraction(factorial(2 * n))
    ok &= all(cycleindex.series_identity_check(8).values())
    ok &= cycleindex.p_n_recursive(1) == cycleindex.CycleIndexPoly("x", {(1,): Fraction(2)})
    ok &= cycleindex.q_n_closed(2) == cycleindex.CycleIndexPoly(
        "y", {(2,): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    )
    report(6, "exact cycle-index combinatorics (zero tolerance)", 0.0 if ok else 1.0, 0.0,
           exact=True)


def test_criterion_07_slice_three_way():
    """inner product = closed overlap = slice amplitude, <1e-8, >=100."""
    worst = 0.0
    worst_trace = 0.0
    for trial in range(102):
        rng = sampling.trial_rng(70, trial)
        space = sampling.random_signature(rng, 1 + trial % 4)
        d1, d2 = slice_safe_pair(space, rng)
        direct = fock.fock_inner(coherent_series(d1), coherent_series(d2))
        closed = overlap_closed(d1, d2)
        via_slice = boundary.slice_inner(space, d1, d2)
        worst = max(worst, rel(closed - direct, direct), rel(via_slice - direct, direct))

        region, assembled = boundary.assemble_slice_data(space, d1, d2)
        underline = assembled.lam.copy()
        d = space.dim
        underline[:d, d:] = 0.0
        underline[d:, :d] = 0.0
        a = region.u.matrix @ np.conj(underline)
        power = a
        for k in range(1, 6):
            if k % 2 == 1:
                worst_trace = max(worst_trace, abs(np.trace(power)))
            power = power @ a
    report(7, "slice-region three-way overlap agreement", worst, 1e-8)
    report(7, "odd-power traces vanish on slice assemblies", worst_trace, 1e-12)


def test_criterion_08_orientation_and_gluing_maps():
    """iota on coherent states, tau factorization (<1e-12); involutivity;
    tau isometry (<1e-10); >=100 instances."""
    worst_maps = 0.0
    worst_iso = 0.0
    for trial in range(102):
        rng = sampling.trial_rng(80, trial)
        s1 = sampling.random_signature(rng, 1 + trial % 3)
        s2 = sampling.random_signature(rng, 1 + (trial // 3) % 3)
        lam = sampling.random_conj_antisymmetric(s1, rng, scale=0.7)
        data = CoherentData(s1, lam.matrix, sampling.random_vector(s1, rng))
        transported = CoherentData(
            boundary.reversed_space(s1),
            boundary.reverse_conj_antisymmetric(data.lam),
            -boundary.reverse_vector(data.xi),
        )
        worst_maps = max(
            worst_maps,
            boundary.iota(coherent_series(data)).max_abs_diff(coherent_series(transported)),
        )
        psi = sampling.random_state(s1, rng)
        worst_maps = max(worst_maps, boundary.iota(boundary.iota(psi)).max_abs_diff(psi))

        lam2 = sampling.random_conj_antisymmetric(s2, rng, scale=0.7)
        data2 = CoherentData(s2, lam2.matrix, sampling.random_vector(s2, rng))
        glued = boundary.tau(s1, s2, coherent_series(data), coherent_series(data2))
        assembled = coherent_series(boundary.tau_coherent_data(s1, s2, data, data2))
        worst_maps = max(worst_maps, glued.max_abs_diff(assembled))

        m, n = int(rng.integers(0, s1.dim + 1)), int(rng.integers(0, s2.dim + 1))
        p1, p2 = (sampling.random_state(s1, rng, degree=m) for _ in range(2))
        q1, q2 = (sampling.random_state(s2, rng, degree=n) for _ in range(2))
        lhs = fock.fock_inner(boundary.tau(s1, s2, p1, q1), boundary.tau(s1, s2, p2, q2))
        worst_iso = max(worst_iso, abs(lhs - fock.fock_inner(p1, p2) * fock.fock_inner(q1, q2)))
    report(8, "orientation reversal and gluing maps on coherent states", worst_maps, 1e-12)
    report(8, "tau isometry", worst_iso, 1e-10)


def test_criterion_09_axioms():
    """T2, T2b, T3x, T5a numerical checks <1e-10 over >=100 instances."""
    rep = verify.run_suite("axioms", verify.RunConfig(dim=4, seed=90, trials=100))
    axioms = [c for c in rep.checks
              if c.name.startswith(("axiom_T2", "axiom_T3x", "axiom_T5a"))]
    assert len(axioms) == 4 and all(c.trials == 100 for c in axioms)
    worst = max(c.max_abs_err for c in axioms)
    report(9, "functorial axioms T2, T2b, T3x, T5a", worst, 1e-10)


def test_criterion_10_lie_layer():
    """rep homomorphism <1e-10 (dims <=3); ad-invariance <1e-9;
    operator-norm identities <1e-8 (dims <=4)."""
    worst_hom = 0.0
    worst_ad = 0.0
    worst_norm = 0.0
    for trial in range(100):
        rng = sampling.trial_rng(100, trial)
        space = sampling.random_signature(rng, 1 + trial % 3)
        x = _random_lie_element(space, rng)
        y = _random_lie_element(space, rng)
        rx, ry = lie.rep(x), lie.rep(y)
        worst_hom = max(
            worst_hom,
            float(np.max(np.abs(lie.rep(lie.bracket(x, y)) - (rx @ ry - ry @ rx)))),
        )
        xr, yr, zr = (_random_real_form_element(space, rng) for _ in range(3))
        worst_ad = max(
            worst_ad,
            abs(lie.gip(lie.bracket(zr, xr), yr) + lie.gip(xr, lie.bracket(zr, yr))),
        )
    for trial in range(50):
        rng = sampling.trial_rng(101, trial)
        space = sampling.random_signature(rng, 1 + trial % 4)
        res = lie.norm_identities(
            space,
            sampling.random_conj_antisymmetric(space, rng),
            sampling.random_vector(space, rng),
        )
        worst_norm = max(worst_norm, res["pair_max_deviation"], res["mode_max_deviation"])
    report(10, "representation matches every bracket table", worst_hom, 1e-10)
    report(10, "invariant form ad-invariance on the real form", worst_ad, 1e-9)
    report(10, "operator-norm identities", worst_norm, 1e-8)


def test_criterion_11_hypothesis_guards():
    """norm >= 1 inputs are rejected with the documented error."""
    rng = np.random.default_rng(110)
    space = KreinSpace(4, (1, 1, -1, -1))
    a = sampling.random_conj_antisymmetric(space, rng)
    b = sampling.random_conj_antisymmetric(space, rng)
    nrm = krein.operator_norm(krein.compose(a, b))
    big = CoherentData(space, a.matrix * (1.1 / nrm), sampling.random_vector(space, rng))
    other = CoherentData(space, b.matrix, sampling.random_vector(space, rng))
    rejected = 0
    try:
        overlap_closed(big, other)
    except HypothesisViolationError:
        rejected += 1

    region = boundary.random_region(4, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng)
    prod = krein.operator_norm(region.u.matrix @ np.conj(lam.matrix))
    bad = CoherentData(region.space, lam.matrix * (1.3 / prod), np.zeros(4))
    try:
        boundary.amplitude_closed(region, bad)
    except HypothesisViolationError:
        rejected += 1

    lam_big = sampling.scale_operator_to_norm(
        sampling.random_conj_antisymmetric(space, rng), 1.5
    )
    wide = CoherentData(space, lam_big.matrix, np.zeros(4))
    try:
        boundary.slice_inner(space, wide, wide)
    except HypothesisViolationError:
        rejected += 1
    report(11, "closed-form routes reject violated norm hypotheses",
           float(3 - rejected), 0.0, exact=True)
