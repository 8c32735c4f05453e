"""Pairing-graph combinatorics, exact and zero-tolerance, and the
floating-point evaluation of the cycle indices against reference loops and
exact rationals."""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockkrein import cycleindex as ci
from fockkrein.cycleindex import CycleIndexPoly


def q_to_p(q, n):
    """Undo ``p_to_q``: multiply by 2^(2n) (n!)^2 and set y_k = x_k / 2."""
    scale = Fraction(2 ** (2 * n) * factorial(n) ** 2)
    return CycleIndexPoly("x", {e: c * scale / 2 ** sum(e) for e, c in q.terms.items()})


def permutation_walk(n):
    """Reference tally of pairing-graph cycle types over every permutation of
    2n symbols, walking each graph with no package code; counts sum to (2n)!."""
    m = 2 * n
    counts = {}
    partner = [0] * m
    stamp = [0] * m
    tick = 0
    for perm in permutations(range(m)):
        for k in range(0, m, 2):
            a, b = perm[k], perm[k + 1]
            partner[a] = b
            partner[b] = a
        tick += 1
        j = [0] * n
        for start in range(m):
            if stamp[start] == tick:
                continue
            v = start
            edges = 0
            while True:
                stamp[v] = tick
                w = v ^ 1
                stamp[w] = tick
                edges += 1
                v = partner[w]
                edges += 1
                if v == start:
                    break
            j[edges // 2 - 1] += 1
        key = tuple(j)
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_p_sigma_small_cases():
    assert ci.p_sigma([0, 1]) == (1,)
    assert ci.p_sigma([1, 0]) == (1,)
    # one-line (0, 2, 1, 3): pairing edges {0,2} and {1,3} close a 4-cycle
    assert ci.p_sigma([0, 2, 1, 3]) == (0, 1)
    with pytest.raises(ValueError):
        ci.p_sigma([0, 1, 1, 3])
    with pytest.raises(ValueError):
        ci.p_sigma([0, 1, 2])


def test_p_n_enumeration_anchors():
    assert ci.p_n_enumerate(0) == CycleIndexPoly.one("x")
    assert ci.p_n_enumerate(1) == CycleIndexPoly("x", {(1,): Fraction(2)})
    assert ci.p_n_enumerate(2) == CycleIndexPoly(
        "x", {(2,): Fraction(8), (0, 1): Fraction(16)}
    )
    assert ci.p_n_enumerate(3).coefficient_sum() == Fraction(720)
    with pytest.raises(ValueError, match="enumeration guard"):
        ci.p_n_enumerate(ci.ENUMERATION_LIMIT + 1)
    with pytest.raises(ValueError):
        ci.p_n_enumerate(-1)


def test_recursion_matches_enumeration():
    assert ci.ENUMERATION_LIMIT >= 6
    for n in range(ci.ENUMERATION_LIMIT + 1):
        p = ci.p_n_enumerate(n)
        assert ci.p_n_recursive(n) == p
        assert p.coefficient_sum() == Fraction(factorial(2 * n))
        assert p.is_weight_homogeneous(n)


def test_q_recursion_closed_form_and_rescaling():
    assert ci.q_n_recursive(1) == CycleIndexPoly("y", {(1,): Fraction(1)})
    assert ci.q_n_recursive(2) == CycleIndexPoly(
        "y", {(2,): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    )
    for n in range(17):
        q = ci.q_n_recursive(n)
        assert ci.q_n_closed(n) is ci.q_n_closed(n)
        assert q == ci.q_n_closed(n)
        assert q.is_weight_homogeneous(n)
    for n in range(13):
        q = ci.q_n_recursive(n)
        assert ci.p_to_q(ci.p_n_recursive(n), n) == q
        assert q_to_p(q, n) == ci.p_n_recursive(n)


def stepwise_recursions(top):
    """p_0..p_top and q_0..q_top by the recursions, composed from the
    polynomial operations with a new polynomial at every step."""
    def variable(family, k):
        return CycleIndexPoly(family, {(0,) * (k - 1) + (1,): Fraction(1)})

    ps, qs = [CycleIndexPoly.one("x")], [CycleIndexPoly.one("y")]
    for n in range(1, top + 1):
        p, q = CycleIndexPoly.zero("x"), CycleIndexPoly.zero("y")
        for k in range(1, n + 1):
            weight = Fraction(2 ** (2 * k)) * Fraction(factorial(n), factorial(n - k)) ** 2
            p = p + (variable("x", k) * ps[n - k]).scaled(weight)
            q = q + variable("y", k) * qs[n - k]
        ps.append(p.scaled(Fraction(1, 2 * n)))
        qs.append(q.scaled(Fraction(1, n)))
    return ps, qs


def test_recursions_equal_the_stepwise_recursions():
    ps, qs = stepwise_recursions(12)
    for n in range(13):
        assert ci.p_n_recursive(n) == ps[n]
        assert ci.q_n_recursive(n) == qs[n]
        assert dict(ci.q_n_recursive(n).terms) == dict(qs[n].terms)  # Fraction by Fraction


def test_equality_compares_exact_coefficients():
    q = ci.q_n_closed(6)
    items = list(q.terms.items())
    reordered = CycleIndexPoly("y", dict(reversed(items)))
    assert list(reordered.terms) != list(q.terms)
    assert reordered == q and hash(reordered) == hash(q)
    e, c = items[3]
    for delta in (Fraction(1, 10**30), -Fraction(1, 10**30)):
        assert CycleIndexPoly("y", {**q.terms, e: c + delta}) != q
    assert CycleIndexPoly("y", {**q.terms, (7,): Fraction(1)}) != q
    assert CycleIndexPoly("y", {k: v for k, v in items if k != e}) != q
    assert CycleIndexPoly("x", dict(items)) != q
    assert q != dict(items)
    half, third = (CycleIndexPoly("y", {(1,): Fraction(1, k)}) for k in (2, 3))
    assert half != third  # same numerator, another denominator


def test_coefficient_sums():
    for n in range(9):
        assert ci.p_n_recursive(n).coefficient_sum() == Fraction(factorial(2 * n))


def test_series_identity():
    assert ci.series_identity_check(1) == {1: True}
    assert all(ci.series_identity_check(8).values())
    # the weight-2 slice is the classic q_2
    sliced = ci.exp_series_truncated(2).weight_slice(2)
    assert sliced == ci.q_n_closed(2)


POLYS = {f"q{n}": (ci.q_n_closed, n) for n in range(17)}
POLYS.update({f"p{n}": (ci.p_n_recursive, n) for n in range(7)})


def exact_value(poly, values):
    """``poly`` at complex ``values`` in exact rational arithmetic: each
    value read exactly as the pair of Fractions of its parts."""
    ys = [(Fraction(v.real), Fraction(v.imag)) for v in map(complex, values)]
    re = im = Fraction(0)
    for e, c in poly.terms.items():
        a, b = c, Fraction(0)
        for (yr, yi), j in zip(ys, e):
            for _ in range(j):
                a, b = a * yr - b * yi, a * yi + b * yr
        re, im = re + a, im + b
    return complex(float(re), float(im))


@pytest.mark.parametrize("name", sorted(POLYS))
def test_evaluate_poly_matches_term_loop(name):
    # The reference is the exact term loop at the same complex values. The
    # terms cancel, so the bound is on the sum of their magnitudes, the
    # polynomial (with positive coefficients) at |values|.
    build, n = POLYS[name]
    poly = build(n)
    rng = np.random.default_rng(n)
    for _ in range(5):
        width = max(map(len, poly.terms), default=0)
        values = rng.normal(size=width) + 1j * rng.normal(size=width)
        ref = exact_value(poly, values)
        scale = exact_value(poly, np.abs(values)).real
        assert abs(ci.evaluate_poly(poly, values) - ref) <= 1e-13 * scale
        assert abs(ci.evaluate_poly(poly, list(values) + [9.0]) - ref) <= 1e-13 * scale


def test_evaluate_poly_matches_exact_rationals():
    rng = np.random.default_rng(5)
    for build, n in POLYS.values():
        poly = build(n)
        values = [Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40))) for _ in range(n)]
        exact = sum(
            (c * prod(v**j for v, j in zip(values, e)) for e, c in poly.terms.items()),
            Fraction(0),
        )
        got = ci.evaluate_poly(poly, [float(v) for v in values])
        assert got.imag == 0
        assert abs(got.real - float(exact)) <= 1e-13 * float(exact)


@pytest.mark.parametrize("sigma", [0.5, 0.999])
def test_sweep_amplitudes_equal_the_exact_closed_form(sigma):
    # The sweep evaluates q_j by Newton's identities in floats; here q_j is
    # the exact closed form at the same y, read exactly. q_j cancels, so the
    # bound is on the sum of the term magnitudes, q_j(|y|).
    from fockkrein import boundary, krein, sampling

    rng = np.random.default_rng(32)
    region = boundary.random_region(32, rng)
    lam = sampling.random_conj_antisymmetric(region.space, rng).matrix
    lam = lam * (sigma / krein.operator_norm(region.u.matrix @ np.conj(lam)))
    y, amplitudes = boundary._sweep_table(region, lam, 16)
    assert len(y) == len(amplitudes) - 1 == 16
    for j in range(17):
        poly = ci.q_n_closed(j)
        scale = exact_value(poly, np.abs(y[:j])).real
        assert abs(amplitudes[j] - exact_value(poly, y[:j])) <= 1e-13 * scale


def test_cached_polynomials_are_read_only():
    for poly in (ci.q_n_closed(3), ci.q_n_recursive(3), ci.p_n_recursive(3),
                 CycleIndexPoly("y", {(1,): Fraction(1)})):
        before = ci.evaluate_poly(poly, [0.5, 0.25, 2.0])
        with pytest.raises(TypeError):
            poly.terms[(3,)] = Fraction(7)
        with pytest.raises(TypeError):
            del poly.terms[next(iter(poly.terms))]
        assert ci.evaluate_poly(poly, [0.5, 0.25, 2.0]) == before
    assert ci.q_n_closed(3) == ci.q_n_recursive(3)


def test_evaluate_poly():
    assert ci.evaluate_poly(ci.q_n_closed(1), [3 - 1j]) == 3 - 1j
    assert ci.evaluate_poly(ci.q_n_closed(2), [0.0, 4.0]) == pytest.approx(2.0)
    assert ci.evaluate_poly(ci.p_n_recursive(2), [1.0, 1.0]) == pytest.approx(24.0)
    for family in ("x", "y"):
        assert ci.evaluate_poly(CycleIndexPoly.zero(family), []) == 0
        assert ci.evaluate_poly(CycleIndexPoly.zero(family), [2.0, 3j]) == 0
        assert ci.evaluate_poly(CycleIndexPoly.one(family), []) == 1
        assert ci.evaluate_poly(CycleIndexPoly.one(family), [0.0, np.nan]) == 1
    # the message names the first term's missing variable
    for poly, values, missing in ((ci.q_n_closed(2), [1.0], "y2"),
                                  (ci.q_n_closed(4), [1.0, 2.0], "y3"),
                                  (ci.p_n_recursive(3), [], "x1"),
                                  (ci.q_n_closed(16), [0.5] * 15, "y16")):
        with pytest.raises(ValueError) as got:
            ci.evaluate_poly(poly, values)
        assert str(got.value) == f"no value supplied for variable {missing}"
    with pytest.raises(ValueError, match="no value supplied for variable x4$"):
        ci.evaluate_poly(ci.p_n_recursive(4), [1.0, 2.0, 3.0])
    assert np.isnan(ci.evaluate_poly(ci.q_n_closed(2), [np.nan, 2.0]))
    # any complex-convertible values, and the caller's array is not written
    expected = ci.evaluate_poly(ci.p_n_recursive(3), [0.5, 3.0, 2 + 1j])
    for values in ([Fraction(1, 2), 3, "2+1j"], (Fraction(1, 2), 3, 2 + 1j),
                   np.array([0.5, 3, 2 + 1j])):
        assert ci.evaluate_poly(ci.p_n_recursive(3), values) == expected
    fixed = np.array([0.5, 3.0, 2 + 1j])
    ci.evaluate_poly(ci.p_n_recursive(3), fixed)
    assert fixed.tolist() == [0.5, 3.0, 2 + 1j]
    with pytest.raises(ValueError, match="no value supplied for variable y3$"):
        ci.evaluate_poly(ci.q_n_closed(3), [Fraction(1, 2), "3"])
    with pytest.raises(ValueError, match="malformed string"):
        ci.evaluate_poly(ci.q_n_closed(3), ["x", 1, 2])


def test_format_poly():
    assert ci.format_poly(ci.q_n_closed(1), "q_1") == "q_1 = 1 y1"
    assert ci.format_poly(ci.q_n_closed(2), "q_2") == "q_2 = 1/2 y1^2 + 1/2 y2"
    assert ci.format_poly(ci.p_n_recursive(2), "p_2") == "p_2 = 8 x1^2 + 16 x2"
    assert ci.format_poly(CycleIndexPoly.zero("x"), "p") == "p = 0"


def test_poly_arithmetic_guards():
    with pytest.raises(ValueError):
        CycleIndexPoly("x", {}) + CycleIndexPoly("y", {})
    with pytest.raises(ValueError):
        CycleIndexPoly("z", {})


@st.composite
def permutation_of_2n(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    return n, draw(st.permutations(list(range(2 * n))))


@settings(max_examples=60, deadline=None)
@given(permutation_of_2n())
def test_p_sigma_weight_homogeneous(case):
    n, sigma = case
    j = ci.p_sigma(sigma)
    assert len(j) == n
    assert sum(k * jk for k, jk in enumerate(j, start=1)) == n


@settings(max_examples=60, deadline=None)
@given(permutation_of_2n(), st.randoms(use_true_random=False))
def test_p_sigma_relabeling_invariance(case, rnd):
    n, sigma = case
    rng = np.random.default_rng(rnd.randrange(2**32))
    from fockkrein.verify import _pair_preserving_relabeling

    r = _pair_preserving_relabeling(rng, n)
    base = ci.p_sigma(sigma)
    assert ci.p_sigma([r[sigma[i]] for i in range(2 * n)]) == base
    assert ci.p_sigma([sigma[r[i]] for i in range(2 * n)]) == base


def test_symmetry_group_order():
    from fockkrein.verify import _pair_group

    for n in (1, 2, 3):
        assert len(_pair_group(n)) == 2**n * factorial(n)
    for n in range(1, 7):
        assert 2 ** (2 * n) * factorial(n) ** 2 == (2**n * factorial(n)) ** 2


def test_matching_tally_equals_permutation_walk():
    for n in range(5):
        walk = permutation_walk(n)
        assert ci._matching_tally(n) == walk
        assert sum(walk.values()) == factorial(2 * n)
        assert ci.p_n_enumerate(n) == CycleIndexPoly(
            "x", {e: Fraction(c) for e, c in walk.items()}
        )
