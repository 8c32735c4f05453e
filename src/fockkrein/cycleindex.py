"""Exact cycle-index combinatorics of permutation pairing graphs.

Everything here is exact big-integer rational arithmetic; floating point
enters only through ``evaluate_poly``, a plain loop over the terms of one
polynomial for the ``cycle-index --eval`` command and the combinatorics
anchor of ``verify``. (The degree lemma of ``boundary`` evaluates the
cycle indices at numbers by Newton's identities, the recursion below, and
uses nothing of this module.) Three independent routes to the same
polynomials are kept side by side:

* ``p_n_enumerate``: brute-force tally over the (2n-1)!! perfect
  matchings of {0, .., 2n-1}, each weighted by 2^n n! (see below),
* ``p_n_recursive`` and ``q_n_recursive``: the recursion
  p_n = (1/2n) sum_k 2^(2k) (n!/(n-k)!)^2 x_k p_{n-k}, equivalently
  q_n = (1/n) sum_k y_k q_{n-k},
* ``q_n_closed``: the symmetric-group cycle index
  q_n = sum_{sum k j_k = n} prod_k (1/j_k!) (y_k/k)^(j_k),

with the rescalings q_n = p_n / (2^(2n) (n!)^2) and y_k = x_k / 2.
The truncated power-series identity sum_n q_n = exp(sum_k y_k / k) is
checked by ``series_identity_check``.

The pairing graph of a permutation sigma of {0, .., 2n-1} has the fixed
edges (2k, 2k+1) and the edges (sigma(2k), sigma(2k+1)); its monomial
counts the alternating cycles by half their edge number. That graph
depends on sigma only through the perfect matching
{sigma(2k), sigma(2k+1)}, and each matching comes from exactly 2^n n!
permutations (the hyperoctahedral cosets of Macdonald, Symmetric Functions
and Hall Polynomials, ch. VII.2), so ``p_n_enumerate`` tallies matchings;
the tests keep the literal (2n)! permutation walk as the reference that
the matching tally is checked against for small n.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from types import MappingProxyType

import numpy as np

__all__ = [
    "CycleIndexPoly",
    "p_sigma",
    "p_n_enumerate",
    "p_n_recursive",
    "q_n_recursive",
    "q_n_closed",
    "p_to_q",
    "partitions",
    "exp_series_truncated",
    "series_identity_check",
    "evaluate_poly",
    "format_poly",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 6  # (2n-1)!! matchings; n=6 walks 10395 graphs


def _trim(exponents) -> tuple[int, ...]:
    e = tuple(int(x) for x in exponents)
    while e and e[-1] == 0:
        e = e[:-1]
    return e


@dataclass(frozen=True)
class CycleIndexPoly:
    """Sparse polynomial with exact rational coefficients.

    Keys are exponent vectors (j_1, j_2, ...) with trailing zeros trimmed;
    ``family`` names the variables, x or y with y_k = x_k / 2. ``terms`` is
    a read-only view, so a shared (cached) polynomial cannot drift from its
    cached integer form or its hash.
    """

    family: str
    terms: Mapping[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("x", "y"):
            raise ValueError("family must be 'x' or 'y'")
        clean = {}
        for e, c in self.terms.items():
            c = Fraction(c)
            if c != 0:
                clean[_trim(e)] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    @classmethod
    def zero(cls, family: str) -> "CycleIndexPoly":
        return cls(family, {})

    @classmethod
    def one(cls, family: str) -> "CycleIndexPoly":
        return cls(family, {(): Fraction(1)})

    def __add__(self, other: "CycleIndexPoly") -> "CycleIndexPoly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CycleIndexPoly(self.family, out)

    def __sub__(self, other: "CycleIndexPoly") -> "CycleIndexPoly":
        return self + other.scaled(Fraction(-1))

    def scaled(self, c) -> "CycleIndexPoly":
        c = Fraction(c)
        return CycleIndexPoly(self.family, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other: "CycleIndexPoly") -> "CycleIndexPoly":
        self._check(other)
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                k = max(len(e1), len(e2))
                e = tuple(
                    (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                    for i in range(k)
                )
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return CycleIndexPoly(self.family, out)

    def weight_slice(self, n: int) -> "CycleIndexPoly":
        """Terms of total weight n, where variable k carries weight k."""
        return CycleIndexPoly(
            self.family,
            {e: c for e, c in self.terms.items() if _weight(e) == n},
        )

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def is_weight_homogeneous(self, n: int) -> bool:
        return all(_weight(e) == n for e in self.terms)

    def _check(self, other: "CycleIndexPoly") -> None:
        if self.family != other.family:
            raise ValueError("polynomials use different variable families")

    @cached_property
    def _exact(self) -> dict[tuple[int, ...], tuple[int, int]]:
        """Exponent vector -> (numerator, denominator) of its coefficient in
        lowest terms: equality compares these integers, never Fractions."""
        return {e: (c.numerator, c.denominator) for e, c in self.terms.items()}

    @cached_property
    def _hash(self) -> int:
        return hash((self.family, frozenset(self._exact.items())))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycleIndexPoly)
            and self.family == other.family
            and self._exact == other._exact
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self):
        return f"CycleIndexPoly({self.family!r}, {len(self.terms)} terms)"


def _weight(e: tuple[int, ...]) -> int:
    return sum((k + 1) * j for k, j in enumerate(e))


def _cycle_type(partner) -> tuple[int, ...]:
    """Cycle type (j_1, .., j_n) of the pairing multigraph with the fixed
    edges (2k, 2k+1) and the edges (v, partner[v]); j_k counts the cycles
    with 2k edges, so sum k j_k = n."""
    m = len(partner)
    counts = [0] * (m // 2)
    seen = [False] * m
    for start in range(0, m, 2):
        if seen[start]:
            continue
        v = start
        half = 0
        while True:
            seen[v] = seen[v ^ 1] = True
            half += 1
            v = partner[v ^ 1]
            if v == start:
                break
        counts[half - 1] += 1
    return tuple(counts)


def p_sigma(sigma) -> tuple[int, ...]:
    """Exponent vector of the pairing-graph monomial of one permutation.

    ``sigma`` is a permutation of {0, .., 2n-1} in one-line notation; the
    result (j_1, .., j_n) counts the 2k-edge cycles of the multigraph with
    edges (2k, 2k+1) and (sigma(2k), sigma(2k+1)), so sum k j_k = n.
    """
    sigma = list(sigma)
    m = len(sigma)
    if m % 2 != 0:
        raise ValueError("permutation must act on an even number of symbols")
    if sorted(sigma) != list(range(m)):
        raise ValueError("not a permutation of 0..2n-1")
    partner = [0] * m
    for k in range(0, m, 2):
        a, b = sigma[k], sigma[k + 1]
        partner[a] = b
        partner[b] = a
    return _cycle_type(partner)


def _matching_tally(n: int) -> dict[tuple[int, ...], int]:
    """Number of permutations of 2n symbols per pairing-graph cycle type,
    from the (2n-1)!! perfect matchings, each standing for 2^n n!
    permutations. Counts sum to (2n)!."""
    partner = [0] * (2 * n)
    tally: dict[tuple[int, ...], int] = {}

    def match(free):
        if not free:
            key = _cycle_type(partner)
            tally[key] = tally.get(key, 0) + 1
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            partner[a] = b
            partner[b] = a
            match(free[1:i] + free[i + 1 :])

    match(list(range(2 * n)))
    weight = 2**n * factorial(n)
    return {key: weight * c for key, c in tally.items()}


def p_n_enumerate(n: int) -> CycleIndexPoly:
    """p_n by brute force: the pairing-graph monomial of each of the
    (2n-1)!! perfect matchings of {0, .., 2n-1}, weighted by the 2^n n!
    permutations that give it. Shares no code with the recursion or the
    closed form."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration guard: n={n} exceeds limit {ENUMERATION_LIMIT}")
    counts = _matching_tally(n)
    return CycleIndexPoly("x", {e: Fraction(c) for e, c in counts.items()})


def _sum_times_variables(family: str, parts, divisor: int) -> CycleIndexPoly:
    """(1/divisor) sum of w x_k poly over the (k, w, poly) of ``parts``, with
    w an integer, accumulated exactly in one dict."""
    acc: dict[tuple[int, ...], Fraction] = {}
    for k, w, poly in parts:
        for e, c in poly.terms.items():
            e = e + (0,) * (k - len(e))
            e = e[: k - 1] + (e[k - 1] + 1,) + e[k:]
            c = c if w == 1 else w * c
            acc[e] = acc[e] + c if e in acc else c
    return CycleIndexPoly(family, {e: c / divisor for e, c in acc.items()})


@lru_cache(maxsize=None)
def p_n_recursive(n: int) -> CycleIndexPoly:
    """p_n from the recursion; p_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return CycleIndexPoly.one("x")
    return _sum_times_variables("x", (
        (k, 2 ** (2 * k) * (factorial(n) // factorial(n - k)) ** 2, p_n_recursive(n - k))
        for k in range(1, n + 1)
    ), 2 * n)


@lru_cache(maxsize=None)
def q_n_recursive(n: int) -> CycleIndexPoly:
    """q_n from the rescaled recursion q_n = (1/n) sum_k y_k q_{n-k}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return CycleIndexPoly.one("y")
    return _sum_times_variables("y", ((k, 1, q_n_recursive(n - k)) for k in range(1, n + 1)), n)


def partitions(n: int, max_part: int | None = None):
    """Yield exponent vectors (j_1, .., j_n) with sum k j_k = n."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return

    def rec(remaining, k):
        if remaining == 0:
            yield {}
            return
        if k == 0:
            return
        for j in range(remaining // k + 1):
            for rest in rec(remaining - k * j, k - 1):
                if j:
                    rest = dict(rest)
                    rest[k] = j
                yield rest

    for d in rec(n, min(max_part, n)):
        yield tuple(d.get(k, 0) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def q_n_closed(n: int) -> CycleIndexPoly:
    """The symmetric-group cycle index in closed form, from ``partitions``
    alone (never the recursion, which it checks)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms = {}
    for e in partitions(n):
        c = Fraction(1)
        for k, j in enumerate(e, start=1):
            if j:
                c *= Fraction(1, factorial(j) * k**j)
        terms[e] = c
    return CycleIndexPoly("y", terms)


def p_to_q(p: CycleIndexPoly, n: int) -> CycleIndexPoly:
    """Rescale p_n into q_n: divide by 2^(2n) (n!)^2 and set x_k = 2 y_k."""
    if p.family != "x":
        raise ValueError("expected an x-family polynomial")
    scale = Fraction(1, 2 ** (2 * n) * factorial(n) ** 2)
    return CycleIndexPoly(
        "y",
        {e: c * scale * 2 ** sum(e) for e, c in p.terms.items()},
    )


def exp_series_truncated(N: int) -> CycleIndexPoly:
    """exp(sum_{k<=N} y_k / k) in R[[y]], truncated to total weight <= N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    gen = CycleIndexPoly(
        "y", {tuple([0] * (k - 1) + [1]): Fraction(1, k) for k in range(1, N + 1)}
    )
    acc = CycleIndexPoly.one("y")
    power = CycleIndexPoly.one("y")
    for m in range(1, N + 1):
        power = _truncate_weight(power * gen, N)
        acc = acc + power.scaled(Fraction(1, factorial(m)))
    return acc


def _truncate_weight(p: CycleIndexPoly, N: int) -> CycleIndexPoly:
    return CycleIndexPoly(
        p.family, {e: c for e, c in p.terms.items() if _weight(e) <= N}
    )


def series_identity_check(N: int) -> dict[int, bool]:
    """Weight-n slices of the truncated exponential against q_n, exactly."""
    exp_poly = exp_series_truncated(N)
    return {
        n: exp_poly.weight_slice(n) == q_n_recursive(n) for n in range(1, N + 1)
    }


def evaluate_poly(poly: CycleIndexPoly, values) -> complex:
    """The value of ``poly`` at variable_k = values[k-1], term by term: each
    exact coefficient rounded once, times the powers of its variables. The
    values go through ``np.asarray(values, dtype=complex)``, and every
    variable with a nonzero exponent needs one."""
    values = np.asarray(values, dtype=complex).tolist()
    total = 0j
    for e, c in poly.terms.items():
        if len(e) > len(values):
            raise ValueError(f"no value supplied for variable {poly.family}{len(e)}")
        term = complex(c)
        for v, j in zip(values, e):
            if j:
                term *= v**j
        total += term
    return total


def format_poly(poly: CycleIndexPoly, name: str) -> str:
    """Canonical text form: terms sorted by descending exponent vector,
    rationals printed as num/den, e.g. ``q_2 = 1/2 y1^2 + 1/2 y2``."""
    if not poly.terms:
        return f"{name} = 0"
    pieces = []
    for e in sorted(poly.terms, reverse=True):
        c = poly.terms[e]
        coeff = str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        vars_part = " ".join(
            f"{poly.family}{k + 1}" + (f"^{j}" if j > 1 else "")
            for k, j in enumerate(e)
            if j
        )
        pieces.append(f"{coeff} {vars_part}".strip())
    return f"{name} = " + " + ".join(pieces)
