"""Jordan-Wigner ladder kernel: literal oracles, reach beyond dense
matrices, and the import and independence contracts."""

import itertools
import os
import subprocess
import sys
import tracemalloc
import types
from math import sqrt

import numpy as np
import pytest

from fockkrein import boundary, coherent, fock, krein, lie, sampling, verify
from fockkrein import cycleindex as ci
from fockkrein.coherent import CoherentData
from fockkrein.krein import KreinSpace
from test_cycleindex import permutation_walk

MIXED = {
    1: "-",
    2: "+-",
    3: "-+-",
    4: "++--",
    5: "+--+-",
    6: "-+-++-",
}


def literal_ladder_matrices(space):
    """a_{zeta_j} and a^dag_{zeta_j}, column by column, from the literal
    ``annihilate``/``create`` applied to the normalized basis states."""
    n_states = fock.fock_dimension(space.dim)
    lowers, raises = [], []
    for j in range(space.dim):
        zeta = space.basis_vector(j)
        a = np.zeros((n_states, n_states), dtype=complex)
        adag = np.zeros((n_states, n_states), dtype=complex)
        for g in range(n_states):
            state = fock.FockState(space, np.eye(n_states)[g])
            a[:, g] = fock.annihilate(zeta, state).vector
            adag[:, g] = fock.create(zeta, state).vector
        lowers.append(a)
        raises.append(adag)
    return lowers, raises


def mx(m):
    return float(np.max(np.abs(m)))


@pytest.mark.parametrize("dim", sorted(MIXED))
def test_kernel_matches_literal_operators(dim):
    space = KreinSpace.from_string(MIXED[dim])
    s = space.signature
    rng = np.random.default_rng(100 + dim)
    A, C = literal_ladder_matrices(space)
    n_states = fock.fock_dimension(dim)
    eye = np.eye(n_states)

    for j in range(dim):
        assert mx(fock.annihilation_matrices(dim)[j] - A[j]) < 1e-12
        assert mx(fock.creation_operator(space, space.basis_vector(j)).matrix() - C[j]) < 1e-12

    tau = sampling.random_vector(space, rng)
    assert mx(fock.annihilation_operator_matrix(space, tau)
              - sum(tau[j] * A[j] for j in range(dim))) < 1e-12
    assert mx(fock.creation_operator_matrix(space, tau)
              - sum(np.conj(tau[j]) * C[j] for j in range(dim))) < 1e-12

    def lower(v):  # a_v, linear in v
        return sum(v[j] * A[j] for j in range(dim))

    def raise_(v):  # a^dag_v, conjugate-linear in v
        return sum(np.conj(v[j]) * C[j] for j in range(dim))

    x = lie.LieElement(
        space,
        sampling.random_linear_matrix(space, rng),
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_vector(space, rng),
        sampling.random_vector(space, rng),
    )
    current = sum(s[i] * C[i] @ lower(x.lam[:, i]) for i in range(dim))
    current = current - 0.5 * np.trace(x.lam) * eye
    pair_low = 0.5 * sum(s[i] * A[i] @ lower(x.lam_plus[:, i]) for i in range(dim))
    pair_high = 0.5 * sum(s[i] * raise_(x.lam_minus[:, i]) @ C[i] for i in range(dim))
    mode_low, mode_high = lower(x.xi_plus) / sqrt(2.0), raise_(x.xi_minus) / sqrt(2.0)
    # _rep_parts leaves out the sums with zero coefficients (the pair sums at dim 1)
    literal = [(x.lam, current + 0.5 * np.trace(x.lam) * eye), (x.lam_plus, pair_low),
               (x.lam_minus, pair_high), (x.xi_plus, mode_low), (x.xi_minus, mode_high)]
    literal = [m for coef, m in literal if np.any(coef)]
    parts = [p.matrix() for p in lie._rep_parts(x)]
    assert len(parts) == len(literal)
    for part, m in zip(parts, literal):
        assert mx(part - m) < 1e-12
    assert mx(lie.pair_creation_matrix(space, x.lam_minus) - pair_high) < 1e-12
    full = current + pair_low + pair_high + mode_low + mode_high
    assert mx(lie.rep(x) - full) < 1e-12
    v = sampling.unit_disc(rng, n_states)
    assert mx(lie.rep_apply(x, v) - full @ v) < 1e-12


SHAPES = [(False,), (True,), (False, True), (False, False), (True, True)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("dim", sorted(MIXED))
def test_every_word_shape_matches_literal_ladders(dim, shape):
    # At dim 1 the two-letter plans are empty and the sums see no entries.
    space = KreinSpace.from_string(MIXED[dim])
    A, C = literal_ladder_matrices(space)
    unsigned = {False: A, True: [s * c for s, c in zip(space.signature, C)]}
    rng = np.random.default_rng(200 + dim)
    coef = sampling.unit_disc(rng, dim ** len(shape)).reshape((dim,) * len(shape))
    expected = np.zeros((fock.fock_dimension(dim),) * 2, dtype=complex)
    for js in np.ndindex(coef.shape):
        word = np.eye(fock.fock_dimension(dim))
        for j, step_raising in zip(js, shape):
            word = unsigned[step_raising][j] @ word
        expected += coef[js] * word
    assert mx(fock.LadderSum(dim, coef, shape).matrix() - expected) < 1e-12


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_apply_matches_matrix_at_dim_10(shape):
    rng = np.random.default_rng(10)
    coef = sampling.unit_disc(rng, 10 ** len(shape)).reshape((10,) * len(shape))
    op = fock.LadderSum(10, coef, shape)
    v = sampling.unit_disc(rng, fock.fock_dimension(10))
    assert mx(op @ v - op.matrix() @ v) < 1e-12


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_word_plans_are_read_only(shape):
    plan = fock._word_plan(4, shape)
    assert not any(a.flags.writeable for a in plan)


def test_add_to_refuses_a_non_contiguous_matrix():
    op = fock.LadderSum(3, np.ones(3), (False,))
    with pytest.raises(ValueError, match="C-contiguous"):
        op.add_to(np.zeros((8, 8), dtype=complex).T)


def test_annihilation_matrices_are_freed_with_the_caller():
    dense = 8 * 4**8 * 16  # d complex 2^d x 2^d matrices at d = 8
    tracemalloc.start()
    try:
        fock.annihilation_matrices(8)  # the result is dropped at once
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= dense  # built under tracing, not served from elsewhere
    assert kept < 2**20


def test_annihilation_matrices_are_fresh_on_every_call():
    first, second = fock.annihilation_matrices(4), fock.annihilation_matrices(4)
    for a, b in zip(first, second, strict=True):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)


def test_rep_reuses_its_word_plans():
    rng = np.random.default_rng(9)
    space = sampling.random_signature(rng, 5)
    x = lie.LieElement(
        space,
        sampling.random_linear_matrix(space, rng),
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_conj_antisymmetric(space, rng).matrix,
        sampling.random_vector(space, rng),
        sampling.random_vector(space, rng),
    )
    lie.rep(x)
    built = fock._word_plan.cache_info()
    lie.rep(x.scaled(0.5))
    after = fock._word_plan.cache_info()
    assert (after.misses, after.currsize) == (built.misses, built.currsize)
    assert after.hits == built.hits + 5


def test_car_matrix_free_at_dim_12():
    rng = np.random.default_rng(12)
    space = sampling.random_signature(rng, 12)
    for _ in range(3):
        xi = sampling.unit_disc(rng, 12)
        tau = sampling.unit_disc(rng, 12)
        v = sampling.unit_disc(rng, fock.fock_dimension(12))
        a_xi = fock.annihilation_operator(space, xi)
        a_tau = fock.annihilation_operator(space, tau)
        ad_xi = fock.creation_operator(space, xi)
        assert mx(a_xi @ (a_tau @ v) + a_tau @ (a_xi @ v)) < 1e-10
        mixed = ad_xi @ (a_tau @ v) + a_tau @ (ad_xi @ v)
        assert mx(mixed - krein.inner(space, xi, tau) * v) < 1e-10


def test_coherent_overlap_at_dim_12():
    rng = np.random.default_rng(1212)
    space = sampling.random_signature(rng, 12, balanced=True)
    pair = []
    for _ in range(2):  # slice-safe, as in the acceptance suite
        lam = sampling.scale_operator_to_norm(sampling.random_conj_antisymmetric(space, rng), 0.4)
        xi = sampling.random_vector(space, rng, scale=0.25 / np.sqrt(12))
        pair.append(CoherentData(space, lam.matrix, xi))
    direct = fock.fock_inner(coherent.coherent_series(pair[0]), coherent.coherent_series(pair[1]))
    closed = coherent.overlap_closed(pair[0], pair[1])
    assert abs(direct - closed) / max(abs(closed), 1.0) < 1e-8


def test_import_loads_no_scipy_and_builds_no_table():
    code = (
        "import sys, fockkrein\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert fockkrein.fock.ladder_maps.cache_info().currsize == 0\n"
        "assert fockkrein.fock._word_plan.cache_info().currsize == 0\n"
    )
    src = os.path.dirname(os.path.dirname(fock.__file__))
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=src))


def test_rep_builds_only_the_nonzero_parts():
    rng = np.random.default_rng(10)
    space = sampling.random_signature(rng, 5)
    lam_plus = sampling.random_conj_antisymmetric(space, rng).matrix
    x = lie.LieElement.from_parts(space, lam_plus=lam_plus)
    v = sampling.random_state(space, rng).vector
    assert lie._rep_parts(lie.LieElement.zero(space)) == ()
    (part,) = lie._rep_parts(x)
    assert np.array_equal(lie.rep_apply(x, v), part @ v)
    assert np.array_equal(lie.rep(x), part.matrix())


def functions_of(cls):
    """The functions behind the methods, properties and classmethods of ``cls``."""
    for attr in vars(cls).values():
        attr = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
        if isinstance(attr, types.FunctionType):
            yield attr


def reached(fn, seen=None):
    """Every package function and class the code of ``fn`` names, transitively.

    The walk descends into the methods of the package classes it meets and
    through ``__wrapped__`` into the functions behind ``lru_cache``. Where
    the code names a package module (``fock.create``), every name of that
    code is also looked up in the module."""
    seen = set() if seen is None else seen
    codes = [fn.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        named = [fn.__globals__.get(name) for name in code.co_names]
        modules = [m for m in named
                   if isinstance(m, types.ModuleType) and m.__name__.startswith("fockkrein")]
        named += [getattr(m, name, None) for m in modules for name in code.co_names]
        for obj in named:
            if not (getattr(obj, "__module__", None) or "").startswith("fockkrein") or obj in seen:
                continue
            seen.add(obj)
            obj = getattr(obj, "__wrapped__", obj)
            if isinstance(obj, type):
                for method in functions_of(obj):
                    reached(method, seen)
            elif isinstance(obj, types.FunctionType):
                reached(obj, seen)
    return seen


def cycle_index_amplitude(region, data):
    """The amplitude as sum_n q_n(y) with y_k = -tr((u Lam)^k) / 2, each q_n
    the exact closed cycle index evaluated term by term."""
    a = region.u.matrix @ np.conj(data.lam)
    top = len(a) // 2
    y = [-np.trace(np.linalg.matrix_power(a, k)) / 2 for k in range(1, top + 1)]
    return sum(ci.evaluate_poly(ci.q_n_closed(n), y[:n]) for n in range(top + 1))


# What two routes of one result may share: the graded basis with its index
# tables under Fock states, and the exact polynomial type under cycle indices.
FOCK_TABLES = frozenset({fock.FockState, fock._GradedBasis, fock._graded_basis, fock._degree_offsets,
                         fock._tuple_array, fock.fock_dimension, fock.index_tuples,
                         fock.tuple_position})
POLYNOMIALS = frozenset({ci.CycleIndexPoly, ci._trim, ci._weight})

# The one declared overlap: the closed overlap and the slice route take the
# same guarded det root, as the slice route checks the slice assembly and the
# b-term, not the root.
DECLARED = {("overlap", "closed", "slice"): frozenset({
    coherent._composite, coherent._guarded_det_sqrt, coherent._det_root, coherent._pivots,
    coherent._leaf_blocks, krein.operator_norm, krein.KOperator, krein.HypothesisViolationError,
})}

# The ladder kernel's entry points, which hold the kernel twin of every literal oracle.
LADDER_KERNEL = (fock.creation_operator, fock.annihilation_operator,
                 lie.pair_creation_operator, lie._pair_annihilation_operator)
LITERAL_ORACLES = [
    fock.create, fock.annihilate, fock.evaluate, fock.fock_inner_literal,
    coherent.coherent_explicit, lie.pair_annihilation_explicit, lie.pair_creation_explicit,
    boundary.amplitude_bruteforce, *dict.fromkeys(functions_of(fock.FockState)),
]


def results():
    """result name -> (its routes, what every pair of them may share). A route
    is a function or a tuple of functions that together make one route. Past
    the two route tables: det(1 - a)^(1/2) by LU pivots, by Newton's
    identities and by the exact cycle index; the coherent state; the cycle
    indices; and each literal Fock oracle against the ladder kernel."""
    def table(routes):
        return {name: route.evaluate for name, route in routes.items()}

    return {
        "amplitude": ({**table(boundary.AMPLITUDE_ROUTES), "cycle_index": cycle_index_amplitude},
                      frozenset()),
        "overlap": (table(boundary.OVERLAP_ROUTES), frozenset()),
        "det_root": ({
            "pivots": (coherent.det_sqrt_tracelog, coherent.overlap_closed, boundary.slice_inner),
            "newton": (boundary.amplitude_degree_lemma, boundary.amplitude_degree_terms),
            "cycle_index": cycle_index_amplitude,
        }, frozenset()),
        "coherent_state": ({"series": coherent.coherent_series,
                            "explicit": coherent.coherent_explicit}, FOCK_TABLES),
        "cycle_index": ({
            "p_n_enumerate": ci.p_n_enumerate,
            "recursion": (ci.p_n_recursive, ci.q_n_recursive),
            "q_n_closed": ci.q_n_closed,
            "exp_series": ci.exp_series_truncated,
            "newton": (boundary.amplitude_degree_lemma, boundary.amplitude_degree_terms),
            "permutation_walk": permutation_walk,
        }, POLYNOMIALS),
        **{oracle.__qualname__: ({"literal": oracle, "kernel": LADDER_KERNEL}, FOCK_TABLES)
           for oracle in LITERAL_ORACLES},
    }


def route_pairs():
    """(id, route, partner, what they may share) for every pair of routes of
    every result."""
    return [(f"{result}-{a}-{b}", routes[a], routes[b], shared | DECLARED.get((result, a, b), set()))
            for result, (routes, shared) in results().items()
            for a, b in itertools.combinations(routes, 2)]


def reach(route):
    """The functions of ``route`` and every package object they reach."""
    fns = route if isinstance(route, tuple) else (route,)
    return set(fns).union(*(reached(getattr(fn, "__wrapped__", fn)) for fn in fns))


def shared_code(pairs):
    """id -> what the two routes share beyond what they may, for every pair that does."""
    out = {ident: reach(a) & reach(b) - shared for ident, a, b, shared in pairs}
    return {ident: names for ident, names in out.items() if names}


@pytest.mark.parametrize("pair", route_pairs(), ids=lambda pair: pair[0])
def test_routes_of_a_result_share_no_code(pair):
    assert not shared_code([pair])


def test_pairwise_walk_sees_the_kernels_it_forbids():
    kernel = reach(LADDER_KERNEL)
    assert {fock.ladder_maps, fock._word_plan, fock.LadderSum} <= kernel
    amplitude = results()["amplitude"][0]
    assert {coherent._det_root, coherent._pivots, krein.operator_norm} <= reach(amplitude["closed"])
    assert {boundary._sweep_table, boundary._build_sweep} <= reach(amplitude["degreewise"])
    assert {ci.q_n_closed, ci.partitions, ci.evaluate_poly} <= reach(cycle_index_amplitude)
    assert {ci._matching_tally, ci._cycle_type} <= reach(ci.p_n_enumerate)


def test_pairwise_walk_reports_a_route_that_reaches_its_partner(monkeypatch):
    def leaky(region, data):
        return coherent._det_root(np.eye(region.space.dim) - region.u.matrix @ np.conj(data.lam))[0]

    monkeypatch.setitem(boundary.AMPLITUDE_ROUTES, "degreewise", boundary.Route(leaky))
    assert list(shared_code(route_pairs())) == ["amplitude-closed-degreewise"]


def test_cycle_index_amplitude_is_a_route():
    rng = np.random.default_rng(6)
    region = boundary.random_region(6, rng)
    lam = sampling.scale_operator_to_norm(sampling.random_conj_antisymmetric(region.space, rng), 0.6)
    data = CoherentData(region.space, lam.matrix, np.zeros(6))
    closed = boundary.amplitude_closed(region, data)
    assert abs(cycle_index_amplitude(region, data) - closed) <= 1e-12 * abs(closed)


def test_walk_sees_methods_and_cached_functions():
    assert fock.ladder_maps in reached(fock.annihilation_operator)  # via _word_plan
    assert fock._tuple_array in reached(fock.FockState.component)  # via _graded_basis


def names_in_reach(fn):
    """Every name in the code of ``fn`` and of the package code it reaches,
    leaving out the methods of ``LadderSum``."""
    def codes(code):
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from codes(const)

    seen = reached(fn)
    functions = [fn] + [getattr(obj, "__wrapped__", obj) for obj in seen]
    functions += [m for cls in seen if isinstance(cls, type) and cls is not fock.LadderSum
                  for m in functions_of(cls)]
    return {name for f in functions if isinstance(f, types.FunctionType)
            for code in codes(f.__code__) for name in code.co_names}


@pytest.mark.parametrize("fn", [verify.suite_car, lie.rep_apply], ids=lambda fn: fn.__name__)
def test_matrix_free_routes_form_no_dense_matrix(fn):
    # A LadderSum becomes dense only through its ``matrix`` or ``add_to``, so
    # code that names neither outside LadderSum never forms a 2^d x 2^d matrix.
    assert fock.LadderSum in reached(fn)
    assert not names_in_reach(fn) & {"matrix", "add_to"}
    assert "add_to" in names_in_reach(lie.rep)  # the walk does see dense use
