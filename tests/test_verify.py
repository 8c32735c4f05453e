"""The verify driver: tallying, the check tables, and the trial streams."""

import json
import math
import os
import subprocess
import sys
import types

import pytest

import fockkrein
from fockkrein import verify
from fockkrein.verify import Check, RunConfig, _tally

# -- tallying -------------------------------------------------------------------


def test_tally_absolute_and_relative_checks():
    checks = (Check("abs", 1e-3), Check("rel", 1e-3, rel=True))
    samples = [("abs", -2e-3), ("rel", 2e-3, 4.0), ("abs", 1e-4), ("rel", 1e-4)]
    a, r = _tally(checks, iter(samples), RunConfig())
    assert (a.name, a.trials, a.max_abs_err, a.max_rel_err) == ("abs", 2, 2e-3, 2e-3)
    assert (r.name, r.trials, r.max_abs_err, r.max_rel_err) == ("rel", 2, 2e-3, 5e-4)
    assert not a.passed and r.passed


def test_tally_fails_a_nan_error_and_shows_it():
    (c,) = _tally((Check("x", 1e-12),), [("x", float("nan")), ("x", 0.0)], RunConfig())
    assert c.trials == 2 and math.isnan(c.max_abs_err) and not c.passed
    assert "FAIL  x: trials=2 max_abs=nan" in verify.Report("s", 0, {}, [c]).summary_lines()[0]


def test_tally_fails_a_nan_scale_and_shows_it():
    (c,) = _tally((Check("x", 1e-12, rel=True),), [("x", 1.0, float("nan"))], RunConfig())
    assert c.max_abs_err == 1.0 and math.isnan(c.max_rel_err) and not c.passed
    report = json.loads(verify.Report("s", 0, {}, [c]).to_json())
    assert math.isnan(report["checks"][0]["max_rel_err"]) and report["pass"] is False


@pytest.mark.parametrize("sample", [("x", float("inf")), ("x", 0.0, float("inf")),
                                    ("x", 0.0, float("-inf"))], ids=["inf", "inf-scale", "-inf-scale"])
def test_tally_fails_an_absolute_check_on_any_non_finite_sample(sample):
    (c,) = _tally((Check("x", 1.0),), [("x", 0.0), sample], RunConfig())
    assert not c.passed


def test_tally_tol_override_spares_exact_checks():
    checks = (Check("numeric", 1e-12), Check("exact", 0.0))
    samples = [("numeric", 1e-6), ("exact", 1.0)]
    numeric, exact = _tally(checks, samples, RunConfig(tol=1e-3))
    assert numeric.tol == 1e-3 and numeric.passed
    assert exact.tol == 0.0 and not exact.passed


def test_tally_trials_count_samples():
    checks = (Check("a", 1.0), Check("b", 1.0))
    samples = [("a", 0.0)] * 5 + [("b", 0.0)] * 2
    assert [c.trials for c in _tally(checks, samples, RunConfig())] == [5, 2]


def test_tally_undeclared_check_raises():
    with pytest.raises(KeyError):
        _tally((Check("a", 1.0),), [("a", 0.0), ("b", 0.0)], RunConfig())


def test_unsampled_check_fails_unless_noted():
    checks = (Check("lost", 1.0), Check("skipped", 0.0, note="not checked"))
    lost, skipped = _tally(checks, [], RunConfig())
    assert lost.trials == 0 and not lost.passed
    assert skipped.trials == 0 and skipped.passed


def test_suite_with_an_unsampled_check_fails(monkeypatch):
    checks, samples = verify.SUITES["krein"]
    monkeypatch.setitem(verify.SUITES, "krein", ((*checks, Check("extra", 1.0)), samples))
    rep = verify.run_suite("krein", RunConfig(trials=2))
    assert not rep.passed
    assert [c.name for c in rep.checks if not c.passed] == ["extra"]
    assert rep.checks[-1].trials == 0


# -- the check tables ----------------------------------------------------------

# (name, trials, tol, note) of run_suite("all") at dim 4 with trials=3.
PINNED = [
    ("krein.hermitian_symmetry", 3, 1e-14, ""),
    ("krein.completeness_relation", 3, 1e-12, ""),
    ("krein.adjoint_defining_identity", 3, 1e-12, ""),
    ("krein.trace_similarity_invariance", 3, 1e-12, ""),
    ("krein.conj_antisymmetric_square_negative", 6, 1e-12, ""),
    ("krein.involution_antisym_iff_anti_isometry", 3, 0.0, ""),
    ("krein.scale_i_structure", 12, 1e-13, ""),
    ("car.car_additivity", 3, 1e-12, ""),
    ("car.car_scaling", 3, 1e-12, ""),
    ("car.car_anticommutator_aa", 3, 1e-10, ""),
    ("car.car_anticommutator_ada", 3, 1e-10, ""),
    ("car.creation_annihilation_adjointness", 3, 1e-12, ""),
    ("lie.rep_bracket_homomorphism", 3, 1e-10, ""),
    ("lie.jacobi_identity", 3, 1e-10, ""),
    ("lie.pair_sectors_abelian", 6, 1e-10, ""),
    ("lie.pair_action_explicit_vs_generators", 6, 1e-12, ""),
    ("lie.star_matches_fock_adjoint", 3, 1e-10, ""),
    ("lie.gip_ad_invariance_real_form", 3, 1e-09, ""),
    ("lie.gip_real_on_real_form", 3, 1e-10, ""),
    ("lie.operator_norm_identities", 6, 1e-08, ""),
    ("coherent.series_equals_explicit", 3, 1e-12, ""),
    ("coherent.overlap_closed_vs_inner", 3, 1e-08, ""),
    ("coherent.overlap_zero_lambda_anchor", 3, 1e-12, ""),
    ("coherent.even_components_xi_independent", 3, 0.0, ""),
    ("coherent.wave_function_antiholomorphic", 3, 1e-06, ""),
    ("coherent.injectivity_spot_check", 3, 0.0, ""),
    ("coherent.norm_hypothesis_guard", 3, 0.0, ""),
    ("amplitude.closed_vs_bruteforce", 3, 1e-08, ""),
    ("amplitude.degreewise_cycle_index_vs_bruteforce", 9, 1e-09, ""),
    ("amplitude.closed_amplitude_xi_independent", 3, 0.0, ""),
    ("amplitude.dim2_worked_anchor", 1, 1e-12, ""),
    ("amplitude.region_generator_contract", 6, 1e-13, ""),
    ("amplitude.norm_hypothesis_guard", 3, 0.0, ""),
    ("axioms.iota_involution", 3, 1e-14, ""),
    ("axioms.iota_on_coherent_states", 3, 1e-12, ""),
    ("axioms.iota_real_f_graded_isometry", 3, 1e-12, ""),
    ("axioms.tau_isometry", 3, 1e-10, ""),
    ("axioms.tau_coherent_factorization", 3, 1e-12, ""),
    ("axioms.axiom_T2_graded_transposition", 3, 1e-10, ""),
    ("axioms.axiom_T2b_reversal_compatibility", 3, 1e-10, ""),
    ("axioms.axiom_T3x_inner_product_from_slice", 3, 1e-10, ""),
    ("axioms.axiom_T5a_disjoint_multiplicativity", 3, 1e-10, ""),
    ("axioms.slice_odd_power_traces_vanish", 9, 1e-12, ""),
    ("axioms.axiom_T5b_self_gluing", 0, 0.0, "not checked (out of scope)"),
    ("combinatorics.enumeration_equals_recursion", 7, 0.0, ""),
    ("combinatorics.enumeration_weight_homogeneous", 7, 0.0, ""),
    ("combinatorics.recursion_equals_closed_form", 18, 0.0, ""),
    ("combinatorics.coefficient_sums_factorial", 16, 0.0, ""),
    ("combinatorics.exp_series_identity", 8, 0.0, ""),
    ("combinatorics.anchor_polynomials", 4, 0.0, ""),
    ("combinatorics.pairing_monomial_relabeling_invariance", 6, 0.0, ""),
    ("combinatorics.symmetry_group_order", 3, 0.0, ""),
]

# The trial counts that differ from PINNED: one degree-wise sample per even
# degree of the amplitude dimension (dim 1 rounds up to 2), and the degree
# ranges of the exact combinatorics.
CHANGED = {
    (1, None): {"amplitude.degreewise_cycle_index_vs_bruteforce": 6},
    (4, None): {},
    (8, None): {"amplitude.degreewise_cycle_index_vs_bruteforce": 15},
    (4, 1): {
        "combinatorics.enumeration_equals_recursion": 2,
        "combinatorics.enumeration_weight_homogeneous": 2,
        "combinatorics.recursion_equals_closed_form": 4,
        "combinatorics.coefficient_sums_factorial": 4,
        "combinatorics.exp_series_identity": 1,
    },
}


@pytest.mark.parametrize("dim, max_degree", list(CHANGED))
def test_all_suite_structure(dim, max_degree):
    rep = verify.run_suite("all", RunConfig(dim=dim, trials=3, max_degree=max_degree))
    changed = CHANGED[(dim, max_degree)]
    expected = [(name, changed.get(name, trials), tol, note)
                for name, trials, tol, note in PINNED]
    assert [(c.name, c.trials, c.tol, c.note) for c in rep.checks] == expected
    assert all(c.trials >= 1 for c in rep.checks if c.name != "axioms.axiom_T5b_self_gluing")
    assert rep.passed


def test_verify_dim_1_passes_every_suite():
    src = os.path.dirname(os.path.dirname(fockkrein.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "fockkrein", "verify", "--suite", "all", "--dim", "1",
         "--trials", "2"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    assert done.stdout.rstrip().endswith("suite all: PASS")


@pytest.mark.parametrize("suite, clamp", [("car", 16), ("lie", 12)])
def test_matrix_free_suites_clamp_their_dimension(suite, clamp, monkeypatch):
    dims = []
    space_of = verify._space

    def recording(cfg, rng, dim=None):
        space = space_of(cfg, rng, dim)
        dims.append(space.dim)
        return space

    monkeypatch.setattr(verify, "_space", recording)
    assert verify.run_suite(suite, RunConfig(dim=clamp + 4, trials=1)).passed
    assert max(dims) == clamp


@pytest.mark.parametrize("suite, dim, signature, unused", [
    ("krein", 4, "++--", {}),
    ("lie", 4, "++--", {}),
    ("coherent", 12, "+-" * 6, {"coherent": [10]}),
    ("coherent", 12, None, {}),
    ("amplitude", 4, "+-+-", {}),
    ("amplitude", 12, "+-" * 6, {"amplitude": [10]}),
    ("axioms", 6, "+--+-+", {"axioms": [2, 3]}),
    ("all", 4, "++--", {"axioms": [2]}),
], ids=["krein", "lie", "coherent", "coherent-unsigned", "amplitude", "amplitude-clamped",
        "axioms", "all"])
def test_report_lists_the_dims_run_without_the_signature(suite, dim, signature, unused):
    report = verify.run_suite(suite, RunConfig(dim=dim, signature=signature, trials=1))
    assert report.signature_unused == unused
    assert "signature_unused" not in report.to_dict()


def test_coherent_suite_and_antiholomorphy_clamp_at_10(monkeypatch):
    dims = []
    space_of = verify._space

    def recording(cfg, rng, dim=None):
        space = space_of(cfg, rng, dim)
        dims.append(space.dim)
        return space

    monkeypatch.setattr(verify, "_space", recording)
    assert verify.run_suite("coherent", RunConfig(dim=14, trials=1)).passed
    assert dims == [10]


# -- the trial streams -----------------------------------------------------------


STREAM_CONSTRUCTORS = {"trial_rng", "default_rng", "SeedSequence", "Generator", "PCG64"}


def test_only_trials_names_trial_rng():
    # _trials is the one stream constructor of verify: no other function
    # names trial_rng or any other way to make a generator.
    def codes(code):
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from codes(const)

    functions = [obj for obj in vars(verify).values()
                 if isinstance(obj, types.FunctionType) and obj.__module__ == verify.__name__]
    functions += [fn for cls in (verify.RunConfig, verify.Report)
                  for fn in vars(cls).values() if isinstance(fn, types.FunctionType)]
    assert len(functions) > 20
    callers = {fn.__name__ for fn in functions
               if any(STREAM_CONSTRUCTORS & set(code.co_names) for code in codes(fn.__code__))}
    assert callers == {"_trials"}


def test_nearby_seeds_share_no_trial_stream():
    # Seeded with seed XOR t, seeds 0 and 7 would share 28 of 30 streams.
    firsts = [rng.random() for seed in range(8)
              for rng in verify._trials(RunConfig(seed=seed, trials=30))]
    assert len(set(firsts)) == len(firsts) == 8 * 30


def test_trial_streams_take_negative_seeds_modulo_two_to_the_64():
    low = [rng.random() for rng in verify._trials(RunConfig(seed=-1, trials=3))]
    high = [rng.random() for rng in verify._trials(RunConfig(seed=2**64 - 1, trials=3))]
    assert low == high
