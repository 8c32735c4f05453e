"""Command-line contract: exit codes, file formats, report determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fockkrein
from fockkrein.boundary import BRUTEFORCE_DIM_LIMIT
from fockkrein.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def cpair(z):
    z = complex(z)
    return [z.real, z.imag]


def cmatrix(m):
    return [[cpair(z) for z in row] for row in np.asarray(m, dtype=complex)]


@pytest.fixture
def worked_files(tmp_path):
    """The two-dimensional worked case with a = 0.5."""
    a = 0.5
    region = {
        "signature": "+-",
        "u": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, 1], [1, 0]])},
    }
    state = {
        "lambda": {
            "linearity": "conjugate-linear",
            "matrix": cmatrix([[0, a], [a, 0]]),
        },
        "xi": [cpair(0), cpair(0)],
    }
    return (
        write(tmp_path / "region.json", region),
        write(tmp_path / "state.json", state),
        tmp_path,
    )


def test_verify_pass_and_exit_codes(capsys):
    assert main(
        ["verify", "--suite", "car", "--dim", "4", "--signature", "++--",
         "--seed", "42", "--trials", "100"]
    ) == 0
    out = capsys.readouterr().out
    assert "suite car: PASS" in out


@pytest.mark.parametrize("dim", range(1, 9))
def test_verify_axioms_every_dim(dim, capsys):
    assert main(["verify", "--suite", "axioms", "--dim", str(dim), "--trials", "2"]) == 0
    assert "suite axioms: PASS" in capsys.readouterr().out


def test_verify_amplitude_at_dim_10(capsys):
    assert main(["verify", "--suite", "amplitude", "--dim", "10", "--seed", "3",
                 "--trials", "3"]) == 0
    assert "suite amplitude: PASS" in capsys.readouterr().out


def test_verify_combinatorics_exact():
    assert main(["verify", "--suite", "combinatorics", "--trials", "20"]) == 0


@pytest.mark.parametrize("max_degree", ["0", "-1"])
def test_verify_max_degree_below_one_is_usage_error(max_degree):
    src = os.path.dirname(os.path.dirname(fockkrein.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "fockkrein", "verify", "--suite", "combinatorics",
         "--max-degree", max_degree],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert "max_degree" in done.stderr
    assert "Traceback" not in done.stderr


def test_verify_signature_mismatch_is_usage_error(capsys):
    assert main(["verify", "--suite", "car", "--signature", "++", "--dim", "3"]) == 2
    assert "signature length" in capsys.readouterr().err


def test_verify_failure_exit_code():
    # an absurd tolerance forces the numeric checks to fail
    assert main(
        ["verify", "--suite", "car", "--trials", "5", "--tol", "1e-30"]
    ) == 1


def test_verify_bad_flag_usage_error():
    assert main(["verify", "--suite", "no-such-suite"]) == 2


def test_report_determinism(tmp_path, capsys):
    args = ["verify", "--suite", "krein", "--trials", "10", "--seed", "7"]
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(args + ["--json", str(p1)]) == 0
    assert main(args + ["--json", str(p2)]) == 0
    capsys.readouterr()
    r1 = json.loads(p1.read_text())
    r2 = json.loads(p2.read_text())
    r1.pop("timestamp"), r2.pop("timestamp")
    assert r1 == r2
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["pass"] is True
    assert all(set(c) >= {"name", "trials", "max_abs_err", "max_rel_err", "pass"}
               for c in r1["checks"])
    assert {c["name"] for c in r1["checks"]} >= {"hermitian_symmetry", "completeness_relation"}


def test_cycle_index_output(capsys):
    assert main(["cycle-index", "1"]) == 0
    assert capsys.readouterr().out.strip() == "q_1 = 1 y1"
    assert main(["cycle-index", "2"]) == 0
    assert capsys.readouterr().out.strip() == "q_2 = 1/2 y1^2 + 1/2 y2"
    assert main(["cycle-index", "2", "--family", "x"]) == 0
    assert capsys.readouterr().out.strip() == "p_2 = 8 x1^2 + 16 x2"


def test_cycle_index_negative_n(capsys):
    assert main(["cycle-index", "--", "-1"]) == 2


def test_cycle_index_eval(tmp_path, capsys):
    values = write(tmp_path / "vals.json", [cpair(0), cpair(4)])
    assert main(["cycle-index", "2", "--eval", values]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    re, im = map(float, lines[1].split())
    assert (re, im) == (2.0, 0.0)


def test_amplitude_worked_case(worked_files, capsys):
    region, state, _ = worked_files
    assert main(["amplitude", "--region", region, "--state", state]) == 0
    re, im = map(float, capsys.readouterr().out.split())
    assert re == pytest.approx(0.5, abs=1e-12)  # 1 - conj(0.5)
    assert im == pytest.approx(0.0, abs=1e-12)


def test_amplitude_all_methods_agree(worked_files, capsys):
    region, state, _ = worked_files
    assert main(["amplitude", "--region", region, "--state", state, "--method", "all"]) == 0
    out = capsys.readouterr().out
    dev = float(out.strip().splitlines()[-1].split()[-1])
    assert dev < 1e-8


def test_amplitude_zero_lambda_every_method(tmp_path, capsys):
    region = {
        "signature": "+-",
        "u": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, 1], [1, 0]])},
    }
    state = {
        "lambda": {"linearity": "conjugate-linear", "matrix": cmatrix(np.zeros((2, 2)))},
        "xi": [cpair(0.3), cpair(1j)],
    }
    rpath = write(tmp_path / "r.json", region)
    spath = write(tmp_path / "s.json", state)
    for method in ("closed", "bruteforce", "degreewise"):
        assert main(["amplitude", "--region", rpath, "--state", spath, "--method", method]) == 0
        re, im = map(float, capsys.readouterr().out.split())
        assert (re, im) == pytest.approx((1.0, 0.0), abs=1e-12)


def test_amplitude_hypothesis_violation_exit_3(tmp_path, capsys):
    a = 1.2
    region = {
        "signature": "+-",
        "u": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, 1], [1, 0]])},
    }
    state = {
        "lambda": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, a], [a, 0]])},
        "xi": [cpair(0), cpair(0)],
    }
    rpath = write(tmp_path / "r.json", region)
    spath = write(tmp_path / "s.json", state)
    assert main(["amplitude", "--region", rpath, "--state", spath, "--method", "closed"]) == 3
    assert "1.2" in capsys.readouterr().err


def test_amplitude_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good_state = write(
        tmp_path / "s.json",
        {"lambda": {"linearity": "conjugate-linear", "matrix": cmatrix(np.zeros((2, 2)))},
         "xi": [cpair(0), cpair(0)]},
    )
    assert main(["amplitude", "--region", str(bad), "--state", good_state]) == 2
    assert main(["amplitude", "--region", str(tmp_path / "absent.json"),
                 "--state", good_state]) == 2


def test_overlap_trivial_and_worked(tmp_path, capsys):
    space = write(tmp_path / "space.json", {"signature": "++"})
    zero = {
        "lambda": {"linearity": "conjugate-linear", "matrix": cmatrix(np.zeros((2, 2)))},
        "xi": [cpair(0), cpair(0)],
    }
    zpath = write(tmp_path / "zero.json", zero)
    assert main(["overlap", "--space", space, "--left", zpath, "--right", zpath]) == 0
    re, im = map(float, capsys.readouterr().out.split())
    assert (re, im) == (1.0, 0.0)

    a = 0.5
    data = {
        "lambda": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, a], [-a, 0]])},
        "xi": [cpair(0), cpair(0)],
    }
    dpath = write(tmp_path / "d.json", data)
    assert main(["overlap", "--space", space, "--left", dpath, "--right", dpath]) == 0
    re, im = map(float, capsys.readouterr().out.split())
    assert re == pytest.approx(1.25, abs=1e-12)
    assert im == pytest.approx(0.0, abs=1e-12)

    assert main(["overlap", "--space", space, "--left", dpath, "--right", dpath,
                 "--method", "all"]) == 0
    out = capsys.readouterr().out
    dev = float(out.strip().splitlines()[-1].split()[-1])
    assert dev < 1e-8


def near_one_files(tmp_path, a):
    """The worked cases at parameter a: u Lam = a 1 for the amplitude on "+-",
    and L L' = -a^2 1 for the overlap on "++"."""
    region = {
        "signature": "+-",
        "u": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, 1], [1, 0]])},
    }
    state = {
        "lambda": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, a], [a, 0]])},
        "xi": [cpair(0), cpair(0)],
    }
    data = {
        "lambda": {"linearity": "conjugate-linear", "matrix": cmatrix([[0, a], [-a, 0]])},
        "xi": [cpair(0), cpair(0)],
    }
    return (
        ["--region", write(tmp_path / "r.json", region),
         "--state", write(tmp_path / "s.json", state)],
        ["--space", write(tmp_path / "space.json", {"signature": "++"}),
         "--left", write(tmp_path / "d.json", data), "--right", str(tmp_path / "d.json")],
    )


def test_closed_routes_near_norm_one(tmp_path, capsys):
    a = 0.999
    amplitude, overlap = near_one_files(tmp_path, a)
    for command, args, expected in (("amplitude", amplitude, 1 - a),
                                    ("overlap", overlap, 1 + a * a)):
        assert main([command, *args, "--method", "closed"]) == 0
        re, im = map(float, capsys.readouterr().out.split())
        assert re == pytest.approx(expected, rel=1e-12)
        assert im == pytest.approx(0.0, abs=1e-12)
        assert main([command, *args, "--method", "all"]) == 0
        out = capsys.readouterr().out
        assert float(out.strip().splitlines()[-1].split()[-1]) < 1e-12


@pytest.mark.parametrize("a", [1.0, 1.2])
def test_closed_routes_at_or_beyond_norm_one_exit_3(a, tmp_path, capsys):
    amplitude, overlap = near_one_files(tmp_path, a)
    for command, args, norm in (("amplitude", amplitude, a), ("overlap", overlap, a * a)):
        for method in ("closed", "all"):
            assert main([command, *args, "--method", method]) == 3
            assert f"{norm:.6g} >= 1" in capsys.readouterr().err


SWAP = {"linearity": "conjugate-linear", "matrix": cmatrix([[0, 1], [1, 0]])}
ZERO = {"lambda": {"linearity": "conjugate-linear", "matrix": cmatrix(np.zeros((2, 2)))},
        "xi": [cpair(0), cpair(0)]}


@pytest.mark.parametrize("command, files", [
    ("amplitude", {"region": {"signature": "+-", "u": {**SWAP, "matrix": 5}}, "state": ZERO}),
    ("cycle-index", {"eval": 5}),
    ("amplitude", {"region": {"signature": "+-", "u": SWAP}, "state": {**ZERO, "xi": 7}}),
    ("overlap", {"space": {"signature": 5}, "left": ZERO, "right": ZERO}),
], ids=["matrix-5", "eval-5", "xi-7", "signature-5"])
def test_malformed_json_is_usage_error(command, files, tmp_path):
    args = [command] + (["2"] if command == "cycle-index" else [])
    for flag, obj in files.items():
        args += [f"--{flag}", write(tmp_path / f"{flag}.json", obj)]
    src = os.path.dirname(os.path.dirname(fockkrein.__file__))
    done = subprocess.run([sys.executable, "-m", "fockkrein", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def beyond_limit_files(tmp_path):
    """A region and a hypersurface two dimensions beyond the brute-force
    limit, with Lam = 0 and xi = 0."""
    d = BRUTEFORCE_DIM_LIMIT + 2
    u = np.zeros((d, d))
    for k in range(0, d, 2):
        u[k, k + 1] = u[k + 1, k] = 1.0
    zero = {"lambda": {"linearity": "conjugate-linear", "matrix": cmatrix(np.zeros((d, d)))},
            "xi": [cpair(0)] * d}
    region = {"signature": "+-" * (d // 2),
              "u": {"linearity": "conjugate-linear", "matrix": cmatrix(u)}}
    return {
        "amplitude": ["--region", write(tmp_path / "r.json", region),
                      "--state", write(tmp_path / "s.json", zero)],
        "overlap": ["--space", write(tmp_path / "space.json", {"signature": "+" * d}),
                    "--left", str(tmp_path / "s.json"), "--right", str(tmp_path / "s.json")],
    }


@pytest.mark.parametrize("command", ["amplitude", "overlap"])
@pytest.mark.parametrize("method", ["bruteforce", "all"])
def test_bruteforce_beyond_limit_is_usage_error(command, method, tmp_path):
    args = beyond_limit_files(tmp_path)[command]
    src = os.path.dirname(os.path.dirname(fockkrein.__file__))
    done = subprocess.run([sys.executable, "-m", "fockkrein", command, *args, "--method", method],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert f"BRUTEFORCE_DIM_LIMIT = {BRUTEFORCE_DIM_LIMIT}" in done.stderr
    assert "Traceback" not in done.stderr


def test_closed_routes_beyond_bruteforce_limit(tmp_path, capsys):
    files = beyond_limit_files(tmp_path)
    for command in ("amplitude", "overlap"):
        assert main([command, *files[command], "--method", "closed"]) == 0
        assert tuple(map(float, capsys.readouterr().out.split())) == (1.0, 0.0)



@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["xi", "lambda", "u", "eval"])
def test_non_finite_json_numbers_are_usage_errors(where, value, tmp_path):
    # Python's json reads NaN, Infinity and -Infinity; the CLI must refuse them.
    bad = [value, 0.0]
    state, u = ZERO, SWAP
    if where == "xi":
        state = {**ZERO, "xi": [bad, cpair(0)]}
    elif where == "lambda":
        state = {**ZERO, "lambda": {**ZERO["lambda"], "matrix": [[cpair(0), bad]] * 2}}
    elif where == "u":
        u = {**SWAP, "matrix": [[cpair(0), bad], [cpair(1), cpair(0)]]}
    if where == "eval":
        args = ["cycle-index", "2", "--eval", write(tmp_path / "v.json", [bad, bad])]
    elif where == "xi":
        args = ["overlap", "--space", write(tmp_path / "space.json", {"signature": "+-"}),
                "--left", write(tmp_path / "s.json", state), "--right", str(tmp_path / "s.json"),
                "--method", "closed"]
    else:
        args = ["amplitude", "--region", write(tmp_path / "r.json", {"signature": "+-", "u": u}),
                "--state", write(tmp_path / "s.json", state), "--method", "closed"]
    src = os.path.dirname(os.path.dirname(fockkrein.__file__))
    done = subprocess.run([sys.executable, "-m", "fockkrein", *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 2
    assert done.stderr.startswith("error: expected finite [re, im], got [")
    assert "Traceback" not in done.stderr
