"""One tiny round of each gated benchmark workload runs in process with no
unexpected failure, so a change that breaks how a workload drives the
package (a constructor's signature, a route's checks) fails here, not only
in a benchmark run. The harness files are loaded as they are."""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["oracle", "closed"])
def test_a_tiny_round_of_a_gated_workload_runs_clean(name, tmp_path):
    workloads, tracing = load("workloads"), load("tracing")
    wl = workloads.make(name, 1, True, str(tmp_path))
    tr = tracing.Tracer(True)
    ops = wl.round(0)
    assert workloads.run_ops(wl, tr, ops) == []
    assert sum(span["name"] == "op" for span in tr.spans) == len(ops) > 0
