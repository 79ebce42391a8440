"""Every benchmark workload runs one round against the package.

``perfbench/workloads.py`` calls the package through the names a benchmark
task uses (``cli.main``, ``solvers.run_solver``, the certificates, ...). A
task that breaks on a renamed or removed name would otherwise show only in
a benchmark run, as failed tasks. Here each workload builds its inputs at
the smoke test's ``tiny`` size, runs one task, and must pass its own check
against the reference. The benchmark files are only read: they are
imported with no bytecode cache written next to them.
"""

import importlib
import sys
from pathlib import Path

import pytest

import reesolve
import reesolve.cli  # noqa: F401  (the lasso-path task calls reesolve.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    try:
        # workloads.py imports its sibling reference.py by plain name
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
        sys.dont_write_bytecode = saved


WORKLOADS = _load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_round_passes_its_check(name, tmp_path):
    wl = WORKLOADS[name](reesolve, "tiny", tmp_path)
    for i in range(wl.round_size):
        inp = wl.make_inputs(0, i)
        try:
            out = wl.collect(inp, wl.run(inp))
            verdict = wl.check(inp, out)
        finally:
            wl.cleanup(inp)
        assert verdict.ok, f"{name} task {i}: {verdict.reason}"
