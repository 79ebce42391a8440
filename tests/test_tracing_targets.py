"""The benchmark tracer patches package names it looks up by string.

``perfbench/tracing.py`` wraps module attributes and estimating-function
methods listed in ``FUNCTION_TARGETS`` and ``METHOD_TARGETS``. A rename in
the package would break traced benchmark runs only when one is made, so the
lists are checked here against the package. The file is only read: it is
run from source, with no bytecode cache written next to it.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing() -> dict:
    return runpy.run_path(str(TRACING))


def test_function_targets_exist(tracing):
    missing = [f"reesolve.{mod}.{attr}"
               for mod, attr, _, _ in tracing["FUNCTION_TARGETS"]
               if not callable(getattr(importlib.import_module(f"reesolve.{mod}"),
                                       attr, None))]
    assert missing == []


def test_method_targets_exist(tracing):
    estimating = importlib.import_module("reesolve.estimating")
    missing = [f"{cls}.{meth}" for cls, meth, _, _ in tracing["METHOD_TARGETS"]
               # the tracer patches the class's own __dict__ entry
               if meth not in getattr(estimating, cls, type).__dict__]
    assert missing == []
