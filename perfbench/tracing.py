"""Span tracing of reesolve's layers from outside the package.

The tracer replaces, for the duration of one task, the functions and
methods the callers look up (module attributes such as
``reesolve.solvers.prox`` and the ``__call__``/``jacobian_at`` methods of the
estimating-function classes) with wrappers that record a span: name, layer,
start, end, parent and task id. Nothing under ``src/`` is edited. Spans stay
in memory and are written out once, at the end of the run.

A call that arrives while a span of the same layer is open (``evaluate``
calling ``U.__call__``, ``solve_path`` calling ``run_solver``) is counted but
gets no span of its own, so layer times never count the same interval twice.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from pathlib import Path

# (module, attribute, layer, span name): the names each caller looks up
FUNCTION_TARGETS = (
    ("solvers", "evaluate", "estimating", "U.evaluate"),
    ("diagnostics", "evaluate", "estimating", "U.evaluate"),
    ("solvers", "jacobian", "estimating", "jacobian"),
    ("solvers", "lipschitz_upper_bound", "estimating", "lipschitz"),
    ("estimating", "lipschitz_upper_bound", "estimating", "lipschitz"),
    ("cli", "lipschitz_upper_bound", "estimating", "lipschitz"),
    ("solvers", "prox", "penalties", "prox"),
    ("diagnostics", "prox", "penalties", "prox"),
    ("solvers", "run_solver", "solvers", "run_solver"),
    ("cli", "run_solver", "solvers", "run_solver"),
    ("solvers", "solve_path", "solvers", "solve_path"),
    ("cli", "solve_path", "solvers", "solve_path"),
    ("solvers", "lambda_max", "solvers", "lambda_max"),
    ("cli", "lambda_max", "solvers", "lambda_max"),
    ("diagnostics", "fixed_point_residual", "diagnostics", "fixed_point_residual"),
    ("cli", "fixed_point_residual", "diagnostics", "fixed_point_residual"),
    ("diagnostics", "kkt_residual", "diagnostics", "kkt_residual"),
    ("cli", "kkt_residual", "diagnostics", "kkt_residual"),
    ("diagnostics", "vi_probe", "diagnostics", "vi_probe"),
    ("cli", "vi_probe", "diagnostics", "vi_probe"),
    ("cli", "main", "cli", "main"),
)
# (class in reesolve.estimating, method, layer, span name)
METHOD_TARGETS = tuple(
    (cls, meth, "estimating", name)
    for cls in ("LeastSquaresEstimating", "LinearEstimating")
    for meth, name in (("__call__", "U.__call__"),
                       ("jacobian_at", "U.jacobian_at")))

LAYERS = ("bench", "cli", "solvers", "estimating", "penalties", "diagnostics")
# span name -> metric summing the durations of its spans
TIME_METRICS = {
    "U.evaluate": "estimating.u_s", "U.__call__": "estimating.u_s",
    "jacobian": "estimating.jacobian_s", "U.jacobian_at": "estimating.jacobian_s",
    "lipschitz": "estimating.lipschitz_s", "prox": "penalties.prox_s",
    "fixed_point_residual": "diagnostics.fp_residual_s",
    "kkt_residual": "diagnostics.kkt_s", "vi_probe": "diagnostics.vi_probe_s",
}
# span name -> metric counting its calls, nested ones included
COUNT_METRICS = {
    "U.__call__": "estimating.u_evals", "U.jacobian_at": "estimating.jacobian_evals",
    "prox": "penalties.prox_calls", "kkt_residual": "diagnostics.kkt_calls",
}

# span record fields
TASK, PARENT, NAME, LAYER, START, END, ITERS, SOLVES = range(8)


def _solver_result(result) -> tuple[int, int]:
    """(iterations, solves) of what a solvers-layer call returned."""
    if isinstance(result, list):  # solve_path entries
        return sum(e.report.iterations for e in result), len(result)
    if hasattr(result, "iterations"):
        return int(result.iterations), 1
    return 0, 0  # lambda_max


class Tracer:
    """Collects spans for the tasks run between :meth:`install` and
    :meth:`uninstall`."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._task = -1
        self._saved: list[tuple[object, str, object]] = []
        self._roots: dict[int, list] = {}

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        pkg = self.package
        for mod, attr, layer, name in FUNCTION_TARGETS:
            owner = getattr(pkg, mod, None)
            if owner is None:  # reesolve.cli is imported only where used
                continue
            self._patch(owner, attr, self._wrap(getattr(owner, attr), layer, name))
        for cls, meth, layer, name in METHOD_TARGETS:
            owner = getattr(pkg.estimating, cls)
            self._patch(owner, meth,
                        self._wrap(owner.__dict__[meth], layer, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)
                            if not isinstance(owner, type)
                            else owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, layer: str, name: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        is_solver = layer == "solvers"

        def traced(*args, **kwargs):
            counts[self._task, name] += 1
            if stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            rec = [self._task, stack[-1], name, layer, clock(), 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if is_solver:
                rec[ITERS], rec[SOLVES] = _solver_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- tasks ----------------------------------------------------------------

    def run_task(self, task_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of one task, tracing inside."""
        self._task = task_id
        rec = [task_id, -1, "task", "bench", 0.0, 0.0, 0, 0]
        self._roots[task_id] = rec
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.install()
        try:
            rec[START] = time.perf_counter()
            try:
                return fn(*args)
            finally:
                rec[END] = time.perf_counter()
        finally:
            self.uninstall()
            self._stack.pop()
            self._task = -1

    def task_duration(self, task_id: int) -> float:
        root = self._roots[task_id]
        return root[END] - root[START]

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def check_tree(self) -> None:
        """Every child span lies inside its parent and belongs to its task,
        and each task's self times add up to its root span's duration."""
        spans = self.spans
        for rec in spans:
            if rec[PARENT] >= 0:
                parent = spans[rec[PARENT]]
                if (parent[TASK] != rec[TASK] or rec[START] < parent[START]
                        or rec[END] > parent[END]):
                    raise AssertionError(f"span {rec[NAME]} escapes its parent")
        totals: Counter = Counter()
        for rec, own in zip(spans, self.self_times()):
            totals[rec[TASK]] += own
        for task, total in totals.items():
            wall = self.task_duration(task)
            if abs(total - wall) > 1e-9 * max(1.0, wall):
                raise AssertionError(
                    f"task {task}: self times sum to {total}, wall is {wall}")

    def layer_metrics(self, tasks) -> dict[str, float]:
        """Per-layer counts and times summed over the given task ids."""
        tasks = set(tasks)
        m: Counter = Counter()
        for rec, own in zip(self.spans, self.self_times()):
            if rec[TASK] not in tasks:
                continue
            m[f"{rec[LAYER]}.self_s"] += own
            if rec[NAME] in TIME_METRICS:
                m[TIME_METRICS[rec[NAME]]] += rec[END] - rec[START]
            if rec[LAYER] == "solvers":
                m["trace.iterations"] += rec[ITERS]
                m["solvers.solves"] += rec[SOLVES]
        for (task, name), n in self.counts.items():
            if task in tasks and name in COUNT_METRICS:
                m[COUNT_METRICS[name]] += n
        m["trace.task_s"] = sum(self.task_duration(t) for t in tasks)
        return dict(m)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "task", "parent", "name", "layer",
                          "start", "end", "iterations", "solves"])
            for i, rec in enumerate(self.spans):
                out.writerow([i, rec[TASK], rec[PARENT], rec[NAME], rec[LAYER],
                              repr(rec[START]), repr(rec[END]),
                              rec[ITERS], rec[SOLVES]])
