"""The three benchmark workloads: inputs, the timed task, and its check.

Every workload is a closed loop with one client in one process on one
thread: the next task starts when the previous one has returned. A task's
inputs come from ``numpy.random.default_rng([seed, tag, index])`` and are
built before its clock starts; the correctness check runs after the clock
stops and compares against a reference computed without reesolve
(``reference.py``). The timed call reaches reesolve only through module
attributes (``solvers.run_solver``, ``cli.main``, ...), the names the tracer
wraps.

Why these three (see README.md for the measurements behind each):

* ``lasso-path`` -- the most common use, a warm-started lambda path through
  the command line; cheap iterations, so U mat-vecs, solver bookkeeping,
  certificates and report I/O all show.
* ``group-solve`` -- cold certified single solves with group penalties,
  where the per-group Python loops of the prox dominate; ``gra-adaptive``
  carries the ``psi`` mechanism and ``km`` is its control.
* ``lqa-newton`` -- the LQA baseline, where a dense p-by-p inverse
  dominates and prox, validation and U are idle: the control for every
  first-order change, and the only workload with SCAD and Jacobians.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import reference

TOL = 1e-6
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _spread(i: int) -> float:
    """Deterministic low-discrepancy point in [0, 1) for task ``i``: any run
    prefix covers the interval evenly, whatever the seed."""
    return ((i + 0.5) * GOLDEN) % 1.0


def deviation(beta: np.ndarray, ref: np.ndarray) -> float:
    """``max|beta - ref| / (1 + max|ref|)``: relative for large
    coefficients, absolute near zero."""
    return float(np.abs(beta - ref).max() / (1.0 + np.abs(ref).max()))


@dataclass
class Outcome:
    """What a task returned, as the check and the metrics need it."""

    iterations: int
    statuses: list[str]
    solutions: Any = None
    bytes_written: int = 0
    certificates: dict = field(default_factory=dict)

    def add(self, report, certificates: dict) -> None:
        """Fold one solver report and its certificates into the task's."""
        self.iterations += report.iterations
        self.statuses.append(report.status.value)
        self.solutions.append(report.solution)
        self.certificates.update(certificates)


@dataclass
class Verdict:
    ok: bool
    reason: str
    deviation: float


class Workload:
    name = ""
    tag = 0
    round_size = 1       # tasks per round; a run ends on a round boundary
    min_tasks = 1        # fixed prefix every run completes (counts use it)
    threshold = 0.0      # largest accepted deviation from the reference

    def __init__(self, rs, size: str, workdir: Path):
        self.rs = rs
        self.workdir = workdir

    def rng(self, seed: int, i: int) -> np.random.Generator:
        # two's complement keeps negative seeds valid and distinct
        return np.random.default_rng([seed % 2**64, self.tag, i])

    def describe(self) -> str:
        raise NotImplementedError

    def make_inputs(self, seed: int, i: int):
        raise NotImplementedError

    def run(self, inp):
        """The timed task: only calls into reesolve."""
        raise NotImplementedError

    def collect(self, inp, raw) -> Outcome:
        """Read what the task produced (untimed)."""
        return raw

    def check(self, inp, out: Outcome) -> Verdict:
        raise NotImplementedError

    def cleanup(self, inp) -> None:
        pass

    def _verdict(self, out: Outcome, worst: float) -> Verdict:
        bad = [s for s in out.statuses if s != "converged"]
        if bad:
            return Verdict(False, f"status {bad[0]}", worst)
        broken = [k for k, v in out.certificates.items() if not math.isfinite(v)]
        if broken:
            return Verdict(False, f"certificate {broken[0]} is not finite", worst)
        if not worst <= self.threshold:
            return Verdict(False, f"deviation {worst:.3e} from the reference "
                                  f"exceeds {self.threshold:.0e}", worst)
        return Verdict(True, "", worst)


def _certify(rs, problem, beta, tau: float, seed: int) -> dict:
    """The three certificates a certified single solve ends with."""
    return {
        "fixed_point": rs.diagnostics.fixed_point_residual(problem, beta, tau),
        "kkt": rs.diagnostics.kkt_residual(problem, beta).max_residual,
        "vi_worst": rs.diagnostics.vi_probe(
            problem, beta, samples=1000, radius=1.0, seed=seed).worst_value,
    }


def _sparse_truth(rng, p: int, k: int) -> np.ndarray:
    beta = np.zeros(p)
    support = rng.choice(p, size=k, replace=False)
    beta[support] = rng.uniform(1.0, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    return beta


# ---------------------------------------------------------------------------
# lasso-path: `reesolve path` in-process
# ---------------------------------------------------------------------------

@dataclass
class PathInputs:
    X: np.ndarray
    y: np.ndarray
    taskdir: Path
    argv: list[str]


class LassoPath(Workload):
    name = "lasso-path"
    tag = 1
    threshold = 1e-4

    def __init__(self, rs, size, workdir):
        super().__init__(rs, size, workdir)
        self.n, self.p, self.k, self.grid = (
            (100, 400, 10, 20) if size == "full" else (20, 40, 2, 5))
        self.min_tasks = 40 if size == "full" else 2

    def describe(self) -> str:
        return (f"least squares n={self.n} p={self.p} ({self.k} true nonzeros, "
                f"noise 0.1), lasso, --auto-grid {self.grid}, warm picard, "
                f"tol {TOL:g}; one task = one path through reesolve.cli.main")

    def make_inputs(self, seed, i):
        rng = self.rng(seed, i)
        X = rng.standard_normal((self.n, self.p))
        y = X @ _sparse_truth(rng, self.p, self.k) + 0.1 * rng.standard_normal(self.n)
        taskdir = self.workdir / f"path-{seed}-{i}"
        taskdir.mkdir(parents=True)
        np.savetxt(taskdir / "X.csv", X, delimiter=",")
        np.savetxt(taskdir / "y.csv", y, delimiter=",")
        argv = ["path", "--design", str(taskdir / "X.csv"),
                "--response", str(taskdir / "y.csv"), "--penalty", "lasso",
                "--auto-grid", str(self.grid), "--tol", str(TOL),
                "--out-dir", str(taskdir / "out")]
        return PathInputs(X, y, taskdir, argv)

    def run(self, inp: PathInputs) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.rs.cli.main(inp.argv)

    def collect(self, inp: PathInputs, code: int) -> Outcome:
        out = inp.taskdir / "out"
        if code != 0:
            return Outcome(0, [f"exit code {code}"])
        summary = np.genfromtxt(out / "path_summary.csv", delimiter=",",
                                names=True, dtype=None, encoding="utf-8")
        coef = np.loadtxt(out / "path_coefficients.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        written = sum(f.stat().st_size for f in out.iterdir())
        return Outcome(int(summary["iterations"].sum()),
                       [str(s) for s in summary["status"]], coef, written)

    def check(self, inp: PathInputs, out: Outcome) -> Verdict:
        if out.solutions is None:
            return Verdict(False, out.statuses[0], math.inf)
        lmax = float(np.abs(inp.X.T @ inp.y).max())
        lams = np.geomspace(lmax, lmax / 100.0, self.grid)
        coef = out.solutions
        if coef.shape != (self.grid, self.p + 1) or not np.allclose(
                coef[:, 0], lams, rtol=1e-12, atol=0.0):
            return Verdict(False, "lambda grid differs from the expected one",
                           math.inf)
        ref = reference.lasso_path(inp.X, inp.y, lams)
        worst = max(deviation(b, r) for b, r in zip(coef[:, 1:], ref))
        return self._verdict(out, worst)

    def cleanup(self, inp: PathInputs) -> None:
        shutil.rmtree(inp.taskdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# group-solve: cold run_solver + three certificates, gra-adaptive and km
# ---------------------------------------------------------------------------

# A half fraction of the 2^3 design (U, penalty, lambda band): each U meets
# each penalty once and each band once. Every task solves its problem with
# both solvers, so each task holds the psi mechanism (gra-adaptive) and its
# control (km), and task times form one mode instead of one per solver.
GROUP_DESIGN = (
    ("least-squares", "group-lasso", "high"),
    ("least-squares", "sparse-group-lasso", "low"),
    ("skew-linear", "group-lasso", "low"),
    ("skew-linear", "sparse-group-lasso", "high"),
)
GROUP_METHODS = ("gra-adaptive", "km")
LAMBDA_BANDS = {"high": (0.35, 0.5), "low": (0.2, 0.35)}


@dataclass
class GroupInputs:
    u: Any
    X: np.ndarray
    A: Any              # the linear U's matrix; None for least squares
    b: np.ndarray
    penalty: Any
    alpha: float
    lam: float
    probe_seed: int


def _solve_and_certify(rs, problem, config, method, tau, seed):
    """One cold solve from zero plus its certificates; tau=None certifies
    with the solver's own stepsize."""
    p = problem.u.dim
    report = rs.solvers.run_solver(problem, config, np.zeros(p), method)
    certs = _certify(rs, problem, report.solution,
                     report.stepsize if tau is None else tau, seed)
    return report, {f"{method}.{k}": v for k, v in certs.items()}


class GroupSolve(Workload):
    name = "group-solve"
    tag = 2
    round_size = len(GROUP_DESIGN)
    threshold = 1e-4

    def __init__(self, rs, size, workdir):
        super().__init__(rs, size, workdir)
        self.n, self.groups, self.group_size = (
            (200, 80, 5) if size == "full" else (20, 8, 5))
        self.p = self.groups * self.group_size
        self.min_tasks = 6 * self.round_size if size == "full" else self.round_size
        part = rs.GroupPartition(
            [range(g * self.group_size, (g + 1) * self.group_size)
             for g in range(self.groups)])
        self.penalties = {
            "group-lasso": (rs.GroupLasso(part), 0.0),
            "sparse-group-lasso": (rs.SparseGroupLasso(part, alpha=0.5), 0.5),
        }
        self.config = rs.SolverConfig(tol=TOL)

    def describe(self) -> str:
        return (f"n={self.n} p={self.p} ({self.groups} groups of "
                f"{self.group_size}, 10% active), U in {{least squares, "
                f"X^T X + skew}}, group / sparse-group lasso (alpha 0.5), "
                f"lambda in [0.2, 0.5]*lambda_max, tol {TOL:g}; one task = "
                f"one problem solved cold by gra-adaptive and by km, each "
                f"followed by fixed-point, KKT and VI certificates")

    def make_inputs(self, seed, i):
        rng = self.rng(seed, i)
        ukind, pen, band = GROUP_DESIGN[i % self.round_size]
        n, p, gs = self.n, self.p, self.group_size
        X = rng.standard_normal((n, p)) / math.sqrt(n)
        truth = np.zeros(p)
        for g in rng.choice(self.groups, size=max(1, self.groups // 10),
                            replace=False):
            truth[g * gs:(g + 1) * gs] = rng.standard_normal(gs)
        y = X @ truth + 0.1 * rng.standard_normal(n)
        b = X.T @ y
        if ukind == "least-squares":
            u = self.rs.LeastSquaresEstimating(X, y)
            A = None
        else:
            Z = rng.standard_normal((p, p))
            A = X.T @ X + (Z - Z.T) / math.sqrt(p)
            u = self.rs.LinearEstimating(A, b)
        lo, hi = LAMBDA_BANDS[band]
        lam = (lo + (hi - lo) * _spread(i // self.round_size)) * float(np.abs(b).max())
        penalty, alpha = self.penalties[pen]
        return GroupInputs(u, X, A, b, penalty, alpha, lam, i)

    def run(self, inp: GroupInputs) -> Outcome:
        rs = self.rs
        problem = rs.model.EstimatingProblem(u=inp.u, penalty=inp.penalty,
                                             lam=inp.lam)
        out = Outcome(0, [], [])
        for method in GROUP_METHODS:
            report, certs = _solve_and_certify(rs, problem, self.config, method,
                                               None, inp.probe_seed)
            out.add(report, certs)
        return out

    def check(self, inp: GroupInputs, out: Outcome) -> Verdict:
        A = inp.A if inp.A is not None else inp.X.T @ inp.X
        ref = reference.group_solution(A, inp.b, inp.lam, self.group_size,
                                       inp.alpha)
        return self._verdict(out, max(deviation(beta, ref)
                                      for beta in out.solutions))


# ---------------------------------------------------------------------------
# lqa-newton: the LQA baseline with lasso and SCAD at p = 200 and p = 400
# ---------------------------------------------------------------------------

@dataclass
class LqaProblem:
    X: np.ndarray
    y: np.ndarray
    u: Any
    lam: float


@dataclass
class LqaInputs:
    problems: list[LqaProblem]
    penalty: Any
    scad_a: Any
    probe_seed: int


class LqaNewton(Workload):
    name = "lqa-newton"
    tag = 3
    round_size = 2
    threshold = 1e-5
    # 0.25*lambda_max converges in tens of iterations on this data; at
    # 0.1*lambda_max LQA runs into max_iter instead (see README.md)
    lambda_fraction = 0.25

    def __init__(self, rs, size, workdir):
        super().__init__(rs, size, workdir)
        self.n, self.sizes = (1000, (200, 400)) if size == "full" else (400, (20, 40))
        self.min_tasks = 24 if size == "full" else 2
        self.config = rs.SolverConfig(tol=TOL, max_iter=1000)

    def describe(self) -> str:
        return (f"least squares n={self.n}, p in {self.sizes} (5 true "
                f"nonzeros, noise 0.05, X scaled by 1/sqrt(n)), lambda = "
                f"{self.lambda_fraction}*lambda_max, tol {TOL:g}, max_iter "
                f"{self.config.max_iter}; one task = one LQA solve at each p, "
                f"lasso and SCAD(a=3.7) in turn, plus the three certificates "
                f"for lasso")

    def make_inputs(self, seed, i):
        rng = self.rng(seed, i)
        problems = []
        for p in self.sizes:
            X = rng.standard_normal((self.n, p)) / math.sqrt(self.n)
            y = X @ _sparse_truth(rng, p, 5) + 0.05 * rng.standard_normal(self.n)
            lam = self.lambda_fraction * float(np.abs(X.T @ y).max())
            problems.append(LqaProblem(X, y, self.rs.LeastSquaresEstimating(X, y), lam))
        if i % 2 == 0:
            penalty, scad_a = self.rs.Lasso(), None
        else:
            penalty, scad_a = self.rs.Scad(a=3.7), 3.7
        return LqaInputs(problems, penalty, scad_a, i)

    def run(self, inp: LqaInputs) -> Outcome:
        rs = self.rs
        out = Outcome(0, [], [])
        for prob in inp.problems:
            problem = rs.model.EstimatingProblem(u=prob.u, penalty=inp.penalty,
                                                 lam=prob.lam)
            if inp.scad_a is None:  # SCAD has no prox, KKT split or VI form
                tau = 1.0 / rs.estimating.lipschitz_upper_bound(prob.u)
                report, certs = _solve_and_certify(
                    rs, problem, self.config, "lqa-newton", tau, inp.probe_seed)
            else:
                report = rs.solvers.run_solver(problem, self.config,
                                               np.zeros(prob.u.dim), "lqa-newton")
                certs = {}
            out.add(report, {f"p{prob.u.dim}.{k}": v for k, v in certs.items()})
        return out

    def check(self, inp: LqaInputs, out: Outcome) -> Verdict:
        worst = max(
            deviation(beta, reference.penalized_least_squares(
                prob.X, prob.y, prob.lam, inp.scad_a))
            for prob, beta in zip(inp.problems, out.solutions))
        return self._verdict(out, worst)


WORKLOADS = {w.name: w for w in (LassoPath, GroupSolve, LqaNewton)}
