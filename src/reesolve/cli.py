"""Command-line front end: solve, path, check, bench.

File conventions: design matrices and response vectors are headerless CSV of
reals; problems (estimating function + penalty + lambda + config defaults)
are a single JSON document with a schema_version field; group indices are
1-based in files and converted to 0-based in memory; reports are JSON with
every number round-trippable (non-finite values are serialized as the
strings "inf"/"-inf"/"nan") and written compact, without indentation;
summary tables are CSV with numbers printed to 17 significant digits.

Exit codes: 0 success, 1 numerical or certificate failure, 2 usage/input
error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import sys
import time
from dataclasses import asdict, fields, replace
from itertools import product
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (
    check_radius,
    fixed_point_residual,
    kkt_residual,
    vi_gap,
    vi_probe,  # unused here; perfbench/tracing.py wraps cli.vi_probe
)
from .estimating import (
    EstimatingFunction,
    LeastSquaresEstimating,
    LinearEstimating,
    LogisticEstimating,
    lipschitz_upper_bound,
)
from .model import (
    BallConstraint,
    BallIndicator,
    ElasticNet,
    EstimatingProblem,
    GroupLasso,
    GroupPartition,
    Lasso,
    PenaltySpec,
    ReesolveError,
    Ridge,
    Scad,
    SolverConfig,
    SolverReport,
    SolverStatus,
    SparseGroupLasso,
    UnsupportedPenaltyError,
    ValidationError,
    as_coefficients,
)
from .solvers import (
    DEFAULT_METHOD,
    SOLVER_NAMES,
    lambda_max,
    run_solver,
    solve_path,
)

SCHEMA_VERSION = 1

CONFIG_KEYS = tuple(f.name for f in fields(SolverConfig))
METHOD_CHOICES = SOLVER_NAMES + ("lqa",)
# statuses that make solve and path exit 1
_FAILED = (SolverStatus.DIVERGED, SolverStatus.NUMERICAL_FAILURE)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _sanitize(obj):
    """Make a report JSON-safe: arrays to lists, non-finite floats to
    portable string sentinels. ``json`` writes the rest itself (np.float64
    is a float, and a str enum is written as its value)."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _json_floats(values) -> list:
    """A float column as a JSON-ready list: one ``np.isfinite`` test and one
    ``tolist()``. Only a column holding a non-finite value (or None, as
    ``theta`` does outside gra-adaptive) goes through :func:`_sanitize`."""
    column = np.asarray(values, dtype=float)
    if np.isfinite(column).all():
        return column.tolist()
    return _sanitize(list(values))


def _load_matrix(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _load_vector(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",").ravel()


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_groups(text: str) -> list[list[int]]:
    """Parse "1,2;3,4" into 1-based index groups."""
    groups = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if chunk:
            groups.append([int(tok) for tok in chunk.split(",") if tok.strip()])
    return groups


def _groups_to_internal(groups: list[list[int]]) -> list[list[int]]:
    for g in groups:
        if any(i < 1 for i in g):
            raise ValidationError(
                "group indices in files/flags are 1-based; got an index < 1")
    return [[i - 1 for i in g] for g in groups]


def _number(block: dict, key: str, default=None):
    """``block[key]``, or ``default`` when absent, refusing a JSON boolean:
    float() and int() would read true as 1."""
    value = block.get(key, default)
    if isinstance(value, bool):
        raise ValidationError(
            f"'{key}' must be a number, got {json.dumps(value)}")
    return value


def _penalty_from_doc(doc: dict) -> PenaltySpec:
    kind = doc.get("kind")
    if kind is None:
        raise ValidationError("penalty document is missing the 'kind' field")
    kind = str(kind).replace("-", "_")
    if kind == "ridge":
        return Ridge()
    if kind == "lasso":
        return Lasso()
    if kind == "elastic_net":
        return ElasticNet(ratio=float(_number(doc, "ratio", 1.0)))
    if kind in ("group_lasso", "sparse_group_lasso"):
        if "groups" not in doc:
            raise ValidationError(f"penalty '{kind}' needs a 'groups' field")
        part = GroupPartition(_groups_to_internal(doc["groups"]),
                              weights=doc.get("weights"))
        if kind == "group_lasso":
            return GroupLasso(part)
        return SparseGroupLasso(part, alpha=float(_number(doc, "alpha", 0.5)))
    if kind == "ball":
        norm = str(doc.get("norm", "l2"))
        if norm == "box":
            ball = BallConstraint(norm="box",
                                  lower=np.asarray(doc["lower"], dtype=float),
                                  upper=np.asarray(doc["upper"], dtype=float))
        else:
            ball = BallConstraint(norm=norm,
                                  radius=float(_number(doc, "radius", 1.0)))
        return BallIndicator(ball)
    if kind == "scad":
        return Scad(a=float(_number(doc, "a", 3.7)))
    raise ValidationError(f"unknown penalty kind '{kind}'")


def _estimating_from_doc(doc: dict, base: Path) -> EstimatingFunction:
    kind = str(doc.get("type", "least_squares")).replace("-", "_")
    declared = _number(doc, "lipschitz")
    if declared is not None:
        declared = float(declared)
    if kind in ("least_squares", "logistic"):
        for field in ("design", "response"):
            if field not in doc:
                raise ValidationError(f"estimating '{kind}' needs a '{field}' file")
        X = _load_matrix(str(base / doc["design"]))
        y = _load_vector(str(base / doc["response"]))
        if kind == "least_squares":
            return LeastSquaresEstimating(X, y, lipschitz=declared)
        return LogisticEstimating(X, y, lipschitz=declared)
    if kind == "linear":
        for field in ("matrix", "offset"):
            if field not in doc:
                raise ValidationError(f"estimating 'linear' needs a '{field}' file")
        A = _load_matrix(str(base / doc["matrix"]))
        b = _load_vector(str(base / doc["offset"]))
        return LinearEstimating(A, b, lipschitz=declared)
    raise ValidationError(f"unknown estimating type '{kind}'")


# flag dest -> (document block, key, parser of the flag's text). A flag left
# unset (None or "") keeps the document's value. Rows run in this order, so
# new keys enter a report's problem block in a fixed order.
_FLAG_FIELDS = (
    ("response", "estimating", "response", None),
    ("offset", "estimating", "offset", None),
    ("family", "estimating", "type", lambda text: text.replace("-", "_")),
    ("lipschitz", "estimating", "lipschitz", None),
    ("penalty", "penalty", "kind", None),
    ("groups", "penalty", "groups", _parse_groups),
    ("group_weights", "penalty", "weights", _parse_float_list),
    ("alpha", "penalty", "alpha", None),
    ("enet_ratio", "penalty", "ratio", None),
    ("ball_norm", "penalty", "norm", None),
    ("radius", "penalty", "radius", None),
    ("lower", "penalty", "lower", _parse_float_list),
    ("upper", "penalty", "upper", _parse_float_list),
    ("scad_a", "penalty", "a", None),
)


def _merge_problem_doc(args) -> tuple[dict, Path]:
    """Combine a --problem JSON document with flag overrides."""
    doc: dict = {"schema_version": SCHEMA_VERSION}
    base = Path(".")
    if getattr(args, "problem", None):
        path = Path(args.problem)
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValidationError(
                f"problem file {path} must hold a JSON object, "
                f"not {type(doc).__name__}")
        if "schema_version" not in doc:
            raise ValidationError(
                f"problem file {path} is missing 'schema_version'")
        base = path.parent
    blocks = {block: dict(doc.get(block, {}))
              for block in ("estimating", "penalty")}
    doc.update(blocks)
    est = blocks["estimating"]
    if getattr(args, "design", None):
        est.update(type=est.get("type", "least_squares"), design=args.design)
        base = Path(".")
    if getattr(args, "matrix", None):
        est.update(type="linear", matrix=args.matrix)
    for dest, block, key, parse in _FLAG_FIELDS:
        value = getattr(args, dest, None)
        if value is not None and value != "":
            blocks[block][key] = parse(value) if parse else value
    if getattr(args, "lam", None) is not None:
        doc["lambda"] = args.lam
    return doc, base


def _build_problem(args) -> tuple[EstimatingProblem, dict]:
    doc, base = _merge_problem_doc(args)
    if not doc["penalty"].get("kind"):
        raise ValidationError("no penalty given (use --penalty or a problem file)")
    u = _estimating_from_doc(doc.get("estimating", {}), base)
    penalty = _penalty_from_doc(doc["penalty"])
    lam = float(_number(doc, "lambda", 0.0))
    problem = EstimatingProblem(u=u, penalty=penalty, lam=lam)
    return problem, doc


def _config_from_args(args, doc: dict) -> SolverConfig:
    # reports never hold the iterate matrix, so keep it only on request
    values = {"record_iterates": False, **doc.get("config", {})}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for f in fields(SolverConfig):
        if not isinstance(f.default, bool):
            _number(values, f.name)
    if "max_iter" in values:
        max_iter = values["max_iter"]
        if isinstance(max_iter, float) and not math.isfinite(max_iter):
            raise ValidationError(f"max_iter must be finite, got {max_iter}")
        values["max_iter"] = int(max_iter)
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")
    return SolverConfig(**values)


def _initial_point(args, dim: int) -> np.ndarray:
    if getattr(args, "init", None):
        return as_coefficients(_load_vector(args.init), dim)
    return np.zeros(dim)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _if_supported(certificate, *inputs):
    """Run one certificate; None when the penalty lacks what it needs
    (nonconvex penalties have no prox; only the LQA baseline handles them)."""
    try:
        return certificate(*inputs)
    except UnsupportedPenaltyError:
        return None


def _certificates(problem: EstimatingProblem, beta: np.ndarray, tau: float,
                  radius: float, vi_tol: Optional[float] = None) -> dict:
    """The three certificate blocks at ``beta``. The VI block is the exact
    gap over the ball of ``radius``, its verdict taken at ``vi_tol`` (None:
    the tolerance derived at step ``tau``). A block is None where it does
    not apply: the penalty does not support it, or a non-finite ``beta``
    (a diverged run), which no certificate can value."""
    fp = kkt = vi = None
    if np.isfinite(beta).all():
        fp = _if_supported(fixed_point_residual, problem, beta, tau)
        kkt = _if_supported(kkt_residual, problem, beta)
        vi = _if_supported(vi_gap, problem, beta, radius, vi_tol, tau)
    return {
        "fixed_point": None if fp is None else {"tau": tau, "residual": fp},
        "kkt": None if kkt is None else {"max_residual": kkt.max_residual},
        "vi_gap": None if vi is None else {
            "radius": vi.radius, "value": vi.value, "lower": vi.lower,
            "tol": vi.tol, "passed": vi.passed,
        },
    }


def _certificates_text(certs: dict) -> str:
    fp, kkt, vi = certs["fixed_point"], certs["kkt"], certs["vi_gap"]
    return "\n".join([
        "fixed-point residual: not applicable" if fp is None else
        f"fixed-point residual (tau={_fmt(fp['tau'])}): {_fmt(fp['residual'])}",
        "kkt residual: not applicable" if kkt is None else
        f"kkt residual (max): {_fmt(kkt['max_residual'])}",
        "vi gap: not applicable" if vi is None else
        f"vi gap: {'pass' if vi['passed'] else 'FAIL'} "
        f"(radius={_fmt(vi['radius'])}, value={_fmt(vi['value'])}, "
        f"lower={'none' if vi['lower'] is None else _fmt(vi['lower'])}, "
        f"tol={_fmt(vi['tol'])})",
    ])


def _certificate_tau(problem: EstimatingProblem,
                     report: SolverReport) -> float:
    if report.stepsize is not None:
        return report.stepsize
    L = lipschitz_upper_bound(problem.u)
    return 1.0 / L if L else 1.0


def _write_report(path: Path, problem: EstimatingProblem, report: SolverReport,
                  doc: dict, args) -> dict:
    """Certify ``report.solution``, write the JSON report to ``path`` and
    return the certificate blocks. One compact ``json.dumps`` runs in C;
    ``allow_nan=False`` guards the sentinel rule."""
    tau = _certificate_tau(problem, report)
    certs = _certificates(problem, report.solution, tau, args.vi_radius)
    trace = report.trace
    text = json.dumps({
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "status": report.status.value,
        "iterations": report.iterations,
        "initial_residual": _sanitize(report.initial_residual),
        "stepsize": _sanitize(report.stepsize),
        "flags": list(report.flags),
        "solution": _json_floats(report.solution),
        "config": _sanitize(asdict(report.config)),
        "trace": {
            "k": list(range(1, report.iterations + 1)),
            "fp_residual": _json_floats([rec.fp_residual for rec in trace]),
            "step": _json_floats([rec.step for rec in trace]),
            "theta": _json_floats([rec.theta for rec in trace]),
        },
        "certificates": _sanitize(certs),
        "problem": _sanitize(doc),
    }, allow_nan=False, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)
    return certs


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    problem, doc = _build_problem(args)
    config = _config_from_args(args, doc)
    init = _initial_point(args, problem.u.dim)
    check_radius(args.vi_radius)
    report = run_solver(problem, config, init, args.method)
    out = Path(args.out)
    certs = _write_report(out, problem, report, doc, args)
    print(f"method: {report.method}")
    print(f"status: {report.status.value} (iterations={report.iterations})")
    for flag in report.flags:
        print(f"flag: {flag}")
    print(_certificates_text(certs))
    print(f"report written to {out}")
    return 1 if report.status in _FAILED else 0


# ---------------------------------------------------------------------------
# path
# ---------------------------------------------------------------------------

def cmd_path(args) -> int:
    problem, doc = _build_problem(args)
    config = _config_from_args(args, doc)
    init = _initial_point(args, problem.u.dim)
    if args.lambdas:
        lams = _parse_float_list(args.lambdas)
    elif args.auto_grid is not None:
        if args.auto_grid < 1:
            raise ValidationError(
                f"--auto-grid must be >= 1, got {args.auto_grid}")
        lmax = lambda_max(problem.u)
        if lmax <= 0.0:
            raise ValidationError("auto grid needs U(0) != 0")
        lams = list(np.geomspace(lmax, lmax / 100.0, args.auto_grid))
    else:
        raise ValidationError("give --lambdas or --auto-grid")
    check_radius(args.vi_radius)
    entries = solve_path(problem, lams, config, method=args.method,
                         init=init, warm_start=not args.cold)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    coef_rows = []
    for i, entry in enumerate(entries):
        report = entry.report
        sub = replace(problem, lam=entry.lam)
        certs = _write_report(out_dir / f"report_{i:03d}.json", sub, report,
                              {**doc, "lambda": entry.lam}, args)
        kkt = certs["kkt"]
        kkt_text = "" if kkt is None else _fmt(kkt["max_residual"])
        summary_rows.append(
            f"{_fmt(entry.lam)},{entry.nonzeros},{report.iterations},"
            f"{kkt_text},{report.status.value}")
        coef_rows.append(
            ",".join([_fmt(entry.lam)] + [_fmt(v) for v in report.solution]))

    summary = out_dir / "path_summary.csv"
    with open(summary, "w") as fh:
        fh.write("lambda,nonzeros,iterations,max_kkt_residual,status\n")
        fh.write("\n".join(summary_rows) + "\n")
    p = problem.u.dim
    with open(out_dir / "path_coefficients.csv", "w") as fh:
        fh.write(",".join(["lambda"] + [f"beta_{j+1}" for j in range(p)]) + "\n")
        fh.write("\n".join(coef_rows) + "\n")
    failed = sum(e.report.status in _FAILED for e in entries)
    print(f"{len(entries) - failed} of {len(entries)} lambdas solved; "
          f"summary in {summary}")
    total_iter = sum(e.report.iterations for e in entries)
    print(f"total iterations: {total_iter}")
    if failed:
        print(f"FAILED: {failed} lambdas ended diverged or numerical_failure")
        return 1
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _stored_block(parent: dict, key: str) -> dict:
    """A report block; one stored as null (certificate not applicable) or
    left out reads as empty."""
    block = parent.get(key)
    if block is not None and not isinstance(block, dict):
        raise ValidationError(f"report field '{key}' must be a JSON object or "
                              f"null, not {type(block).__name__}")
    return block or {}


def cmd_check(args) -> int:
    problem, _ = _build_problem(args)
    if args.report:
        with open(args.report) as fh:
            rep = json.load(fh)
        beta = as_coefficients(rep["solution"], problem.u.dim)
        stored = _stored_block(rep, "certificates")
        fp_stored = _stored_block(stored, "fixed_point")
        # an explicit --tau wins, as --kkt-tol does
        tau = float(_number(fp_stored, "tau", 1.0) if args.tau is None
                    else args.tau)
        # a report written before the exact VI gap holds a sampled
        # vi_probe block instead; the gap is taken at its radius
        vi_stored = _stored_block(
            stored, "vi_probe" if "vi_probe" in stored else "vi_gap")
        radius = float(_number(vi_stored, "radius", args.vi_radius))
        lam = _number(_stored_block(rep, "problem"), "lambda")
        if lam is not None and getattr(args, "lam", None) is None:
            problem = replace(problem, lam=float(lam))
    elif args.beta:
        beta = as_coefficients(_load_vector(args.beta), problem.u.dim)
        tau = args.tau if args.tau is not None else 1.0
        radius = args.vi_radius
    else:
        raise ValidationError("give --report or --beta")

    check_radius(radius)
    certs = _certificates(problem, beta, tau, radius, args.vi_tol)
    print(_certificates_text(certs))

    failures = []
    fp, kkt, vi = certs["fixed_point"], certs["kkt"], certs["vi_gap"]
    if fp is not None and fp["residual"] > args.fp_tol:
        failures.append(("fixed-point", fp["residual"]))
    if kkt is not None:
        kkt_tol = args.fp_tol / tau if args.kkt_tol is None else args.kkt_tol
        if kkt["max_residual"] > kkt_tol:
            failures.append(("kkt", kkt["max_residual"]))
    if vi is not None and not vi["passed"]:
        failures.append(("vi-gap", vi["value"]))
    if failures:
        name, value = max(failures, key=lambda f: abs(f[1]))
        print(f"FAILED: worst violation in {name} certificate ({_fmt(value)})")
        return 1
    print("all certificates pass")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _bench_cell(cell: dict) -> dict:
    p, n, seed = cell["p"], cell["n"], cell["seed"]
    rng = np.random.default_rng([seed, p, n])
    X = rng.standard_normal((n, p))
    k = max(1, int(round(_number(cell, "density", 0.1) * p)))
    beta_star = np.zeros(p)
    support = rng.choice(p, size=k, replace=False)
    beta_star[support] = rng.uniform(1.0, 2.0, size=k) * rng.choice([-1.0, 1.0], size=k)
    y = X @ beta_star + _number(cell, "noise", 0.1) * rng.standard_normal(n)
    u = LeastSquaresEstimating(X, y)
    # group penalties use contiguous groups of 5 (1-based, as in files)
    groups = [list(range(i + 1, min(i + 6, p + 1))) for i in range(0, p, 5)]
    penalty = _penalty_from_doc({"kind": cell["penalty"], "groups": groups})
    if "lambda" in cell:
        lam = float(_number(cell, "lambda"))
    else:
        lam = float(_number(cell, "lambda_rel", 0.25)) * lambda_max(u)
    config = SolverConfig(tol=_number(cell, "tol", 1e-6),
                          max_iter=int(_number(cell, "max_iter", 5000)),
                          epsilon_lqa=_number(cell, "epsilon_lqa", 1e-8),
                          record_iterates=False)
    init = np.zeros(p)
    method = cell["solver"]

    best_wall = math.inf
    report = None
    error = None
    try:
        # an invalid lambda is a failed cell, as a failed solve is
        problem = EstimatingProblem(u=u, penalty=penalty, lam=lam)
        for _ in range(int(cell.get("repeats", 1))):
            start = time.perf_counter()
            report = run_solver(problem, config, init.copy(), method)
            best_wall = min(best_wall, time.perf_counter() - start)
    except (ReesolveError, np.linalg.LinAlgError) as exc:
        error = exc

    row = {"p": p, "n": n, "penalty": cell["penalty"], "solver": method,
           "seed": seed, "lambda": lam}
    if error is not None or report is None:
        row.update(status=f"error:{type(error).__name__}", iterations=0,
                   wall_seconds="", per_iteration_seconds="",
                   final_residual="", flags="")
        return row
    row.update(
        status=report.status.value,
        iterations=report.iterations,
        wall_seconds=best_wall,
        per_iteration_seconds=best_wall / max(report.iterations, 1),
        final_residual=report.residuals()[-1],
        flags=";".join(report.flags),
    )
    return row


def _openblas_threads():
    """The set and get thread-count functions of the OpenBLAS that numpy's
    linear algebra links (numpy wheels bundle a scipy-openblas build), or
    None when that BLAS exports neither name."""
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            try:
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            set_threads.restype, set_threads.argtypes = None, [ctypes.c_int]
            get_threads.restype, get_threads.argtypes = ctypes.c_int, []
            return set_threads, get_threads
    return None


def bench_rows(manifest: dict) -> list[dict]:
    """Expand a benchmark manifest into its cell matrix and run every cell.

    Cells run one after another, with numpy's OpenBLAS set to one thread
    and set back to its previous count afterwards. Each row's
    ``blas_pinned`` is true only when the library reads back one thread;
    with another BLAS it is false, and the thread count is set in the
    environment before the run instead.
    """
    def listify(v):
        return v if isinstance(v, list) else [v]

    cells = []
    for p, pen, solver, seed in product(
            listify(manifest.get("p", 100)),
            listify(manifest.get("penalty", "lasso")),
            listify(manifest.get("solver", "picard")),
            listify(manifest.get("seed", 0))):
        cell = {k: v for k, v in manifest.items()
                if k not in ("p", "penalty", "solver", "seed", "schema_version")}
        cell.update(p=int(p), n=int(_number(manifest, "n", 100)),
                    penalty=pen, solver=solver, seed=int(seed))
        cells.append(cell)

    def run_cells(pinned: bool) -> list[dict]:
        return [dict(_bench_cell(cell), blas_pinned=pinned) for cell in cells]

    blas = _openblas_threads()
    if blas is None:
        return run_cells(False)
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(1)
    try:
        return run_cells(get_threads() == 1)
    finally:
        set_threads(before)


BENCH_COLUMNS = ("p", "n", "penalty", "solver", "seed", "lambda", "status",
                 "iterations", "wall_seconds", "per_iteration_seconds",
                 "final_residual", "flags", "blas_pinned")


def cmd_bench(args) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    if "schema_version" not in manifest:
        raise ValidationError(
            f"manifest {args.manifest} is missing 'schema_version'")
    if int(_number(manifest, "repeats", 1)) < 1:
        raise ValidationError(
            f"manifest field 'repeats' must be >= 1, got {manifest['repeats']}")
    rows = bench_rows(manifest)
    with open(args.out, "w") as fh:
        fh.write(",".join(BENCH_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in BENCH_COLUMNS:
                val = row[col]
                cells.append(_fmt(val) if isinstance(val, float) else str(val))
            fh.write(",".join(cells) + "\n")
    print(f"{len(rows)} cells written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_problem_args(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("problem")
    g.add_argument("--problem", help="problem JSON document")
    g.add_argument("--design", help="design matrix CSV (least squares / logistic)")
    g.add_argument("--response", help="response vector CSV")
    g.add_argument("--family", choices=["least-squares", "logistic"],
                   help="data model for --design/--response")
    g.add_argument("--matrix", help="square matrix CSV for a general linear U")
    g.add_argument("--offset", help="offset vector CSV for a general linear U")
    g.add_argument("--penalty",
                   choices=["ridge", "lasso", "elastic-net", "group-lasso",
                            "sparse-group-lasso", "ball", "scad"])
    g.add_argument("--lambda", dest="lam", type=float, help="regularization strength")
    g.add_argument("--groups", help="1-based groups, e.g. '1,2;3,4'")
    g.add_argument("--group-weights", help="comma-separated group weights")
    g.add_argument("--alpha", type=float, help="sparse group lasso mix in [0,1]")
    g.add_argument("--enet-ratio", type=float, help="elastic net quadratic ratio")
    g.add_argument("--ball-norm", choices=["l1", "l2", "box"])
    g.add_argument("--radius", type=float, help="ball radius")
    g.add_argument("--lower",
                   help="box lower bounds, comma-separated "
                        "(use --lower=-1,-1 for negative values)")
    g.add_argument("--upper", help="box upper bounds, comma-separated")
    g.add_argument("--scad-a", type=float, help="SCAD shape parameter (> 2)")
    g.add_argument("--lipschitz", type=float,
                   help="declared Lipschitz constant of U (any U type)")


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("solver configuration")
    g.add_argument("--tau", type=float, help="picard/km/aa/gra-fixed step")
    g.add_argument("--rho", type=float)
    g.add_argument("--t-bar", dest="t_bar", type=float)
    g.add_argument("--psi", type=float)
    g.add_argument("--epsilon-lqa", dest="epsilon_lqa", type=float)
    g.add_argument("--zero-threshold", dest="zero_threshold", type=float)
    g.add_argument("--max-iter", dest="max_iter", type=int)
    g.add_argument("--tol", type=float)


def _add_vi_args(sub: argparse.ArgumentParser) -> None:
    g = sub.add_argument_group("certificates")
    g.add_argument("--vi-radius", dest="vi_radius", type=float, default=1.0,
                   help="radius of the ball around the solution that the "
                        "VI gap certificate covers")


def _add_solve_args(sub: argparse.ArgumentParser) -> None:
    """Arguments shared by solve and path."""
    _add_problem_args(sub)
    _add_config_args(sub)
    _add_vi_args(sub)
    sub.add_argument("--method", default=DEFAULT_METHOD, choices=METHOD_CHOICES)
    sub.add_argument("--init", help="initial point CSV (default: zeros)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reesolve",
        description="Solve and certify regularized estimating equations.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("solve", help="run one solver on one problem")
    _add_solve_args(sp)
    sp.add_argument("--out", default="report.json", help="report JSON path")
    sp.set_defaults(func=cmd_solve)

    pp = subs.add_parser("path", help="solve over a decreasing lambda grid")
    _add_solve_args(pp)
    pp.add_argument("--lambdas", help="comma-separated decreasing grid")
    pp.add_argument("--auto-grid", dest="auto_grid", type=int,
                    help="log-spaced grid size from lambda_max down two decades")
    pp.add_argument("--cold", action="store_true",
                    help="cold-start every lambda (default: warm start)")
    pp.add_argument("--out-dir", dest="out_dir", default="path_out")
    pp.set_defaults(func=cmd_path)

    cp = subs.add_parser("check", help="re-certify a candidate solution")
    _add_problem_args(cp)
    _add_vi_args(cp)
    cp.add_argument("--report", help="report JSON produced by solve")
    cp.add_argument("--beta", help="raw candidate CSV")
    cp.add_argument("--tau", type=float, help="stepsize for the fixed-point check")
    cp.add_argument("--fp-tol", dest="fp_tol", type=float, default=1e-8)
    cp.add_argument("--kkt-tol", dest="kkt_tol", type=float,
                    help="default: fp-tol / tau")
    cp.add_argument("--vi-tol", dest="vi_tol", type=float,
                    help="VI gap passes at value >= -vi-tol; sets the "
                         "printed verdict and the exit code (default: "
                         "derived from the fixed-point step tau)")
    cp.set_defaults(func=cmd_check)

    bp = subs.add_parser("bench", help="run a benchmark matrix")
    bp.add_argument("--manifest", required=True, help="benchmark manifest JSON")
    bp.add_argument("--out", default="bench.csv", help="output CSV")
    bp.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError, KeyError, OverflowError) as exc:
        # ValueError covers the package's typed errors, malformed numbers in
        # CSV/JSON inputs, and json decoding failures; TypeError covers
        # problem documents whose fields have the wrong JSON type;
        # OverflowError covers JSON numbers read as +-inf where a count is
        # needed, or integers too large for a float
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
