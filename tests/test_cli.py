import contextlib
import json
import math
import sys
import types

import numpy as np
import pytest

from helpers import lasso_ls_instance

from reesolve import GOLDEN_RATIO
from reesolve.cli import main


@pytest.fixture()
def lasso_files(tmp_path):
    X, y, u, lam, prob = lasso_ls_instance(seed=100, n=40, p=6)
    xp = tmp_path / "X.csv"
    yp = tmp_path / "y.csv"
    np.savetxt(xp, X, delimiter=",")
    np.savetxt(yp, y, delimiter=",")
    return tmp_path, str(xp), str(yp), lam


def test_solve_end_to_end(lasso_files, capsys):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "report.json"
    code = main(["solve", "--method", "gra-adaptive", "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tol", "1e-10", "--max-iter", "200000",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "status: converged" in text
    assert "fixed-point residual" in text
    assert "kkt residual (max)" in text
    assert "vi probe: pass" in text
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["status"] == "converged"
    assert len(report["solution"]) == 6
    assert len(report["trace"]["k"]) == report["iterations"]
    # config echo keeps every knob, seeds included
    for key in ("tau", "rho", "psi", "t_bar", "epsilon_lqa", "zero_threshold"):
        assert key in report["config"]
    assert report["certificates"]["vi_probe"]["seed"] == 0
    assert report["config"]["record_iterates"] is False


def test_solve_with_problem_json_and_groups(tmp_path, capsys):
    rng = np.random.default_rng(101)
    X = rng.standard_normal((40, 6)) / np.sqrt(40)
    beta_star = np.array([2.0, 1.5, 0.0, 0.0, 1.0, 0.8])
    y = X @ beta_star + 0.05 * rng.standard_normal(40)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    doc = {
        "schema_version": 1,
        "estimating": {"type": "least_squares", "design": "X.csv",
                       "response": "y.csv"},
        "penalty": {"kind": "group_lasso", "groups": [[1, 2], [3, 4], [5, 6]]},
        "lambda": 0.05,
        "config": {"tol": 1e-10, "max_iter": 200000, "record_iterates": True},
    }
    (tmp_path / "problem.json").write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    code = main(["solve", "--problem", str(tmp_path / "problem.json"),
                 "--method", "picard", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["problem"]["penalty"]["groups"] == [[1, 2], [3, 4], [5, 6]]
    assert report["status"] == "converged"
    assert report["config"]["record_iterates"] is True


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--penalty", "lasso", "--lambda", "0.1",
                 "--design", str(tmp_path / "absent.csv"),
                 "--response", str(tmp_path / "absent_y.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "absent" in err


def test_malformed_csv_exits_2(tmp_path, capsys):
    (tmp_path / "X.csv").write_text("1.0,oops\n2.0,3.0\n")
    (tmp_path / "y.csv").write_text("1.0\n2.0\n")
    code = main(["solve", "--penalty", "lasso", "--lambda", "0.1",
                 "--design", str(tmp_path / "X.csv"),
                 "--response", str(tmp_path / "y.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    (tmp_path / "problem.json").write_text("{not json")
    code = main(["solve", "--problem", str(tmp_path / "problem.json")])
    assert code == 2


_GROUP_PENALTY = {"kind": "group_lasso", "groups": [[1, 2], [3, 4], [5, 6]]}


# field None replaces the whole document with value
@pytest.mark.parametrize("field, value", [
    ("penalty", dict(_GROUP_PENALTY, groups=5)),
    ("penalty", dict(_GROUP_PENALTY, groups=[["a"]])),
    ("penalty", dict(_GROUP_PENALTY, weights=3)),
    ("lambda", None),
    ("config", [1]),
    ("config", {"tol": "x"}),
    ("penalty", [1]),
    ("config", {"max_iter": math.inf}),
    (None, ["schema_version"]),
    (None, 1),
    (None, "x"),
    (None, None),
    ("config", {"step": 0.1}),
], ids=["groups-int", "groups-str", "weights-int", "lambda-null",
        "config-list", "config-tol-str", "penalty-list", "max-iter-1e400",
        "top-list", "top-int", "top-str", "top-null", "config-step"])
def test_malformed_problem_document_exits_2(lasso_files, capsys, field, value):
    tmp, xp, yp, lam = lasso_files
    doc = {"schema_version": 1,
           "estimating": {"type": "least_squares", "design": xp,
                          "response": yp},
           "penalty": _GROUP_PENALTY, "lambda": lam, field: value}
    path = tmp / "problem.json"
    # 1e400 is valid JSON that reads back as inf
    path.write_text(json.dumps(value if field is None else doc)
                    .replace("Infinity", "1e400"))
    code = main(["solve", "--problem", str(path),
                 "--out", str(tmp / "report.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_gra_fixed_without_lipschitz_exits_2(tmp_path, capsys):
    # logistic U has no derivable Lipschitz bound unless declared
    rng = np.random.default_rng(102)
    X = rng.standard_normal((30, 3))
    y = (rng.uniform(size=30) < 0.5).astype(float)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    code = main(["solve", "--method", "gra-fixed", "--family", "logistic",
                 "--penalty", "lasso", "--lambda", "0.1",
                 "--design", str(tmp_path / "X.csv"),
                 "--response", str(tmp_path / "y.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Lipschitz" in err or "lipschitz" in err


@pytest.mark.parametrize("method, step", [
    ("picard", 1.0 / 5000.0), ("km", 1.0 / 5000.0),
    ("gra-fixed", GOLDEN_RATIO / 10000.0)])
def test_declared_lipschitz_sets_the_step(lasso_files, capsys, method, step):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "report.json"
    assert main(["solve", "--method", method, "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--lipschitz", "5000", "--max-iter", "10",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["stepsize"] == step
    assert report["certificates"]["fixed_point"]["tau"] == step


@pytest.mark.parametrize("kind", ["least_squares", "linear"])
def test_problem_document_lipschitz_is_honoured(tmp_path, capsys, kind):
    rng = np.random.default_rng(104)
    if kind == "least_squares":
        np.savetxt(tmp_path / "X.csv", rng.standard_normal((20, 4)),
                   delimiter=",")
        np.savetxt(tmp_path / "y.csv", rng.standard_normal(20), delimiter=",")
        est = {"type": kind, "design": "X.csv", "response": "y.csv"}
    else:
        np.savetxt(tmp_path / "A.csv", np.array([[2.0, 1.0], [-1.0, 2.0]]),
                   delimiter=",")
        np.savetxt(tmp_path / "b.csv", np.ones(2), delimiter=",")
        est = {"type": kind, "matrix": "A.csv", "offset": "b.csv"}
    doc = {"schema_version": 1, "estimating": dict(est, lipschitz=50.0),
           "penalty": {"kind": "lasso"}, "lambda": 0.1,
           "config": {"max_iter": 10}}
    (tmp_path / "problem.json").write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["solve", "--problem", str(tmp_path / "problem.json"),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["stepsize"] == 1.0 / 50.0


@pytest.mark.parametrize("declared", ["abc", [1]])
def test_problem_document_lipschitz_must_be_a_number(lasso_files, capsys,
                                                     declared):
    # gra-adaptive never reads L, so only the document check can catch it
    tmp, xp, yp, lam = lasso_files
    doc = {"schema_version": 1,
           "estimating": {"type": "least_squares", "design": xp,
                          "response": yp, "lipschitz": declared},
           "penalty": {"kind": "lasso"}, "lambda": lam}
    (tmp / "problem.json").write_text(json.dumps(doc))
    code = main(["solve", "--problem", str(tmp / "problem.json"),
                 "--method", "gra-adaptive", "--out", str(tmp / "r.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_infinite_lipschitz_exits_2(lasso_files, capsys):
    # tau = 1/inf = 0 would make every start a fixed point
    tmp, xp, yp, lam = lasso_files
    code = main(["solve", "--penalty", "lasso", "--lambda", str(lam),
                 "--design", xp, "--response", yp, "--lipschitz", "inf",
                 "--out", str(tmp / "report.json")])
    assert code == 2
    assert "Lipschitz" in capsys.readouterr().err


def _unscaled_files(tmp_path):
    """A 40 x 8 design left unscaled, so L is about 60 and tau small."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 8))
    y = X @ np.array([2.0, -1.5, 0, 0, 1.0, 0, 0, 0.8])
    y += 0.1 * rng.standard_normal(40)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    lam = 0.2 * float(np.abs(X.T @ y).max())
    return ["--design", str(tmp_path / "X.csv"),
            "--response", str(tmp_path / "y.csv")], lam


@pytest.mark.parametrize("method", ["picard", "km", "gra-fixed",
                                    "gra-adaptive"])
@pytest.mark.parametrize("penalty", ["lasso", "group-lasso",
                                     "sparse-group-lasso"])
def test_solve_then_check_passes_at_default_settings(tmp_path, capsys,
                                                     method, penalty):
    # KKT is about ||f(beta) - beta|| / tau: with tau near 0.01 an absolute
    # KKT tolerance of 1e-8 failed solves that met their own stopping rule
    files, lam = _unscaled_files(tmp_path)
    problem = ["--penalty", penalty] + files
    if penalty != "lasso":
        problem += ["--groups", "1,2;3,4;5,6;7,8"]
    out = tmp_path / "report.json"
    assert main(["solve", "--method", method, "--lambda", str(lam),
                 "--out", str(out)] + problem) == 0
    assert main(["check", "--report", str(out)] + problem) == 0
    assert "all certificates pass" in capsys.readouterr().out


def test_check_default_kkt_tol_still_rejects(tmp_path, capsys):
    files, lam = _unscaled_files(tmp_path)
    problem = ["--penalty", "lasso"] + files
    out = tmp_path / "report.json"
    assert main(["solve", "--lambda", str(lam), "--out", str(out)]
                + problem) == 0
    # an explicit tolerance still wins over the derived one
    assert main(["check", "--report", str(out), "--kkt-tol", "1e-8"]
                + problem) == 1
    report = json.loads(out.read_text())
    report["solution"] = [b + 1e-3 for b in report["solution"]]
    out.write_text(json.dumps(report))
    assert main(["check", "--report", str(out)] + problem) == 1
    assert "FAILED: worst violation" in capsys.readouterr().out


def test_check_round_trip_bit_for_bit(lasso_files, capsys):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "report.json"
    assert main(["solve", "--method", "picard", "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tol", "1e-10", "--max-iter", "200000",
                 "--out", str(out)]) == 0
    solve_text = capsys.readouterr().out
    cert_block = [ln for ln in solve_text.splitlines()
                  if ln.startswith(("fixed-point", "kkt", "vi probe"))]

    code = main(["check", "--report", str(out), "--penalty", "lasso",
                 "--design", xp, "--response", yp])
    check_text = capsys.readouterr().out
    assert code == 0
    check_block = [ln for ln in check_text.splitlines()
                   if ln.startswith(("fixed-point", "kkt", "vi probe"))]
    assert cert_block == check_block
    assert "all certificates pass" in check_text


def test_check_perturbed_beta_exits_1(lasso_files, capsys):
    tmp, xp, yp, lam = lasso_files
    bad = tmp / "beta.csv"
    np.savetxt(bad, np.full(6, 2.5), delimiter=",")
    code = main(["check", "--beta", str(bad), "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tau", "0.5"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAILED: worst violation" in out


def test_check_unpenalized_root(tmp_path, capsys):
    # lam = 0: only the fixed-point and vi certificates apply
    rng = np.random.default_rng(103)
    X = rng.standard_normal((30, 4))
    beta_star = rng.standard_normal(4)
    y = X @ beta_star
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    np.savetxt(tmp_path / "beta.csv", beta_star, delimiter=",")
    code = main(["check", "--beta", str(tmp_path / "beta.csv"),
                 "--penalty", "lasso", "--lambda", "0.0",
                 "--design", str(tmp_path / "X.csv"),
                 "--response", str(tmp_path / "y.csv"),
                 "--tau", "0.01"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kkt residual: not applicable" in out


def test_path_auto_grid_first_row_null(lasso_files):
    tmp, xp, yp, lam = lasso_files
    out_dir = tmp / "path"
    code = main(["path", "--penalty", "lasso", "--design", xp, "--response", yp,
                 "--auto-grid", "8", "--method", "picard",
                 "--tol", "1e-9", "--max-iter", "200000",
                 "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,nonzeros,iterations,max_kkt_residual,status"
    first = rows[1].split(",")
    assert first[1] == "0"  # lambda_max nulls every coordinate
    assert len(rows) == 9
    coefs = (out_dir / "path_coefficients.csv").read_text().strip().splitlines()
    assert len(coefs) == 9
    assert (out_dir / "report_000.json").exists()


def test_path_single_lambda_matches_solve(lasso_files):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "single.json"
    assert main(["solve", "--method", "picard", "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tol", "1e-10", "--out", str(out)]) == 0
    solo = json.loads(out.read_text())

    out_dir = tmp / "path_single"
    assert main(["path", "--penalty", "lasso", "--design", xp, "--response", yp,
                 "--lambdas", str(lam), "--method", "picard", "--tol", "1e-10",
                 "--out-dir", str(out_dir)]) == 0
    entry = json.loads((out_dir / "report_000.json").read_text())
    assert entry["solution"] == solo["solution"]
    assert entry["iterations"] == solo["iterations"]


def test_path_warm_beats_cold(lasso_files):
    tmp, xp, yp, lam = lasso_files

    def total_iters(extra, out_name):
        out_dir = tmp / out_name
        assert main(["path", "--penalty", "lasso", "--design", xp,
                     "--response", yp, "--auto-grid", "12",
                     "--tol", "1e-9", "--max-iter", "200000",
                     "--out-dir", str(out_dir)] + extra) == 0
        rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
        return sum(int(r.split(",")[2]) for r in rows)

    assert total_iters([], "warm") <= total_iters(["--cold"], "cold")


def test_bench_matrix_and_determinism(tmp_path):
    manifest = {
        "schema_version": 1,
        "n": 30,
        "p": [10, 20],
        "penalty": ["lasso"],
        "solver": ["picard", "km", "gra-adaptive", "lqa-newton"],
        "seed": [0],
        "lambda_rel": 0.3,
        "tol": 1e-8,
        "max_iter": 100000,
    }
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps(manifest))
    out1 = tmp_path / "bench1.csv"
    out2 = tmp_path / "bench2.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out1)]) == 0
    assert main(["bench", "--manifest", str(mpath), "--out", str(out2)]) == 0
    rows1 = out1.read_text().strip().splitlines()
    rows2 = out2.read_text().strip().splitlines()
    assert len(rows1) == 1 + 2 * 4  # header + p-grid x solver matrix
    iters1 = [r.split(",")[7] for r in rows1[1:]]
    iters2 = [r.split(",")[7] for r in rows2[1:]]
    assert iters1 == iters2
    assert all(r.split(",")[6] == "converged" for r in rows1[1:])


def test_bench_flags_lqa_with_p_above_n(tmp_path):
    manifest = {
        "schema_version": 1,
        "n": 15,
        "p": 30,
        "penalty": "lasso",
        "solver": "lqa-newton",
        "seed": 0,
        "lambda_rel": 0.5,
        "tol": 1e-6,
        "max_iter": 500,
    }
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1]
    assert "cubic-cost-p-exceeds-n" in row


def _bench_blas_pinned(tmp_path, **extra):
    manifest = {"schema_version": 1, "n": 20, "p": 8, "penalty": "lasso",
                "solver": ["picard", "km"], "seed": 0, "lambda_rel": 0.3,
                "tol": 1e-6, **extra}
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().splitlines()
    col = header.split(",").index("blas_pinned")
    return [r.split(",")[col] for r in rows]


def test_bench_reports_unpinned_blas_without_threadpoolctl(tmp_path, monkeypatch):
    # a None entry makes "from threadpoolctl import ..." raise ImportError
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    assert _bench_blas_pinned(tmp_path) == ["False", "False"]


def test_bench_reports_pinned_blas_only_inside_the_limit(tmp_path, monkeypatch):
    entered = []

    @contextlib.contextmanager
    def threadpool_limits(limits):
        entered.append(limits)
        yield

    fake = types.ModuleType("threadpoolctl")
    fake.threadpool_limits = threadpool_limits
    monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
    assert _bench_blas_pinned(tmp_path) == ["True", "True"]
    assert entered == [1]


def test_solve_box_constrained(lasso_files, capsys):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "box.json"
    code = main(["solve", "--penalty", "ball", "--ball-norm", "box",
                 "--lower=-0.5,-0.5,-0.5,-0.5,-0.5,-0.5",
                 "--upper", "0.5,0.5,0.5,0.5,0.5,0.5",
                 "--design", xp, "--response", yp,
                 "--method", "km", "--tol", "1e-11", "--max-iter", "300000",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "converged"
    sol = np.array(report["solution"])
    assert np.all(sol >= -0.5 - 1e-12) and np.all(sol <= 0.5 + 1e-12)
    assert "vi probe: pass" in capsys.readouterr().out


def test_bench_lqa_slower_than_gra_at_p200(tmp_path):
    # equal tolerance, same seed: the p-cubed inversion dominates the
    # per-evaluation cost of the adaptive scheme at this size
    manifest = {
        "schema_version": 1,
        "n": 50,
        "p": 200,
        "penalty": "lasso",
        "solver": ["lqa-newton", "gra-adaptive"],
        "seed": 0,
        "lambda_rel": 0.25,
        "tol": 1e-6,
        "max_iter": 20000,
        "epsilon_lqa": 1e-9,
    }
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    wall = {r.split(",")[3]: float(r.split(",")[8]) for r in rows}
    status = {r.split(",")[3]: r.split(",")[6] for r in rows}
    assert status == {"lqa-newton": "converged", "gra-adaptive": "converged"}
    assert wall["lqa-newton"] > wall["gra-adaptive"]


def test_path_cold_start(tmp_path, lasso_files):
    tmp, xp, yp, lam = lasso_files
    out_dir = tmp_path / "cold"
    code = main(["path", "--penalty", "lasso", "--design", xp, "--response", yp,
                 "--lambdas", f"{lam},{lam/2}", "--cold",
                 "--tol", "1e-9", "--out-dir", str(out_dir)])
    assert code == 0
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_path_exits_1_when_lambdas_fail(tmp_path, capsys):
    # logistic U declares no Lipschitz bound, so gra-fixed fails on every
    # lambda; solve_path records the failures and the command reports them
    rng = np.random.default_rng(102)
    np.savetxt(tmp_path / "X.csv", rng.standard_normal((30, 3)), delimiter=",")
    np.savetxt(tmp_path / "y.csv", (rng.uniform(size=30) < 0.5).astype(float),
               delimiter=",")
    out_dir = tmp_path / "path"
    code = main(["path", "--method", "gra-fixed", "--family", "logistic",
                 "--penalty", "lasso", "--lambdas", "0.2,0.1",
                 "--design", str(tmp_path / "X.csv"),
                 "--response", str(tmp_path / "y.csv"),
                 "--out-dir", str(out_dir)])
    assert code == 1
    text = capsys.readouterr().out
    assert "0 of 2 lambdas solved" in text
    assert "FAILED: 2 lambdas" in text
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["numerical_failure"] * 2


def test_path_summary_kkt_reuses_certificates(lasso_files):
    # the grid ends at lambda 0, where the certificates skip KKT but the
    # summary column still reports it
    tmp, xp, yp, lam = lasso_files
    out_dir = tmp / "kkt"
    assert main(["path", "--penalty", "lasso", "--design", xp, "--response", yp,
                 "--lambdas", f"{lam},{lam/2},0", "--tol", "1e-10",
                 "--max-iter", "200000", "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
    for i, row in enumerate(rows):
        certs = json.loads(
            (out_dir / f"report_{i:03d}.json").read_text())["certificates"]
        kkt_text = row.split(",")[3]
        if i < 2:
            assert float(kkt_text) == certs["kkt"]["max_residual"]
        else:
            assert certs["kkt"] is None and float(kkt_text) >= 0.0


def test_check_report_with_null_certificates(lasso_files, capsys):
    # SCAD has no prox, KKT split or penalty value: every stored block is null
    tmp, xp, yp, lam = lasso_files
    out = tmp / "scad.json"
    assert main(["solve", "--method", "lqa", "--penalty", "scad",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tol", "1e-10", "--max-iter", "500", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["certificates"].values()) == {None}
    capsys.readouterr()
    code = main(["check", "--report", str(out), "--penalty", "scad",
                 "--design", xp, "--response", yp])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("not applicable") == 3
    assert "Traceback" not in captured.err


def test_csv_numbers_round_trip(lasso_files):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "rt.json"
    assert main(["solve", "--method", "picard", "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tol", "1e-10", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # JSON floats round-trip exactly
    fp = report["certificates"]["fixed_point"]["residual"]
    assert isinstance(fp, float)


def test_solve_divergent_exits_1(tmp_path, capsys):
    A = -np.eye(2)
    np.savetxt(tmp_path / "A.csv", A, delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.zeros(2), delimiter=",")
    init = tmp_path / "init.csv"
    np.savetxt(init, np.ones(2), delimiter=",")
    code = main(["solve", "--matrix", str(tmp_path / "A.csv"),
                 "--offset", str(tmp_path / "b.csv"),
                 "--penalty", "lasso", "--lambda", "0.0",
                 "--tau", "1.0", "--init", str(init),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "diverged" in capsys.readouterr().out
