import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import lasso_ls_instance

from reesolve import GOLDEN_RATIO, cli
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
    assert "vi gap: pass" in text
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["status"] == "converged"
    assert len(report["solution"]) == 6
    assert len(report["trace"]["k"]) == report["iterations"]
    # config echo keeps every knob
    for key in ("tau", "rho", "psi", "t_bar", "epsilon_lqa", "zero_threshold"):
        assert key in report["config"]
    vi = report["certificates"]["vi_gap"]
    assert list(vi) == ["radius", "value", "lower", "tol", "passed"]
    assert vi["radius"] == 1.0 and vi["passed"] is True
    assert vi["lower"] <= vi["value"] <= 0.0 <= vi["tol"]
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
    # float(True) is 1.0; the fixture's X.csv and y.csv sit beside the file
    ("estimating", {"type": "least_squares", "design": "X.csv",
                    "response": "y.csv", "lipschitz": True}),
    # a JSON integer too large for a float
    ("lambda", 10**400),
    # JSON true where a number belongs, which float() and int() read as 1
    ("config", {"tol": True}),
    ("lambda", True),
    ("penalty", {"kind": "ball", "radius": True}),
    ("config", {"max_iter": True}),
    ("config", {"tau": True}),
    ("penalty", {"kind": "elastic_net", "ratio": True}),
    ("penalty", dict(_GROUP_PENALTY, kind="sparse_group_lasso", alpha=True)),
], ids=["groups-int", "groups-str", "weights-int", "lambda-null",
        "config-list", "config-tol-str", "penalty-list", "max-iter-1e400",
        "top-list", "top-int", "top-str", "top-null", "config-step",
        "lipschitz-bool", "lambda-huge-int", "tol-bool", "lambda-bool",
        "radius-bool", "max-iter-bool", "tau-bool", "ratio-bool",
        "alpha-bool"])
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


def _as_old_report(report: dict, radius: float = 1.0) -> dict:
    """``report`` with its VI block as reports held it before the exact VI
    gap: a sampled ``vi_probe`` block with the old default settings."""
    certs = report["certificates"]
    del certs["vi_gap"]
    certs["vi_probe"] = {"samples": 1000, "radius": radius, "seed": 0,
                         "worst": 0.5, "passed": True}
    return report


# the old-radius case plants an old report's vi_probe block
@pytest.mark.parametrize("block, key", [
    (("problem",), "lambda"), (("certificates", "fixed_point"), "tau"),
    (("certificates", "vi_gap"), "radius"),
    (("certificates", "vi_probe"), "radius")],
    ids=["lambda", "tau", "radius", "old-radius"])
def test_check_rejects_a_json_boolean_in_the_report(lasso_files, capsys,
                                                    block, key):
    tmp, xp, yp, lam = lasso_files
    problem = ["--penalty", "lasso", "--design", xp, "--response", yp]
    out = tmp / "report.json"
    assert main(["solve", "--lambda", str(lam), "--out", str(out)]
                + problem) == 0
    report = json.loads(out.read_text())
    if "vi_probe" in block:
        report = _as_old_report(report)
    target = report
    for name in block:
        target = target[name]
    target[key] = True
    out.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["check", "--report", str(out)] + problem) == 2
    assert capsys.readouterr().err == (
        f"error: '{key}' must be a number, got true\n")


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


_GROUPS = ["--groups", "1,2;3,4;5,6;7,8"]
# test id -> the penalty flags; "ball" is the l2 ball
_ROUND_TRIP_PENALTIES = {
    "lasso": ["--penalty", "lasso"],
    "group-lasso": ["--penalty", "group-lasso"] + _GROUPS,
    "sparse-group-lasso": ["--penalty", "sparse-group-lasso"] + _GROUPS,
    "ridge": ["--penalty", "ridge"],
    "elastic-net": ["--penalty", "elastic-net"],
    "ball": ["--penalty", "ball", "--ball-norm", "l2"],
    "l1-ball": ["--penalty", "ball", "--ball-norm", "l1"],
    "box": ["--penalty", "ball", "--ball-norm", "box", "--lower=" + "-1," * 7
            + "-1", "--upper", "1," * 7 + "1"],
}


@pytest.mark.parametrize("method", ["picard", "km", "aa", "gra-fixed",
                                    "gra-adaptive"])
@pytest.mark.parametrize("penalty", list(_ROUND_TRIP_PENALTIES))
def test_solve_then_check_passes_at_default_settings(tmp_path, capsys,
                                                     method, penalty):
    # KKT is about ||f(beta) - beta|| / tau: with tau near 0.01 an absolute
    # KKT tolerance of 1e-8 failed solves that met their own stopping rule
    files, lam = _unscaled_files(tmp_path)
    problem = _ROUND_TRIP_PENALTIES[penalty] + files
    out = tmp_path / "report.json"
    assert main(["solve", "--method", method, "--lambda", str(lam),
                 "--out", str(out)] + problem) == 0
    assert main(["check", "--report", str(out)] + problem) == 0
    assert "all certificates pass" in capsys.readouterr().out


# LQA is left out: on this data its report reads converged, yet check fails
# on KKT (0.81), because a coordinate of 1.5e-8 stays above zero_threshold
@pytest.mark.parametrize("method", ["aa", "picard", "km", "gra-adaptive",
                                    "gra-fixed"])
def test_logistic_solve_then_check_passes(tmp_path, capsys, method):
    rng = np.random.default_rng(107)
    X = rng.standard_normal((60, 6))
    beta_star = np.array([1.5, -1.0, 0.0, 0.0, 0.5, 0.0])
    y = (rng.uniform(size=60) < 1.0 / (1.0 + np.exp(-X @ beta_star)))
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y.astype(float), delimiter=",")
    lipschitz = np.linalg.norm(X, 2) ** 2 / 4.0
    problem = ["--family", "logistic", "--penalty", "lasso",
               "--lipschitz", repr(float(lipschitz)),
               "--design", str(tmp_path / "X.csv"),
               "--response", str(tmp_path / "y.csv")]
    out = tmp_path / "report.json"
    assert main(["solve", "--method", method, "--lambda", "2",
                 "--out", str(out)] + problem) == 0
    assert json.loads(out.read_text())["status"] == "converged"
    assert main(["check", "--report", str(out)] + problem) == 0
    assert "all certificates pass" in capsys.readouterr().out


def test_check_default_kkt_tol_still_rejects(tmp_path, capsys):
    files, lam = _unscaled_files(tmp_path)
    problem = ["--penalty", "lasso"] + files
    out = tmp_path / "report.json"
    # picard's solution misses its KKT conditions by about tol / tau, which
    # the explicit tight --kkt-tol below must catch
    assert main(["solve", "--method", "picard", "--lambda", str(lam),
                 "--out", str(out)] + problem) == 0
    # an explicit tolerance still wins over the derived one
    assert main(["check", "--report", str(out), "--kkt-tol", "1e-8"]
                + problem) == 1
    report = json.loads(out.read_text())
    report["solution"] = [b + 1e-3 for b in report["solution"]]
    out.write_text(json.dumps(report))
    assert main(["check", "--report", str(out)] + problem) == 1
    assert "FAILED: worst violation" in capsys.readouterr().out


def test_check_explicit_tau_wins(tmp_path, capsys):
    files, lam = _unscaled_files(tmp_path)
    problem = ["--penalty", "lasso"] + files
    out = tmp_path / "report.json"
    assert main(["solve", "--lambda", str(lam), "--out", str(out)]
                + problem) == 0
    stored = json.loads(out.read_text())["certificates"]["fixed_point"]["tau"]
    assert stored != 0.5
    capsys.readouterr()
    main(["check", "--report", str(out), "--tau", "0.5"] + problem)
    assert "fixed-point residual (tau=0.5)" in capsys.readouterr().out


def test_check_round_trip_bit_for_bit(lasso_files, capsys):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "report.json"
    assert main(["solve", "--method", "picard", "--penalty", "lasso",
                 "--lambda", str(lam), "--design", xp, "--response", yp,
                 "--tol", "1e-10", "--max-iter", "200000",
                 "--out", str(out)]) == 0
    solve_text = capsys.readouterr().out
    cert_block = [ln for ln in solve_text.splitlines()
                  if ln.startswith(("fixed-point", "kkt", "vi gap"))]

    code = main(["check", "--report", str(out), "--penalty", "lasso",
                 "--design", xp, "--response", yp])
    check_text = capsys.readouterr().out
    assert code == 0
    check_block = [ln for ln in check_text.splitlines()
                   if ln.startswith(("fixed-point", "kkt", "vi gap"))]
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
    # lam = 0: KKT is ||U||_inf, certified beside the fixed point and the VI
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
    assert "kkt residual (max):" in out


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


def _bench_rows(tmp_path, **fields):
    """Run ``bench`` on a small lasso manifest; one dict per CSV row."""
    manifest = {"schema_version": 1, "n": 20, "p": 8, "penalty": "lasso",
                "solver": "picard", "seed": 0, "lambda_rel": 0.3,
                "tol": 1e-6, **fields}
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out)]) == 0
    header, *rows = out.read_text().strip().splitlines()
    return [dict(zip(header.split(","), r.split(","))) for r in rows]


def _bench_blas_pinned(tmp_path):
    return [row["blas_pinned"]
            for row in _bench_rows(tmp_path, solver=["picard", "km"])]


def test_bench_reports_unpinned_blas_without_openblas(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    assert _bench_blas_pinned(tmp_path) == ["False", "False"]


def test_bench_pins_blas_and_restores_the_thread_count(tmp_path, monkeypatch):
    set_threads, get_threads = cli._openblas_threads()
    seen = []

    def cell(c, run=cli._bench_cell):
        seen.append(get_threads())
        return run(c)

    monkeypatch.setattr(cli, "_bench_cell", cell)
    before = get_threads()
    set_threads(2)  # OpenBLAS may cap this at the number of cores
    outside = get_threads()
    try:
        assert _bench_blas_pinned(tmp_path) == ["True", "True"]
        assert seen == [1, 1]
        assert get_threads() == outside
    finally:
        set_threads(before)


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
    assert "vi gap: pass" in capsys.readouterr().out


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


@pytest.mark.parametrize("grid, message", [
    (["--lambdas", ","], "lambda grid is empty"),
    (["--auto-grid", "0"], "--auto-grid must be >= 1"),
], ids=["empty-lambdas", "auto-grid-0"])
def test_path_empty_grid_exits_2(lasso_files, capsys, grid, message):
    tmp, xp, yp, lam = lasso_files
    out_dir = tmp / "empty"
    code = main(["path", "--penalty", "lasso", "--design", xp,
                 "--response", yp, "--out-dir", str(out_dir)] + grid)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("lambdas, bad", [
    ("0.5,-0.1", "-0.1"), ("nan", "nan"), ("inf,0.5", "inf"),
], ids=["negative-after-valid", "nan", "inf"])
def test_path_invalid_lambda_exits_2_before_solving(lasso_files, capsys,
                                                    lambdas, bad):
    tmp, xp, yp, lam = lasso_files
    out_dir = tmp / "invalid"
    code = main(["path", "--penalty", "lasso", "--design", xp,
                 "--response", yp, "--lambdas", lambdas,
                 "--out-dir", str(out_dir)])
    assert code == 2
    assert f"lambda must be finite and >= 0, got {bad}" in capsys.readouterr().err
    assert not out_dir.exists()


# --vi-samples and --seed went with the sampled probe: argparse refuses them
@pytest.mark.parametrize("command", ["solve", "path", "check"])
@pytest.mark.parametrize("probe, message", [
    (["--vi-samples", "0"], "unrecognized arguments: --vi-samples 0"),
    (["--vi-radius", "0"], "radius must be positive"),
    (["--vi-radius", "nan"], "radius must be positive"),
    (["--vi-radius", "inf"], "radius must be positive and finite"),
    (["--seed", "-1"], "unrecognized arguments: --seed -1"),
], ids=["samples-0", "radius-0", "radius-nan", "radius-inf", "seed-negative"])
def test_bad_probe_settings_exit_2_before_solving(lasso_files, capsys,
                                                 monkeypatch, command, probe,
                                                 message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the probe settings")

    monkeypatch.setattr(cli, "run_solver", no_solve)
    monkeypatch.setattr(cli, "solve_path", no_solve)
    tmp, xp, yp, lam = lasso_files
    out = tmp / "out"
    np.savetxt(tmp / "beta.csv", np.zeros(6), delimiter=",")
    target = {
        "solve": ["--lambda", str(lam), "--out", str(out)],
        "path": ["--auto-grid", "5", "--out-dir", str(out)],
        "check": ["--lambda", str(lam), "--beta", str(tmp / "beta.csv")],
    }[command]
    try:
        code = main([command, "--penalty", "lasso", "--design", xp,
                     "--response", yp] + target + probe)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def _strong_signal_files(tmp_path):
    """A 40 x 8 design scaled by 1/sqrt(n) with a large signal, so L is
    about 1.5 and lambda (0.7 of lambda_max) about 4.6.

    Moving a zero coordinate (group) of a solution by delta makes the
    derived VI tolerance about R*delta*(1/tau + ||U's column||) and the VI
    value about -delta*(lambda + |U_j|): the VI gap rejects the move where
    lambda is well above L, as here, and accepts it where lambda is below
    L at R = 1."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((40, 8)) / np.sqrt(40)
    y = X @ np.array([10.0, -8.0, 0, 0, 6.0, 0, 0, 5.0])
    y += 0.1 * rng.standard_normal(40)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    lam = 0.7 * float(np.abs(X.T @ y).max())
    return ["--lambda", repr(lam), "--design", str(tmp_path / "X.csv"),
            "--response", str(tmp_path / "y.csv")]


def _moved_report(tmp_path, penalty, size, strong=True):
    """A converged report whose first zero coordinate (zero group) is moved
    by ``size``; returns its path and the problem flags. ``strong=False``
    solves on :func:`_unscaled_files` instead, where lambda is below L."""
    if strong:
        files = _strong_signal_files(tmp_path)
    else:
        files, lam = _unscaled_files(tmp_path)
        files += ["--lambda", repr(lam)]
    problem = ["--penalty", penalty] + files
    if penalty == "group-lasso":
        problem += _GROUPS
    out = tmp_path / "report.json"
    assert main(["solve", "--out", str(out)] + problem) == 0
    report = json.loads(out.read_text())
    beta = np.array(report["solution"])
    if penalty == "group-lasso":
        group = next(g for g in ([0, 1], [2, 3], [4, 5], [6, 7])
                     if not beta[g].any())
        beta[group] += size / np.sqrt(2.0)
    else:
        beta[np.flatnonzero(beta == 0.0)[0]] += size
    report["solution"] = beta.tolist()
    out.write_text(json.dumps(report))
    return out, problem


@pytest.mark.parametrize("penalty", ["lasso", "group-lasso"])
def test_vi_gap_alone_rejects_a_moved_solution(tmp_path, capsys, penalty):
    out, problem = _moved_report(tmp_path, penalty, 1e-3)
    capsys.readouterr()
    assert main(["check", "--report", str(out)] + problem) == 1
    assert "vi gap: FAIL (" in capsys.readouterr().out
    # with the other certificates' tolerances loosened the VI verdict
    # alone sets the exit code
    assert main(["check", "--report", str(out), "--fp-tol", "1",
                 "--kkt-tol", "1e3"] + problem) == 1
    text = capsys.readouterr().out
    assert "vi gap: FAIL (" in text
    assert "FAILED: worst violation in vi-gap certificate" in text


def test_old_report_is_checked_by_the_vi_gap_at_its_radius(tmp_path,
                                                          capsys):
    # a report written before the exact VI gap holds a sampled vi_probe
    # block; check takes the gap at that block's radius and ignores the
    # stored verdict, so the moved solution fails on the gap alone
    out, problem = _moved_report(tmp_path, "lasso", 1e-3)
    out.write_text(json.dumps(
        _as_old_report(json.loads(out.read_text()), radius=0.5)))
    capsys.readouterr()
    assert main(["check", "--report", str(out), "--fp-tol", "1",
                 "--kkt-tol", "1e3"] + problem) == 1
    text = capsys.readouterr().out
    assert "vi gap: FAIL (radius=0.5, value=" in text
    assert "vi probe" not in text
    assert "FAILED: worst violation in vi-gap certificate" in text


@pytest.mark.parametrize("vi_tol, verdict, code", [
    ("loose", "pass", 0), ("tight", "FAIL", 1),
], ids=["loose", "tight"])
def test_check_vi_verdict_follows_vi_tol(tmp_path, capsys, vi_tol, verdict,
                                         code):
    # an elastic net solution (no KKT split) with a zero coordinate moved by
    # 1e-9 (loose) or 1e-10 (tight) keeps its fixed-point residual below
    # 1e-8. Where lambda is above L (loose) the move fails the derived VI
    # tolerance, where it is below (tight) it passes; an explicit --vi-tol
    # on the other side of the value turns each default verdict round.
    loose = vi_tol == "loose"
    out, problem = _moved_report(tmp_path, "elastic-net",
                                 1e-9 if loose else 1e-10, strong=loose)
    capsys.readouterr()
    assert main(["check", "--report", str(out)] + problem) == 1 - code
    value = float(capsys.readouterr().out.split("value=")[1].split(",")[0])
    assert value < 0.0
    explicit = -2.0 * value if loose else -0.5 * value
    assert main(["check", "--report", str(out), "--vi-tol", repr(explicit)]
                + problem) == code
    text = capsys.readouterr().out
    assert f"vi gap: {verdict} " in text
    assert ("all certificates pass" in text) == (code == 0)


def test_overflowing_probe_prints_fail_without_warnings(lasso_files, capsys):
    # the suite turns warnings into errors, so a numpy overflow warning
    # fails this test; the derived tolerance overflows, which fails
    tmp, xp, yp, lam = lasso_files
    code = main(["solve", "--penalty", "elastic-net", "--lambda", str(lam),
                 "--design", xp, "--response", yp, "--vi-radius", "1e308",
                 "--out", str(tmp / "report.json")])
    assert code == 0
    captured = capsys.readouterr()
    assert "vi gap: FAIL (radius=1e+308, value=" in captured.out
    assert "tol=inf)" in captured.out
    assert captured.err == ""


def test_path_screened_reports_certify_the_full_problem(tmp_path):
    # p > n, so the warm lasso path screens every lambda after the first;
    # each report's certificates and KKT column cover all p coordinates
    from reesolve import (EstimatingProblem, Lasso, LeastSquaresEstimating,
                          fixed_point_residual, kkt_residual)
    rng = np.random.default_rng(103)
    X = rng.standard_normal((20, 50))
    y = X[:, :3] @ np.array([2.0, -1.5, 1.0]) + 0.1 * rng.standard_normal(20)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    out_dir = tmp_path / "path"
    assert main(["path", "--penalty", "lasso", "--auto-grid", "12",
                 "--design", str(tmp_path / "X.csv"),
                 "--response", str(tmp_path / "y.csv"), "--tol", "1e-8",
                 "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
    u = LeastSquaresEstimating(X, y)
    for i, row in enumerate(rows):
        report = json.loads((out_dir / f"report_{i:03d}.json").read_text())
        flags = report["flags"]
        kept = [f for f in flags if f.startswith("screened:")]
        assert kept == ([] if i == 0 else [kept[0]])
        if i:
            assert kept[0].endswith("/50") and int(kept[0][9:-3]) < 50
        assert len(report["solution"]) == 50
        # merged rounds still number their iterations 1..iterations
        n = report["iterations"]
        assert report["trace"]["k"] == list(range(1, n + 1))
        assert all(len(column) == n for column in report["trace"].values())
        fp = report["certificates"]["fixed_point"]
        assert fp["tau"] == report["stepsize"] and fp["residual"] <= 1e-8
        problem = EstimatingProblem(u=u, penalty=Lasso(), lam=float(row.split(",")[0]))
        beta = np.array(report["solution"])
        assert fp["residual"] == fixed_point_residual(problem, beta, fp["tau"])
        assert float(row.split(",")[3]) == kkt_residual(problem, beta).max_residual


def test_path_exits_1_when_lambdas_fail(tmp_path, capsys):
    # U = -beta: picard doubles its point every step, so every lambda ends
    # diverged; the path records each failure and the command reports them
    np.savetxt(tmp_path / "A.csv", -np.eye(2), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.zeros(2), delimiter=",")
    np.savetxt(tmp_path / "init.csv", np.ones(2), delimiter=",")
    out_dir = tmp_path / "path"
    code = main(["path", "--method", "picard", "--tau", "1",
                 "--matrix", str(tmp_path / "A.csv"),
                 "--offset", str(tmp_path / "b.csv"),
                 "--init", str(tmp_path / "init.csv"),
                 "--penalty", "lasso", "--lambdas", "0.2,0.1",
                 "--out-dir", str(out_dir)])
    assert code == 1
    text = capsys.readouterr().out
    assert "0 of 2 lambdas solved" in text
    assert "FAILED: 2 lambdas" in text
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["diverged"] * 2


def test_path_rejects_a_bad_configuration_as_solve_does(tmp_path, capsys):
    # logistic U declares no Lipschitz bound, so gra-fixed cannot run: the
    # path exits 2 with the solve's error and writes nothing
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
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: U has no positive finite "
                                   "Lipschitz bound")
    assert not out_dir.exists()


def test_path_summary_kkt_reuses_certificates(lasso_files):
    # the grid ends at lambda 0, where KKT is ||U||_inf
    tmp, xp, yp, lam = lasso_files
    out_dir = tmp / "kkt"
    assert main(["path", "--penalty", "lasso", "--design", xp, "--response", yp,
                 "--lambdas", f"{lam},{lam/2},0", "--tol", "1e-10",
                 "--max-iter", "200000", "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
    for i, row in enumerate(rows):
        certs = json.loads(
            (out_dir / f"report_{i:03d}.json").read_text())["certificates"]
        assert float(row.split(",")[3]) == certs["kkt"]["max_residual"]


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
    # picard doubles beta every step; aa extrapolates to the root 0
    code = main(["solve", "--method", "picard",
                 "--matrix", str(tmp_path / "A.csv"),
                 "--offset", str(tmp_path / "b.csv"),
                 "--penalty", "lasso", "--lambda", "0.0",
                 "--tau", "1.0", "--init", str(init),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "diverged" in capsys.readouterr().out


def test_diverged_run_whose_u_overflows_at_the_prox_image_exits_1(tmp_path,
                                                                  capsys):
    # picard's first step lands at beta = 1 and the run ends diverged there;
    # U(beta - tau*U(beta)) overflows, which fails the VI gap, not the CLI
    np.savetxt(tmp_path / "A.csv", 1e200 * np.eye(2), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.ones(2), delimiter=",")
    code = main(["solve", "--method", "picard",
                 "--matrix", str(tmp_path / "A.csv"),
                 "--offset", str(tmp_path / "b.csv"),
                 "--penalty", "lasso", "--lambda", "0.0", "--tau", "1.0",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    text = capsys.readouterr().out
    assert "status: diverged" in text
    assert "vi gap: FAIL (" in text and "tol=inf)" in text


@pytest.mark.parametrize("method, scale, offset", [
    ("picard", 1e200, [1.0, 1.0]), ("lqa", 1e-300, [1e300, -1e300]),
], ids=["picard", "lqa"])
def test_overflowing_solve_prints_no_warnings(tmp_path, capsys, method,
                                              scale, offset):
    # the residual norm of the first point overflows; the run ends
    # diverged and numpy prints nothing on stderr (the suite also turns a
    # warning into an error)
    np.savetxt(tmp_path / "A.csv", scale * np.eye(2), delimiter=",")
    np.savetxt(tmp_path / "b.csv", offset, delimiter=",")
    code = main(["solve", "--method", method,
                 "--matrix", str(tmp_path / "A.csv"),
                 "--offset", str(tmp_path / "b.csv"),
                 "--penalty", "lasso", "--lambda", "0", "--tau", "1",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert "status: diverged" in captured.out
    assert captured.err == ""


def _overflowing_lqa(tmp_path):
    """LQA's Newton step overflows on U = 1e-300 * I - 1e10: the run ends
    diverged at [nan, nan]. Every coordinate is heavy (a huge weight next to
    a zero off-diagonal), so the step is Jacobi sweeps, and the first sweep
    multiplies the overflowed -inf step by J, whose zero off-diagonal forms
    0 * inf in both coordinates."""
    np.savetxt(tmp_path / "A.csv", 1e-300 * np.eye(2), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.full(2, 1e10), delimiter=",")
    return ["--matrix", str(tmp_path / "A.csv"),
            "--offset", str(tmp_path / "b.csv"),
            "--penalty", "lasso", "--method", "lqa"]


def test_solve_non_finite_solution_gets_null_certificates(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["solve", "--lambda", "1e-300", "--out", str(out)]
                + _overflowing_lqa(tmp_path))
    assert code == 1
    assert capsys.readouterr().out.count("not applicable") == 3
    report = json.loads(out.read_text())
    assert report["status"] == "diverged"
    assert report["solution"] == ["nan", "nan"]
    assert set(report["certificates"].values()) == {None}


def test_diverged_report_keeps_its_sentinels(tmp_path):
    # the compact report of a run that ends at [nan, nan] is still strict
    # JSON: non-finite numbers are written as sentinel strings
    out = tmp_path / "r.json"
    assert main(["solve", "--lambda", "1e-300", "--out", str(out)]
                + _overflowing_lqa(tmp_path)) == 1
    text = out.read_text()
    assert "\n" not in text and "NaN" not in text and "Infinity" not in text
    report = json.loads(text)
    assert report["status"] == "diverged"
    assert report["solution"] == ["nan", "nan"]
    assert report["trace"]["theta"] == [None] * report["iterations"]


def test_json_floats_uses_sentinels_only_where_needed():
    finite = np.array([1.5, -0.0, 1e-300])
    assert cli._json_floats(finite) == [1.5, -0.0, 1e-300]
    assert cli._json_floats([1.0, math.nan, -math.inf, math.inf]) == [
        1.0, "nan", "-inf", "inf"]
    # theta outside gra-adaptive stays null
    assert cli._json_floats([None, None]) == [None, None]
    assert cli._json_floats([]) == []


def test_overflowing_lqa_prints_no_warning(tmp_path, capsys):
    # the overflow ends the run as diverged; numpy must not also print a
    # RuntimeWarning with a source line on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--lambda", "1e-300",
                     "--out", str(tmp_path / "r.json")]
                    + _overflowing_lqa(tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    assert "status: diverged" in captured.out
    assert captured.err == ""


def test_path_non_finite_solutions_write_every_report(tmp_path, capsys):
    out_dir = tmp_path / "path"
    code = main(["path", "--lambdas", "2e-300,1e-300",
                 "--out-dir", str(out_dir)] + _overflowing_lqa(tmp_path))
    assert code == 1
    assert "FAILED: 2 lambdas" in capsys.readouterr().out
    for i in range(2):
        report = json.loads((out_dir / f"report_{i:03d}.json").read_text())
        assert set(report["certificates"].values()) == {None}
    rows = (out_dir / "path_summary.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[3:] for r in rows] == [["", "diverged"]] * 2
    coefs = (out_dir / "path_coefficients.csv").read_text().strip().splitlines()
    assert [r.split(",")[1:] for r in coefs[1:]] == [["nan", "nan"]] * 2


# patch -> report fields it replaces; a "certificates" dict is merged into
# the stored one, so only the named block changes
@pytest.mark.parametrize("patch", [
    {"certificates": True}, {"certificates": [1]}, {"certificates": "x"},
    {"certificates": {"fixed_point": True}},
    {"certificates": {"fixed_point": [1]}},
    {"certificates": {"fixed_point": "x"}},
    {"certificates": {"vi_probe": True}}, {"certificates": {"vi_probe": [1]}},
    {"certificates": {"vi_probe": "x"}},
    {"certificates": {"vi_gap": True}}, {"certificates": {"vi_gap": [1]}},
    {"certificates": {"vi_gap": "x"}},
    {"problem": True}, {"problem": [1]}, {"problem": "x"},
    {"certificates": {"vi_gap": {"radius": math.inf}}},
    {"certificates": {"vi_probe": {"radius": math.inf}}},
], ids=["certs-true", "certs-list", "certs-str", "fp-true", "fp-list",
        "fp-str", "vi-true", "vi-list", "vi-str", "gap-true", "gap-list",
        "gap-str", "problem-true", "problem-list", "problem-str",
        "radius-1e400", "old-radius-1e400"])
def test_malformed_report_exits_2(lasso_files, capsys, patch):
    tmp, xp, yp, lam = lasso_files
    out = tmp / "report.json"
    problem = ["--penalty", "lasso", "--design", xp, "--response", yp]
    assert main(["solve", "--lambda", str(lam), "--out", str(out)]
                + problem) == 0
    report = json.loads(out.read_text())
    # the vi and old-radius cases patch an old report's vi_probe block
    if "vi_probe" in str(patch):
        report = _as_old_report(report)
    for field, value in patch.items():
        if field == "certificates" and isinstance(value, dict):
            for block, fields in value.items():
                report[field][block] = (dict(report[field][block], **fields)
                                        if isinstance(fields, dict) else fields)
        else:
            report[field] = value
    # 1e400 is valid JSON that reads back as inf
    out.write_text(json.dumps(report).replace("Infinity", "1e400"))
    capsys.readouterr()
    assert main(["check", "--report", str(out)] + problem) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_check_report_with_null_problem_block(lasso_files, capsys):
    # a null block reads as absent, so the lambda comes from the flags
    tmp, xp, yp, lam = lasso_files
    out = tmp / "report.json"
    problem = ["--penalty", "lasso", "--lambda", str(lam),
               "--design", xp, "--response", yp]
    assert main(["solve", "--tol", "1e-10", "--max-iter", "200000",
                 "--out", str(out)] + problem) == 0
    report = json.loads(out.read_text())
    report["problem"] = None
    out.write_text(json.dumps(report))
    assert main(["check", "--report", str(out)] + problem) == 0
    assert "all certificates pass" in capsys.readouterr().out


def test_bench_invalid_lambda_is_an_error_row(tmp_path):
    [row] = _bench_rows(tmp_path, **{"lambda": -1})
    assert row["status"] == "error:ValidationError"
    assert row["iterations"] == "0"
    for col in ("wall_seconds", "per_iteration_seconds", "final_residual",
                "flags"):
        assert row[col] == ""


def test_bench_start_at_the_solution_reports_its_residual(tmp_path):
    # above lambda_max zero is the solution, so its residual is exactly 0
    [row] = _bench_rows(tmp_path, lambda_rel=2)
    assert row["status"] == "converged"
    assert row["iterations"] == "0"
    assert float(row["final_residual"]) == 0.0
    assert float(row["wall_seconds"]) >= 0.0


def test_lqa_singular_system_prints_its_flag(tmp_path, capsys):
    np.savetxt(tmp_path / "A.csv", np.ones((2, 2)), delimiter=",")
    np.savetxt(tmp_path / "b.csv", [1.0, 2.0], delimiter=",")
    code = main(["solve", "--method", "lqa", "--penalty", "lasso",
                 "--matrix", str(tmp_path / "A.csv"),
                 "--offset", str(tmp_path / "b.csv"), "--lambda", "0",
                 "--out", str(tmp_path / "report.json")])
    assert code == 1
    text = capsys.readouterr().out
    assert "status: numerical_failure (iterations=0)" in text
    assert "flag: singular-system\n" in text


@pytest.mark.parametrize("key", ["lambda", "lambda_rel", "tol", "max_iter",
                                 "epsilon_lqa", "density", "noise", "n",
                                 "repeats"])
def test_bench_rejects_a_boolean_scalar(tmp_path, capsys, key):
    # float() and int() would read true as 1
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps({"schema_version": 1, "n": 20, "p": 8,
                                 "solver": "picard", key: True}))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out)]) == 2
    assert (f"error: '{key}' must be a number, got true"
            in capsys.readouterr().err)
    assert not out.exists()


def test_bench_rejects_zero_repeats(tmp_path, capsys):
    mpath = tmp_path / "bench.json"
    mpath.write_text(json.dumps({"schema_version": 1, "n": 20, "p": 10,
                                 "solver": "picard", "repeats": 0}))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--manifest", str(mpath), "--out", str(out)]) == 2
    assert "'repeats'" in capsys.readouterr().err
    assert not out.exists()


# (dest, flag argv, document block, key, the value the flag stands for):
# one case per row of the flag table
_FLAG_CASES = [
    ("response", ["--response", "y.csv"], "estimating", "response", "y.csv"),
    ("offset", ["--offset", "y.csv"], "estimating", "offset", "y.csv"),
    ("family", ["--family", "least-squares"], "estimating", "type",
     "least_squares"),
    ("lipschitz", ["--lipschitz", "50"], "estimating", "lipschitz", 50.0),
    ("penalty", ["--penalty", "ridge"], "penalty", "kind", "ridge"),
    ("groups", ["--groups", "1,2;3"], "penalty", "groups", [[1, 2], [3]]),
    ("group_weights", ["--group-weights", "1,2.5"], "penalty", "weights",
     [1.0, 2.5]),
    ("alpha", ["--alpha", "0.3"], "penalty", "alpha", 0.3),
    ("enet_ratio", ["--enet-ratio", "0.7"], "penalty", "ratio", 0.7),
    ("ball_norm", ["--ball-norm", "l1"], "penalty", "norm", "l1"),
    ("radius", ["--radius", "0.5"], "penalty", "radius", 0.5),
    ("lower", ["--lower=-1,-2,-3"], "penalty", "lower", [-1.0, -2.0, -3.0]),
    ("upper", ["--upper", "1,2,3"], "penalty", "upper", [1.0, 2.0, 3.0]),
    ("scad_a", ["--scad-a", "3.2"], "penalty", "a", 3.2),
]


def test_flag_cases_cover_the_flag_table():
    assert ([row[:3] for row in cli._FLAG_FIELDS]
            == [(dest, block, key) for dest, _, block, key, _ in _FLAG_CASES])


@pytest.mark.parametrize("dest, flag, block, key, value", _FLAG_CASES,
                         ids=[case[0] for case in _FLAG_CASES])
def test_flag_and_document_key_agree(tmp_path, dest, flag, block, key, value):
    rng = np.random.default_rng(105)
    np.savetxt(tmp_path / "X.csv", rng.standard_normal((8, 3)), delimiter=",")
    np.savetxt(tmp_path / "y.csv", rng.standard_normal(8), delimiter=",")
    # lasso ignores the other penalties' fields, so every case solves
    doc = {"schema_version": 1,
           "estimating": {"type": "least_squares", "design": "X.csv",
                          "response": "y.csv"},
           "penalty": {"kind": "lasso"}, "lambda": 0.1}

    def problem_block(name, document, extra):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document))
        out = tmp_path / f"{name}_report.json"
        assert main(["solve", "--problem", str(path), "--max-iter", "50",
                     "--out", str(out)] + extra) == 0
        return json.loads(out.read_text())["problem"]

    from_flag = problem_block("flag", doc, flag)
    doc[block] = dict(doc[block], **{key: value})
    from_doc = problem_block("doc", doc, [])
    assert from_flag[block][key] == value
    # same keys in the same order, so the report text matches too
    assert json.dumps(from_flag) == json.dumps(from_doc)


_U_BLOCKS = [
    {"type": "least_squares", "design": "X.csv", "response": "y.csv"},
    {"type": "logistic", "design": "X.csv", "response": "y01.csv"},
    {"type": "linear", "matrix": "A.csv", "offset": "b.csv"},
]
_PENALTY_BLOCKS = [
    {"kind": "ridge"},
    {"kind": "lasso"},
    {"kind": "elastic_net", "ratio": 0.5},
    {"kind": "group_lasso", "groups": [[1, 2], [3]], "weights": [1.0, 2.0]},
    {"kind": "sparse_group_lasso", "groups": [[1], [2, 3]], "alpha": 0.5},
    {"kind": "ball", "norm": "l1", "radius": 1.0},
    {"kind": "ball", "norm": "box", "lower": [-1.0] * 3, "upper": [1.0] * 3},
    {"kind": "scad", "a": 3.7},
]
_CONFIG_KEYS = ("max_iter", "tol", "tau", "rho", "t_bar", "psi", "epsilon_lqa",
                "zero_threshold")
# no "/" in strings, so a file name never leaves the data directory
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_characters="/"), max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _problem_documents(draw):
    """A valid document over tiny data with up to two fields replaced by a
    JSON value of the wrong type or range."""
    doc = {"schema_version": 1,
           "estimating": dict(draw(st.sampled_from(_U_BLOCKS))),
           "penalty": dict(draw(st.sampled_from(_PENALTY_BLOCKS))),
           "lambda": draw(st.floats(0.0, 1.0)),
           "config": {"max_iter": draw(st.integers(1, 1000)), "tol": 1e-8}}
    paths = ([(key,) for key in doc]
             + [(block, key) for block in ("estimating", "penalty")
                for key in doc[block]]
             + [("config", key) for key in _CONFIG_KEYS])
    for path in draw(st.lists(st.sampled_from(paths), max_size=2,
                              unique=True)):
        target = doc
        for key in path[:-1]:
            target = target[key] if isinstance(target.get(key), dict) else {}
        target[path[-1]] = draw(_JSON_VALUES)
    return doc


@pytest.fixture(scope="module")
def property_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("property")
    rng = np.random.default_rng(106)
    np.savetxt(tmp / "X.csv", rng.standard_normal((8, 3)), delimiter=",")
    np.savetxt(tmp / "y.csv", rng.standard_normal(8), delimiter=",")
    np.savetxt(tmp / "y01.csv", rng.integers(0, 2, 8), delimiter=",")
    np.savetxt(tmp / "A.csv", np.eye(3) + 0.3 * rng.standard_normal((3, 3)),
               delimiter=",")
    np.savetxt(tmp / "b.csv", rng.standard_normal(3), delimiter=",")
    return tmp


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=_problem_documents(), method=st.sampled_from(cli.METHOD_CHOICES))
def test_problem_documents_never_traceback(property_dir, doc, method):
    config = doc.get("config")
    max_iter = config.get("max_iter") if isinstance(config, dict) else None
    # a valid but huge iteration cap would only make the run slow
    assume(not (isinstance(max_iter, (int, float))
                and not isinstance(max_iter, bool) and max_iter > 1000))
    path = property_dir / "problem.json"
    path.write_text(json.dumps(doc))
    code = main(["solve", "--problem", str(path), "--method", method,
                 "--out", str(property_dir / "r.json")])
    assert code in (0, 1, 2)
