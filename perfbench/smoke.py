"""Smoke test of the benchmark itself, at tiny problem sizes.

Run from the root of a reesolve checkout::

    python3 perfbench/smoke.py

For every workload it makes one untraced run and two traced runs with the
same seed, and checks that:

* each run exits 0 and its last line is the result object, with exactly the
  metrics BENCHMARK.json lists and their units;
* every end-to-end metric, ``fail_share`` included, is printed by name with
  its unit, and ``fail_share`` is 0;
* BLAS was pinned to one thread, as read back from OpenBLAS;
* the counts of the two traced runs are identical.

It also checks that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "1", "--trace",
           str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def parse(proc, spec, kind: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    listed = {m["name"]: m["unit"] for m in spec[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == listed, f"metrics {got} differ from BENCHMARK.json {listed}"
    record = json.loads(next(l for l in lines if l.startswith("record "))[7:])
    assert record["blas_threads"] == 1 and record["blas_pinned"], record
    printed = {}
    for line in lines:
        m = re.match(r"^(\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    for name, unit in listed.items():
        assert printed.get(name, (None, None))[1] == unit, (name, printed)
    return {"result": result, "printed": printed}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in (w["name"] for w in spec["workloads"]):
        plain = parse(run(wl, 0), spec, "end_to_end")
        fail = plain["printed"].get("fail_share")
        assert fail == (0.0, "ratio"), f"{wl}: fail_share printed as {fail}"
        traced = [parse(run(wl, 1), spec, "per_layer") for _ in range(2)]
        counts = [{k: v["value"] for k, v in t["result"]["metrics"].items()
                   if v["unit"] in ("count", "bytes")} for t in traced]
        assert counts[0] == counts[1], f"{wl}: traced counts differ {counts}"
        print(f"{wl}: ok ({plain['result']['attempted']} tasks untraced, "
              f"{len(counts[0])} counts repeat across traced runs)")

    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench", prefix="bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        assert proc.returncode != 0, "ran without a reesolve checkout"
        assert not proc.stdout.strip(), f"printed {proc.stdout!r}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("without src/reesolve: refused, nothing printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
