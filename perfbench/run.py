"""Benchmark for reesolve: three closed-loop workloads, one client, one
process, one thread, with OpenBLAS pinned to one thread and the pin read
back from the library.

Run from the root of a reesolve checkout::

    python3 perfbench/run.py --workload lasso-path --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics (see README.md). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code
is 0 when a result was printed, and nonzero, with no result, when the
checkout has no ``src/reesolve`` or the BLAS pin did not take.
"""

import os
import sys

# Pin BLAS and OpenMP pools before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
# workloads and metrics (names, units, bounds) are declared here
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = {"full": 5, "tiny": 2}
# stop starting rounds after this much wall time, so a run ends within 180 s
WALL_CAP_S = 150.0
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def load_reesolve(workload: str):
    """Import reesolve from this checkout's ``src``, never from elsewhere."""
    init = SRC / "reesolve" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"{init.relative_to(ROOT)} not found: run from the "
                         "root of a reesolve checkout")
    sys.path.insert(0, str(SRC))
    import reesolve
    if Path(reesolve.__file__).resolve() != init.resolve():
        raise BenchError(f"imported reesolve from {reesolve.__file__}, "
                         f"not from {init}")
    if workload == "lasso-path":
        import reesolve.cli  # noqa: F401
    return reesolve


def blas_state() -> dict:
    """Thread count read back from numpy's bundled OpenBLAS."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    libs = sorted(libdir.glob("libscipy_openblas64_*.so"))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    state = {"blas_vendor": blas.get("name"), "blas_version": blas.get("version"),
             "blas_library": None, "blas_threads": None, "blas_pinned": False}
    if not libs:
        return state
    lib = ctypes.CDLL(str(libs[0]))
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.restype, get_threads.argtypes = ctypes.c_int, []
    get_config = lib.scipy_openblas_get_config64_
    get_config.restype, get_config.argtypes = ctypes.c_char_p, []
    threads = int(get_threads())
    state.update(blas_library=libs[0].name, blas_config=get_config().decode(),
                 blas_threads=threads, blas_pinned=threads == 1)
    return state


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over src/reesolve/*.py, which identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "reesolve").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def setup_samples(args) -> list[float]:
    """Time several fresh processes from start until the first task's inputs
    exist: interpreter start, imports, partition construction, data, U and
    input files."""
    samples = []
    for _ in range(SETUP_REPEATS[args.size]):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError("set-up probe process failed")
        samples.append(elapsed)
    return samples


def setup_probe(args) -> int:
    """Body of one set-up probe process (see :func:`setup_samples`)."""
    rs = load_reesolve(args.workload)
    from workloads import WORKLOADS
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR, prefix="setup-"))
    try:
        wl = WORKLOADS[args.workload](rs, args.size, workdir)
        inp = wl.make_inputs(args.seed, 0)
        print("ready", flush=True)
        wl.cleanup(inp)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_task(wl, seed: int, i: int, tracer) -> dict:
    """Build inputs, time the task (twice, untraced and traced, in alternating
    order, when tracing), then collect and check its output untimed."""
    rec = {"index": i}
    inp = wl.make_inputs(seed, i)
    try:
        order = ((False,) if tracer is None
                 else (False, True) if i % 2 == 0 else (True, False))
        for traced in order:
            if traced:
                raw = tracer.run_task(i, wl.run, inp)
                rec["traced_duration"] = tracer.task_duration(i)
            else:
                start = time.perf_counter()
                raw = wl.run(inp)
                rec["duration"] = time.perf_counter() - start
        out = wl.collect(inp, raw)
        rec.update(iterations=out.iterations, bytes_written=out.bytes_written)
        verdict = wl.check(inp, out)
        rec.update(ok=verdict.ok, reason=verdict.reason,
                   deviation=verdict.deviation)
    except Exception as exc:  # a failed task is counted, not fatal
        rec.update(ok=False, reason=f"{type(exc).__name__}: {exc}",
                   iterations=rec.get("iterations", 0), bytes_written=0)
    finally:
        wl.cleanup(inp)
    return rec


def measure(wl, args, tracer) -> list[dict]:
    """Whole rounds of tasks until ``--seconds`` of task time are measured,
    the fixed prefix of ``wl.min_tasks`` tasks is complete and the tail has
    its TAIL_BEYOND samples."""
    tasks: list[dict] = []
    timed = 0.0
    needed = max(wl.min_tasks, TAIL_BEYOND + 1)
    while timed < args.seconds or len(tasks) < needed:
        if time.perf_counter() - STARTED > WALL_CAP_S:
            if len(tasks) < needed:
                raise BenchError(f"only {len(tasks)} of {needed} tasks "
                                 f"finished within {WALL_CAP_S} s")
            print(f"warning: wall-time cap reached after {timed:.1f} s of "
                  f"task time", file=sys.stderr)
            break
        for _ in range(wl.round_size):
            rec = run_task(wl, args.seed, len(tasks), tracer)
            timed += rec.get("duration", 0.0) + rec.get("traced_duration", 0.0)
            tasks.append(rec)
    return tasks


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} tasks are too few for a tail with "
                         f"{TAIL_BEYOND} samples beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(wl, tasks, setup) -> tuple[dict, list[str]]:
    durations = [t["duration"] for t in tasks if "duration" in t]
    prefix = tasks[:wl.min_tasks]
    failed = sum(not t["ok"] for t in tasks)
    tail_value, pct = tail(durations)
    m = {
        "setup_s": statistics.median(setup),
        "task_s.p50": statistics.median(durations),
        "task_s.tail": tail_value,
        "tasks_per_s": len(durations) / sum(durations),
        "iterations": sum(t["iterations"] for t in prefix),
        "fail_share": failed / len(tasks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups in fresh processes",
        "task_s.p50": f"n={len(durations)}",
        "task_s.tail": f"p{pct:.1f}, n={len(durations)}",
        "tasks_per_s": f"{len(durations)} tasks in {sum(durations):.3f} s timed",
        "iterations": f"first {len(prefix)} tasks",
        "fail_share": f"{failed} of {len(tasks)} tasks failed",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    # fail_share is printed, and carried by "attempted"/"failed" in the
    # result line; it is no JSON metric, because it is 0 at the parent
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    units["fail_share"] = "ratio"
    lines = [f"{k} = {m[k]!r} {u} ({notes[k]})" for k, u in units.items()]
    return m, lines


def per_layer(wl, tasks, tracer) -> tuple[dict, list[str]]:
    from tracing import LAYERS
    tracer.check_tree()
    prefix = [t["index"] for t in tasks[:wl.min_tasks]]
    m = dict.fromkeys((e["name"] for e in SPEC["per_layer"]), 0)
    m.update(tracer.layer_metrics(prefix))
    reported = sum(t["iterations"] for t in tasks[:wl.min_tasks])
    if m["trace.iterations"] != reported:
        raise BenchError(f"traced iterations {m['trace.iterations']} != "
                         f"{reported} from the solver reports")

    def per(num, den, scale=1e6):
        return num / den * scale if den else 0.0

    m["estimating.u_us_per_eval"] = per(m["estimating.u_s"], m["estimating.u_evals"])
    m["penalties.prox_us_per_call"] = per(m["penalties.prox_s"], m["penalties.prox_calls"])
    m["solvers.self_us_per_iter"] = per(m["solvers.self_s"], m["trace.iterations"])
    m["cli.bytes_written"] = sum(t["bytes_written"] for t in tasks[:wl.min_tasks])
    traced = [t["traced_duration"] for t in tasks if "traced_duration" in t]
    plain = [t["duration"] for t in tasks if "duration" in t]
    m["trace.task_s.p50"] = statistics.median(traced)
    m["trace.untraced_task_s.p50"] = statistics.median(plain)
    m["trace.overhead_share"] = m["trace.task_s.p50"] / m["trace.untraced_task_s.p50"] - 1.0
    lines = [f"{e['name']} = {m[e['name']]!r} {e['unit']}"
             for e in SPEC["per_layer"]]
    selfs = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    lines.append(f"# layer self times sum to {selfs!r} s over the first "
                 f"{len(prefix)} tasks; their traced wall time is "
                 f"{m['trace.task_s']!r} s")
    lines.append(f"# tracing overhead: traced p50 {m['trace.task_s.p50']!r} s vs "
                 f"untraced p50 {m['trace.untraced_task_s.p50']!r} s over "
                 f"{len(traced)} paired tasks")
    return m, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the smoke test's problem sizes")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def bench(args) -> int:
    rs = load_reesolve(args.workload)
    import numpy as np
    import scipy
    import workloads
    from tracing import Tracer

    blas = blas_state()
    if not blas["blas_pinned"]:
        raise BenchError(f"BLAS pinning did not take: {blas}")
    setup = [] if args.trace else setup_samples(args)

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR, prefix="run-"))
    try:
        wl = workloads.WORKLOADS[args.workload](rs, args.size, workdir)
        tracer = Tracer(rs) if args.trace else None
        tasks = measure(wl, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, lines = per_layer(wl, tasks, tracer)
        spans = WORKDIR / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write(spans)
    else:
        metrics, lines = end_to_end(wl, tasks, setup)
        spans = None
    failed = [t for t in tasks if not t["ok"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "inputs": wl.describe(),
        "why": next(w["why"] for w in SPEC["workloads"]
                    if w["name"] == args.workload),
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        **blas,
        "samples": {"tasks": len(tasks), "prefix_tasks": wl.min_tasks,
                    "round_size": wl.round_size, "setup_runs": len(setup)},
        "max_deviation": max((t.get("deviation", 0.0) for t in tasks),
                             default=0.0),
        "deviation_threshold": wl.threshold,
        "spans_file": None if spans is None else str(spans.relative_to(ROOT)),
        "failures": [f"task {t['index']}: {t['reason']}" for t in failed[:5]],
    }
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{wl.describe()}")
    for line in lines:
        print(line)
    print("record " + json.dumps(record))
    listed = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]}
                    for e in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
