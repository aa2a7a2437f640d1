"""One workload in its own process: warm-up, timed ops, checks, result file.

Run by run.py with PYTHONPATH pointing at the checkout's src/:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--scale full|small]

Writes DIR/result.json (and DIR/spans.jsonl when tracing).  Ops run in a
closed loop, one caller, while the next op's expected midpoint falls
within --seconds (at least one op, two when tracing), so the ops measured
add up to about --seconds on average.  With --trace 1, untraced
and traced ops alternate, so the tracing overhead is measured in the same
process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import ExitStack

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import THREADS, WORKLOADS  # noqa: E402


def tail(values):
    """(q, value, n): the highest whole percentile that has at least ten
    samples beyond it, or the median when that percentile is below p50."""
    n = len(values)
    # with linear interpolation, p_q has ten samples beyond it while its
    # rank q/100 * (n - 1) stays below n - 10
    q = max(50, math.ceil(100.0 * (n - 10) / (n - 1)) - 1) if n > 10 else 50
    return q, float(np.percentile(values, q)), n


# ---------------------------------------------------------------------------
# the op loop


def run_op(wl, key: int, tracer: Tracer | None) -> dict:
    """Run, time and check one op.  A failure is recorded, never raised."""
    rec = {"key": key, "traced": tracer is not None, "wall": 0.0, "cpu": 0.0, "facts": {}}
    where = "prepare"
    try:
        prep = wl.prepare(key)
        where = wl.function
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.op(key))
                stack.enter_context(tracer.installed())
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                out = wl.op(key, prep)
            finally:
                rec["wall"] = time.perf_counter() - t0
                rec["cpu"] = time.process_time() - cpu0
        where = "check"
        wl.check(key, prep, out)
        rec["facts"] = {k: out[k] for k in ("trials", "report_bytes") if k in out}
    except Exception as exc:
        rec["failure"] = {
            "function": f"check {exc.check}" if hasattr(exc, "check") else where,
            "config": wl.describe(key),
            "seed": wl.op_seed(key),
            "message": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(limit=8),
        }
    return rec


def measure(wl, seconds: float, tracer: Tracer | None = None):
    """(warm-up record, timed records).  The first timed op repeats the
    warm-up's key, so its output must match the warm-up's exactly."""
    warm = run_op(wl, 0, None)
    timed = []
    need = 2 if tracer is not None else 1
    expected = warm["wall"]
    start = time.perf_counter()
    key = 0
    while len(timed) < need or time.perf_counter() - start + 0.5 * expected <= seconds:
        traced = tracer if tracer is not None and len(timed) % 2 == 1 else None
        timed.append(run_op(wl, key, traced))
        expected = statistics.median(r["wall"] for r in timed)
        key += 1
    return warm, timed


# ---------------------------------------------------------------------------
# environment


def _openblas():
    """Core type, thread count and config of numpy's bundled OpenBLAS."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            if hasattr(lib, f"scipy_openblas_get_num_threads{suffix}"):
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                get_core = getattr(lib, f"scipy_openblas_get_corename{suffix}")
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_core.argtypes, get_core.restype = [], ctypes.c_char_p
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return {
                    "library": os.path.basename(path),
                    "core": get_core().decode(),
                    "threads": get_threads(),
                    "config": get_config().decode(),
                }
    return {"library": None}


def _git_commit(root: str) -> str:
    """HEAD's commit, read from .git without running git (outside reads)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "openblas": _openblas(),
        "nproc": len(os.sched_getaffinity(0)),
        "inherited_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RECTCONV_THREADS")
            if k in os.environ
        },
        "experiment_threads": THREADS,
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(wl, seconds: float, trace: bool) -> dict:
    """Measure one workload object and summarize the run as a dict."""
    tracer = Tracer() if trace else None
    warm, timed = measure(wl, seconds, tracer)

    failures = [r["failure"] for r in [warm] + timed if "failure" in r]
    attempted = 1 + len(timed)
    extra = {}
    if hasattr(wl, "final_check"):
        attempted += 1
        try:
            extra = wl.final_check()
        except Exception as exc:
            failures.append({
                "function": f"check {getattr(exc, 'check', 'final')}",
                "config": wl.describe(0),
                "seed": wl.seed,
                "message": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(limit=8),
            })

    plain = [r for r in timed if not r["traced"]]
    walls = [r["wall"] for r in plain]
    q, tail_value, n = tail(walls)
    metrics = {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "cpu_per_op_s": statistics.median(r["cpu"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_share": len(failures) / attempted,
    }
    trials = sum(r["facts"].get("trials", 0) for r in plain)
    if trials:
        metrics["trials_per_s"] = trials / sum(walls)
    metrics.update(extra)

    result = {
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "ops": [{k: r[k] for k in ("key", "traced", "wall", "cpu")} for r in [warm] + timed],
        "tail": {"percentile": q, "ops": n},
        "metrics": metrics,
        "environment": environment(),
        "setup_config": getattr(wl, "setup_config", None),
    }
    if tracer is not None:
        traced = [r for r in timed if r["traced"]]
        overhead = statistics.median(r["wall"] for r in traced) / metrics["op_p50_s"]
        layer, absent = layer_metrics(tracer, len(traced), [r["facts"] for r in traced], overhead)
        result["layer_metrics"] = layer
        result["absent"] = absent
        result["missing_call_sites"] = tracer.missing
        tracer.write(os.path.join(wl.out, "spans.jsonl"))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)

    import rectconv

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(rectconv.__file__), src]) != src:
        print(f"rectconv imported from {rectconv.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.out, args.seed, args.scale)
    result = run_workload(wl, args.seconds, bool(args.trace))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
