"""rectconv benchmark: run one workload, print its metrics, check its outputs.

    python3 perfbench/run.py --workload theory-table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its src/.  Each workload runs in its own child
process (worker.py), so peak RSS and CPU time belong to that workload.
With --trace 0 the run also times set-up in fresh interpreters
(setup_probe.py) and reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics from spans recorded around rectconv's public
functions, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Outputs go to .perfbench_out/.
The exit code is 0 when a result was printed, even if an op failed
(correct is then false), and non-zero when no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from spans import LAYER_METRICS  # noqa: E402

WORKLOADS = ("theory-table", "trials-values", "trials-vectors")

# end-to-end metrics in the result line, with units
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "cpu_per_op_s": "s",
    "peak_rss_mb": "MB",
}
# reported on the workloads they apply to, but kept out of the result
# line, whose metrics must exist on every workload and never read 0
WORKLOAD_ONLY = {
    "trials_per_s": "1/s",
    "failed_share": "ratio",
    "density_digits": "digits",
    "quantile_digits": "digits",
}
SETUP_PROBES = 5
DEADLINE_S = 170.0  # per workload: a run must end within 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _remaining(start: float) -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - start))


def run_one(name: str, seed: int, seconds: float, trace: int, scale: str, start: float):
    """Worker result dict with setup_s added, or None (reason on stderr)."""
    out = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", out, "--scale", scale,
    ]
    env = _child_env()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=_remaining(start))
    except subprocess.TimeoutExpired:
        print(f"{name}: worker exceeded the time limit", file=sys.stderr)
        return None
    result_path = os.path.join(out, "result.json")
    if proc.returncode != 0 or not os.path.exists(result_path):
        print(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    with open(result_path) as fh:
        result = json.load(fh)

    if not trace:
        samples = []
        for _ in range(SETUP_PROBES):
            probe = [sys.executable, os.path.join(HERE, "setup_probe.py"), result["setup_config"]]
            try:
                done = subprocess.run(probe, env=env, capture_output=True, text=True, timeout=_remaining(start))
            except subprocess.TimeoutExpired:
                print(f"{name}: set-up probe exceeded the time limit", file=sys.stderr)
                return None
            if done.returncode != 0:
                print(f"{name}: set-up probe exited {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
                return None
            samples.append(float(done.stdout.strip().splitlines()[-1]))
        result["metrics"]["setup_s"] = statistics.median(samples)
        result["setup_samples"] = samples
    with open(os.path.join(out, "run.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_result(r: dict) -> None:
    ops = r["ops"]
    timed = len(ops) - 1
    print(
        f"== {r['workload']}  seed {r['seed']}  seconds {r['seconds']:g}  trace {r['trace']}"
        f"  ({timed} timed ops after 1 warm-up; {r['failed']} of {r['attempted']} attempted failed)"
    )
    m = r["metrics"]
    plain = sum(1 for o in ops[1:] if not o["traced"])
    notes = {
        "setup_s": f"median of {len(r.get('setup_samples', []))} fresh interpreters",
        "op_p50_s": f"median of {plain} untraced ops",
        "op_tail_s": f"p{r['tail']['percentile']} of {r['tail']['ops']} ops"
        + ("" if r["tail"]["ops"] >= 20 else "; under 20 ops, so no percentile above p50 has 10 ops beyond it"),
        "cpu_per_op_s": "user + system CPU of the worker process, all threads, median per op",
        "peak_rss_mb": "ru_maxrss of the worker process",
        "failed_share": f"{r['failed']} of {r['attempted']}",
    }
    print("end-to-end:")
    for key, unit in {**END_TO_END, **WORKLOAD_ONLY}.items():
        if key in m:
            print(f"  {key:<16} {_fmt(m[key]):>12} {unit:<7} {notes.get(key, '')}")
    for f in r["failures"]:
        print(f"FAILED {f['function']}: seed {f['seed']} config {json.dumps(f['config'])}: {f['message']}")
    if r["trace"]:
        layer, absent = r["layer_metrics"], r["absent"]
        traced = sum(1 for o in ops[1:] if o["traced"])
        print(f"per-layer ({traced} traced ops; counts and times per op):")
        for key, unit in LAYER_METRICS.items():
            why = f"absent: {absent[key]}" if key in absent else ""
            print(f"  {key:<46} {_fmt(layer[key]):>12} {unit:<6} {why}")
        print(
            f"tracing overhead: traced op_p50_s / untraced op_p50_s = {_fmt(layer['trace.overhead'])}"
        )
        if r["missing_call_sites"]:
            print(f"call sites not found: {', '.join(r['missing_call_sites'])}")
    print(f"environment: {json.dumps(r['environment'], sort_keys=True)}")


def result_line(results: list, trace: int, prefix: bool) -> dict:
    metrics = {}
    for r in results:
        if trace:
            chosen = {k: (r["layer_metrics"][k], u) for k, u in LAYER_METRICS.items()}
        else:
            chosen = {k: (r["metrics"][k], u) for k, u in END_TO_END.items()}
        for key, (value, unit) in chosen.items():
            name = f"{r['workload']}/{key}" if prefix else key
            metrics[name] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rectconv benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "rectconv", "__init__.py")):
        print(f"no rectconv sources under {SRC}; run from a rectconv checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        r = run_one(name, args.seed, args.seconds, args.trace, args.scale, time.monotonic())
        if r is None:
            return 1
        print_result(r)
        results.append(r)
    print(json.dumps(result_line(results, args.trace, prefix=len(names) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
