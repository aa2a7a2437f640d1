"""Tests for the benchmark itself: span arithmetic, failure accounting,
output checks, and tiny-size (p = 20) runs of every workload.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import rectconv.freeconv  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from spans import LAYER_METRICS, Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_subtracts_the_union_of_nested_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1, 0),
        Span(2, "a", 1.0, 4.0, 1, 1, 0),
        Span(3, "b", 3.0, 6.0, 1, 2, 0),  # overlaps a on another thread
        Span(4, "c", 2.0, 3.0, 2, 1, 0),  # grandchild: only a loses it
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span(1, "p", 0.0, 10.0, None, 1, 0), Span(2, "c", 8.0, 12.0, 1, 2, 0)]
    assert self_times(spans)[1] == pytest.approx(8.0)


def test_pool_thread_spans_take_the_op_thread_span_as_parent():
    tracer = Tracer()

    def leaf(x):
        time.sleep(0.05)
        return x

    leaf_w = tracer.wrap("leaf", leaf)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(leaf_w, range(4)))

    fan_w = tracer.wrap("fan", fan_out)
    with tracer.op(7):
        assert fan_w() == [0, 1, 2, 3]
    (fan,) = [s for s in tracer.spans if s.name == "fan"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(leaves) == 4
    assert all(s.parent == fan.sid and s.op == 7 for s in leaves)
    assert all(s.thread != fan.thread for s in leaves)
    # four 50 ms leaves on two threads cover about 100 ms of the fan span
    st = self_times(tracer.spans)
    assert 0.0 <= st[fan.sid] <= (fan.end - fan.start) - 0.09


def test_installed_wrappers_are_restored():
    original = rectconv.freeconv.density_curve
    tracer = Tracer()
    with tracer.installed():
        assert rectconv.freeconv.density_curve is not original
    assert rectconv.freeconv.density_curve is original


# ---------------------------------------------------------------------------
# failure accounting


class Flaky:
    """Synthetic workload: op key 2 raises, op key 3 fails its check."""

    name = "flaky"
    function = "flaky op"
    seed = 5
    out = "."

    def prepare(self, key):
        return key

    def op(self, key, prep):
        time.sleep(0.005)
        if key == 2:
            raise ValueError("injected")
        return {}

    def check(self, key, prep, out):
        if key == 3:
            raise CheckFailed("synthetic", "injected check failure")

    def describe(self, key):
        return {"fixture": "synthetic", "key": key}

    def op_seed(self, key):
        return 100 + key


def test_failed_ops_are_counted_and_the_run_continues():
    r = worker.run_workload(Flaky(), 0.1, trace=False)
    assert len(r["ops"]) > 5  # ops after the failures still ran
    assert r["failed"] == 2
    assert r["attempted"] == len(r["ops"])
    assert r["metrics"]["failed_share"] == pytest.approx(2 / r["attempted"])
    raised, checked = r["failures"]
    assert raised["function"] == "flaky op"
    assert raised["config"] == {"fixture": "synthetic", "key": 2}
    assert raised["seed"] == 102
    assert "ValueError: injected" in raised["message"]
    assert checked["function"] == "check synthetic"
    assert checked["seed"] == 103


def test_tail_keeps_ten_samples_beyond_it():
    import numpy as np

    for n in (20, 25, 40, 100, 1000):
        values = list(range(n))
        q, value, count = worker.tail(values)
        assert count == n
        assert sum(v > value for v in values) >= 10
        assert sum(v > np.percentile(values, q + 1) for v in values) < 10
    assert worker.tail([3.0, 1.0, 2.0])[:2] == (50, 2.0)


# ---------------------------------------------------------------------------
# workloads at p = 20


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_run_is_correct_and_reports_every_metric(name, tmp_path):
    wl = WORKLOADS[name](str(tmp_path), 3, "small")
    r = worker.run_workload(wl, 0.3, trace=True)
    assert r["failed"] == 0, r["failures"]
    for key in ("op_p50_s", "op_tail_s", "cpu_per_op_s", "peak_rss_mb"):
        assert r["metrics"][key] > 0
    assert set(r["layer_metrics"]) == set(LAYER_METRICS)
    assert not r["missing_call_sites"]
    layer = r["layer_metrics"]
    if name == "theory-table":
        assert layer["quantiles.density_points_per_table"] == 3000
        assert r["metrics"]["quantile_digits"] > 6
        assert "ensemble.run_trial.calls" in r["absent"]
    else:
        assert layer["ensemble.run_trial.calls"] > 0
        assert "freeconv.density_curve.calls" in r["absent"]
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0


def test_dense_route_catches_a_perturbed_trial_statistic(tmp_path):
    wl = WORKLOADS["trials-values"](str(tmp_path), 4, "small")
    argv = wl.prepare(0)
    out = wl.op(0, argv)
    wl.check(0, argv, out)
    rows = list(csv.DictReader(io.StringIO(out["rows"].decode())))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({**row, "stat_a": repr(float(row["stat_a"]) * (1 + 1e-6) + 1e-6)})
    bad = {**out, "rows": buf.getvalue().encode()}
    wl._seen.clear()
    with pytest.raises(CheckFailed) as err:
        wl.check(0, argv, bad)
    assert err.value.check == "dense route"


# ---------------------------------------------------------------------------
# the command


def test_command_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "trials-vectors",
         "--seed", "2", "--seconds", "0.3", "--trace", "0", "--scale", "small"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theory-table",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
