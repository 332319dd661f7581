"""Tests of the benchmark's own code; run with ``python3 -m pytest benchmarks``.

They live beside the benchmark, outside ``tests/``, so the package's test
suite does not run them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, aggregate  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("a", 0, 100, -1, 1),
        ("b", 10, 40, 0, 1),
        ("c", 20, 30, 1, 1),
        ("d", 50, 70, 0, 1),
        ("d", 65, 90, 0, 1),   # overlaps the first "d": the overlap counts once
        ("e", 95, 120, 0, 1),  # runs past its parent's end: only 95..100 is inside
        ("a", 200, 210, -1, 2),
    ]
    got = aggregate(spans)
    ns = 1e-9
    assert got["a.calls"] == 2
    assert got["a.s"] == pytest.approx(110 * ns)
    # a covers 10..40, 50..90 and 95..100 with children: 75 of its first 100 ns
    assert got["a.self_s"] == pytest.approx((25 + 10) * ns)
    assert got["b.self_s"] == pytest.approx(20 * ns)
    assert got["c.self_s"] == pytest.approx(10 * ns)
    assert got["d.s"] == pytest.approx(45 * ns)
    assert got["d.self_s"] == pytest.approx(45 * ns)
    assert got["top_level_s"] == pytest.approx(110 * ns)


def test_times_are_scaled_by_the_host_speed_of_their_pass():
    fast = workloads.Pass(latencies=[1.0, 3.0], reps=2, rows=8, scale=1.0)
    slow = workloads.Pass(latencies=[2.0, 6.0], reps=2, rows=8, scale=0.5)
    setups = [(4.0, 0.5), (1.0, 1.0), (3.0, 1.0)]
    got = run.end_to_end([fast, slow], setups)
    assert got["reps_per_s"] == pytest.approx(0.5)
    assert got["rows_per_s"] == pytest.approx(2.0)
    assert got["query_p50_us"] == pytest.approx(2e6)
    assert got["setup_s"] == pytest.approx(2.0)
    raw = run.end_to_end([fast, slow], setups, scaled=False)
    assert raw["reps_per_s"] == pytest.approx((0.5 + 0.25) / 2)
    assert raw["setup_s"] == pytest.approx(3.0)


def test_host_speed_scale_is_nominal_over_the_median_kernel_time():
    speed = hostspeed.HostSpeed()
    speed.sample(force=True)
    speed.sample()  # within INTERVAL_S of the last one: skipped
    assert len(speed.samples) == 1
    speed.samples[:] = [9.0, 1.0, 2.0, 4.0]
    assert speed.scale_since(1) == pytest.approx(hostspeed.NOMINAL_S / 2.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name, tmp_path):
    make = workloads.WORKLOADS[name]
    first = make(5, workloads.SMOKE, str(tmp_path)).inputs()
    assert make(5, workloads.SMOKE, str(tmp_path / "other")).inputs() == first
    assert make(6, workloads.SMOKE, str(tmp_path)).inputs() != first


def test_unreadable_output_is_a_failed_check_not_a_crash(tmp_path):
    pipeline = workloads.CsvPipeline(1, workloads.SMOKE, str(tmp_path))
    (tmp_path / "invariance.csv").write_text("inv,not-a-number\n")
    for step in ("predict", "assess"):
        problem = pipeline._checked(pipeline._check, step, str(tmp_path))
        assert problem.startswith("unreadable output")


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    from acir import conformal

    original = conformal.CalibrationState.__dict__["acir_interval"]
    query = workloads.PointQueries(1, workloads.SMOKE, str(tmp_path))
    query.setup()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 7
        query.state.acir_interval(query.x[0], workloads.ALPHA)
    finally:
        tracer.uninstall()
    assert conformal.CalibrationState.__dict__["acir_interval"] is original
    assert tracer.missing == []
    names = [s[0] for s in tracer.spans]
    assert names == ["conformal.acir_interval", "conformal.env_quantiles"] + ["core.conformal_quantile"] * 3
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1, 1]
    assert {s[4] for s in tracer.spans} == {7}


def test_smoke_run_reports_every_metric_of_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "all", "--smoke", "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace))
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        expected = {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec[kind]}
        assert set(result["metrics"]) == expected
        for value in result["metrics"].values():
            assert np.isfinite(value["value"])
    sorts = result["metrics"]["point_queries.conformal.quantile_sorts_per_query"]["value"]
    assert sorts == 3.0


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "point_queries", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
