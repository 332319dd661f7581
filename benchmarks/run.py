"""Benchmark of the acir package: end-to-end metrics per workload, or a traced breakdown.

Run from the repository root::

    python3 benchmarks/run.py --workload replication --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --smoke        # all three, a few seconds

The workloads are described in ``workloads.py``. The package is imported
from ``src/`` beside this directory; without it the benchmark exits with
code 2. ``OPENBLAS_NUM_THREADS`` is pinned to 1 for this process and every
process it starts.

Set-up (import, input generation from ``--seed``, warm-up) runs several
times and ``setup_s`` is its median; the import is timed in a fresh
interpreter each time. Then passes repeat until ``--seconds`` have elapsed
(a pass that has started finishes). Every operation's output is checked; a
failed check counts in ``failed`` and does not stop the run.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
rates are medians over passes of work divided by the time spent inside the
program's calls, latencies are medians over passes of each pass's latency
quantiles. Each pass's times, and each set-up's, are scaled to a fixed host
speed measured between operations (``hostspeed.py``), so that a slow stretch
of a shared host does not read as a slower program; the times as measured
are printed and recorded beside them. ``--trace 1``
alternates untraced and traced passes on the same inputs and reports the
per-layer metrics of ``BENCHMARK.json`` from the traced passes, each per
rep, plus the tracing overhead as the gap between the two kinds of pass.

Besides the last line (the JSON result), the run prints every metric with
its unit, ``error_rate``, the sample counts, the environment record, the
input sizes and SHA-256 fingerprints of the outputs, and writes all of it to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` (spans of a traced run to
``.bench_out/spans-<workload>-seed<seed>.csv``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREADS = "1"
IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import acir.cli\n"
    "print(time.perf_counter() - start)\n"
)


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=BLAS_THREADS)


def import_seconds() -> float:
    """Seconds ``import acir.cli`` takes in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(f"{base}/{index}/level")
        kind = _read(f"{base}/{index}/type")
        if level and kind and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = (_read(f"{base}/{index}/size") or "").strip()
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "acir").rglob("*.py")):
        tree.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), platform.processor() or None)
    caches = _caches()
    return {
        "commit": commit,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
    }


def measure(workload, seconds: float, trace: bool):
    """Run passes for ``seconds``; with tracing, odd passes are traced.

    Under tracing both passes of a pair see the same inputs, so their
    difference is the tracing overhead and not a difference of inputs.
    """
    from spans import Tracer

    tracer = Tracer() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() - start < seconds:
        use = tracer if trace and index % 2 else None
        round_index = index // 2 if trace else index
        first = len(workload.speed.samples)
        workload.speed.sample(force=True)
        if use is not None:
            use.install()
        try:
            done = workload.run_pass(round_index, use)
        finally:
            if use is not None:
                use.uninstall()
        workload.speed.sample(force=True)
        done.scale = workload.speed.scale_since(first)
        (traced if use is not None else untraced).append(done)
        index += 1
    workload.finish()
    return untraced, traced, tracer


def _quantile(values: list[float], percent: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def end_to_end(passes, setups, scaled: bool = True) -> dict[str, float]:
    """Rates and latency quantiles are medians over passes of each pass's figure.

    With ``scaled`` each pass's times are scaled by the host speed measured
    during it (``hostspeed.py``), and each set-up's time by the speed
    measured around it; without, they are the times as measured.
    """
    def scale(k: float) -> float:
        return k if scaled else 1.0

    timed = [p for p in passes if p.busy_s > 0]
    return {
        "setup_s": statistics.median(s * scale(k) for s, k in setups),
        "reps_per_s": statistics.median(p.reps / (p.busy_s * scale(p.scale)) for p in timed),
        "rows_per_s": statistics.median(p.rows / (p.busy_s * scale(p.scale)) for p in timed),
        "queries_per_s": statistics.median(len(p.latencies) / (p.busy_s * scale(p.scale)) for p in timed),
        "query_p50_us": statistics.median(_quantile(p.latencies, 50) * scale(p.scale) for p in passes) * 1e6,
        "query_p99_us": statistics.median(_quantile(p.latencies, 99) * scale(p.scale) for p in passes) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced, tracer, names: list[str]) -> dict[str, float]:
    """Per-layer totals of the traced passes, divided by the reps those passes did."""
    from spans import aggregate

    stats = aggregate(tracer.spans)
    stats.update(tracer.work)
    reps = max(sum(p.reps for p in traced), 1)
    untraced_s = sum(p.busy_s for p in untraced) / max(sum(p.reps for p in untraced), 1)
    traced_s = sum(p.busy_s for p in traced) / reps
    acir_calls = stats.get("conformal.acir_interval.calls", 0)
    derived = {
        "conformal.quantile_sorts_per_query":
            stats.get("core.conformal_quantile.calls", 0) / acir_calls if acir_calls else 0.0,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.top_level_s": stats.get("top_level_s", 0.0) / reps,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s if untraced_s else 0.0,
        "trace.spans": len(tracer.spans) / reps,
    }
    return {name: derived[name] if name in derived else stats.get(name, 0.0) / reps
            for name in names}


def run_one(args, spec: dict) -> dict:
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, str(workdir))
    try:
        setups = []  # (seconds, host speed scale)
        for _ in range(sizes.setup_repeats):
            first = len(workload.speed.samples)
            workload.speed.sample(force=True)
            imported = import_seconds()
            start = time.perf_counter()
            workload.setup()
            took = imported + time.perf_counter() - start
            workload.speed.sample(force=True)
            setups.append((took, workload.speed.scale_since(first)))
        untraced, traced, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    e2e = end_to_end(untraced, setups)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(untraced, traced, tracer, names)
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.csv"))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = e2e
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "inputs": workload.record(),
        "samples": {"passes_untraced": len(untraced), "passes_traced": len(traced),
                    "operations": attempted,
                    "latency_samples": sum(len(p.latencies) for p in untraced)},
        "setup_runs_s": [s for s, _ in setups],
        "setup_scales": [k for _, k in setups],
        "pass_busy_s": {"untraced": [p.busy_s for p in untraced], "traced": [p.busy_s for p in traced]},
        "pass_scales": {"untraced": [p.scale for p in untraced], "traced": [p.scale for p in traced]},
        "host_kernel_s": workload.speed.samples,
        "end_to_end_untraced": e2e,
        "end_to_end_unscaled": end_to_end(untraced, setups, scaled=False),
        "error_rate": failed / attempted,
        "failures": workload.failures,
        "fingerprints": workload.fingerprints,
        "untraced_targets": sorted(set(tracer.missing) | tracer.uncounted) if tracer else [],
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record | {"metrics": values}, fh, indent=1)

    for name in names:
        print(f"{args.workload} {name} = {values[name]!r} {units[name]}")
    print(f"{args.workload} error_rate = {record['error_rate']!r} ({failed}/{attempted})")
    for key in ("end_to_end_unscaled", "samples", "inputs", "environment", "fingerprints",
                "untraced_targets"):
        print(f"{args.workload} {key}: {json.dumps(record[key], sort_keys=True)}")
    for failure in workload.failures:
        print(f"{args.workload} failure: {failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }


def run_all(args, spec: dict) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in [w["name"] for w in spec["workloads"]]:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv + (["--smoke"] if args.smoke else []), env=_child_env(),
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"workload {name} exited with code {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, for checking the benchmark itself")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "acir" / "__init__.py").is_file():
        print(f"error: the acir sources are missing: no {SRC / 'acir'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]} | {"all"}:
        parser.error(f"unknown workload {args.workload!r}")

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import acir

    if Path(acir.__file__).resolve().parent != SRC / "acir":
        print(f"error: imported acir from {acir.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    result = run_all(args, spec) if args.workload == "all" else run_one(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
