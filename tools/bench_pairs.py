"""Run the benchmark on two trees in alternating pairs and compare their end-to-end metrics.

Usage, from the repository root:

    python3 tools/bench_pairs.py BASE CHANGE --workload W|all --pairs K --seconds S
                                 [--seed N] [--busy] [--record]

BASE and CHANGE name commits; CHANGE may be ``.`` for the working tree (the
files git tracks or would track, as they are on disk). Each side is copied
into its own directory of a temporary one, at paths of equal length (a
commit with ``git archive``). For each workload, each of K pairs runs the
copies' own, unchanged

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0

once on each side, the base first in even pairs and the change first in odd
ones, and reads the run's ``.bench_out`` JSON record.

``--busy`` starts one CPU-bound loop process of this tool's own beside each
run, and kills and reaps it when the run ends, on every path: the run meets
a busy CPU, as it would beside another job on the host, and no machine
setting is touched. The A/A entry a busy run is read against is the latest
busy one, and each entry records whether it was busy.

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
medians over the K runs, the base's interquartile range, the range of the
K pair ratios (change over base, which on identical trees is the noise
floor a later claim is read against), how many pairs favour the change,
whether the change's median is within the metric's bound (its relative
worsening against the base's median is at most the bound), and whether the
run shows a gain by the rule a claimed gain is reviewed by: at least 9 in 10
pairs favour the change, and the change's median is better than the base's
by more than the base's interquartile range, so a claim's verdict does not
rest on a recorded A/A range alone. Beside each metric's pair ratios it
prints the pair-ratio range of the workload's latest recorded A/A entry
(one that compared a commit with itself) in
``BENCH_<workload>.json``, and flags the metric when every pair ratio of
this run lies on one side of that range, above or below it: a change that
the noise floor of identical trees does not cover. It also prints the medians of the raw
set-up times (``setup_runs_s``) and of their host-speed scales
(``setup_scales``), the failed operations of each side, and whether the
output fingerprints matched in every pair.

``--record`` appends one entry per workload to ``BENCH_<workload>.json`` at
the repository root: both sides, the environment block (with ``nproc`` and
the CPU affinity mask) and the figures above. Nothing else is written
outside the temporary directory, which is removed on every path, as is any
benchmark process still running.

Needs only the standard library and git. A run takes about S seconds plus
its set-up (10-30 s per run on a 2-vCPU host), so K pairs of one workload
take about 2 K (S + 30) seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, timeout=120).stdout


def describe(rev: str) -> str:
    """The commit rev names, or for ``.`` the working tree on top of HEAD."""
    head = _git("rev-parse", "HEAD" if rev == "." else f"{rev}^{{commit}}").decode().strip()
    return f"{head}+working-tree" if rev == "." else head


def copy_tree(rev: str, dest: Path) -> None:
    """The files of commit rev, or of the working tree for ``.``, under dest."""
    dest.mkdir()
    if rev != ".":
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", rev))) as tar:
            tar.extractall(dest, filter="data")
        return
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in listed.decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():  # a tracked file deleted on disk is left out
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(source.read_bytes())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON record of one unchanged benchmark run in tree."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # subprocess.run kills the run on any exception, a timeout or Ctrl-C too
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                          timeout=10 * seconds + 900)
    if done.returncode != 0:
        raise RuntimeError(f"{tree.name}: {workload} exited with code {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    with open(tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json", encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def busy_cpu():
    """One CPU-bound loop process beside the block; killed and reaped on every path."""
    loop = subprocess.Popen([sys.executable, "-c", "while True: pass"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    try:
        yield
    finally:
        loop.kill()
        loop.wait()


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _failed(record: dict) -> int:
    return round(record["error_rate"] * record["samples"]["operations"])


def recorded(workload: str) -> tuple[Path, list[dict]]:
    """BENCH_<workload>.json at the repository root and its entries, oldest first."""
    path = ROOT / f"BENCH_{workload}.json"
    return path, json.loads(path.read_text(encoding="utf-8")) if path.exists() else []


def noise_floor(workload: str, busy: bool) -> dict | None:
    """The latest recorded A/A entry of workload, one whose two sides are one commit,
    taken beside a busy CPU or not as busy says (an entry without the key was not)."""
    same = [e for e in recorded(workload)[1]
            if e["base"] == e["change"] and e.get("busy", False) == busy]
    return same[-1] if same else None


def _ratio_range(ratios: list) -> list[float] | None:
    known = [r for r in ratios if r is not None]
    return [min(known), max(known)] if known else None


def _outside(ratios: list, floor: list[float] | None) -> str | None:
    """"above" or "below" when every pair ratio lies on that side of the A/A range."""
    if floor is None or None in ratios:
        return None
    if all(r > floor[1] for r in ratios):
        return "above"
    return "below" if all(r < floor[0] for r in ratios) else None


def compare(pairs: list[tuple[dict, dict]], spec: dict, floor: dict | None) -> dict:
    """The figures of K (base, change) record pairs of one workload, read
    against the A/A entry floor (or None)."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
        base = [b["end_to_end_untraced"][name] for b, _ in pairs]
        change = [c["end_to_end_untraced"][name] for _, c in pairs]
        base_median, change_median = statistics.median(base), statistics.median(change)
        sign = 1.0 if higher else -1.0
        ratios = [c / b if b else None for b, c in zip(base, change)]
        favour = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        base_iqr = _iqr(base)
        aa = floor["metrics"].get(name) if floor else None
        aa_range = _ratio_range(aa["pair_ratios"]) if aa else None
        # the change's relative worsening against the base median; 0 when the base reads 0
        worse = sign * (base_median - change_median) / base_median if base_median else 0.0
        metrics[name] = {
            "better": metric["better"],
            "bound": bound,
            "base_median": base_median,
            "change_median": change_median,
            "base_iqr": base_iqr,
            "pair_ratios": ratios,
            "aa_pair_ratio_range": aa_range,
            "outside_aa": _outside(ratios, aa_range),
            "pairs_favouring_change": favour,
            # the rule a claimed gain is reviewed by: at least 9 in 10 pairs
            # favour the change, and its median is better by more than the base's IQR
            "gain_shown": 10 * favour >= 9 * len(pairs)
                          and sign * (change_median - base_median) > base_iqr,
            "relative_worsening": worse,
            "within_bound": worse <= bound,
        }
    sides = {"base": [b for b, _ in pairs], "change": [c for _, c in pairs]}
    return {
        "pairs": len(pairs),
        "aa_entry": {k: floor[k] for k in ("date", "base", "pairs")} if floor else None,
        "metrics": metrics,
        "setup_runs_s_median": {k: statistics.median(statistics.median(r["setup_runs_s"])
                                                     for r in v) for k, v in sides.items()},
        "setup_scales_median": {k: statistics.median(statistics.median(r["setup_scales"])
                                                     for r in v) for k, v in sides.items()},
        "failed_operations": {k: sum(map(_failed, v)) for k, v in sides.items()},
        "operations": {k: sum(r["samples"]["operations"] for r in v) for k, v in sides.items()},
        "src_sha256": {k: v[0]["environment"]["src_sha256"] for k, v in sides.items()},
        "fingerprints_match": all(b["fingerprints"] == c["fingerprints"] for b, c in pairs),
    }


def report(workload: str, result: dict, busy: bool) -> None:
    aa = result["aa_entry"]
    print(f"\n{workload}: {result['pairs']} pairs{' beside a busy CPU' if busy else ''}; A/A: "
          + (f"{aa['pairs']} pairs at {aa['base'][:12]} ({aa['date']})" if aa else "none recorded"))
    print(f"  {'metric':<14} {'base':>12} {'change':>12} {'base IQR':>10} "
          f"{'pair ratios':>13} {'A/A ratios':>13} {'favour':>6} {'worse':>7} {'bound':>5}"
          "  ok  gain")
    for name, m in result["metrics"].items():
        lo, hi = _ratio_range(m["pair_ratios"]) or (math.nan, math.nan)
        aa_lo, aa_hi = m["aa_pair_ratio_range"] or (math.nan, math.nan)
        flag = f"  {m['outside_aa']} A/A" if m["outside_aa"] else ""
        print(f"  {name:<14} {m['base_median']:>12.6g} {m['change_median']:>12.6g} "
              f"{m['base_iqr']:>10.4g} {lo:>6.3f}-{hi:<6.3f} {aa_lo:>6.3f}-{aa_hi:<6.3f} "
              f"{m['pairs_favouring_change']:>3}/{result['pairs']:<2} "
              f"{100 * m['relative_worsening']:>6.1f}% {m['bound']:>5} "
              f"{'yes' if m['within_bound'] else 'NO':<3} "
              f"{'yes' if m['gain_shown'] else 'no'}{flag}")
    for key in ("setup_runs_s_median", "setup_scales_median", "failed_operations"):
        print(f"  {key}: base {result[key]['base']!r}, change {result[key]['change']!r}")
    print(f"  fingerprints matched in every pair: {result['fingerprints_match']}")


def record(workload: str, entry: dict) -> Path:
    path, entries = recorded(workload)
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--busy", action="store_true",
                        help="run one CPU-bound loop process beside each benchmark run")
    parser.add_argument("--record", action="store_true",
                        help="append one entry per workload to BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        parser.error(f"unknown workload {args.workload!r}, expected one of {names} or all")
    sides = {"base": describe(args.base), "change": describe(args.change)}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {"base": Path(tmp) / "a", "change": Path(tmp) / "b"}
        copy_tree(args.base, trees["base"])
        copy_tree(args.change, trees["change"])
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                runs = {}
                for side in order:
                    with busy_cpu() if args.busy else contextlib.nullcontext():
                        runs[side] = run_once(trees[side], workload, args.seed, args.seconds)
                pairs.append((runs["base"], runs["change"]))
                print(f"{workload} pair {k + 1}/{args.pairs} done", file=sys.stderr)
            result = compare(pairs, spec, noise_floor(workload, args.busy))
            report(workload, result, args.busy)
            if args.record:
                environment = dict(pairs[0][0]["environment"])
                for key in ("commit", "src_sha256"):
                    environment.pop(key, None)
                environment["affinity"] = sorted(os.sched_getaffinity(0))
                entry = {"date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                         "workload": workload, **sides, "seed": args.seed,
                         "seconds": args.seconds, "busy": args.busy,
                         "environment": environment, **result}
                print(f"  recorded in {record(workload, entry)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
