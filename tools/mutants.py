"""Apply named single-site mutants to a copy of the package and report which the tests kill.

Usage, from the repository root:

    python3 tools/mutants.py [--root DIR]

Each mutant of MUTANTS replaces one string of one module of src/acir with
another; the string must occur exactly once in that module. For each mutant
the script copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` of the tree at DIR (the repository by
default; a commit's tree can be unpacked with ``git archive``) to a new
temporary directory, applies the mutant there and runs the Tier-1 suite
without ``tests/test_golden.py``:

    python3 -m pytest -q -x -p no:cacheprovider tests --ignore=tests/test_golden.py

The golden pins are left out because a change that declares new output
bytes re-takes them, and the mutants ask what guards the semantics then.
A failing run (or one that exceeds TIMEOUT_S) kills the mutant; a passing
run lets it survive. Before the mutants, the unmutated copy must pass.

It prints one line per mutant, ``killed``, ``survived`` or ``unmatched``
(its string does not occur exactly once in that tree), and a count. Every
mutant must be killed: it exits 0 if every mutant matched and was killed,
1 if one survived, 2 if one did not match or the unmutated copy failed. Needs nothing beyond pytest and the package's own tests; one
run of the suite takes about 20 s on a 2-vCPU host, a killed mutant less.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
COPIED = ("src", "tests", "pyproject.toml", "README.md")


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/acir
    old: str
    new: str


MUTANTS = [
    # The semantics of the paper's methods and of the replication runner: the
    # conformal rank, the AC weights and quantiles, the fitter's penalty, the
    # invariance statistic, the metrics, and the runner's seeds and scope bounds.
    Mutant("quantile-rank-n", "core.py",
           "k = -((num - den) * (n + 1) // den)", "k = -((num - den) * n // den)"),
    Mutant("quantile-rank-floor", "core.py",
           "k = -((num - den) * (n + 1) // den)", "k = (den - num) * (n + 1) // den"),
    Mutant("weights-drop-mu", "conformal.py",
           "tau = np.add(dist[0], dist[1], out=dist[0])", "tau = dist[1]"),
    Mutant("weights-drop-v", "conformal.py",
           "tau = np.add(dist[0], dist[1], out=dist[0])", "tau = dist[0]"),
    Mutant("weights-uniform", "conformal.py",
           "w /= np.add.reduce(w, axis=1, keepdims=True)", "w[:] = 1.0 / w.shape[1]"),
    Mutant("ac-pooled-quantile", "conformal.py",
           "halves = self._combine(self._weights_matrix(x), self.env_quantiles(alpha))",
           "halves = self._combine(self._weights_matrix(x), np.full(self.m, "
           "self._quantiles(alpha)[1]))"),
    Mutant("calibration-scores-inflated", "conformal.py",
           "resid = np.abs(env.targets - model.predict(env.features))",
           "resid = 1.02 * np.abs(env.targets - model.predict(env.features))"),
    Mutant("erm-keeps-penalty", "models.py",
           "return fit_irmv1(train, replace(config, penalty_weight=0.0))",
           "return fit_irmv1(train, config)"),
    Mutant("no-penalty-gradient", "models.py",
           "factors += (2.0, 4.0 * lam * g)", "factors += (2.0, 0.0)"),
    Mutant("inv-from-mean", "invariance.py",
           "inv = float(np.mean(np.var(mat, axis=1)))",
           "inv = float(np.mean(np.mean(mat, axis=1)))"),
    Mutant("strict-containment", "core.py",
           "return (self.lower <= y) & (y <= self.upper)",
           "return (self.lower < y) & (y < self.upper)"),
    Mutant("doubled-avg-length", "core.py",
           "return float(np.mean(intervals.half_width))",
           "return float(2.0 * np.mean(intervals.half_width))"),
    Mutant("split-seed-ignores-replication", "bench.py",
           "seed=_derived_seed(config.seed, replication, pool.env_id)",
           "seed=_derived_seed(config.seed, 0, pool.env_id)"),
    Mutant("test-draw-is-pool-draw", "bench.py",
           "stream_seed=2 * data_rep + 1)", "stream_seed=2 * data_rep)"),
    Mutant("sc-ac-swapped", "bench.py",
           'build = state.sc_intervals if method.startswith("SC") else state.acir_intervals',
           'build = state.acir_intervals if method.startswith("SC") else state.sc_intervals'),
    Mutant("scope-bounds-shifted", "bench.py",
           "(str(env.env_id), end - env.n, end)", "(str(env.env_id), end - env.n + 1, end + 1)"),
    Mutant("ac-weights-unnormalized", "conformal.py",
           "w /= np.add.reduce(w, axis=1, keepdims=True)", "w /= 1.0"),
    Mutant("quantile-finite-cap", "core.py",
           "    if k > n:\n        return math.inf",
           "    if k > n:\n        return float(sorted_scores[-1])"),
    Mutant("pooled-sort-dropped", "conformal.py", "pooled.sort()", "pass"),
    Mutant("negative-id-seed-unmapped", "core.py",
           "words = [v % 2**64 if v < 0 else v for v in path]", "words = list(path)"),
    Mutant("seed-words-always-uint32", "core.py",
           "if all(v < 2**32 for v in words):", "if True:"),
    # Every file read keeps its rules, and the fork primitive hands back in full,
    # from its worker or, once that has failed, from its one fallback.
    Mutant("rows-accept-non-finite", "datagen.py",
           'raise ValueError("non-finite value")', "pass"),
    Mutant("no-data-rows-accepted", "datagen.py",
           'raise CsvParseError(f"{path}: no data rows")', "pass"),
    Mutant("load-state-skips-moment-check", "conformal.py",
           "            _check_moments(mu, v)", "            pass"),
    Mutant("combine-inf-test-inverted", "conformal.py",
           "if math.inf not in env_q.tolist():", "if math.inf in env_q.tolist():"),
    Mutant("small-job-no-rewind", "core.py",
           "        out.seek(0)\n        return join(result, out)",
           "        if fork:\n            out.seek(0)\n        return join(result, out)"),
    Mutant("refuse-penalty-ignores-warmup", "models.py",
           "_refuse_given({name: getattr(self, name) for name in _IRM_DEFAULTS}, why)",
           '_refuse_given({"penalty_weight": self.penalty_weight}, why)'),
    # The one home of each rule that several modules once built by hand.
    Mutant("feature-count-allows-extra", "core.py",
           "    if got != want:\n", "    if got < want:\n"),
    Mutant("refuse-given-passes-falsy", "core.py",
           "        if value is not None:\n", "        if value:\n"),
    Mutant("header-allows-extra-cells", "datagen.py",
           "if len(text.split()) != width:", "if len(text.split()) < width:"),
    Mutant("header-keeps-quotes", "datagen.py",
           "header = [c[1:-1] if len(c) > 1 and c[0] == c[-1] == '\"' else c for c in header]",
           "header = header"),
    Mutant("join-drops-worker-rows", "core.py",
           "return np.concatenate([first, np.frombuffer(out.buffer.read(), first.dtype)])",
           "return first"),
    Mutant("worker-reports-failure", "core.py",
           "                status = 0\n", "                pass\n"),
    Mutant("worker-not-killed-on-own-error", "core.py",
           "os.kill(pid, signal.SIGKILL)", "pass"),
    Mutant("fallback-keeps-worker-bytes", "core.py",
           "                out.truncate()\n", "                pass\n"),
    # A calibration state's one quantile memo, and the model's representation
    # that its AC weights read.
    Mutant("memo-keeps-stale-alpha", "conformal.py",
           "if memo[0] != alpha:", "if memo[1] is None:"),
    Mutant("pooled-quantile-from-one-env", "conformal.py",
           "for sc in (self.pooled_sorted, *self.scores)",
           "for sc in (self.scores[0], *self.scores)"),
    Mutant("weights-moments-of-raw-points", "conformal.py",
           "_stacked_moments(self.model.represent(x))", "_stacked_moments(x)"),
]


def run_suite(tree: Path) -> bool:
    """Whether Tier-1 without the golden pins passes in tree, within TIMEOUT_S."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests",
           "--ignore=tests/test_golden.py"]
    # No bytecode is written, so no mutant is run from another's cached module.
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def copy_tree(root: Path, into: Path) -> Path:
    tree = into / "tree"
    for name in COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            tree.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, tree / name)
    return tree


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="tree whose src/ and tests/ are mutated (default: this repository)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="acir-mutants-") as tmp:
        tree = copy_tree(args.root.resolve(), Path(tmp))
        if not run_suite(tree):
            print("the unmutated copy fails its tests; no mutant can be judged")
            return 2
        counts = {"killed": 0, "survived": 0, "unmatched": 0}
        status = 0
        for mutant in MUTANTS:
            path = tree / "src" / "acir" / mutant.module
            source = path.read_text(encoding="utf-8")
            if source.count(mutant.old) != 1:
                outcome = "unmatched"
                status = 2
            else:
                path.write_text(source.replace(mutant.old, mutant.new), encoding="utf-8")
                try:
                    outcome = "survived" if run_suite(tree) else "killed"
                finally:
                    path.write_text(source, encoding="utf-8")
                if outcome == "survived":
                    status = max(status, 1)
            counts[outcome] += 1
            print(f"{mutant.name:34} {mutant.module:14} {outcome}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
