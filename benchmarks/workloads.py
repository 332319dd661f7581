"""The three benchmark workloads: inputs from a seed, set-up, timed passes, checks.

Each workload is one closed loop with a single caller: the next operation
starts only after the previous one returned and was checked. A *pass* is the
unit the loop repeats; a *rep* is the unit of work the rates count:

* ``replication`` -- the paper's experiment. A pass is one ``acir bench run``
  per setting (FOU, FEU, POU, PEU), each with 20 replications of 2000 train /
  2000 calibration / 2000 test rows over 3 environments and all four methods,
  on a fresh seed per pass. An operation is one ``bench run``; a rep is one
  replication; its rows are the 6000 rows that replication draws.
* ``csv_pipeline`` -- the practitioner path: ``datagen`` (PEU, 1e5 rows) ->
  ``fit --calibration-out`` -> ``assess`` -> ``predict --method acir`` on a
  1e5-row points CSV written during set-up. An operation is one CLI command;
  a rep is one four-command pass; its rows are the 1e5 data rows.
* ``point_queries`` -- single-point ``CalibrationState.acir_interval`` calls
  on a state calibrated during set-up from a 1e5-row, 50/50 split (about
  16.7k scores per environment). An operation, a rep and a row are one query.

Every fit uses the per-setting penalty weight and ``init_scale`` that
``tests/test_acceptance.py`` runs the paper's experiment with. Under the
default penalty weight the optimizer's iteration count hinges on the seed:
one FEU ``bench run`` took from 0.5 s to 8 s, and the PEU fit of
``csv_pipeline`` 0.8 s for one seed in sixteen and 5 ms for the others
(2-vCPU Intel Xeon, Python 3.11, numpy 2.4), which would make a workload's
rate a property of the seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO

import numpy as np

from acir import cli
from acir.conformal import calibrate
from acir.datagen import SemConfig, generate_sem, split_dataset
from acir.models import FitConfig, fit_irmv1

from hostspeed import HostSpeed

ALPHA = 0.05
SETTINGS = ("FOU", "FEU", "POU", "PEU")
PENALTY = {"FOU": 8.0, "FEU": 0.7, "POU": 30.0, "PEU": 1.0}
N_METHODS = 4
N_ENVS = 3
N_FEATURES = 10  # dim_x1 + dim_x2 of the default SEM
ENV_SCALES = (0.2, 2.0, 5.0)
# Pooled SC-IRM coverage, averaged over a bench run's replications, must lie in
# this band: the acceptance tests' per-replication floor, mirrored about 1 - alpha.
SC_COVERAGE_BAND = (0.935, 0.965)


def coverage_band(reps: int, n_cal: int, n_test: int) -> tuple[float, float]:
    """SC_COVERAGE_BAND, widened to six standard errors of the mean for small runs."""
    se = math.sqrt(ALPHA * (1 - ALPHA) * (1 / n_cal + 1 / n_test) / reps)
    return min(SC_COVERAGE_BAND[0], 1 - ALPHA - 6 * se), max(SC_COVERAGE_BAND[1], 1 - ALPHA + 6 * se)


@dataclass(frozen=True)
class Sizes:
    reps: int = 20               # replications per bench run
    n_per_part: int = 2000       # train, calibration and test rows per replication
    csv_rows: int = 100_000      # datagen rows, and points given to predict
    cal_rows: int = 100_000      # point_queries rows before the 50/50 train/calibration split
    queries: int = 4096          # distinct query points, cycled through
    block: int = 1024            # queries per point_queries pass: 10 beyond its p99
    bit_sample: int = 256        # queries checked bit for bit against a 1-row batch
    setup_repeats: int = 5


FULL = Sizes()
SMOKE = Sizes(reps=2, n_per_part=300, csv_rows=3000, cal_rows=3000, queries=256,
              block=64, bit_sample=16, setup_repeats=1)


def derive(seed: int, *path: int) -> int:
    """A 32-bit seed for one input stream, from the workload seed and a path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _points(seed: int, n: int) -> np.ndarray:
    """Query features: Gaussian rows, each at the scale of one environment."""
    rng = np.random.default_rng(seed)
    scales = rng.choice(ENV_SCALES, size=n)
    return rng.standard_normal((n, N_FEATURES)) * scales[:, None]


@dataclass
class Pass:
    """Timings and check results of one pass."""

    latencies: list[float] = field(default_factory=list)  # seconds, one per operation
    failed: int = 0
    reps: int = 0
    rows: int = 0
    scale: float = 1.0  # host speed during the pass, see hostspeed.py

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = os.path.join(workdir, self.name)
        self.fingerprints: dict[str, str] = {}
        self.failures: list[str] = []
        self.speed = HostSpeed()
        self._op = 0

    def inputs(self) -> bytes:
        """Canonical bytes of every input the seed generates."""
        raise NotImplementedError

    def setup(self) -> None:
        """Generate the inputs and warm up; may run several times."""
        raise NotImplementedError

    def run_pass(self, round_index: int, tracer) -> Pass:
        raise NotImplementedError

    def record(self) -> dict:
        """Input sizes for the result record."""
        raise NotImplementedError

    def finish(self) -> None:
        """Compute what needs every pass, such as fingerprints of answers."""

    def _timed(self, out: Pass, tracer, call):
        """Run one operation; an exception counts as a failed operation."""
        self.speed.sample()
        self._op += 1
        if tracer is not None:
            tracer.op = self._op
        start = time.perf_counter()
        try:
            result = call()
        except Exception:  # noqa: BLE001 - the loop must keep running and count it
            out.latencies.append(time.perf_counter() - start)
            self._fail(out, traceback.format_exc(limit=3))
            return None
        out.latencies.append(time.perf_counter() - start)
        return result

    def _checked(self, check, *args) -> str | None:
        """What ``check`` found wrong, including output it could not read."""
        try:
            return check(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _fail(self, out: Pass, reason: str) -> None:
        out.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{self.name} op {self._op}: {reason}")

    def _fresh_dir(self, *parts: str) -> str:
        path = os.path.join(self.workdir, *parts)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def _cli(argv: list[str]) -> int:
    with redirect_stdout(StringIO()):
        return cli.main(argv)


class Replication(Workload):
    name = "replication"

    def bench_args(self, round_index: int, setting: str) -> list[str]:
        n = str(self.sizes.n_per_part)
        return [
            "bench", "run", "--setting", setting, "--alpha", repr(ALPHA),
            "--reps", str(self.sizes.reps), "--seed", str(derive(self.seed, 0, round_index)),
            "--n-train", n, "--n-cal", n, "--n-test", n,
            "--penalty-weight", repr(PENALTY[setting]), "--init-scale", "1.0",
        ]

    def inputs(self) -> bytes:
        argvs = [self.bench_args(r, s) for r in range(4) for s in SETTINGS]
        return json.dumps(argvs).encode()

    def setup(self) -> None:
        warm = self._fresh_dir("warm")
        argv = self.bench_args(0, "FOU")
        argv[argv.index("--reps") + 1] = "1"
        for flag in ("--n-train", "--n-cal", "--n-test"):
            argv[argv.index(flag) + 1] = "60"
        if _cli(argv + ["--out", warm]) != 0:
            raise RuntimeError("warm-up bench run failed")

    def run_pass(self, round_index: int, tracer) -> Pass:
        out = Pass()
        for setting in SETTINGS:
            target = self._fresh_dir(setting)
            argv = self.bench_args(round_index, setting) + ["--out", target]
            code = self._timed(out, tracer, lambda: _cli(argv))
            if code is None:
                continue
            problem = self._checked(self._check, code, target)
            if problem:
                self._fail(out, f"{setting}: {problem}")
                continue
            out.reps += self.sizes.reps
            out.rows += self.sizes.reps * 3 * self.sizes.n_per_part
            if round_index == 0:
                for fname in ("metrics.csv", "summary.csv"):
                    self.fingerprints[f"{setting}/{fname}"] = sha256(os.path.join(target, fname))
        return out

    def _check(self, code: int, target: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        with open(os.path.join(target, "metrics.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = self.sizes.reps * N_METHODS * (N_ENVS + 1)
        if len(rows) != expected:
            return f"metrics.csv has {len(rows)} rows, expected {expected}"
        pooled = [float(r["coverage"]) for r in rows
                  if r["method"] == "SC-IRM" and r["scope"] == "pooled"]
        mean = sum(pooled) / len(pooled) if pooled else math.nan
        lo, hi = coverage_band(self.sizes.reps, self.sizes.n_per_part, self.sizes.n_per_part)
        if not lo <= mean <= hi:
            return f"mean pooled SC-IRM coverage {mean!r} outside [{lo}, {hi}]"
        return None

    def record(self) -> dict:
        return {
            "settings": list(SETTINGS), "replications_per_bench_run": self.sizes.reps,
            "train_rows": self.sizes.n_per_part, "calibration_rows": self.sizes.n_per_part,
            "test_rows": self.sizes.n_per_part, "environments": N_ENVS, "methods": N_METHODS,
            "rows_per_rep": 3 * self.sizes.n_per_part,
        }


class CsvPipeline(Workload):
    name = "csv_pipeline"

    def points_text(self) -> str:
        x = _points(derive(self.seed, 1), self.sizes.csv_rows)
        lines = [",".join(f"x{j}" for j in range(1, N_FEATURES + 1))]
        lines += [",".join(map(repr, row)) for row in x.tolist()]
        return "\n".join(lines) + "\n"

    def steps(self, d: str, n: int, points: str) -> list[list[str]]:
        data, model, state = f"{d}/data.csv", f"{d}/model.txt", f"{d}/state.txt"
        return [
            ["datagen", "sem", "--setting", "PEU", "--n", str(n),
             "--seed", str(derive(self.seed, 2)), "--out", data],
            ["fit", "--data", data, "--out", model, "--calibration-out", state,
             "--penalty-weight", repr(PENALTY["PEU"]), "--init-scale", "1.0"],
            ["assess", "--model", model, "--data", data, "--out", f"{d}/invariance.csv"],
            ["predict", "--model", model, "--calibration", state, "--input", points,
             "--alpha", repr(ALPHA), "--method", "acir", "--out", f"{d}/intervals.csv"],
        ]

    def inputs(self) -> bytes:
        return self.points_text().encode() + json.dumps(self.steps("", self.sizes.csv_rows, "")).encode()

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        text = self.points_text()
        self.points = os.path.join(self.workdir, "points.csv")
        with open(self.points, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        warm = self._fresh_dir("warm")
        warm_points = os.path.join(warm, "points.csv")
        with open(warm_points, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(text.split("\n", 201)[:201]) + "\n")
        for argv in self.steps(warm, 3000, warm_points):
            if _cli(argv) != 0:
                raise RuntimeError(f"warm-up {argv[0]} failed")

    def run_pass(self, round_index: int, tracer) -> Pass:
        out = Pass()
        d = self._fresh_dir("run")
        ok = True
        for argv in self.steps(d, self.sizes.csv_rows, self.points):
            code = self._timed(out, tracer, lambda: _cli(argv))
            if code is None:
                ok = False
                continue
            problem = f"exit code {code}" if code != 0 else self._checked(self._check, argv[0], d)
            if problem:
                self._fail(out, f"{argv[0]}: {problem}")
                ok = False
        if ok:
            out.reps, out.rows = 1, self.sizes.csv_rows
            if round_index == 0:
                for fname in ("data.csv", "model.txt", "state.txt", "invariance.csv", "intervals.csv"):
                    self.fingerprints[fname] = sha256(os.path.join(d, fname))
        return out

    def _check(self, step: str, d: str) -> str | None:
        if step == "datagen":
            with open(f"{d}/data.csv", "rb") as fh:
                lines = fh.read().count(b"\n")
            if lines != self.sizes.csv_rows + 1:
                return f"data.csv has {lines} lines, expected {self.sizes.csv_rows + 1}"
        elif step == "fit":
            for fname in ("model.txt", "state.txt"):
                if os.path.getsize(f"{d}/{fname}") == 0:
                    return f"{fname} is empty"
        elif step == "assess":
            with open(f"{d}/invariance.csv", encoding="utf-8") as fh:
                inv = [float(ln.split(",")[1]) for ln in fh if ln.startswith("inv,")]
            if len(inv) != 1 or not (math.isfinite(inv[0]) and inv[0] >= 0):
                return f"inv {inv} is not one finite nonnegative value"
        elif step == "predict":
            iv = np.loadtxt(f"{d}/intervals.csv", delimiter=",", skiprows=1, ndmin=2)
            if iv.shape != (self.sizes.csv_rows, 3):
                return f"intervals.csv has shape {iv.shape}, expected ({self.sizes.csv_rows}, 3)"
            center, lower, upper = iv.T
            if not np.isfinite(iv).all() or not ((lower <= center) & (center <= upper)).all():
                return "an interval is not finite with lower <= center <= upper"
        return None

    def record(self) -> dict:
        return {"setting": "PEU", "data_rows": self.sizes.csv_rows,
                "points_rows": self.sizes.csv_rows, "features": N_FEATURES,
                "environments": N_ENVS, "train_fraction": 0.5}


class PointQueries(Workload):
    name = "point_queries"

    def data(self):
        sem = SemConfig(setting="PEU", seed=derive(self.seed, 3))
        base, rem = divmod(self.sizes.cal_rows, N_ENVS)
        envs = [generate_sem(sem, e, base + (i < rem), stream_seed=derive(self.seed, 4))
                for i, e in enumerate(sem.env_params)]
        return [split_dataset(env, 0.5, seed=derive(self.seed, 5)) for env in envs]

    def queries(self) -> np.ndarray:
        return _points(derive(self.seed, 6), self.sizes.queries)

    def inputs(self) -> bytes:
        parts = [self.queries().tobytes()]
        for sp in self.data():
            for env in (sp.train, sp.calibration):
                parts += [env.features.tobytes(), env.targets.tobytes()]
        return b"".join(parts)

    def setup(self) -> None:
        splits = self.data()
        model = fit_irmv1([sp.train for sp in splits],
                          FitConfig(penalty_weight=PENALTY["PEU"], init_scale=1.0))
        self.state = calibrate(model, [sp.calibration for sp in splits])
        self.x = self.queries()
        rng = np.random.default_rng(derive(self.seed, 7))
        sample = rng.choice(self.sizes.queries, size=self.sizes.bit_sample, replace=False)
        self.one_row = {int(i): self.state.acir_intervals(self.x[i:i + 1], ALPHA)[0] for i in sample}
        batch = self.state.acir_intervals(self.x, ALPHA)
        self.batch = np.array([(iv.center, iv.half_width) for iv in batch])
        self.answers = np.full((self.sizes.queries, 2), np.nan)
        self.batch_bit_mismatches = 0
        for i in range(min(200, self.sizes.queries)):
            self.state.acir_interval(self.x[i], ALPHA)

    def run_pass(self, round_index: int, tracer) -> Pass:
        out = Pass()
        state, x, q = self.state, self.x, self.sizes.queries
        first = round_index * self.sizes.block
        for k in range(first, first + self.sizes.block):
            i = k % q
            iv = self._timed(out, tracer, lambda: state.acir_interval(x[i], ALPHA))
            if iv is None:
                continue
            problem = self._check(i, iv)
            if problem:
                self._fail(out, f"query {i}: {problem}")
                continue
            out.reps += 1
            out.rows += 1
        return out

    def _check(self, i: int, iv) -> str | None:
        # A single-point answer must equal a 1-row acir_intervals call bit for bit.
        # A row of the many-row batch may differ in the last bits, because BLAS
        # uses other kernels for one row than for many, so that comparison has a
        # tolerance and its bit differences are only counted for the record.
        got = np.array([iv.center, iv.half_width])
        if not np.isfinite(got).all() or not iv.lower <= iv.center <= iv.upper:
            return f"interval {got} is not finite with lower <= center <= upper"
        ref = self.one_row.get(i)
        if ref is not None and got.tobytes() != np.array([ref.center, ref.half_width]).tobytes():
            return f"{got!r} differs in bits from the 1-row acir_intervals result"
        batch = self.batch[i]
        if not np.allclose(got, batch, rtol=1e-12, atol=1e-12):
            return f"{got!r} differs from the acir_intervals batch row {batch!r}"
        if np.isnan(self.answers[i, 0]):
            self.answers[i] = got
            self.batch_bit_mismatches += got.tobytes() != batch.tobytes()
        return None

    def finish(self) -> None:
        answered = self.answers[~np.isnan(self.answers[:, 0])]
        self.fingerprints["intervals"] = hashlib.sha256(answered.tobytes()).hexdigest()

    def record(self) -> dict:
        return {
            "setting": "PEU", "rows_before_split": self.sizes.cal_rows,
            "calibration_scores_per_env": [int(s.size) for s in self.state.scores],
            "distinct_queries": self.sizes.queries, "queries_per_pass": self.sizes.block,
            "bit_checked_queries": self.sizes.bit_sample,
            "answers_differing_in_bits_from_batch_row": int(self.batch_bit_mismatches),
            "answers_compared_with_batch_row": int((~np.isnan(self.answers[:, 0])).sum()),
        }


WORKLOADS = {w.name: w for w in (Replication, CsvPipeline, PointQueries)}
