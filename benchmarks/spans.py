"""Span recording around calls into the ``acir`` modules, from outside them.

A traced pass substitutes each name in ``TARGETS`` at the place its caller
looks it up (a module global such as ``acir.cli.load_csv``, or a method on
``CalibrationState``) with a wrapper that records a span, then puts the
original back. Nothing under ``src/`` is edited, and untraced passes run the
original functions untouched.

A span is ``(name, start_ns, end_ns, parent, op)``: ``parent`` is the index
of the enclosing span (-1 for a top-level call) and ``op`` is the id of the
benchmark operation that caused it. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import importlib
import os
import time
from collections import defaultdict


def _points_of_x(args, kwargs, result):
    return "points", len(args[1]) if len(args) > 1 else len(kwargs["x"])


def _result_rows(args, kwargs, result):
    return "rows", result.n


def _bytes_of_path_arg(index):
    def count(args, kwargs, result):
        return "bytes", os.path.getsize(args[index])
    return count


# (module, attribute, span name, work counter). The module is where the caller
# looks the name up; "acir.conformal:CalibrationState" names a class whose
# method is replaced. The span name is "<defining module>.<function>".
TARGETS = [
    ("acir.cli", "_cmd_bench_run", "cli.bench_run", None),
    ("acir.cli", "_cmd_datagen_sem", "cli.datagen", None),
    ("acir.cli", "_cmd_fit", "cli.fit", None),
    ("acir.cli", "_cmd_assess", "cli.assess", None),
    ("acir.cli", "_cmd_predict", "cli.predict", None),
    ("acir.cli", "run_experiment", "bench.run_experiment", None),
    ("acir.cli", "summarize", "bench.summarize", None),
    ("acir.cli", "emit_outputs", "bench.emit_outputs", None),
    ("acir.cli", "generate_sem", "datagen.generate_sem", _result_rows),
    ("acir.bench", "generate_sem", "datagen.generate_sem", _result_rows),
    ("acir.cli", "split_dataset", "datagen.split_dataset", None),
    ("acir.bench", "split_dataset", "datagen.split_dataset", None),
    ("acir.cli", "save_csv", "datagen.save_csv", _bytes_of_path_arg(1)),
    ("acir.cli", "load_csv", "datagen.load_csv", _bytes_of_path_arg(0)),
    ("acir.bench", "load_csv", "datagen.load_csv", _bytes_of_path_arg(0)),
    ("acir.cli", "fit_irmv1", "models.fit_irmv1", None),
    ("acir.bench", "fit_irmv1", "models.fit_irmv1", None),
    ("acir.cli", "fit_erm", "models.fit_erm", None),
    ("acir.bench", "fit_erm", "models.fit_erm", None),
    ("acir.cli", "save_model", "models.save_model", None),
    ("acir.cli", "load_model", "models.load_model", None),
    ("acir.cli", "calibrate", "conformal.calibrate", None),
    ("acir.bench", "calibrate", "conformal.calibrate", None),
    ("acir.cli", "save_state", "conformal.save_state", _bytes_of_path_arg(1)),
    ("acir.cli", "load_state", "conformal.load_state", None),
    ("acir.cli", "fit_density", "invariance.fit_density", None),
    ("acir.cli", "inv_statistic", "invariance.inv_statistic", None),
    ("acir.cli", "write_report", "invariance.write_report", None),
    ("acir.bench", "coverage_rate", "core.coverage_rate", None),
    ("acir.bench", "average_length", "core.average_length", None),
    ("acir.conformal:CalibrationState", "sc_intervals", "conformal.sc_intervals",
     _points_of_x),
    ("acir.conformal:CalibrationState", "acir_intervals", "conformal.acir_intervals",
     _points_of_x),
    ("acir.conformal:CalibrationState", "acir_interval", "conformal.acir_interval", None),
    ("acir.conformal:CalibrationState", "env_quantiles", "conformal.env_quantiles", None),
    ("acir.conformal", "conformal_quantile", "core.conformal_quantile", None),
]


def _owner(spec: str):
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Records spans and work counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int] | None] = []
        self.work: dict[str, float] = defaultdict(float)
        self.op = 0
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                try:
                    stat, amount = counter(args, kwargs, result)
                except (IndexError, KeyError, TypeError, AttributeError, OSError):
                    self.uncounted.add(name)
                else:
                    self.work[f"{name}.{stat}"] += amount
            return result

        return traced

    def install(self) -> None:
        """Substitute every target; a name absent from the program is listed in ``missing``."""
        self.missing = []
        for spec, attr, name, counter in TARGETS:
            owner = _owner(spec)
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{spec}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start_ns", "end_ns", "parent", "op"])
            for index, span in enumerate(self.spans):
                out.writerow([index, *span])


def aggregate(spans) -> dict[str, float]:
    """Per span name: ``calls``, busy seconds ``s`` and ``self_s``; plus top-level seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover (the union of the children's intervals, so overlapping children
    are not subtracted twice). ``top_level_s`` sums spans without a parent.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += (end - start) / 1e9
        out[f"{name}.self_s"] += (end - start - covered) / 1e9
        if parent < 0:
            out["top_level_s"] += (end - start) / 1e9
    return dict(out)
