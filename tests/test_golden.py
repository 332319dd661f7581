"""Output bytes pinned against history, not only against a second run.

Each SHA-256 below was taken from the seed implementation (Python 3.11,
numpy 2.4). A refactor that keeps the numbers keeps these hashes; a change
that alters an output file on purpose must say so and update the pin.
"""

import hashlib

import numpy as np
import pytest

from acir.cli import main

BENCH_PEU = [
    "bench", "run", "--setting", "PEU", "--reps", "3", "--seed", "11",
    "--n-train", "300", "--n-cal", "300", "--n-test", "300",
    "--penalty-weight", "1.0", "--init-scale", "1.0",
]
# Nine calibration rows over three environments give infinite quantiles.
BENCH_FEU_TINY = [
    "bench", "run", "--setting", "FEU", "--reps", "2", "--seed", "5",
    "--n-train", "120", "--n-cal", "9", "--n-test", "90",
    "--penalty-weight", "0.7", "--init-scale", "1.0",
]

GOLDEN = {
    "PEU/metrics.csv": "5dde6c947234dc9a0bca83ab90f029d138009d160038ad2956d14b8a0e642f42",
    "PEU/summary.csv": "6af76c515b42117e548ca95647170d69eba8787b8a439d0bf4a320cc6f63881e",
    "FEU/metrics.csv": "ca9adac09fcf69413152e2336909a68038da7592d36d4e14b77e05875fc52eef",
    "state.txt": "3bf8f414b08ecbc9255e71e09388cdb77e1534c643d2205dc7b02e7d89e94381",
    "acir.csv": "1e3e333578b3f4939860a6881300b761219e705cf937eef1468c4e5500ae1130",
    "sc.csv": "2cbb8896704f6cba2c38c9c734b8e5df118bef5c7fc6695de1a6c88c76a2f1c5",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_points(path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((500, 10)) * rng.choice([0.2, 2.0, 5.0], size=500)[:, None]
    lines = [",".join(f"x{j}" for j in range(1, 11))]
    lines += [",".join(map(repr, row)) for row in x.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    assert main(BENCH_PEU + ["--out", str(d / "PEU")]) == 0
    assert main(BENCH_FEU_TINY + ["--out", str(d / "FEU")]) == 0
    data, model, state, points = d / "data.csv", d / "model.txt", d / "state.txt", d / "points.csv"
    assert main(["datagen", "sem", "--setting", "PEU", "--n", "3000", "--seed", "2",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--out", str(model),
                 "--calibration-out", str(state),
                 "--penalty-weight", "1.0", "--init-scale", "1.0"]) == 0
    _write_points(points)
    for method in ("acir", "sc"):
        assert main(["predict", "--model", str(model), "--calibration", str(state),
                     "--input", str(points), "--method", method,
                     "--out", str(d / f"{method}.csv")]) == 0
    return d


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_seed(outputs, name):
    assert _sha256(outputs / name) == GOLDEN[name]


def test_tiny_calibration_run_reports_infinite_lengths(outputs):
    text = (outputs / "FEU" / "metrics.csv").read_text(encoding="utf-8")
    assert ",inf\n" in text
