"""Output bytes pinned against history, not only against a second run.

Each SHA-256 below was taken from the seed implementation (Python 3.11,
numpy 2.4); those of data.csv, model.txt and invariance.csv from the last
version with the row-wise CSV reader and writer, whose outputs were the
seed's; the SINGLE_POINT pins from the last version that computed the
moments with np.mean/np.std and copied every interval's arrays; the pins of
the FOU, POU and nine-environment bench runs and of the datagen-* files from
the last version that drew every noise block with Generator.normal and
looped over environments in the fitter (commit 1c62b1a); the pins of the
CSV-mode and resplit-only bench runs from the last version that split the
synthetic and CSV pools in two separate loops and wrote each output file with
its own block of code (commit c73ee32). A refactor
that keeps the numbers keeps these hashes; a change that alters an output
on purpose must say so and update the pin.
"""

import hashlib
import os

import numpy as np
import pytest

from acir.cli import main
from acir.conformal import load_state
from acir.core import PredictionInterval
from acir.models import load_model

BENCH_PEU = [
    "bench", "run", "--setting", "PEU", "--reps", "3", "--seed", "11",
    "--n-train", "300", "--n-cal", "300", "--n-test", "300",
    "--penalty-weight", "1.0", "--init-scale", "1.0",
]
# m >= 8 environments: numpy sums 8 or more terms pairwise, a loop does not.
BENCH_NINE_ENVS = [
    "bench", "run", "--setting", "POU", "--reps", "2", "--seed", "13",
    "--n-train", "450", "--n-cal", "450", "--n-test", "450",
    "--env-params", "0.2,0.5,1.0,1.5,2.0,3.0,4.0,5.0,6.0",
    "--penalty-weight", "1.0", "--init-scale", "1.0",
]
# Nine calibration rows over three environments give infinite quantiles.
BENCH_FEU_TINY = [
    "bench", "run", "--setting", "FEU", "--reps", "2", "--seed", "5",
    "--n-train", "120", "--n-cal", "9", "--n-test", "90",
    "--penalty-weight", "0.7", "--init-scale", "1.0",
]
# Run from the data file's directory: the setting column holds the path as given.
BENCH_CSV = [
    "bench", "run", "--setting", "csv:d.csv", "--test-envs", "2", "--reps", "3",
    "--seed", "9", "--csv-train-fraction", "0.4",
    "--penalty-weight", "1.0", "--init-scale", "1.0",
]
BENCH_RESPLIT = [
    "bench", "run", "--setting", "POU", "--resplit-only", "--reps", "3", "--seed", "9",
    "--n-train", "300", "--n-cal", "300", "--n-test", "300",
    "--penalty-weight", "1.0", "--init-scale", "1.0",
]

GOLDEN = {
    "PEU/metrics.csv": "5dde6c947234dc9a0bca83ab90f029d138009d160038ad2956d14b8a0e642f42",
    "PEU/summary.csv": "6af76c515b42117e548ca95647170d69eba8787b8a439d0bf4a320cc6f63881e",
    "FEU/metrics.csv": "ca9adac09fcf69413152e2336909a68038da7592d36d4e14b77e05875fc52eef",
    "data.csv": "f2800eaa49c2fd7c2aeedc5aa56d491c986f499e8fd75e4db464641f86c907d8",
    "model.txt": "75238f525a9419df03b14466a7c721cc32ea722e2ceaeaf17b02b530baa0080d",
    "state.txt": "3bf8f414b08ecbc9255e71e09388cdb77e1534c643d2205dc7b02e7d89e94381",
    "invariance.csv": "1b93bd7da951d130df46ccfeb8204e7bbef86e5b2fd92432d2fdb2a42899c12f",
    "acir.csv": "1e3e333578b3f4939860a6881300b761219e705cf937eef1468c4e5500ae1130",
    "sc.csv": "2cbb8896704f6cba2c38c9c734b8e5df118bef5c7fc6695de1a6c88c76a2f1c5",
    "FOU/metrics.csv": "62a28a58fbaeff69eb99fc8aea9826b5c64d2c995354e004dc67fa339a30a3b0",
    "FOU/summary.csv": "3362c38d944ac43e7c35c1f013f1cd2379835406f3b0dd6f5b353fc4708cd94a",
    "POU/metrics.csv": "f6cf0b82b12bd6f81e8816dcb56009e34baba6ba799d1ad76904d835071c9c2d",
    "POU/summary.csv": "d8a984142a8b1d2576f6355fcd8f5580792b3d3a045b3ddb28fea2e46c05c554",
    "NINE/metrics.csv": "3239b7e6a584d9200feb5e10e65fecb89d3ba1681a6a071b8a35dfc4eb24aac2",
    "NINE/summary.csv": "4081da4964941bcacf4495516e2e6456f5b3cbc5f36dc491c9e5e3af6fc34f37",
    "datagen-FOU.csv": "321797570bce567ff950ae7ddc7f81f5a342bc8927e1950b237f8926d8fff726",
    "datagen-FEU.csv": "25b8a83bb5d35f14e8af6fdba1e1cf618b51c7d336cab90d88807fb3200177ce",
    "datagen-POU.csv": "88c44bfe605f486652d1390be1af203ebfd6a3b2d704f0982e120ddfa69fa881",
    "CSV/metrics.csv": "90f2710e117d8866db432b8324b47d5fd769666c82271081aad25bcea8075e45",
    "CSV/summary.csv": "e073ce62f15b8a48ff3f9fd2b14dddfce93b361f2ba5c56a8d3ea1b9df879eb8",
    "RESPLIT/metrics.csv": "548dd86527a1c5ef6ccd85c4f77bf61e7f6dfd336f144b852e63081cc07bd3c7",
    "RESPLIT/summary.csv": "6dfe25cfd354b1cc5c26452caa5024e82b25b6fd4cb66eaa863c683658098670",
}

# The single-point calls, one at a time: float64 bytes of (center, half_width)
# for 256 points on the fixture's state.txt and model.txt.
SINGLE_POINT = {
    "acir_interval": "6ac74a4df0ed0fa869f58e4a3b42c8ed6d791359fe40e9519cd16899cfeb49b0",
    "acir_interval+delta": "b8c4c542dab1216eb35f3bf5433a34b8e463a2200f6d8c2d4d3a0352b0d4196d",
    "sc_interval": "8a6aebf181d88299aa5fefdfd75be35bc2a901b5c55904cbc19469f31c1a99cf",
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
    for setting in ("FOU", "POU"):
        argv = [setting if arg == "PEU" else arg for arg in BENCH_PEU]
        assert main(argv + ["--out", str(d / setting)]) == 0
    assert main(BENCH_NINE_ENVS + ["--out", str(d / "NINE")]) == 0
    assert main(BENCH_RESPLIT + ["--out", str(d / "RESPLIT")]) == 0
    cwd = os.getcwd()
    os.chdir(d)
    try:
        assert main(["datagen", "sem", "--setting", "PEU", "--n", "1800", "--seed", "4",
                     "--out", "d.csv"]) == 0
        assert main(BENCH_CSV + ["--out", "CSV"]) == 0
    finally:
        os.chdir(cwd)
    for setting in ("FOU", "FEU", "POU"):
        assert main(["datagen", "sem", "--setting", setting, "--n", "3000", "--seed", "2",
                     "--out", str(d / f"datagen-{setting}.csv")]) == 0
    data, model, state, points = d / "data.csv", d / "model.txt", d / "state.txt", d / "points.csv"
    assert main(["datagen", "sem", "--setting", "PEU", "--n", "3000", "--seed", "2",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--out", str(model),
                 "--calibration-out", str(state),
                 "--penalty-weight", "1.0", "--init-scale", "1.0"]) == 0
    assert main(["assess", "--model", str(model), "--data", str(data),
                 "--out", str(d / "invariance.csv")]) == 0
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


@pytest.mark.parametrize("call", sorted(SINGLE_POINT))
def test_single_point_answers_match_seed(outputs, call):
    model = load_model(str(outputs / "model.txt"))
    state = load_state(str(outputs / "state.txt"), model)
    rng = np.random.default_rng(3)
    points = rng.standard_normal((256, model.p)) * rng.choice([0.2, 2.0, 5.0], size=(256, 1))
    delta = np.array([0.05, 0.0, 0.4])

    def acir_plus_delta(x):
        # the AC answer plus the weighted average of a per-environment offset,
        # so the pin also holds the bytes of environment_weights
        iv = state.acir_interval(x, 0.1)
        shift = (state.environment_weights(x)[None, :] @ delta)[0]
        return PredictionInterval(iv.center, iv.half_width + shift)

    ask = {
        "acir_interval": lambda x: state.acir_interval(x, 0.1),
        "acir_interval+delta": acir_plus_delta,
        "sc_interval": lambda x: state.sc_interval(x, 0.1),
    }[call]
    answers = np.array([(iv.center, iv.half_width) for iv in map(ask, points)])
    assert answers.dtype == np.float64 and answers.shape == (256, 2)
    assert hashlib.sha256(answers.tobytes()).hexdigest() == SINGLE_POINT[call]
