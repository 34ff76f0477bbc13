"""Golden fingerprint of the workbench's outputs.

Identical configurations reproduce byte-identical artifacts, so a refactor
that must not change behaviour can prove it: these hashes stay fixed.  A
deliberate behaviour change updates them and says why in CHANGES.md.  The
hashes were taken with 64-bit NumPy on x86-64; another BLAS build may round
the normal equations differently and shift them.
"""

import dataclasses
import hashlib
import shutil

import pytest

from servoneuro import mlp
from servoneuro import training as tr
from servoneuro.cli import main
from servoneuro.experiment import StepExperimentConfig, build_inverse_dataset, run_step_experiment
from servoneuro.plant import MotorParams

# `collect` on the zero-config plant, the same log for every trainer
IOLOG = "7b1d0c6c2c8d698ecc15c0fe210b2d6a00dbadc4c143427230fb415488e998b4"

CLI_ARTIFACTS = {
    "lm": {
        "iolog.csv": IOLOG,
        "controller.net": "a72850ec11fb63e2c7be731022a6c5d4fc84ec9ff7544629b56248cab9b55d40",
        "train_report.csv": "2fc8f2e67c284e2903daae16410f011b2168bb78e1cdd9153d4afc2876941c72",
        "indices.csv": "42a2bffc9756d2b3abc7f89aac66d45eda99d8b9aacbae817704596f28fbbc19",
        "trace_0.csv": "d9bd00093b1741873a88cb9aabd68e115ebfbb1dfa80b72e84ef6a7086bf90bf",
        "trace_1.csv": "855f9475d3befc5819b4250bc679af30ea97c636a3a5851c72ba00431a273ddd",
    },
    "br": {
        "iolog.csv": IOLOG,
        "controller.net": "5c42cc5857cee13cfff0820d472ce6f50c2c8bd396960d7822371b640ad292ba",
        "train_report.csv": "678405f2bed73a5f8672ac451dc170f18cefac2ae3b4c4d3522661583d4381c7",
        "indices.csv": "2fa99d2dbb344504b6a606a0b0a9dfe9e1c3007d1ccc33d8f885589d449f2722",
        "trace_0.csv": "0f6797eac3c72187eb58a8fc41939878f7b229d7e1f61b90a1ed7510710e4730",
        "trace_1.csv": "b69353e2028356d6bc640caa5120f94819635ff6bd72079f7aaa082f5aeace4e",
    },
    "early_stop": {
        "iolog.csv": IOLOG,
        "controller.net": "758e1bcaca959dd6ee0a5d8a0dac3004f900e6f4b18e8789d284e1fa0b2eeaf4",
        "train_report.csv": "3910ead7aeafe65905a5173b126dd67378659f34d650f70620543111e6b8339c",
        "indices.csv": "6f1ea28ca58710b61b2b7eec19881bb8bfb957b72e49d5e297666a913f6dc685",
        "trace_0.csv": "212283aa8147d449009a851bf81a6167a6462ea939ef12e5af9a0ec6d6c55c48",
        "trace_1.csv": "3292fbae395988c258ea62375fc74b92472564e27de1ad6d0b6c8137535578f1",
    },
}

# `compare` of the three zero-config networks above
COMPARISON = "aa2cde707a7460fcf5fadca0b20be23a7d64b42f94bb75f9adb6cfc404393390"

# `control --oracle` on the zero-config plant
ORACLE_INDICES = "1c6cae3b8d940984696cfd5d6f01afdded6761a8e55bfc3d48f840d4a5cb743d"

# (final weights, report records + stop reason) in the criterion-6 setting, seed 0
CRITERION_6 = {
    "lm": (
        "bb82554a04ca82a0a70f580a2e782d6ccf3a54e954905a4f96b4e1dd2b24cfaa",
        "baea06b63aa13dc268f357f5806ed4d2d6b870162ecb4330522e4e9eac86b649",
    ),
    "br": (
        "19e2dcdf68f4d8663b85bfabba91692bb2998bb4c8ea2181eb5b8925c285423b",
        "61678de6f57d3a0d153020d47b7c104914259da0d8944efa8c7533e3d4db00b0",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _config(directory, algorithm="lm"):
    """Zero config apart from the trainer, two evaluation seeds and the output
    directory; returns the `--config` arguments."""
    config = directory / "config.yaml"
    config.write_text(
        f"trainer: {{algorithm: {algorithm}}}\n"
        "evaluation: {seeds: [0, 1]}\n"
        f"output_dir: {directory / 'out'}\n"
    )
    return ["--config", str(config)]


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """Output directory of `collect → train → control` for each trainer."""
    outs = {}
    for algorithm in CLI_ARTIFACTS:
        directory = tmp_path_factory.mktemp(algorithm)
        out = directory / "out"
        args = _config(directory, algorithm)
        for command in (["collect"], ["train"], ["control", str(out / "controller.net")]):
            assert main(args + command) == 0
        outs[algorithm] = out
    return outs


@pytest.mark.parametrize("algorithm", sorted(CLI_ARTIFACTS))
def test_zero_config_pipeline_artifacts(pipelines, algorithm):
    out = pipelines[algorithm]
    hashes = {name: sha256((out / name).read_bytes()) for name in CLI_ARTIFACTS[algorithm]}
    assert hashes == CLI_ARTIFACTS[algorithm]


def test_compare_of_zero_config_networks(pipelines, tmp_path, monkeypatch):
    # comparison.csv names each controller by its path, so use fixed relative ones
    monkeypatch.chdir(tmp_path)
    nets = [f"{name}.net" for name in sorted(CLI_ARTIFACTS)]
    for name, net in zip(sorted(CLI_ARTIFACTS), nets):
        shutil.copyfile(pipelines[name] / "controller.net", net)
    assert main(_config(tmp_path) + ["compare"] + nets) == 0
    assert sha256((tmp_path / "out" / "comparison.csv").read_bytes()) == COMPARISON


def test_oracle_control_indices(tmp_path):
    assert main(_config(tmp_path) + ["control", "--oracle"]) == 0
    assert sha256((tmp_path / "out" / "indices.csv").read_bytes()) == ORACLE_INDICES


def test_criterion_6_training_seed_0():
    plant = MotorParams(gain=0.2, tau=0.25, noise_sigma=0.02)
    log = run_step_experiment(plant, StepExperimentConfig(seed=0, num_steps=60, dwell_samples=30))
    ds = build_inverse_dataset(log)
    net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
    lm = tr.LmConfig(max_epochs=150)
    runs = {"lm": tr.train_lm(net, ds, lm), "br": tr.train_br(net, ds, tr.BrConfig(lm=lm))}
    for name, (trained, report) in runs.items():
        records = "\n".join(repr(dataclasses.astuple(r)) for r in report.records)
        got = (
            sha256(trained.weights.tobytes()),
            sha256((records + report.stop_reason.value).encode()),
        )
        assert got == CRITERION_6[name], name
