"""Golden fingerprint of the workbench's outputs.

Identical configurations reproduce byte-identical artifacts, so a refactor
that must not change behaviour can prove it: these hashes stay fixed.  A
deliberate behaviour change updates them and says why in CHANGES.md.  The
hashes were taken with 64-bit NumPy on x86-64.  numpy's bundled OpenBLAS
picks its kernels per CPU, and the kernels round the normal equations
differently, so there is one hash set per OpenBLAS core; a run on a core
with no recorded set fails, naming the core and giving its hashes.
"""

import dataclasses
import hashlib
import shutil

import pytest

from conftest import blas_core
from servoneuro import mlp
from servoneuro import training as tr
from servoneuro.cli import main
from servoneuro.experiment import StepExperimentConfig, build_inverse_dataset, run_step_experiment
from servoneuro.plant import MotorParams

ALGORITHMS = ("br", "early_stop", "lm")

# `collect` on the zero-config plant, the same log for every trainer
IOLOG = "7b1d0c6c2c8d698ecc15c0fe210b2d6a00dbadc4c143427230fb415488e998b4"

# `control --oracle` on the zero-config plant
ORACLE_INDICES = "1c6cae3b8d940984696cfd5d6f01afdded6761a8e55bfc3d48f840d4a5cb743d"

# Per OpenBLAS core (OPENBLAS_CORETYPE):
# - each trainer's `collect → train → control` artifacts on the zero config;
# - "comparison": `compare` of the three zero-config networks;
# - "oracle": `control --oracle`'s indices.csv;
# - "criterion_6": (final weights, report records + stop reason) in the
#   criterion-6 setting, seed 0.
HASHES = {
    "SkylakeX": {
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
        "comparison": "aa2cde707a7460fcf5fadca0b20be23a7d64b42f94bb75f9adb6cfc404393390",
        "oracle": ORACLE_INDICES,
        "criterion_6": {
            "lm": (
                "bb82554a04ca82a0a70f580a2e782d6ccf3a54e954905a4f96b4e1dd2b24cfaa",
                "baea06b63aa13dc268f357f5806ed4d2d6b870162ecb4330522e4e9eac86b649",
            ),
            "br": (
                "19e2dcdf68f4d8663b85bfabba91692bb2998bb4c8ea2181eb5b8925c285423b",
                "61678de6f57d3a0d153020d47b7c104914259da0d8944efa8c7533e3d4db00b0",
            ),
        },
    },
    "Haswell": {
        "lm": {
            "iolog.csv": IOLOG,
            "controller.net": "7725c177beb2eda16a89dcb7f3129483e5fc679b95257c0b2277a40858ab86d3",
            "train_report.csv": "358ceb15a0491bd491b8d00790c7aa319c81a4d143f86100f6995f2eca49f0f2",
            "indices.csv": "ef4991028b43b0115614ade8429f2e457d5ed02129c0ead21044e0031d25cecb",
            "trace_0.csv": "3d19f17942d8013fb1ba7363c80f44da9051969b326973fb97c3d9153198bd1c",
            "trace_1.csv": "8fb444e959b88cc87c8bde59242ac047abd27355d11b31ada032bf3f14326bc6",
        },
        "br": {
            "iolog.csv": IOLOG,
            "controller.net": "65260e8515af36e1c77d5662230eb290fbf949afba705b5f66ccd10d34de6145",
            "train_report.csv": "6492611962c18694b31af4b43fd9fad7e2a6fe73076078cd2c1ffcc7cc7dece6",
            "indices.csv": "f2d829a207817f7b885d3b7c3f56686d98c3883636f0c16b3ca201a6f8d450de",
            "trace_0.csv": "5f11199c3ab7736f8b1638013c3554f55e0359fd84560dbca43b6df226bdd704",
            "trace_1.csv": "dc220424aab4b419785897b920f7625d514d9ae0ca6555ce63007f8f365d86c5",
        },
        "early_stop": {
            "iolog.csv": IOLOG,
            "controller.net": "8b79b748e5f4700f311bf0feb4a3a5cc2bea4bab27a07a655ca1ed2a16f53fb2",
            "train_report.csv": "e7650a8c1694202b95763b5b446cbe9cd0fcd2e5ed0bcb992cc2e69e4f95003f",
            "indices.csv": "cc359e34e825658fd6280014f69cc3c137dd35bd92f338a17d9db2aedf8e539b",
            "trace_0.csv": "2fa653450a7d2c35f428481545622bfc7e3084a663ed679bf124dacd17114c9e",
            "trace_1.csv": "9e5a24d52434d27ea95a062e4ba140a21b407d0b957b7635e4f2568585c85206",
        },
        "comparison": "a881d1330f3ef390cfaa121f60669b553e39494182e03737f37b1442643ee35c",
        "oracle": ORACLE_INDICES,
        "criterion_6": {
            "lm": (
                "ff4bd191298d491dc12187bbf35e3b10870b26ba26b31b189933e75c92a1fdc1",
                "321a1cee2244161a97ece9e63e94f694355324d8c30e81c82c0be76ec343eaa0",
            ),
            "br": (
                "60a5e5f69d237b5d5396fccdeeafff2516cf2cf5232d361d47d4c8878a8161ed",
                "2ccae6ef526d5b4236c247b0e3a9f5c5220c7981d8badb9a5164aa7184052f61",
            ),
        },
    },
    "Sandybridge": {
        "lm": {
            "iolog.csv": IOLOG,
            "controller.net": "5ee2cbf5c5288a660c356efa790b9a1fcb03d844bf788464688eb94ab34e457c",
            "train_report.csv": "a4b25bbf78f1e7f08a922dccae41170a7ee2a230686bea78cf5fc34652118db9",
            "indices.csv": "d4803d5dcc2d4bafe4529299342e606d40b5b4af746ce0b629b11990af74ab47",
            "trace_0.csv": "7479aa8cd40c0249a5855f97b2db0990ad10a665b38be7f05cfa6d7386d07076",
            "trace_1.csv": "0d894d2e95068d66b47d4786ef7d844cd72de2b235bec677ddcf271529e954a1",
        },
        "br": {
            "iolog.csv": IOLOG,
            "controller.net": "45b2c6dce726363ff5e971f1ac287563e11e955ebfbefbc48ea92eed17163bd4",
            "train_report.csv": "82135b976c543441c9c642b9e098885ba9e9a6f97c524d6f1b9bb5658caf834e",
            "indices.csv": "7af0f8712edf4d39517685949eb94675f00dacb24eb22abb4a4698ca7fa7d816",
            "trace_0.csv": "7686a990a538e8c81a08d6d76da92a86bdfe707abb833167cc34c31095c58324",
            "trace_1.csv": "5e620e690a081e3d66178ca5abb3373dabf3012557c226d2b1bcd40e2256cc1c",
        },
        "early_stop": {
            "iolog.csv": IOLOG,
            "controller.net": "10b9d14822a88db2a8101d07d56204feadcf49d7adce04e2f74adbe4ddbe711d",
            "train_report.csv": "a11221fb9942d5aaa3903b8b84b46d12655f96863a9a1c832246278c2466698e",
            "indices.csv": "aba97bb4c38e497258867b2087ce0ee6a9efd575cc7c252fa0c1a892b4096c15",
            "trace_0.csv": "43915c90a61280d1840a91fea857f828cf87f722bec240deff9cbc6475be31f5",
            "trace_1.csv": "152453d41a86b395543d1a0f8806c99f473a42e9314fa237093cbf4dae400b8b",
        },
        "comparison": "ce44df5099f0c6ee330316e48dbc6bbb9fa480e27b33e12d2d9f74ff8aafafd6",
        "oracle": ORACLE_INDICES,
        "criterion_6": {
            "lm": (
                "03d9dd5fe345117f81e55f03fd8f0c7dff19b7d211441f7fa6ac9fade181d0d8",
                "ea70a185a3a5b6b873010bc94114030eb932ce52889a032443777f4dce652d28",
            ),
            "br": (
                "0e9fe014a089c0cafbde49d36d417fb74e3ac982e4d1447c0acb19237564ef20",
                "007b71ad65210f52bec8355566985e9ed10b539e26a79b4c7311eb35298f6f3e",
            ),
        },
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check(key, got):
    """Assert that `got` equals the hashes recorded under `key` for the
    OpenBLAS core this run's kernels come from."""
    core = blas_core()
    if core is None:
        pytest.fail("numpy's BLAS is not its bundled OpenBLAS: no fingerprint hashes apply")
    if core not in HASHES:
        pytest.fail(
            f"no fingerprint hashes recorded for OpenBLAS core {core}. To record them, run"
            f" this file under OPENBLAS_CORETYPE={core} on a commit whose outputs are known"
            f" good, and add HASHES[{core!r}][{key!r}] = {got!r}"
        )
    assert got == HASHES[core][key], f"hashes recorded under OpenBLAS core {core}"


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
    for algorithm in ALGORITHMS:
        directory = tmp_path_factory.mktemp(algorithm)
        out = directory / "out"
        args = _config(directory, algorithm)
        for command in (["collect"], ["train"], ["control", str(out / "controller.net")]):
            assert main(args + command) == 0
        outs[algorithm] = out
    return outs


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_zero_config_pipeline_artifacts(pipelines, algorithm):
    out = pipelines[algorithm]
    names = ("iolog.csv", "controller.net", "train_report.csv", "indices.csv",
             "trace_0.csv", "trace_1.csv")
    _check(algorithm, {name: sha256((out / name).read_bytes()) for name in names})


def test_compare_of_zero_config_networks(pipelines, tmp_path, monkeypatch):
    # comparison.csv names each controller by its path, so use fixed relative ones
    monkeypatch.chdir(tmp_path)
    nets = [f"{name}.net" for name in ALGORITHMS]
    for name, net in zip(ALGORITHMS, nets):
        shutil.copyfile(pipelines[name] / "controller.net", net)
    assert main(_config(tmp_path) + ["compare"] + nets) == 0
    _check("comparison", sha256((tmp_path / "out" / "comparison.csv").read_bytes()))


def test_oracle_control_indices(tmp_path):
    assert main(_config(tmp_path) + ["control", "--oracle"]) == 0
    _check("oracle", sha256((tmp_path / "out" / "indices.csv").read_bytes()))


def test_criterion_6_training_seed_0():
    plant = MotorParams(gain=0.2, tau=0.25, noise_sigma=0.02)
    log = run_step_experiment(plant, StepExperimentConfig(seed=0, num_steps=60, dwell_samples=30))
    ds = build_inverse_dataset(log)
    net = mlp.init_weights([5, 10, 1], ["tanh", "linear"], seed=0, scale=0.5)
    lm = tr.LmConfig(max_epochs=150)
    runs = {"lm": tr.train_lm(net, ds, lm), "br": tr.train_br(net, ds, tr.BrConfig(lm=lm))}
    got = {}
    for name, (trained, report) in runs.items():
        records = "\n".join(repr(dataclasses.astuple(r)) for r in report.records)
        got[name] = (
            sha256(trained.weights.tobytes()),
            sha256((records + report.stop_reason.value).encode()),
        )
    _check("criterion_6", got)
