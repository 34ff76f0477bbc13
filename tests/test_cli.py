import textwrap

import pytest
import yaml

from servoneuro.cli import EXIT_CONFIG, EXIT_OK, load_config, main


def run(args):
    return main(args)


def write_config(tmp_path, text=""):
    path = tmp_path / "config.yaml"
    path.write_text(textwrap.dedent(text))
    return str(path)


FAST_CONFIG = """
    experiment:
      num_steps: 6
      dwell_samples: 30
      seed: 3
    trainer:
      algorithm: lm
      max_epochs: 15
    evaluation:
      profile:
        - {level: 1.0, duration: 60}
        - {level: 3.0, duration: 60}
      seeds: [0, 1]
    output_dir: OUT
"""


@pytest.fixture
def fast_config(tmp_path):
    text = FAST_CONFIG.replace("OUT", str(tmp_path / "out"))
    return write_config(tmp_path, text), tmp_path / "out"


class TestConfigLoading:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.plant.dead_zone == 2.5
        assert config.network.layer_sizes == (5, 10, 1)
        assert config.trainer.algorithm == "lm"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "plant:\n  dead_zne: 2.5\n")
        assert run(["--config", path, "collect"]) == EXIT_CONFIG

    def test_invalid_amplitudes_name_the_field(self, tmp_path, capsys):
        path = write_config(
            tmp_path, "experiment:\n  amplitude_min: 6.5\n  amplitude_max: 2.5\n"
        )
        assert run(["--config", path, "collect"]) == EXIT_CONFIG
        assert "amplitude" in capsys.readouterr().err

    def test_trainer_key_for_wrong_algorithm_rejected(self, tmp_path):
        path = write_config(tmp_path, "trainer:\n  algorithm: lm\n  patience: 3\n")
        assert run(["--config", path, "collect"]) == EXIT_CONFIG


    @pytest.mark.parametrize(
        "config_text,extra_args,field",
        [
            ("trainer: {max_epochs: 2.5}", [], "max_epochs"),
            ("network: {init_seed: 1.5}", [], "init_seed"),
            ("trainer: {algorithm: br, reestimate_every: 1.5}", [], "reestimate_every"),
            ("trainer: {algorithm: br, max_epochs: true}", [], "max_epochs"),
            ("evaluation: {seeds: 3}", [], "seeds"),
            ("", ["--seed", "-1"], "--seed"),
            ("experiment: {seed: -2}", [], "seed"),
            ("network: {init_seed: -1}", [], "init_seed"),
            ("trainer: {algorithm: early_stop, split_seed: -1}", [], "split_seed"),
            ("evaluation: {seeds: [0, -1]}", [], "seeds"),
        ],
    )
    def test_invalid_value_names_the_field(self, tmp_path, capsys, config_text, extra_args, field):
        path = write_config(tmp_path, config_text)
        argv = ["--config", path, "--out", str(tmp_path / "out")] + extra_args + ["collect"]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

class TestCollect:
    def test_writes_iolog(self, fast_config):
        path, out = fast_config
        assert run(["--config", path, "collect"]) == EXIT_OK
        lines = (out / "iolog.csv").read_text().splitlines()
        assert lines[0] == "k,u,y"
        assert len(lines) == 1 + 6 * 30

    def test_byte_identical_reruns(self, fast_config):
        path, out = fast_config
        run(["--config", path, "collect"])
        first = (out / "iolog.csv").read_bytes()
        run(["--config", path, "collect"])
        assert (out / "iolog.csv").read_bytes() == first


class TestTrainControlCompare:
    def test_full_pipeline(self, fast_config):
        path, out = fast_config
        assert run(["--config", path, "collect"]) == EXIT_OK
        assert run(["--config", path, "train"]) == EXIT_OK
        assert (out / "controller.net").exists()
        report = (out / "train_report.csv").read_text().splitlines()
        assert report[0] == "epoch,E_D,E_W,E_R,lambda,alpha,beta,gamma,val_ED"
        assert run(["--config", path, "control", str(out / "controller.net")]) == EXIT_OK
        indices = (out / "indices.csv").read_text().splitlines()
        assert indices[0] == "seed,mean_abs_error,control_effort"
        assert len(indices) == 3  # two seeds

    def test_train_byte_identical_network(self, fast_config):
        path, out = fast_config
        run(["--config", path, "collect"])
        run(["--config", path, "train"])
        first = (out / "controller.net").read_bytes()
        run(["--config", path, "train"])
        assert (out / "controller.net").read_bytes() == first

    def test_br_report_has_hyperparameter_columns(self, tmp_path):
        text = FAST_CONFIG.replace("OUT", str(tmp_path / "out")).replace(
            "algorithm: lm", "algorithm: br"
        )
        path = write_config(tmp_path, text)
        run(["--config", path, "collect"])
        assert run(["--config", path, "train"]) == EXIT_OK
        lines = (tmp_path / "out" / "train_report.csv").read_text().splitlines()
        fields = lines[1].split(",")
        assert fields[5] != "" and fields[6] != "" and fields[7] != ""

    def test_control_oracle_flag(self, fast_config):
        path, out = fast_config
        assert run(["--config", path, "control", "--oracle"]) == EXIT_OK
        indices = (out / "indices.csv").read_text().splitlines()
        mae = float(indices[1].split(",")[1])
        assert mae < 0.1

    def test_control_missing_network(self, fast_config):
        path, _ = fast_config
        assert run(["--config", path, "control", "/nope/missing.net"]) == EXIT_CONFIG

    def test_compare_requires_two_networks(self, fast_config):
        path, out = fast_config
        run(["--config", path, "collect"])
        run(["--config", path, "train"])
        net = str(out / "controller.net")
        assert run(["--config", path, "compare", net]) == EXIT_CONFIG

    def test_compare_outputs_and_determinism(self, fast_config, tmp_path):
        path, out = fast_config
        run(["--config", path, "collect"])
        run(["--config", path, "train"])
        net_a = out / "controller.net"
        net_b = out / "controller_b.net"
        net_b.write_bytes(net_a.read_bytes())
        assert run(["--config", path, "compare", str(net_a), str(net_b)]) == EXIT_OK
        first = (out / "comparison.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0] == "controller,seed,mean_abs_error,control_effort,error"
        assert len(lines) == 1 + 2 * 2  # controllers x seeds
        assert run(["--config", path, "compare", str(net_a), str(net_b)]) == EXIT_OK
        assert (out / "comparison.csv").read_bytes() == first

    def test_compare_unreadable_network_lists_path(self, fast_config, capsys):
        path, out = fast_config
        run(["--config", path, "collect"])
        run(["--config", path, "train"])
        net = str(out / "controller.net")
        assert run(["--config", path, "compare", net, "/nope/bad.net"]) == EXIT_CONFIG
        assert "bad.net" in capsys.readouterr().err


class TestSvgEmission:
    def test_control_svg_files(self, fast_config):
        path, out = fast_config
        assert run(["--config", path, "--svg", "control", "--oracle"]) == EXIT_OK
        svg = (out / "trace_0.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg


class TestSeedOverride:
    def test_seed_flag_changes_collect(self, fast_config):
        path, out = fast_config
        run(["--config", path, "collect"])
        first = (out / "iolog.csv").read_bytes()
        run(["--config", path, "--seed", "99", "collect"])
        assert (out / "iolog.csv").read_bytes() != first
