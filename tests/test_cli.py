import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servoneuro import control as ctl
from servoneuro import training as tr
from servoneuro.cli import (
    EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EvaluationSpec, NetworkSpec, WorkbenchConfig,
    load_config, main,
)
from servoneuro.experiment import StepExperimentConfig
from servoneuro.mlp import ArchitectureError, MlpNetwork, init_weights, save_network, weight_count
from servoneuro.plant import MotorParams
from servoneuro.scaling import AffineScaling
from servoneuro.svg import write_line_chart
from servoneuro.training import BrConfig, EarlyStopConfig, LmConfig


def run(args):
    return main(args)


def write_config(tmp_path, text=""):
    path = tmp_path / "config.yaml"
    path.write_text(textwrap.dedent(text), encoding="utf-8")
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
        assert config.trainer == LmConfig()
        assert config == WorkbenchConfig()

    def test_absent_keys_take_the_dataclass_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, "evaluation: {seeds: [3]}\n"))
        assert config.evaluation.seeds == (3,)
        assert config.evaluation.profile == ctl.DEFAULT_PROFILE

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

    def test_unknown_algorithm_names_every_algorithm(self, tmp_path, capsys):
        path = write_config(tmp_path, "trainer: {algorithm: sgd}\n")
        assert run(["--config", path, "collect"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "unknown trainer algorithm 'sgd' (use lm, br, early_stop)" in err


    @pytest.mark.parametrize(
        "config_text,extra_args,field",
        [
            ("trainer: {max_epochs: 2.5}", [], "max_epochs"),
            ("network: {init_seed: 1.5}", [], "init_seed"),
            ('trainer: {algorithm: br, alpha_init: "1.0"}', [], "alpha_init"),
            ("trainer: {algorithm: br, max_epochs: true}", [], "max_epochs"),
            ("evaluation: {seeds: 3}", [], "seeds"),
            ("", ["--seed", "-1"], "--seed"),
            ("experiment: {seed: -2}", [], "seed"),
            ("network: {init_seed: -1}", [], "init_seed"),
            ("trainer: {algorithm: early_stop, split_seed: -1}", [], "split_seed"),
            ("evaluation: {seeds: [0, -1]}", [], "seeds"),
            ("evaluation: {seeds: [0, 1, 0]}", [], "evaluation.seeds"),
            ("trainer:", [], "trainer"),
            ("plant: 5", [], "plant"),
            ("plant: [1", [], "YAML"),
            ("network: {layer_sizes: [3, 10, 1]}", [], "layer_sizes"),
            ("network: {layer_sizes: [5, 10, 2]}", [], "layer_sizes"),
            ("network: {activations: [tanh]}", [], "activations"),
            ("plant: {noise_sigma: .nan}", [], "noise_sigma"),
            ("plant: {tau: .inf}", [], "tau"),
            ("plant: {gain: 0}", [], "gain"),
            ("experiment: {amplitude_max: .inf}", [], "amplitude_max"),
            ("experiment: {amplitude_min: -1.0e+308, amplitude_max: 1.0e+308}", [],
             "amplitude_max - amplitude_min"),
            # a plant whose input cannot move its output: decay rounds to 1,
            # or (1 - decay) * gain to 0
            ("plant: {ts: 1.0e-20}", [], "ts, tau and gain"),
            ("plant: {gain: 5.0e-324}", [], "ts, tau and gain"),
            ("experiment: {num_steps: 1, dwell_samples: 3}", [], "dwell_samples"),
            ("trainer: {lambda_init: .nan}", [], "lambda_init"),
            ("plant: {tau: 0}", [], "tau"),
            ("plant: {ts: -0.1}", [], "tau and ts"),
            ("plant: {dead_zone: -1}", [], "dead_zone"),
            ("plant: {saturation: 2.0}", [], "saturation"),
            ("experiment: {num_steps: 0}", [], "num_steps"),
            ("experiment: {dwell_samples: 0}", [], "dwell_samples"),
            ("evaluation: {profile: [{level: 1.0, duration: 0}]}", [],
             "evaluation.profile: step durations"),
            ("evaluation: {profile: [{level: .nan, duration: 20}]}", [],
             "evaluation.profile: step levels"),
            ("trainer: {lambda_init: 0}", [], "lambda_init"),
            ("trainer: {lambda_init: 1.0e+11}", [], "lambda_init must not exceed lambda_max"),
            ("trainer: {lambda_decrease: 1.0}", [], "lambda_decrease"),
            ("trainer: {lambda_increase: 1.0}", [], "lambda_increase must exceed 1"),
            ("trainer: {max_epochs: 0}", [], "max_epochs"),
            ("trainer: {goal_ed: -1}", [], "goal_ed"),
            ("trainer: {algorithm: br, alpha_init: .nan}", [], "alpha_init"),
            ("trainer: {algorithm: br, beta_init: 0}", [], "beta_init"),
            ("trainer: {algorithm: early_stop, validation_fraction: 1.5}", [],
             "validation_fraction"),
            ("trainer: {algorithm: early_stop, patience: 0}", [], "patience"),
            ("network: {init_scale: -1}", [], "init_scale"),
            pytest.param("plant: {gain: 1" + "0" * 400 + "}", [], "plant",
                         id="int-past-float"),
            ("experiment: {num_steps: 1000000000000000}", [], "num_steps"),
            pytest.param("experiment: {num_steps: 1" + "0" * 400 + "}", [], "num_steps",
                         id="num-steps-past-c-long"),
            ("network: {layer_sizes: [5, 1000000000000, 1]}", [], "layer_sizes"),
            ("output_dir: [out]", [], "output_dir"),
            # a document that is not a mapping; only an empty file is the defaults
            ("[]", [], "config"),
            ("false", [], "config"),
            ("0", [], "config"),
            ('""', [], "config"),
        ],
    )
    def test_invalid_value_names_the_field(self, tmp_path, capsys, config_text, extra_args, field):
        path = write_config(tmp_path, config_text)
        argv = ["--config", path, "--out", str(tmp_path / "out")] + extra_args + ["collect"]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    # Each profile entry is checked like a config field: a level is a number,
    # a duration an int, and neither a bool or a string.
    @pytest.mark.parametrize(
        "profile,field",
        [
            ('[{level: "1.5", duration: true}, {level: true, duration: 2.9}]',
             "evaluation.profile[0].level"),
            ("[{level: 1.5, duration: true}]", "evaluation.profile[0].duration"),
            ("[{level: 1.5, duration: 20}, {level: true, duration: 20}]",
             "evaluation.profile[1].level"),
            ("[{level: 1.5, duration: 2.9}]", "evaluation.profile[0].duration"),
            ('[{level: 1.5, duration: "20"}]', "evaluation.profile[0].duration"),
            pytest.param("[{level: 1" + "0" * 400 + ", duration: 20}]", "evaluation.profile",
                         id="int-past-float"),
            ("[{level: 1.0, duration: 1000000000000000}]", "evaluation.profile"),
            pytest.param("[{level: 1.0, duration: 1" + "0" * 400 + "}]", "evaluation.profile",
                         id="duration-past-c-long"),
            ("[{level: 1.0, duration: 6000000}, {level: 2.0, duration: 6000000}]",
             "evaluation.profile"),
        ],
    )
    def test_profile_entries_are_not_coerced(self, tmp_path, capsys, profile, field):
        path = write_config(tmp_path, f"evaluation: {{profile: {profile}}}\n")
        out = tmp_path / "out"
        assert run(["--config", path, "--out", str(out), "control", "--oracle"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
        config = load_config(write_config(tmp_path, example))
        assert type(config.trainer) is BrConfig
        assert config.trainer.lm.lambda_max == 1e10
        assert config.evaluation.seeds == (0, 1, 2)

    def test_library_callers_get_the_seed_checks(self):
        for seeds in [(), (0, -1), (True,), (0, 1.0), (np.int64(-1),), (np.float64(1.0),),
                      (np.bool_(True),)]:
            with pytest.raises(ValueError, match="seeds"):
                EvaluationSpec(seeds=seeds)

    def test_numpy_integer_seeds_follow_the_int_rule(self):
        assert EvaluationSpec(seeds=(np.int64(1), np.uint8(2))).seeds == (1, 2)


# Each config dataclass checks its own field types, so a library caller gets
# the verdict a config file gets.  Every int, float, str and tuple field of
# every config class is tried with values of the wrong type or out of range.
BAD_VALUES = {"int": (True, "1", 1.5, -1), "float": (True, "1", math.nan),
              "str": (True, 5), "tuple": (True, "1", 3)}


def _config_classes():
    """The config instances to try: WorkbenchConfig's defaults, each dataclass
    among their field defaults (recursively), and the other trainer configs."""
    todo, found = [WorkbenchConfig(), BrConfig(), EarlyStopConfig()], {}
    while todo:
        config = todo.pop()
        found.setdefault(type(config), config)
        todo += [getattr(config, f.name) for f in dataclasses.fields(config)
                 if dataclasses.is_dataclass(getattr(config, f.name))]
    return found


CONFIGS = _config_classes()


def test_every_config_class_is_tried():
    assert set(CONFIGS) == {
        WorkbenchConfig, MotorParams, StepExperimentConfig, NetworkSpec, LmConfig, BrConfig,
        EarlyStopConfig, EvaluationSpec, ctl.ReferenceProfile}


@pytest.mark.parametrize(
    "config,name,bad",
    [pytest.param(config, f.name, bad, id=f"{cls.__name__}.{f.name}={bad!r}")
     for cls, config in CONFIGS.items() for f in dataclasses.fields(cls)
     for bad in BAD_VALUES.get(getattr(f.type, "__name__", f.type), ())],
)
def test_every_config_field_checks_its_type(config, name, bad):
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        dataclasses.replace(config, **{name: bad})


# The shape rule of any network lives in mlp, the 5-in/1-out rule of an
# inverse controller in control; every entry point that takes a shape gives
# one verdict on it, naming the same field.
@pytest.mark.parametrize(
    "sizes,acts,field,any_network_accepts",
    [
        ([], [], "layer_sizes", False),
        ([5], [], "layer_sizes", False),
        ([5, 0, 1], ["tanh", "linear"], "layer_sizes", False),
        ([5, 2.7, 1], ["tanh", "linear"], "layer_sizes", False),
        ([5, True, 1], ["tanh", "linear"], "layer_sizes", False),
        ([3, 10, 1], ["tanh", "linear"], "layer_sizes", True),
        ([5, 10, 2], ["tanh", "linear"], "layer_sizes", True),
        ([5, 10, 1], ["tanh"], "activations", False),
        ([5, 10, 1], ["tanh", "relu"], "activations", False),
    ],
    ids=["no-layers", "one-layer", "zero-width", "float-width", "bool-width", "three-inputs",
         "two-outputs", "one-activation", "relu"],
)
def test_every_entry_point_rejects_a_bad_shape_alike(
        tmp_path, capsys, sizes, acts, field, any_network_accepts):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"network": {"layer_sizes": sizes, "activations": acts}}))
    out = tmp_path / "out"
    assert run(["--config", str(path), "--out", str(out), "collect"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"invalid 'network' configuration: {field}" in err
    assert "Traceback" not in err
    assert not out.exists()

    weights = np.zeros(int(weight_count(sizes)))  # a float width counts a float
    for build in (lambda: init_weights(sizes, acts, seed=0, scale=0.5),
                  lambda: MlpNetwork(sizes, acts, weights)):
        if any_network_accepts:
            build()
        else:
            with pytest.raises(ArchitectureError, match=field):
                build()
    # input and output scalings; none for `[]`, whose network never builds
    scalings = [AffineScaling(np.zeros(n), np.ones(n)) for n in sizes[:1] + sizes[-1:]]
    with pytest.raises(ValueError, match=field):
        ctl.NeuralController(MlpNetwork(sizes, acts, weights), *scalings)

    if any_network_accepts:  # a well-formed .net file of a network that is no controller
        net = tmp_path / "shape.net"
        save_network(net, MlpNetwork(sizes, acts, weights), *scalings)
        other = tmp_path / "other.net"
        other.write_text(_constant_net(4.0))
        for args in (["control", str(net)], ["compare", str(other), str(net)]):
            assert run(["--out", str(out), *args]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"error: {net}: {field}" in err
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

    def test_overflowing_plant_exits_3_naming_the_sample(self, tmp_path, capsys):
        path = write_config(tmp_path, "plant: {gain: 1.0e+308}\n")
        out = tmp_path / "out"
        assert run(["--config", path, "--out", str(out), "collect"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "not finite from sample k=6" in err
        assert "Traceback" not in err
        assert not (out / "iolog.csv").exists()


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

    def test_overflowing_initial_loss_exits_3(self, tmp_path, capsys):
        path = write_config(tmp_path, f"""
            network: {{init_scale: 1.0e+300}}
            experiment: {{num_steps: 2, dwell_samples: 5}}
            output_dir: {tmp_path / 'out'}
        """)
        assert run(["--config", path, "collect"]) == EXIT_OK
        assert run(["--config", path, "train"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric failure: initial loss is not finite" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not (tmp_path / "out" / "train_report.csv").exists()
        assert not (tmp_path / "out" / "controller.net").exists()

    def test_control_oracle_flag(self, fast_config):
        path, out = fast_config
        assert run(["--config", path, "control", "--oracle"]) == EXIT_OK
        indices = (out / "indices.csv").read_text().splitlines()
        mae = float(indices[1].split(",")[1])
        assert mae < 0.1

    def test_control_missing_network(self, fast_config):
        path, _ = fast_config
        assert run(["--config", path, "control", "/nope/missing.net"]) == EXIT_CONFIG

    def test_control_needs_a_network_or_oracle(self, fast_config, capsys):
        path, _ = fast_config
        assert run(["--config", path, "control"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "control needs a network file (or --oracle)" in err
        assert "Traceback" not in err

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

    def test_compare_rejects_a_repeated_network(self, fast_config, tmp_path, capsys):
        path, out = fast_config
        nets = [tmp_path / "a.net", tmp_path / "b.net"]
        for net, volts in zip(nets, (4.0, 5.0)):
            net.write_text(_constant_net(volts))
        args = ["--config", path, "compare", str(nets[0]), str(nets[1]), str(nets[0])]
        assert run(args) == EXIT_CONFIG
        assert f"network file {nets[0]} is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_unreadable_network_lists_path(self, fast_config, capsys):
        path, out = fast_config
        run(["--config", path, "collect"])
        run(["--config", path, "train"])
        net = str(out / "controller.net")
        assert run(["--config", path, "compare", net, "/nope/bad.net"]) == EXIT_CONFIG
        assert "bad.net" in capsys.readouterr().err


@pytest.fixture(scope="module")
def three_seed_nets(tmp_path_factory):
    """A FAST_CONFIG evaluated at seeds 0-2, and two networks trained with it."""
    base = tmp_path_factory.mktemp("three_seeds")
    text = FAST_CONFIG.replace("OUT", str(base / "out")).replace("[0, 1]", "[0, 1, 2]")
    path = write_config(base, text)
    nets = []
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["--config", path, "collect"]) == EXIT_OK
        for seed in ("4", "5"):
            out = base / f"net{seed}"
            iolog = str(base / "out" / "iolog.csv")
            assert run(["--config", path, "--seed", seed, "--out", str(out),
                        "train", "--iolog", iolog]) == EXIT_OK
            nets.append(str(out / "controller.net"))
    return path, nets


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestLockstepClosedLoops:
    """control and compare write the same files, output and exit codes
    whether their NeuralController loops run in lockstep or one at a time."""

    @pytest.mark.parametrize("command", ["control", "compare", "compare-mixed"])
    def test_outputs_byte_identical(self, three_seed_nets, tmp_path, capsys, monkeypatch,
                                    command):
        path, nets = three_seed_nets
        if command == "compare-mixed":  # a second architecture: a group of its own
            constant = tmp_path / "constant.net"
            constant.write_text(_constant_net(4.0))
            nets = [nets[0], str(constant), nets[1]]
        args = ["control", nets[0]] if command == "control" else ["compare", *nets]
        runs = []
        for smallest in (1, 10**9):
            monkeypatch.setattr(ctl, "LOCKSTEP_MIN", smallest)
            out = tmp_path / f"lockstep_min{smallest}"
            assert run(["--config", path, "--out", str(out), *args]) == EXIT_OK
            runs.append((_files(out), capsys.readouterr().out.replace(str(out), "OUT")))
        assert runs[0] == runs[1]
        names = ["comparison.csv"] if command != "control" else [
            "indices.csv", "trace_0.csv", "trace_1.csv", "trace_2.csv"]
        assert sorted(runs[0][0]) == names

    def test_divergence_at_second_seed_keeps_the_files_before_it(
        self, three_seed_nets, tmp_path, capsys, monkeypatch
    ):
        path, nets = three_seed_nets
        real, calls = ctl.forward_stacked, [0]

        def forward_stacked(layers, inputs):  # seed 1's output is NaN from sample 25 on
            calls[0] += 1
            out = real(layers, inputs)
            if calls[0] > 25:
                out[1] = float("nan")
            return out

        monkeypatch.setattr(ctl, "LOCKSTEP_MIN", 1)
        monkeypatch.setattr(ctl, "forward_stacked", forward_stacked)
        out = tmp_path / "out"
        assert run(["--config", path, "--out", str(out), "control", nets[0]]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "seed 1: controller output not finite at sample 25" in captured.err
        assert "Traceback" not in captured.err
        files = _files(out)
        assert sorted(files) == ["trace_0.csv", "trace_1.csv"]
        assert len(files["trace_0.csv"].splitlines()) == 1 + 120
        assert len(files["trace_1.csv"].splitlines()) == 1 + 25

    @pytest.mark.parametrize("path_taken", ["lockstep", "one at a time"])
    def test_memory_error_is_exit_1(
        self, three_seed_nets, tmp_path, capsys, monkeypatch, path_taken
    ):
        path, nets = three_seed_nets

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.11 PiB for an array")

        if path_taken == "lockstep":
            monkeypatch.setattr(ctl, "LOCKSTEP_MIN", 1)
            monkeypatch.setattr(ctl, "forward_stacked", out_of_memory)
        else:
            monkeypatch.setattr(ctl, "LOCKSTEP_MIN", 10**9)
            monkeypatch.setattr(ctl, "run_closed_loop", out_of_memory)
        assert run(["--config", path, "--out", str(tmp_path / "out"), "control", nets[0]]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: Unable to allocate 7.11 PiB" in err
        assert "Traceback" not in err


def _constant_net(volts):
    """A hand-written 5-1 linear network that outputs `volts` for any
    regressor: zero input weights, unit input and target scaling."""
    return "\n".join([
        "servoneuro-net 1", "layers 5 1", "activations linear",
        "input_offset 0.0 0.0 0.0 0.0 0.0", "input_gain 1.0 1.0 1.0 1.0 1.0",
        "target_offset 0.0", "target_gain 1.0", "weights 6",
        "0.0", "0.0", "0.0", "0.0", "0.0", repr(volts),
    ]) + "\n"


# A 5-1 linear controller whose first input weight is 2: an input offset or
# gain of 1e308 makes its output overflow.
_SMALL_NET = _constant_net(4.0).replace("weights 6\n0.0", "weights 6\n2.0")


# A plant whose output settles near 4e307 V at the 6.5 V actuator limit:
# finite, but the mean of |r-y| over the trace overflows.
_HUGE_GAIN_CONFIG = """
    plant: {gain: 1.0e+307}
    evaluation:
      profile: [{level: 1.0, duration: 120}]
      seeds: [0, 1]
"""


class TestOverflowingIndex:
    def test_control_exits_3_naming_the_seed(self, tmp_path, capsys):
        net = tmp_path / "high.net"
        net.write_text(_constant_net(7.0))
        out = tmp_path / "out"
        path = write_config(tmp_path, _HUGE_GAIN_CONFIG)
        assert run(["--config", path, "--out", str(out), "control", str(net)]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "seed 0: performance index not finite: mean_abs_error = inf" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert sorted(_files(out)) == ["trace_0.csv"]
        y = [float(line.split(",")[2]) for line in (out / "trace_0.csv").read_text().splitlines()[1:]]
        assert all(math.isfinite(v) for v in y) and max(y) > 3.9e307

    def test_one_seed_overflowing_controller_warns_nothing(self, tmp_path, capsys):
        # one seed runs one loop at a time, which must be as quiet as lockstep
        net = tmp_path / "big.net"
        net.write_text(_SMALL_NET.replace("input_offset 0.0", "input_offset 1e308"))
        path = write_config(tmp_path, "evaluation: {profile: [{level: 1.0, duration: 50}], "
                                      "seeds: [0]}\n")
        assert run(["--config", path, "--out", str(tmp_path / "out"), "control", str(net)]) \
            == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err == "seed 0: controller output not finite at sample 0\n"

    def test_compare_records_an_error_row(self, tmp_path, capsys):
        high, low = tmp_path / "high.net", tmp_path / "low.net"
        high.write_text(_constant_net(7.0))
        low.write_text(_constant_net(2.0))
        out = tmp_path / "out"
        path = write_config(tmp_path, _HUGE_GAIN_CONFIG)
        assert run(["--config", path, "--out", str(out), "compare", str(high), str(low)]) == EXIT_OK
        rows = [line.split(",", 4) for line in (out / "comparison.csv").read_text().splitlines()[1:]]
        for name, _, mae, effort, error in rows:
            if name == str(high):
                assert (mae, effort) == ("", "") and "not finite" in error
            else:
                assert math.isfinite(float(mae)) and error == ""
        table = capsys.readouterr().out.splitlines()
        assert str(low) in table[1] and str(high) in table[2]


_LONG_FIELD = "9" * (csv.field_size_limit() + 1)


class TestIoLogBoundary:
    @pytest.mark.parametrize(
        "rows,where",
        [
            (["0,3.0,0.0", "1,3.0,0.1", "2,3.0,nan", "3,3.0,0.3", "4,3.0,0.4"], "line 4"),
            (["0,3.0,0.0", "1,inf,0.1", "2,3.0,0.2", "3,3.0,0.3", "4,3.0,0.4"], "line 3"),
            (["0,3.0,0.0", "1,volts,0.1", "2,3.0,0.2", "3,3.0,0.3"], "line 3"),
            (["0,3.0,0.0", "1,3.0"], "line 3"),
            (["0,3.0,0.0", "1,3.0,0.1"], "too short"),
            (["0,3.0,0.0", "1,3.0,0.1", "2,3.0,0.2"], "too short"),
            # a field past csv.field_size_limit() fails on the line that holds
            # it, which csv's line_num has not counted yet
            (["0,3.0,0.0", "1,3.0,0.1", "2,3.0,0.2", "3,3.0,0.3", f"4,{_LONG_FIELD},0.4"],
             "line 6:"),
            (["0,3.0,0.0", "1,3.0,0.1", "2,3.0,0.2", "3,3.0,0.3", f'4,"{_LONG_FIELD}",0.4'],
             "line 6:"),
            (["0,3.0,0.0", "1,3.0,0.1", "2,3.0,0.2", "3,3.0,0.3", f'4,"3.0\n{_LONG_FIELD}",0.4'],
             "line 7:"),
            # every value is finite, but u's span is not: no scaling fits it
            (["0,1e308,0.0", "1,-1e308,0.1", "2,1e308,0.2", "3,-1e308,0.3", "4,1e308,0.4"],
             "scaling gain must be finite"),
        ],
        ids=["nan", "inf", "text", "missing-field", "two-rows", "three-rows",
             "field-past-limit", "quoted-field-past-limit", "field-past-limit-on-next-line",
             "span-overflows-scaling"],
    )
    def test_bad_iolog_exits_1_naming_file_and_row(self, tmp_path, capsys, rows, where):
        iolog = tmp_path / "bad_iolog.csv"
        iolog.write_text("\n".join(["k,u,y", *rows]) + "\n")
        argv = ["--out", str(tmp_path / "out"), "train", "--iolog", str(iolog)]
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad_iolog.csv" in err and where in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def net_text(tmp_path_factory):
    """The text of a .net file trained with FAST_CONFIG."""
    base = tmp_path_factory.mktemp("net")
    path = write_config(base, FAST_CONFIG.replace("OUT", str(base / "out")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["--config", path, "collect"]) == EXIT_OK
        assert run(["--config", path, "train"]) == EXIT_OK
    return (base / "out" / "controller.net").read_text()


# case -> (0-based line of a trained 5-10-1 .net file, how to spoil it)
_NET_EDITS = {
    "weight": (8, lambda line: "abc"),
    "layer-width": (1, lambda line: "layers 5 x 1"),
    "weight-count": (7, lambda line: "weights x"),
    "two-weight-counts": (7, lambda line: line + " 71"),
    "negative-weight-count": (7, lambda line: "weights -40"),
    "scaling-value": (4, lambda line: line.rsplit(" ", 1)[0] + " abc"),
    "activation": (2, lambda line: "activations relu linear"),
    "input-offset-width": (3, lambda line: " ".join(line.split()[:4])),
    "input-gain-width": (4, lambda line: " ".join(line.split()[:4])),
    "target-offset-width": (5, lambda line: line + " 1.0"),
    "target-gain-width": (6, lambda line: line + " 1.0"),
}


class TestNetworkFileBoundary:
    @pytest.mark.parametrize("command", ["control", "compare"])
    @pytest.mark.parametrize("case", sorted(_NET_EDITS))
    def test_bad_header_or_weight_exits_1_naming_file_and_line(
        self, net_text, tmp_path, capsys, case, command
    ):
        index, spoil = _NET_EDITS[case]
        lines = net_text.splitlines()
        lines[index] = spoil(lines[index])
        good, edited = tmp_path / "good.net", tmp_path / "edited.net"
        good.write_text(net_text)
        edited.write_text("\n".join(lines) + "\n")
        nets = [str(edited)] if command == "control" else [str(good), str(edited)]
        path = write_config(tmp_path, FAST_CONFIG.replace("OUT", str(tmp_path / "out")))
        assert run(["--config", path, command, *nets]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"edited.net: line {index + 1}:" in err
        assert "Traceback" not in err

    def test_layers_that_disagree_with_the_weights_exit_1_naming_file(
        self, net_text, tmp_path, capsys
    ):
        edited = tmp_path / "edited.net"
        edited.write_text(net_text.replace("layers 5 10 1\n", "layers 5 9 1\n", 1))
        assert run(["--out", str(tmp_path / "out"), "control", str(edited)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{edited}: weight vector has length 71, expected 64" in err
        assert "Traceback" not in err

    def test_trailing_content_exits_1_naming_file_and_line(self, fast_config, capsys):
        path, out = fast_config
        assert run(["--config", path, "collect"]) == EXIT_OK
        assert run(["--config", path, "train"]) == EXIT_OK
        net = out / "controller.net"
        n_lines = len(net.read_text().splitlines())
        with net.open("a") as fh:
            fh.write("junk\n")
        assert run(["--config", path, "control", str(net)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"controller.net: line {n_lines + 1}" in err and "'junk'" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["config", "iolog", "net"])
def test_undecodable_input_file_exits_1_naming_it(net_text, tmp_path, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    good = {"config": "trainer: {max_epochs: 2}\n", "iolog": "k,u,y\n0,3.0,0.0\n",
            "net": net_text}[kind]
    bad.write_bytes(good.encode()[:10] + b"\xff" + good.encode()[10:])
    argv = {"config": ["--config", str(bad), "collect"],
            "iolog": ["train", "--iolog", str(bad)],
            "net": ["control", str(bad)]}[kind]
    assert run(["--out", str(tmp_path / "out"), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(bad) in err and "decode" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("how", ["missing", "directory"])
@pytest.mark.parametrize("kind", ["config", "iolog", "net"])
def test_unreadable_input_file_exits_1_naming_it(tmp_path, capsys, kind, how):
    path = tmp_path / f"input.{kind}"
    if how == "directory":
        path.mkdir()
    argv = {"config": ["--config", str(path), "collect"],
            "iolog": ["train", "--iolog", str(path)],
            "net": ["control", str(path)]}[kind]
    assert run(["--out", str(tmp_path / "out"), *argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    what = {"config": "config file", "iolog": "I/O log", "net": "network file"}[kind]
    assert f"cannot read {what}" in err and str(path) in err
    assert "Traceback" not in err


def test_utf8_config_is_read_under_an_ascii_locale(tmp_path):
    # with locale coercion and UTF-8 mode off, the C locale's encoding is ASCII
    config = tmp_path / "config.yaml"
    config.write_text("experiment: {num_steps: 2, dwell_samples: 10}  # \u03c3 \u2014 volts\n",
                      encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "servoneuro.cli", "--config", str(config),
         "--out", str(tmp_path / "out"), "collect"],
        env=env, capture_output=True, encoding="utf-8",
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "iolog.csv").is_file()


@pytest.mark.skipif(sys.getfilesystemencoding() != "utf-8", reason="a UTF-8 file system")
def test_compare_rejects_a_network_file_name_that_is_not_utf8(net_text, tmp_path, capsys):
    # Linux file names are bytes; this one decodes to a lone surrogate
    good, bad = tmp_path / "good.net", tmp_path / os.fsdecode(b"l\xe4.net")
    for net in (good, bad):
        net.write_text(net_text)
    out = tmp_path / "out"
    assert run(["--out", str(out), "compare", str(good), str(bad)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"network file name {ascii(str(bad))} is not valid UTF-8" in err
    assert "Traceback" not in err
    assert not out.exists()


# Path collisions, not permissions: the suite may run as root, whom a chmod
# does not stop.
@pytest.mark.parametrize("command", [["collect"], ["control", "--oracle"]], ids=" ".join)
def test_unwritable_output_path_exits_2(tmp_path, capsys, command):
    out = tmp_path / "out"
    if command[0] == "collect":
        out.write_text("")  # --out names a regular file
    else:
        (out / "trace_0.csv").mkdir(parents=True)  # the trace's path is a directory
    path = write_config(tmp_path, "evaluation: {seeds: [0], profile: [{level: 1.0, duration: 5}]}")
    assert run(["--config", path, "--out", str(out), *command]) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error" in err
    assert "Traceback" not in err


class TestSvgEmission:
    def test_control_svg_files(self, fast_config):
        path, out = fast_config
        assert run(["--config", path, "--svg", "control", "--oracle"]) == EXIT_OK
        svg = (out / "trace_0.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_early_stop_training_chart_has_the_validation_series(self, tmp_path):
        text = FAST_CONFIG.replace("OUT", str(tmp_path / "out")).replace(
            "algorithm: lm", "algorithm: early_stop")
        path = write_config(tmp_path, text)
        assert run(["--config", path, "collect"]) == EXIT_OK
        assert run(["--config", path, "--svg", "train"]) == EXIT_OK
        svg = (tmp_path / "out" / "train_errors.svg").read_text()
        assert svg.count("<polyline") == 2
        assert ">E_D</text>" in svg and ">val E_D</text>" in svg

    def test_controller_pinned_at_u_min_draws_a_flat_finite_chart(self, tmp_path):
        net = tmp_path / "pinned.net"
        net.write_text(_constant_net(0.0))  # clamped to U_MIN at every sample
        profile = "[{level: 1.0, duration: 9}]"
        path = write_config(tmp_path, f"evaluation: {{seeds: [0], profile: {profile}}}")
        out = tmp_path / "out"
        assert run(["--config", path, "--out", str(out), "--svg", "control", str(net)]) == EXIT_OK
        svg = (out / "effort_0.svg").read_text()
        points = [p.split(",") for p in re.search(r'points="([^"]*)"', svg)[1].split()]
        assert len(points) > 1 and len({y for _, y in points}) == 1
        assert all(math.isfinite(float(v)) for point in points for v in point)
        assert not re.search(r"\b(nan|inf)\b", svg)

    def test_no_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no series to plot"):
            write_line_chart(tmp_path / "empty.svg", {})


class TestSeedOverride:
    def test_seed_flag_changes_collect(self, fast_config):
        path, out = fast_config
        run(["--config", path, "collect"])
        first = (out / "iolog.csv").read_bytes()
        run(["--config", path, "--seed", "99", "collect"])
        assert (out / "iolog.csv").read_bytes() != first


# --- exit-code contract under random configs ------------------------------


def _names(cls):
    return [f.name for f in dataclasses.fields(cls)]


_SECTION_KEYS = {
    "plant": _names(MotorParams),
    "experiment": _names(StepExperimentConfig),
    "network": _names(NetworkSpec),
    "trainer": ["algorithm", *_names(LmConfig), *_names(BrConfig), *_names(EarlyStopConfig)],
    "evaluation": ["profile", "seeds"],
}

_numbers = st.one_of(st.integers(-3, 60), st.floats(-10, 10))
_scalars = st.one_of(
    _numbers,
    st.sampled_from(
        [math.nan, math.inf, -math.inf, True, False, None, "", "x", "lm", "br",
         "early_stop", "tanh", 1e308]
    ),
)
_values = st.one_of(
    _numbers,
    st.one_of(
        _scalars,
        st.lists(_scalars, max_size=4),
        st.lists(st.dictionaries(st.sampled_from(["level", "duration", "x"]), _scalars),
                 max_size=3),
    ),
)


def _section(name):
    keys = st.one_of(st.sampled_from([*_SECTION_KEYS[name], "junk"]), st.integers(0, 3))
    not_a_mapping = st.one_of(
        st.none(), st.integers(-2, 5), st.lists(st.integers(), max_size=2), st.text(max_size=4)
    )
    return st.one_of(st.dictionaries(keys, _values, max_size=3), not_a_mapping)


_configs = st.fixed_dictionaries(
    {},
    optional={**{name: _section(name) for name in _SECTION_KEYS},
              "output_dir": _values, "junk": _values},
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(config=_configs)
@settings(max_examples=60, deadline=None)
@example(config="plant: [1")
@example(config={"trainer": None})
@example(config={"plant": 5})
@example(config={"network": {"layer_sizes": [3, 10, 1]}})
@example(config={"network": {"layer_sizes": [5, 10, 2]}})
@example(config={"network": {"activations": ["tanh"]}})
@example(config={"plant": {"noise_sigma": math.nan}})
@example(config={"plant": {"gain": 0}})
@example(config={"experiment": {"amplitude_min": math.inf}})
@example(config={"experiment": {"amplitude_min": -1.0e308, "amplitude_max": 1.0e308}})
@example(config={"experiment": {"num_steps": 1, "dwell_samples": 2}})
@example(config={"plant": {"gain": 1e308}})
def test_collect_exit_code_contract(fuzz_dir, config):
    """Any config mapping (or YAML text) ends in a documented exit code, and
    no traceback reaches stderr."""
    path = fuzz_dir / "config.yaml"
    path.write_text(config if isinstance(config, str) else yaml.safe_dump(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(fuzz_dir / "out"), "collect"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- exit-code contract of the evaluation block ----------------------------

# Values of every YAML type.  No int here exceeds 50, so a value that lands
# in a duration keeps a valid profile short.
_yaml_values = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=4),
    st.sampled_from(["1.5", "20", ".nan", "inf"]),
    st.integers(-2, 50),
    st.lists(st.integers(-2, 50), max_size=2),
    st.dictionaries(st.sampled_from(["level", "duration"]), st.integers(-2, 50), max_size=2),
)


@st.composite
def _evaluations(draw, seeds=st.lists(st.integers(0, 3), min_size=1, max_size=2)):
    """A valid evaluation block with seeds drawn from `seeds`, then at most
    one spoilt part: a level or a duration of any YAML type, a missing or an
    extra key, or an entry, the profile or the seeds replaced by any YAML
    value."""
    profile = draw(st.lists(st.fixed_dictionaries(
        {"level": st.floats(-10, 10), "duration": st.integers(1, 50)}), min_size=1, max_size=3))
    evaluation = {"profile": profile, "seeds": draw(seeds)}
    i = draw(st.integers(0, len(profile) - 1))
    spoil = draw(st.sampled_from(
        ["none", "level", "duration", "missing", "extra", "entry", "profile", "seeds"]))
    if spoil == "level":
        profile[i]["level"] = draw(st.one_of(_yaml_values, st.just(10**400)))
    elif spoil == "duration":
        profile[i]["duration"] = draw(_yaml_values)
    elif spoil == "missing":
        del profile[i][draw(st.sampled_from(["level", "duration"]))]
    elif spoil == "extra":
        profile[i]["x"] = draw(_yaml_values)
    elif spoil == "entry":
        profile[i] = draw(_yaml_values)
    elif spoil in ("profile", "seeds"):
        evaluation[spoil] = draw(_yaml_values)
    return evaluation


# Valid values of each plant key; any combination of them is a valid plant.
# On the 1e307-gain plant a network that drives the output past the dead
# zone has an index that overflows.
_PLANT_VALUES = {
    "gain": [0.5, 1.0, 1e307], "tau": [0.25, 0.5], "ts": [0.05, 0.1],
    "dead_zone": [0.0, 2.5, 3.0], "saturation": [5.0, 6.5], "noise_sigma": [0.0, 0.02, 0.1],
}


@st.composite
def _plants(draw):
    """A valid plant block of up to three keys, then at most one value
    replaced by a number near MotorParams' checks or by any YAML value."""
    keys = draw(st.lists(st.sampled_from(sorted(_PLANT_VALUES)), max_size=3, unique=True))
    plant = {key: draw(st.sampled_from(_PLANT_VALUES[key])) for key in keys}
    if keys and draw(st.booleans()):
        plant[draw(st.sampled_from(keys))] = draw(st.one_of(st.floats(-1, 10), _yaml_values))
    return plant


@given(evaluation=_evaluations(), plant=_plants())
@settings(max_examples=60, deadline=None)
@example(evaluation={"profile": [{"level": "1.5", "duration": True},
                                 {"level": True, "duration": 2.9}]}, plant={})
@example(evaluation={"profile": [{"level": 10**400, "duration": 3}]}, plant={})
@example(evaluation={"profile": [{"level": 1e308, "duration": 3}], "seeds": [0]}, plant={})
@example(evaluation={"profile": [{"level": 1.0, "duration": 10**15}]}, plant={})
@example(evaluation={"profile": [{"level": 1.0, "duration": 3}], "seeds": [0]},
         plant={"ts": 1.0e-20})
@example(evaluation={"profile": [{"level": 0.0, "duration": 15}], "seeds": [0]},
         plant={"gain": 1e307, "dead_zone": 0.0, "noise_sigma": 0.0})
def test_control_oracle_evaluation_exit_code_contract(fuzz_dir, evaluation, plant):
    """Any evaluation and plant block either runs (exit 0), is a config error
    (exit 1), or is a numeric failure (exit 3): a finite level so large, or a
    plant drive so small, that the oracle's output overflows, or a 1e307-gain
    plant whose output the clamp floor drives so high that an index overflows.
    No traceback reaches stderr.  The oracle is the one path that divides by
    the plant's drive."""
    path = fuzz_dir / "evaluation.yaml"
    path.write_text(yaml.safe_dump({"evaluation": evaluation, "plant": plant}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(fuzz_dir / "oracle"), "control",
                     "--oracle"])
    assert code in (EXIT_OK, EXIT_CONFIG) or (
        code == EXIT_NUMERIC and ("controller output not finite" in err.getvalue()
                                  or "performance index not finite" in err.getvalue()))
    assert "Traceback" not in err.getvalue()


@given(evaluation=_evaluations(st.lists(st.integers(0, 5), min_size=2, max_size=3, unique=True)),
       plant=_plants())
@settings(max_examples=60, deadline=None)
@example(evaluation={"profile": [{"level": 1.0, "duration": 50}], "seeds": [0, 1]},
         plant={"gain": 1e307})
def test_compare_evaluation_and_plant_exit_code_contract(fuzz_dir, evaluation, plant):
    """compare of two networks over at least two seeds (four or more loops,
    in lockstep) runs (exit 0; an index that overflows is an error row) or
    is a config error (exit 1); no traceback reaches stderr."""
    nets = [fuzz_dir / "low.net", fuzz_dir / "high.net"]
    for net, volts in zip(nets, (4.0, 7.0)):
        net.write_text(_constant_net(volts))
    path = fuzz_dir / "compare.yaml"
    path.write_text(yaml.safe_dump({"evaluation": evaluation, "plant": plant}))
    out = fuzz_dir / "compare"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(out), "compare", *map(str, nets)])
    assert code in (EXIT_OK, EXIT_CONFIG)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK:
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 * len(evaluation["seeds"])


# --- exit-code contract of the trainer block -------------------------------

# A valid value for each trainer key other than max_epochs.
_TRAINER_VALUES = {
    "lambda_init": st.floats(1e-6, 1.0), "lambda_increase": st.floats(1.5, 100.0),
    "lambda_decrease": st.floats(0.01, 0.9), "lambda_max": st.floats(1e3, 1e12),
    "goal_ed": st.floats(0.0, 1e-2), "alpha_init": st.floats(1e-3, 1e3),
    "beta_init": st.floats(1e-6, 1e3),
    "validation_fraction": st.floats(0.01, 0.99), "patience": st.integers(1, 3),
    "split_seed": st.integers(0, 5),
}
_ALGORITHM_KEYS = {
    algorithm: sorted(set(_names(LmConfig) + _names(cls)) & set(_TRAINER_VALUES))
    for algorithm, cls in [("lm", LmConfig), ("br", BrConfig), ("early_stop", EarlyStopConfig)]
}


@st.composite
def _trainers(draw):
    """A valid trainer block of at most three epochs with up to three more of
    its algorithm's keys, then at most one spoilt part: a value of any YAML
    type or size, a key of another algorithm, an unknown algorithm or a bad
    max_epochs."""
    algorithm = draw(st.sampled_from(sorted(_ALGORITHM_KEYS)))
    keys = draw(st.lists(st.sampled_from(_ALGORITHM_KEYS[algorithm]), max_size=3, unique=True))
    trainer = {"algorithm": algorithm, "max_epochs": draw(st.integers(1, 3)),
               **{key: draw(_TRAINER_VALUES[key]) for key in keys}}
    spoil = draw(st.sampled_from(["none", "value", "key", "algorithm", "max_epochs"]))
    if spoil == "value":
        key = draw(st.sampled_from(_ALGORITHM_KEYS[algorithm]))
        trainer[key] = draw(st.one_of(_values, st.floats(), st.sampled_from(
            [1e-300, 1e300, 10**400, 10**15, -(10**15), 0.999999, 1e-9])))
    elif spoil == "key":
        trainer[draw(st.sampled_from([*_TRAINER_VALUES, "lm", "junk"]))] = draw(_values)
    elif spoil == "algorithm":
        trainer["algorithm"] = draw(_scalars)
    elif spoil == "max_epochs":
        trainer["max_epochs"] = draw(st.one_of(st.integers(-2, 0), st.floats(), st.sampled_from(
            [None, True, "2", [2], 2.0])))
    return trainer


@pytest.fixture(scope="module")
def tiny_iolog(tmp_path_factory):
    base = tmp_path_factory.mktemp("tiny_iolog")
    path = write_config(base, "experiment: {num_steps: 4, dwell_samples: 10}\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", path, "--out", str(base), "collect"]) == EXIT_OK
    return base / "iolog.csv"


@given(trainer=_trainers())
@settings(max_examples=40, deadline=None)
@example(trainer={"algorithm": "early_stop", "max_epochs": 3, "validation_fraction": 0.999999})
@example(trainer={"algorithm": "br", "max_epochs": 3, "beta_init": 1e300, "alpha_init": 1e-300})
@example(trainer={"algorithm": "lm", "max_epochs": 3, "lambda_init": 1e-300,
                  "lambda_max": 1e300, "lambda_increase": 1e300})
def test_train_exit_code_contract(fuzz_dir, tiny_iolog, trainer):
    """Any trainer block trains (exit 0), is a config error (exit 1) or
    diverges (exit 3) on a 40-sample I/O log; no traceback reaches stderr."""
    path = fuzz_dir / "trainer.yaml"
    path.write_text(yaml.safe_dump({"trainer": trainer}))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(path), "--out", str(fuzz_dir / "train"), "train",
                     "--iolog", str(tiny_iolog)])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- exit-code contract of the input files ----------------------------------

_INPUT_CONFIG = """
    trainer: {max_epochs: 2}
    evaluation: {profile: [{level: 1.0, duration: 20}], seeds: [0]}
"""
_mutations = st.one_of(
    st.tuples(st.just("swap"), st.integers(0, 99), st.integers(0, 9),
              st.sampled_from([b"1e308", b"nan", b"inf", b"\xff", b"\x00", b""])),
    st.tuples(st.sampled_from(["delete", "repeat", "truncate"]), st.integers(0, 99)),
)


def _mutate(data, mutation):
    """`data` with one line's token swapped, its line deleted or repeated, or
    the file cut short; indices wrap around the lines and tokens there are."""
    kind, at, *swap = mutation
    if kind == "truncate":
        return data[: at * len(data) // 100]
    lines = data.split(b"\n")
    i = at % len(lines)
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        token, new = swap
        sep = b"," if b"," in lines[i] else b" "
        tokens = lines[i].split(sep)
        tokens[token % len(tokens)] = new
        lines[i] = sep.join(tokens)
    return b"\n".join(lines)


@given(kind=st.sampled_from(["net", "iolog"]), mutation=_mutations)
@settings(max_examples=150, deadline=None)
@example(kind="net", mutation=("swap", 3, 1, b"1e308"))  # the first input offset
@example(kind="net", mutation=("swap", 8, 0, b"\x00"))
@example(kind="iolog", mutation=("swap", 2, 2, b"\x00"))
def test_input_file_exit_code_contract(fuzz_dir, tiny_iolog, kind, mutation):
    """A mutated .net through `control` or a mutated I/O log through `train`
    runs (exit 0), is rejected (exit 1) or diverges (exit 3), with no
    traceback and no warning on stderr."""
    config = write_config(fuzz_dir, _INPUT_CONFIG)
    path = fuzz_dir / f"mutated.{kind}"
    if kind == "net":
        path.write_bytes(_mutate(_SMALL_NET.encode(), mutation))
        argv = ["control", str(path)]
    else:
        path.write_bytes(_mutate(tiny_iolog.read_bytes(), mutation))
        argv = ["train", "--iolog", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", config, "--out", str(fuzz_dir / "files"), *argv])
    assert code in (0, 1, 3)
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()


# --- exit-code contract under random argv ----------------------------------

# Every file name is relative to the fixture directory, which is the working
# directory while an argv runs.
_TINY_CONFIG = """
    experiment: {num_steps: 4, dwell_samples: 10}
    trainer: {algorithm: ALGO, max_epochs: 2}
    evaluation:
      profile: [{level: 3.0, duration: 20}]
      seeds: [0]
    output_dir: out
"""
_CONFIG_FILES = ["lm.yaml", "br.yaml", "early_stop.yaml"]
_JUNK = ["", "-1", "1.5", "x", "nan", "99999999999999999999", "a\x00b", "--", "-h", "--bogus"]
_PATHS = ["iolog.csv", "ctl.net", "trailing.net", "junk.txt", "missing.net", "adir",
          "out", "out/controller.net", "out/iolog.csv", *_CONFIG_FILES]
_VALUES = st.sampled_from(_PATHS + _JUNK)
_GLOBAL_OPTIONS = st.one_of(
    st.just(["--svg"]),
    st.tuples(st.sampled_from(["--config", "--seed", "--out"]), _VALUES).map(list),
)
_COMMAND_ARGS = {
    "collect": st.just([]),
    "train": st.lists(st.tuples(st.just("--iolog"), _VALUES).map(list), max_size=1),
    "control": st.lists(st.one_of(st.just(["--oracle"]), _VALUES.map(lambda v: [v])), max_size=2),
    "compare": st.lists(_VALUES.map(lambda v: [v]), max_size=3),
}


@st.composite
def _argvs(draw):
    """Mostly well-formed command lines with drawn values, sometimes a bare
    token soup; the first option is always one of the tiny configs, so every
    run stays small."""
    head = ["--config", draw(st.sampled_from(_CONFIG_FILES))]
    tokens = st.sampled_from([*_COMMAND_ARGS, "--svg", "--oracle", "--iolog", "--seed",
                              "--out", "--config", *_PATHS, *_JUNK])
    if draw(st.integers(0, 4)) == 0:
        return head + draw(st.lists(tokens, max_size=6))
    options = [t for opt in draw(st.lists(_GLOBAL_OPTIONS, max_size=3)) for t in opt]
    command = draw(st.sampled_from(list(_COMMAND_ARGS)))
    args = [t for arg in draw(_COMMAND_ARGS[command]) for t in arg]
    return head + options + [command] + args + draw(st.lists(tokens, max_size=1))


@contextlib.contextmanager
def _working_dir(path):
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("argv")
    for name in _CONFIG_FILES:
        algorithm = name.removesuffix(".yaml")
        (base / name).write_text(textwrap.dedent(_TINY_CONFIG.replace("ALGO", algorithm)))
    with _working_dir(base), contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", "lm.yaml", "collect"]) == EXIT_OK
        assert main(["--config", "lm.yaml", "train"]) == EXIT_OK
    (base / "iolog.csv").write_bytes((base / "out" / "iolog.csv").read_bytes())
    net_text = (base / "out" / "controller.net").read_text()
    (base / "ctl.net").write_text(net_text)
    (base / "trailing.net").write_text(net_text + "0.5\n")
    (base / "junk.txt").write_text("not a network, log or config: [\n")
    (base / "adir").mkdir()
    return base


@given(argv=_argvs())
@settings(max_examples=80, deadline=None)
@example(argv=["--config", "lm.yaml", "--out", "a\x00b", "collect"])
@example(argv=["--config", "lm.yaml", "train", "--iolog", "a\x00b"])
@example(argv=["--config", "a\x00b", "collect"])
@example(argv=["--config", "br.yaml", "compare", "ctl.net", "a\x00b"])
def test_argv_exit_code_contract(argv_dir, argv):
    """Any command line ends in a documented exit code, and no traceback
    reaches stderr."""
    err = io.StringIO()
    with _working_dir(argv_dir), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


# --- the program names the benchmark traces --------------------------------


def test_every_benchmark_span_resolves(monkeypatch):
    """Each span of bench/tracer.py's TARGETS wraps at least one program
    name; a span that resolves nowhere drops its per-layer metrics from the
    benchmark's result line.  The observers read the wrapped calls' arguments
    and results, so each trainer runs under the tracer and its counters are
    checked: an observer that breaks ends the traced run without a result."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from tracer import Tracer

    rng = np.random.default_rng(0)
    inputs = rng.uniform(-1.0, 1.0, (40, 2))
    data = tr.Dataset.from_raw(inputs, np.sin(inputs.sum(axis=1, keepdims=True)))
    net = init_weights([2, 4, 1], ["tanh", "linear"], seed=0, scale=0.5)
    lm = LmConfig(max_epochs=5)
    trainers = [("lm", "train_lm", lm, 40), ("br", "train_br", BrConfig(lm=lm), 40),
                ("early_stop", "train_early_stopping", EarlyStopConfig(lm=lm), 28)]
    with Tracer().installed() as tracer:
        assert tracer.absent_spans == []
        for kind, name, cfg, n_patterns in trainers:
            tracer.reset_counts()
            _, report = getattr(tr, name)(net, data, cfg)  # the module global is traced
            calls = tracer.count["mlp.error_jacobian"]
            assert calls == len(report.records) > 0
            assert tracer.counters[f"training.{kind}.epochs"] == len(report.records)
            assert (tracer.counters["mlp.error_jacobian.bytes_computed"]
                    == calls * n_patterns * net.n_weights * 8)
