import contextlib
import dataclasses
import io
import math
import os
import textwrap

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from servoneuro import control as ctl
from servoneuro.cli import (
    EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, NetworkSpec, WorkbenchConfig, load_config, main,
)
from servoneuro.experiment import StepExperimentConfig
from servoneuro.plant import MotorParams
from servoneuro.training import BrConfig, EarlyStopConfig, LmConfig


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
            ("experiment: {num_steps: 1, dwell_samples: 3}", [], "dwell_samples"),
            ("trainer: {lambda_init: .nan}", [], "lambda_init"),
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
        assert "initial loss is not finite" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err

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


class TestForkedClosedLoops:
    """control and compare write the same files, output and exit codes
    whether their closed loops all run in the command's process (one CPU) or
    are shared with two forked children (three CPUs)."""

    @pytest.mark.parametrize("command", ["control", "oracle", "compare"])
    def test_outputs_byte_identical(self, three_seed_nets, cpus, tmp_path, capsys, command):
        path, nets = three_seed_nets
        args = {"control": ["control", nets[0]], "oracle": ["control", "--oracle"],
                "compare": ["compare", *nets]}[command]
        runs = []
        for n in (1, 3):
            cpus(n)
            out = tmp_path / f"cpus{n}"
            assert run(["--config", path, "--out", str(out), *args]) == EXIT_OK
            runs.append((_files(out), capsys.readouterr().out.replace(str(out), "OUT")))
        assert runs[0] == runs[1]
        names = ["comparison.csv"] if command == "compare" else [
            "indices.csv", "trace_0.csv", "trace_1.csv", "trace_2.csv"]
        assert sorted(runs[0][0]) == names

    def test_divergence_at_second_seed_keeps_the_files_before_it(
        self, three_seed_nets, cpus, tmp_path, capsys, monkeypatch
    ):
        path, nets = three_seed_nets
        real = ctl.run_closed_loop

        def run_closed_loop(params, controller, profile, seed):
            if seed == 1:  # NaN from sample 25 on
                calls, inner = [0], controller

                def controller(regressor):
                    calls[0] += 1
                    return float("nan") if calls[0] > 25 else inner(regressor)

            return real(params, controller, profile, seed)

        monkeypatch.setattr(ctl, "run_closed_loop", run_closed_loop)
        runs = []
        for n in (1, 3):
            cpus(n)
            out = tmp_path / f"cpus{n}"
            assert run(["--config", path, "--out", str(out), "control", nets[0]]) == EXIT_NUMERIC
            captured = capsys.readouterr()
            assert "seed 1: controller output not finite at sample 25" in captured.err
            assert "Traceback" not in captured.err
            runs.append((_files(out), captured.out))
        assert runs[0] == runs[1]
        files = runs[0][0]
        assert sorted(files) == ["trace_0.csv", "trace_1.csv"]
        assert len(files["trace_0.csv"].splitlines()) == 1 + 120
        assert len(files["trace_1.csv"].splitlines()) == 1 + 25

    @pytest.mark.parametrize("command", ["control", "compare"])
    @pytest.mark.parametrize("failure", ["raises", "dies"])
    def test_failure_in_a_child_keeps_the_exit_code_contract(
        self, three_seed_nets, cpus, tmp_path, capsys, monkeypatch, command, failure
    ):
        path, nets = three_seed_nets
        parent = os.getpid()
        real = ctl.run_closed_loop

        def run_closed_loop(params, controller, profile, seed):
            if seed == 1 and os.getpid() != parent:
                if failure == "dies":
                    os._exit(9)
                raise OSError("simulated read failure")
            return real(params, controller, profile, seed)

        monkeypatch.setattr(ctl, "run_closed_loop", run_closed_loop)
        cpus(3)
        args = ["control", nets[0]] if command == "control" else ["compare", *nets]
        assert run(["--config", path, "--out", str(tmp_path / "out"), *args]) == EXIT_IO
        err = capsys.readouterr().err
        expected = "ended without its results" if failure == "dies" else "simulated read failure"
        assert "I/O error: " in err and expected in err
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
        ],
        ids=["nan", "inf", "text", "missing-field", "two-rows", "three-rows"],
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
