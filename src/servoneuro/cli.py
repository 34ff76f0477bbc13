"""Command-line workbench: collect open-loop data, train inverse controllers,
run them in closed loop, and compare them.

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import control as ctl
from . import experiment as exp
from . import mlp
from . import training as tr
from .plant import MotorParams
from .svg import write_line_chart

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkSpec:
    layer_sizes: tuple = (ctl.REGRESSOR_WIDTH, 10, 1)
    activations: tuple = ("tanh", "linear")
    init_seed: int = 0
    init_scale: float = 0.5

    def __post_init__(self):
        sizes = self.layer_sizes
        if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in sizes):
            raise ValueError(f"layer_sizes must be positive integers, got {sizes}")
        if len(sizes) < 2 or sizes[0] != ctl.REGRESSOR_WIDTH or sizes[-1] != 1:
            raise ValueError(
                f"layer_sizes must have {ctl.REGRESSOR_WIDTH} inputs (the regressor width) "
                f"and 1 output, got {sizes}"
            )
        if len(self.activations) != len(sizes) - 1:
            raise ValueError(
                f"activations needs {len(sizes) - 1} entries (one per non-input layer), "
                f"got {len(self.activations)}"
            )
        for act in self.activations:
            try:
                mlp.ActivationKind(act)
            except ValueError:
                raise ValueError(
                    f"activations: unknown activation {act!r} (use tanh, linear)"
                ) from None
        if self.init_seed < 0:
            raise ValueError("init_seed must be nonnegative")
        if not (math.isfinite(self.init_scale) and self.init_scale >= 0):
            raise ValueError(f"init_scale must be finite and nonnegative, got {self.init_scale!r}")


@dataclass(frozen=True)
class TrainerSpec:
    algorithm: str  # "lm" | "br" | "early_stop"
    config: object  # LmConfig | BrConfig | EarlyStopConfig


@dataclass(frozen=True)
class EvaluationSpec:
    profile: ctl.ReferenceProfile = ctl.DEFAULT_PROFILE
    seeds: tuple = tuple(range(10))


@dataclass(frozen=True)
class WorkbenchConfig:
    plant: MotorParams = field(default_factory=MotorParams)
    experiment: exp.StepExperimentConfig = field(default_factory=exp.StepExperimentConfig)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    trainer: TrainerSpec = field(
        default_factory=lambda: TrainerSpec("lm", tr.LmConfig())
    )
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    output_dir: str = "out"


# --- config parsing --------------------------------------------------------

# Trainer functions are named, not bound, so they are looked up in the
# training module at call time (where profilers and tracers wrap them).
_TRAINERS = {
    "lm": (tr.LmConfig, "train_lm"),
    "br": (tr.BrConfig, "train_br"),
    "early_stop": (tr.EarlyStopConfig, "train_early_stopping"),
}

# Accepted Python types per declared field type; a bool is never a number.
_FIELD_TYPES = {"int": (int,), "float": (int, float), "tuple": (list, tuple)}


def _check_keys(mapping, allowed, section):
    unknown = sorted(str(key) for key in set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {', '.join(unknown)}")


def _field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def _build_dataclass(cls, mapping, section):
    """Build `cls` from a config mapping, checking each value against its
    field's declared type (int, float or tuple) before the class's own checks."""
    declared = {f.name: getattr(f.type, "__name__", f.type) for f in dataclasses.fields(cls)}
    _check_keys(mapping, declared, section)
    kwargs = {}
    for name, value in mapping.items():
        kind = declared[name]
        accepted = _FIELD_TYPES.get(kind)
        if accepted is not None and (isinstance(value, bool) or not isinstance(value, accepted)):
            raise ConfigError(f"'{section}.{name}' must be {kind}, got {value!r}")
        kwargs[name] = tuple(value) if kind == "tuple" else value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{section}' configuration: {exc}") from exc


def _build_trainer(mapping):
    """Trainer keys are the fields of LmConfig plus, for br and early_stop,
    the fields of BrConfig or EarlyStopConfig other than `lm`."""
    mapping = dict(mapping)
    algorithm = mapping.pop("algorithm", "lm")
    if not isinstance(algorithm, str) or algorithm not in _TRAINERS:
        raise ConfigError(f"unknown trainer algorithm '{algorithm}' (use lm, br, early_stop)")
    cls = _TRAINERS[algorithm][0]
    lm_keys = _field_names(tr.LmConfig)
    own_keys = [] if cls is tr.LmConfig else [k for k in _field_names(cls) if k != "lm"]
    _check_keys(mapping, lm_keys + own_keys, f"trainer (algorithm {algorithm})")
    lm = _build_dataclass(
        tr.LmConfig, {k: v for k, v in mapping.items() if k in lm_keys}, "trainer"
    )
    if cls is tr.LmConfig:
        return TrainerSpec(algorithm, lm)
    own = {k: v for k, v in mapping.items() if k in own_keys}
    return TrainerSpec(algorithm, _build_dataclass(cls, dict(own, lm=lm), "trainer"))


def _build_evaluation(mapping):
    _check_keys(mapping, ("profile", "seeds"), "evaluation")
    kwargs = {}
    if "profile" in mapping:
        if not isinstance(mapping["profile"], list):
            raise ConfigError("evaluation.profile must be a list of {level, duration} mappings")
        steps = []
        for i, entry in enumerate(mapping["profile"]):
            if not isinstance(entry, dict):
                raise ConfigError("evaluation.profile entries must be mappings")
            _check_keys(entry, ("level", "duration"), f"evaluation.profile[{i}]")
            try:
                steps.append((float(entry["level"]), int(entry["duration"])))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"evaluation.profile[{i}] needs numeric 'level' and 'duration'"
                ) from exc
        try:
            kwargs["profile"] = ctl.ReferenceProfile(tuple(steps))
        except ValueError as exc:
            raise ConfigError(f"invalid evaluation.profile: {exc}") from exc
    if "seeds" in mapping:
        seeds = mapping["seeds"]
        if not isinstance(seeds, list) or not seeds:
            raise ConfigError(f"evaluation.seeds must be a nonempty list of seeds, got {seeds!r}")
        for seed in seeds:
            if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
                raise ConfigError(f"evaluation.seeds: {seed!r} is not a nonnegative integer")
        kwargs["seeds"] = tuple(seeds)
    return EvaluationSpec(**kwargs)


# Builders of the config file's sections; output_dir is the one plain value.
_SECTIONS = {
    "plant": lambda m: _build_dataclass(MotorParams, m, "plant"),
    "experiment": lambda m: _build_dataclass(exp.StepExperimentConfig, m, "experiment"),
    "network": lambda m: _build_dataclass(NetworkSpec, m, "network"),
    "trainer": _build_trainer,
    "evaluation": _build_evaluation,
}


def load_config(path=None) -> WorkbenchConfig:
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # not UTF-8
            raise ConfigError(f"cannot decode config file: {exc}") from exc
        import yaml  # here, not at the top: it is a fifth of `import servoneuro.cli`

        try:
            raw = yaml.safe_load(text) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a mapping at top level")
    _check_keys(raw, [*_SECTIONS, "output_dir"], "config")
    kwargs = {}  # an absent key takes the WorkbenchConfig default
    for name, value in raw.items():
        if name == "output_dir":
            if not isinstance(value, str):
                raise ConfigError(f"'output_dir' must be a string, got {value!r}")
            kwargs[name] = value
        elif not isinstance(value, dict):
            raise ConfigError(f"section '{name}' must be a mapping, got {value!r}")
        else:
            kwargs[name] = _SECTIONS[name](value)
    return WorkbenchConfig(**kwargs)


def _apply_overrides(config, args) -> WorkbenchConfig:
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=args.out)
    if args.seed is not None:
        config = dataclasses.replace(
            config,
            experiment=dataclasses.replace(config.experiment, seed=args.seed),
            network=dataclasses.replace(config.network, init_seed=args.seed),
        )
    return config


def _ensure_outdir(config) -> Path:
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"output directory '{out}' is not writable: {exc}") from exc
    except ValueError as exc:  # e.g. an embedded NUL byte
        raise ConfigError(f"invalid output directory {str(out)!r}: {exc}") from exc
    return out


# --- commands --------------------------------------------------------------


def cmd_collect(config, args) -> int:
    out = _ensure_outdir(config)
    log = exp.run_step_experiment(config.plant, config.experiment)
    path = out / "iolog.csv"
    exp.save_iolog(log, path)
    print(f"wrote {path}: {len(log)} samples")
    print(f"u range [{log.u.min():.4f}, {log.u.max():.4f}] V")
    print(f"y range [{log.y.min():.4f}, {log.y.max():.4f}] V")
    if args.svg:
        write_line_chart(out / "iolog.svg", {"u": log.u, "y": log.y},
                         title="open-loop step experiment", ylabel="volts")
    return EXIT_OK


def cmd_train(config, args) -> int:
    out = _ensure_outdir(config)
    iolog_path = Path(args.iolog) if args.iolog else out / "iolog.csv"
    try:
        log = exp.load_iolog(iolog_path)
        dataset = exp.build_inverse_dataset(log)
    except OSError as exc:
        raise ConfigError(f"cannot read I/O log: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid I/O log: {exc}") from exc
    net = mlp.init_weights(
        config.network.layer_sizes,
        config.network.activations,
        config.network.init_seed,
        config.network.init_scale,
    )
    report_path = out / "train_report.csv"
    try:
        train = getattr(tr, _TRAINERS[config.trainer.algorithm][1])
        trained, report = train(net, dataset, config.trainer.config)
    except tr.TrainingDivergedError as exc:
        exc.report.to_csv(report_path)
        print(f"training diverged: {exc}", file=sys.stderr)
        print(f"partial report in {report_path}", file=sys.stderr)
        return EXIT_NUMERIC
    net_path = out / "controller.net"
    mlp.save_network(net_path, trained, dataset.input_scaling, dataset.target_scaling)
    report.to_csv(report_path)
    final = report.records[-1] if report.records else None
    print(f"wrote {net_path} and {report_path}")
    if final is not None:
        print(f"final E_D = {final.ed:.6e}, E_W = {final.ew:.6e}")
    print(f"stop reason: {report.stop_reason.value}")
    if args.svg and report.records:
        series = {"E_D": [r.ed for r in report.records]}
        if any(r.val_ed is not None for r in report.records):
            series["val E_D"] = [r.val_ed for r in report.records]
        write_line_chart(out / "train_errors.svg", series,
                         title="training error per epoch", ylabel="E_D")
    return EXIT_OK


def _load_controller(path):
    try:
        net, in_scaling, out_scaling = mlp.load_network(path)
    except OSError as exc:
        raise ConfigError(f"cannot read network file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        return ctl.NeuralController(net, in_scaling, out_scaling)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_control(config, args) -> int:
    out = _ensure_outdir(config)
    plant = config.plant
    if args.oracle:
        plant = dataclasses.replace(plant, noise_sigma=0.0)
        controller = ctl.analytic_inverse_controller(plant)
    else:
        if args.network is None:
            raise ConfigError("control needs a network file (or --oracle)")
        controller = _load_controller(args.network)
    profile = config.evaluation.profile
    seeds = config.evaluation.seeds
    results = ctl.run_closed_loops(
        [(plant, controller, profile, seed) for seed in seeds],
        lambda trace: (trace, ctl.compute_indices(trace)),
    )
    rows = []
    for seed, result in zip(seeds, results):
        if isinstance(result, ctl.ControllerDivergedError):
            ctl.trace_to_csv(result.trace, out / f"trace_{seed}.csv")
            print(f"seed {seed}: {result}", file=sys.stderr)
            return EXIT_NUMERIC
        trace, idx = result
        ctl.trace_to_csv(trace, out / f"trace_{seed}.csv")
        rows.append((seed, idx))
        print(
            f"seed {seed}: mean_abs_error = {idx.mean_abs_error:.6f} V, "
            f"control_effort = {idx.control_effort:.6f} V"
        )
        if args.svg:
            write_line_chart(out / f"trace_{seed}.svg",
                             {"r": trace.r, "y": trace.y},
                             title=f"closed loop, seed {seed}", ylabel="volts")
            write_line_chart(out / f"effort_{seed}.svg", {"u": trace.u},
                             title=f"control effort, seed {seed}", ylabel="volts")
    with open(out / "indices.csv", "w", newline="") as fh:
        fh.write("seed,mean_abs_error,control_effort\n")
        for seed, idx in rows:
            fh.write(f"{seed},{idx.mean_abs_error!r},{idx.control_effort!r}\n")
    print(f"wrote {out / 'indices.csv'}")
    return EXIT_OK


def cmd_compare(config, args) -> int:
    if len(args.networks) < 2:
        raise ConfigError("need at least two network files to compare")
    out = _ensure_outdir(config)
    controllers = [(path, _load_controller(path)) for path in args.networks]
    report = ctl.compare_controllers(
        config.plant, controllers, config.evaluation.profile, config.evaluation.seeds
    )
    report.to_csv(out / "comparison.csv")
    print(report.format_table())
    print(f"wrote {out / 'comparison.csv'}")
    return EXIT_OK


# --- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1 per the workbench contract
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _seed_arg(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _make_parser():
    parser = _Parser(prog="servoneuro", description=__doc__)
    parser.add_argument("--config", help="path to YAML workbench configuration")
    parser.add_argument("--seed", type=_seed_arg, help="override experiment and init seeds")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--svg", action="store_true", help="also write SVG charts")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("collect", help="run the open-loop step experiment")
    p_train = sub.add_parser("train", help="train an inverse controller")
    p_train.add_argument("--iolog", help="I/O log CSV (default <out>/iolog.csv)")
    p_control = sub.add_parser("control", help="run a controller in closed loop")
    p_control.add_argument("network", nargs="?", help="serialized network file")
    p_control.add_argument(
        "--oracle", action="store_true",
        help="use the built-in analytic inverse on the noise-free plant",
    )
    p_compare = sub.add_parser("compare", help="compare trained controllers")
    p_compare.add_argument("networks", nargs="*", help="serialized network files")
    return parser


_COMMANDS = {
    "collect": cmd_collect,
    "train": cmd_train,
    "control": cmd_control,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        config = _apply_overrides(load_config(args.config), args)
        return _COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (exp.ExperimentDivergedError, tr.TrainingDivergedError,
            ctl.ControllerDivergedError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
