"""Command-line workbench: collect open-loop data, train inverse controllers,
run them in closed loop, and compare them.

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import control as ctl
from . import experiment as exp
from . import mlp
from . import training as tr
from .plant import MAX_SIZE, MotorParams, check_fields, check_value
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
        check_fields(self)
        sizes, _ = mlp.check_architecture(self.layer_sizes, self.activations)
        if max(sizes) > MAX_SIZE:
            raise ValueError(f"layer_sizes must be at most {MAX_SIZE}, got {sizes}")
        ctl.check_controller_shape(sizes)
        if self.init_scale < 0:
            raise ValueError(f"init_scale must be nonnegative, got {self.init_scale!r}")


@dataclass(frozen=True)
class EvaluationSpec:
    profile: ctl.ReferenceProfile = ctl.DEFAULT_PROFILE
    seeds: tuple = tuple(range(10))

    def __post_init__(self):
        check_fields(self)
        for seed in self.seeds:
            check_value(seed, "int", "seeds")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonempty nonnegative integers, got {self.seeds!r}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"evaluation.seeds must not repeat a seed, got {self.seeds!r}")


@dataclass(frozen=True)
class WorkbenchConfig:
    plant: MotorParams = field(default_factory=MotorParams)
    experiment: exp.StepExperimentConfig = field(default_factory=exp.StepExperimentConfig)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    trainer: tr.LmConfig | tr.BrConfig | tr.EarlyStopConfig = field(default_factory=tr.LmConfig)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    output_dir: str = "out"

    def __post_init__(self):
        check_fields(self)


# --- config parsing --------------------------------------------------------

# A trainer config's type is its algorithm: its YAML name, and the trainer
# function it runs.  Functions are named, not bound, so they are looked up in
# the training module at call time (where profilers and tracers wrap them).
_ALGORITHMS = {"lm": tr.LmConfig, "br": tr.BrConfig, "early_stop": tr.EarlyStopConfig}
_TRAINERS = {tr.LmConfig: "train_lm", tr.BrConfig: "train_br",
             tr.EarlyStopConfig: "train_early_stopping"}


def _check_mapping(value, name):
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {value!r}")


def _check_keys(mapping, allowed, section):
    unknown = sorted(str(key) for key in set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {', '.join(unknown)}")


def _build_dataclass(cls, value, section=None):
    """Build `cls` from a mapping of its fields: a field whose default is a
    dataclass from its own value, any other as given; the class checks them.
    A field in _BUILDERS has its own YAML shape.  `section` names the value in
    messages; the whole config's keys are bare."""
    label = section or "config"
    _check_mapping(value, label)
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(value, fields, label)
    kwargs = dict(value)
    for name, item in value.items():
        where = f"{section}.{name}" if section else name
        f = fields[name]
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        if where in _BUILDERS:
            kwargs[name] = _BUILDERS[where](item, where)
        elif dataclasses.is_dataclass(default):
            kwargs[name] = _build_dataclass(type(default), item, where)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float
        raise ConfigError(f"invalid '{label}' configuration: {exc}") from exc


def _build_trainer(mapping, section):
    """Trainer keys are `algorithm`, the fields of LmConfig and, for br and
    early_stop, the fields of BrConfig or EarlyStopConfig other than `lm`."""
    _check_mapping(mapping, section)
    algorithm = mapping.get("algorithm", "lm")
    if not isinstance(algorithm, str) or algorithm not in _ALGORITHMS:
        names = ", ".join(_ALGORITHMS)
        raise ConfigError(f"unknown trainer algorithm '{algorithm}' (use {names})")
    cls = _ALGORITHMS[algorithm]
    lm_keys = [f.name for f in dataclasses.fields(tr.LmConfig)]
    own_keys = [f.name for f in dataclasses.fields(cls) if f.name not in (*lm_keys, "lm")]
    _check_keys(mapping, ["algorithm", *lm_keys, *own_keys], f"{section} (algorithm {algorithm})")
    lm = _build_dataclass(tr.LmConfig, {k: v for k, v in mapping.items() if k in lm_keys}, section)
    if cls is tr.LmConfig:
        return lm
    own = _build_dataclass(cls, {k: v for k, v in mapping.items() if k in own_keys}, section)
    return dataclasses.replace(own, lm=lm)


def _build_profile(entries, section):
    """A profile is a list of {level, duration} mappings."""
    if not isinstance(entries, list):
        raise ConfigError(f"{section} must be a list of {{level, duration}} mappings")
    steps = []
    for i, entry in enumerate(entries):
        where = f"{section}[{i}]"
        _check_mapping(entry, where)
        _check_keys(entry, ("level", "duration"), where)
        if "level" not in entry or "duration" not in entry:
            raise ConfigError(f"{where} needs numeric 'level' and 'duration'")
        try:
            check_value(entry["level"], "float", f"{where}.level")
            check_value(entry["duration"], "int", f"{where}.duration")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        steps.append((entry["level"], entry["duration"]))
    try:
        return ctl.ReferenceProfile(tuple(steps))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int past float
        raise ConfigError(f"invalid {section}: {exc}") from exc


# The fields whose YAML shape is not a mapping of their value's own fields.
_BUILDERS = {"trainer": _build_trainer, "evaluation.profile": _build_profile}


def load_config(path=None) -> WorkbenchConfig:
    raw = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # not UTF-8
            raise ConfigError(f"cannot decode config file {path}: {exc}") from exc
        import yaml  # here, not at the top: it is a fifth of `import servoneuro.cli`

        try:
            document = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
        if document is not None:  # an empty file is the defaults; [] or 0 is not
            raw = document
    return _build_dataclass(WorkbenchConfig, raw)


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
        probe.write_text("", encoding="utf-8")
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
    except OSError as exc:
        raise ConfigError(f"cannot read I/O log: {exc}") from exc
    except ValueError as exc:  # its message starts with the path
        raise ConfigError(f"invalid I/O log: {exc}") from exc
    try:
        dataset = exp.build_inverse_dataset(log)
    except ValueError as exc:  # e.g. a series whose span overflows its scaling
        raise ConfigError(f"invalid I/O log: {iolog_path}: {exc}") from exc
    net = mlp.init_weights(
        config.network.layer_sizes,
        config.network.activations,
        config.network.init_seed,
        config.network.init_scale,
    )
    try:
        train = getattr(tr, _TRAINERS[type(config.trainer)])
        trained, report = train(net, dataset, config.trainer)
    except ValueError as exc:  # an early-stop split of this log with an empty side
        raise ConfigError(f"invalid 'trainer' configuration for {iolog_path}: {exc}") from exc
    net_path, report_path = out / "controller.net", out / "train_report.csv"
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
    results = ctl.run_closed_loops(plant, profile, [(controller, seed) for seed in seeds],
                                   lambda trace: (trace, ctl.compute_indices(trace)))
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
    with open(out / "indices.csv", "w", newline="", encoding="utf-8") as fh:
        fh.write("seed,mean_abs_error,control_effort\n")
        for seed, idx in rows:
            fh.write(f"{seed},{idx.mean_abs_error!r},{idx.control_effort!r}\n")
    print(f"wrote {out / 'indices.csv'}")
    return EXIT_OK


def cmd_compare(config, args) -> int:
    if len(args.networks) < 2:
        raise ConfigError("need at least two network files to compare")
    for i, path in enumerate(args.networks):
        if path in args.networks[:i]:
            raise ConfigError(f"network file {path} is given more than once")
        try:  # a name is a comparison.csv cell, which is UTF-8
            path.encode("utf-8")
        except UnicodeEncodeError:
            raise ConfigError(f"network file name {ascii(path)} is not valid UTF-8") from None
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
    except MemoryError as exc:  # a run larger than the memory it can get
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
