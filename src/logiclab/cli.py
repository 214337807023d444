"""Command-line entry point.

Subcommands: train, boundary, truth-table, gradcheck, logic-checks.
Every subcommand is deterministic given its configuration; exit codes are
0 (success), 1 (verification failure), 2 (configuration error).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import textwrap
from dataclasses import dataclass, replace

from .checks import GRAD_TOLERANCE, gradcheck_suite, logic_check_suite
from .experiments import (
    DEFAULT_FORMULA_TEXT,
    TrainConfig,
    default_grid_specs,
    decision_boundary_grid,
    grid_agreement,
    grid_mean_abs_deviation,
    run_multi_seed,
    write_grid_csv,
    write_grid_svg,
    write_results_csv,
    write_summary_json,
)
from .models import ModelSpec, default_model_suite
from .softlogic import num_vars, parse_formula, truth_table_sweep
from .workers import WorkerError

_EPILOG = """\
output files:
  results.csv   long format: model,seed,epoch,split,accuracy,loss
                (one row per model/seed/epoch/split; epochs 1-based)
  summary.json  per-model parameter counts and per-epoch mean/std accuracy
  boundary_<unit>.csv   resolution x resolution matrix of unit outputs over
                [0,1]^2; row i / column j holds the unit at x2 = i/(r-1),
                x1 = j/(r-1)
  boundary_<unit>.svg   optional heatmap (3-stop colormap
                #440154 -> #21918c -> #fde725, row 0 at the bottom)

config file (INI, every key optional; any other section or key is an error):
"""


class ConfigError(ValueError):
    """Bad configuration file or flag combination."""


def _model_key(name: str) -> str:
    """Config-file key of a suite model: "Logicron+Neg" -> "logicron-neg"."""
    return name.lower().replace("+", "-")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything the subcommands need; defaults, read from ``TrainConfig`` and
    ``default_model_suite``, reproduce the standard setup."""

    formula: str = DEFAULT_FORMULA_TEXT
    include: tuple[str, ...] = tuple(_model_key(name) for name, _ in default_model_suite())
    epochs: int = TrainConfig.epochs
    learning_rate: float = TrainConfig.learning_rate
    passes_per_epoch: int = TrainConfig.passes_per_epoch
    seeds: int = len(TrainConfig.seeds)
    n_train: int = TrainConfig.n_train
    n_test: int = TrainConfig.n_test
    perceptron_hidden: int | None = None
    logicron_units: int | None = None
    logicron_neg_units: int | None = None
    sharpness: float = ModelSpec.sharpness
    out_dir: str = "results"
    resolution: int = 101
    betas: tuple[float, ...] = (1.0, 10.0, 100.0)
    svg: bool = False


def _parse_tuple(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in _parse_tuple(text))


def _parse_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


# Every config-file section and key, with the ExperimentConfig field it sets
# and the parser of its value.  The help lists exactly these, and any other
# section or key is rejected, so a typo cannot silently keep a default.
_CONFIG_KEYS = {
    "task": {"formula": ("formula", str)},
    "train": {
        "epochs": ("epochs", int),
        "learning_rate": ("learning_rate", float),
        "passes_per_epoch": ("passes_per_epoch", int),
        "seeds": ("seeds", int),
        "n_train": ("n_train", int),
        "n_test": ("n_test", int),
    },
    "models": {
        "include": ("include", _parse_tuple),
        "perceptron_hidden": ("perceptron_hidden", int),
        "logicron_units": ("logicron_units", int),
        "logicron_neg_units": ("logicron_neg_units", int),
        "sharpness": ("sharpness", float),
    },
    "boundary": {
        "resolution": ("resolution", int),
        "betas": ("betas", _parse_floats),
        "svg": ("svg", _parse_bool),
    },
    "output": {"dir": ("out_dir", str)},
}
_EPILOG += "".join(
    textwrap.fill(", ".join(keys), width=78, initial_indent=f"  [{section}]".ljust(13),
                  subsequent_indent=" " * 13) + "\n"
    for section, keys in _CONFIG_KEYS.items()
)


def _config_updates(parser: configparser.ConfigParser) -> dict:
    """The ExperimentConfig fields that the parsed file sets."""
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}]; "
                          f"choose from {', '.join(_CONFIG_KEYS)}")
    updates: dict = {}
    for section in parser.sections():
        keys = _CONFIG_KEYS.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]; choose from {', '.join(_CONFIG_KEYS)}")
        for key in parser.options(section):
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in [{section}]; "
                                  f"choose from {', '.join(keys)}")
            field, parse = keys[key]
            updates[field] = parse(parser.get(section, key))
    return updates


def load_config(path: str | None) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        # A file that is not INI, or not UTF-8, fails here.
        found = parser.read(path)
        updates = _config_updates(parser)
    except (ValueError, configparser.Error) as exc:
        # configparser's messages span lines; the error is one.
        raise ConfigError(f"bad config file {path}: {' '.join(str(exc).split())}") from exc
    if not found:
        raise ConfigError(f"config file not found: {path}")
    return replace(cfg, **updates)


def _apply_flags(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    if getattr(args, "out", None) is not None:
        updates["out_dir"] = args.out
    if getattr(args, "seeds", None) is not None:
        updates["seeds"] = args.seeds
    if getattr(args, "epochs", None) is not None:
        updates["epochs"] = args.epochs
    if getattr(args, "beta", None) is not None:
        try:
            updates["betas"] = tuple(float(b) for b in _parse_tuple(args.beta))
        except ValueError as exc:
            raise ConfigError(f"bad --beta list {args.beta!r}") from exc
    if getattr(args, "resolution", None) is not None:
        updates["resolution"] = args.resolution
    if getattr(args, "svg", False):
        updates["svg"] = True
    return replace(cfg, **updates)


def _model_specs(cfg: ExperimentConfig, input_dim: int) -> list[tuple[str, ModelSpec]]:
    """The suite models named in ``include``, in that order, sized to ``input_dim`` inputs."""
    suite = default_model_suite(
        input_dim,
        perceptron_hidden=cfg.perceptron_hidden,
        logicron_units=cfg.logicron_units,
        logicron_neg_units=cfg.logicron_neg_units,
        sharpness=cfg.sharpness,
    )
    by_key = {_model_key(name): (name, spec) for name, spec in suite}
    specs = []
    for key in cfg.include:
        if key not in by_key:
            raise ConfigError(f"unknown model {key!r}; choose from {sorted(by_key)}")
        if cfg.include.count(key) > 1:
            raise ConfigError(f"model {key!r} is included more than once")
        specs.append(by_key[key])
    if not specs:
        raise ConfigError("no models selected")
    return specs


def _ensure_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {path!r} is not writable: {exc}") from exc


def cmd_train(cfg: ExperimentConfig) -> int:
    try:
        formula = parse_formula(cfg.formula)
    except ValueError as exc:
        raise ConfigError(f"bad formula {cfg.formula!r}: {exc}") from exc
    try:
        specs = _model_specs(cfg, num_vars(formula))
        train_cfg = TrainConfig(
            epochs=cfg.epochs,
            learning_rate=cfg.learning_rate,
            passes_per_epoch=cfg.passes_per_epoch,
            seeds=tuple(range(cfg.seeds)),
            n_train=cfg.n_train,
            n_test=cfg.n_test,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _ensure_out_dir(cfg.out_dir)
    aggregate = run_multi_seed(specs, train_cfg, formula)
    write_results_csv(os.path.join(cfg.out_dir, "results.csv"), aggregate.runs)
    write_summary_json(os.path.join(cfg.out_dir, "summary.json"), aggregate, train_cfg, cfg.formula)

    for split, seeds in aggregate.single_class.items():
        if seeds:
            print(f"warning: the {split} labels of seeds {seeds} are all one class; "
                  f"accuracy on that split shows nothing learned", file=sys.stderr)
    print(f"task: {cfg.formula}   seeds: {cfg.seeds}   epochs: {cfg.epochs}")
    print(f"{'model':<14} {'params':>6} {'train_acc':>16} {'test_acc':>16}")
    for name, _ in specs:
        st = aggregate.stats[name]
        train_col = f"{st.final_train_mean:.3f} ± {float(st.train_acc_std[-1]):.3f}"
        test_col = f"{st.final_test_mean:.3f} ± {st.final_test_std:.3f}"
        line = f"{name:<14} {st.params.total:>6} {train_col:>16} {test_col:>16}"
        if st.diverged_seeds:
            line += f"   DIVERGED seeds={st.diverged_seeds}"
        print(line)
    print(f"wrote {os.path.join(cfg.out_dir, 'results.csv')} and summary.json")
    return 0


def cmd_boundary(cfg: ExperimentConfig) -> int:
    try:
        specs = default_grid_specs(cfg.betas, cfg.resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _ensure_out_dir(cfg.out_dir)
    grids = {}
    for name, spec in specs:
        grid = grids[name] = decision_boundary_grid(spec)
        csv_path = os.path.join(cfg.out_dir, f"boundary_{name}.csv")
        write_grid_csv(csv_path, grid)
        print(f"wrote {csv_path}")
        if cfg.svg:
            svg_path = os.path.join(cfg.out_dir, f"boundary_{name}.svg")
            write_grid_svg(svg_path, grid)
            print(f"wrote {svg_path}")
    # Each gated grid against the hard grid of its kind: thresholded
    # agreement (default threshold and exclusion band) and mean |deviation|.
    for name, grid in grids.items():
        kind = grid.spec.kind
        if kind.startswith("lnu_"):
            hard_name = kind.replace("lnu_", "hard_")
            hard = grids[hard_name]
            print(f"{name} vs {hard_name}: agreement={grid_agreement(grid, hard):.6f} "
                  f"mean_abs_deviation={grid_mean_abs_deviation(grid, hard):.6f}")
    return 0


def cmd_truth_table(arity: int, sharpness: float) -> int:
    try:
        table = truth_table_sweep(arity=arity, sharpness=sharpness)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    corners = list(next(iter(table.values()))["values"])
    header = "corner      " + "  ".join(f"{name:>9}" for name in table)
    print(f"truth tables, arity {arity} (unit weights; gated ops at sharpness {sharpness:g})")
    print(header)
    for corner in corners:
        cells = "  ".join(f"{table[name]['values'][corner]:>9.4f}" for name in table)
        print(f"{str(corner):<12}{cells}")
    print("max deviation from the Boolean table:")
    for name, entry in table.items():
        print(f"  {name:<10} {entry['max_deviation']:.3e}")
    return 0


def cmd_gradcheck(points: int) -> int:
    if points < 1:
        raise ConfigError(f"--points must be >= 1, got {points}")
    results = gradcheck_suite(points=points)
    failed = False
    for name, err in results.items():
        status = "ok" if err <= GRAD_TOLERANCE else "FAIL"
        print(f"{name:<28} max_rel_err={err:.3e}  {status}")
        failed = failed or err > GRAD_TOLERANCE
    print(f"checked {len(results)} operations at {points} random points each "
          f"(tolerance {GRAD_TOLERANCE:g})")
    return 1 if failed else 0


def cmd_logic_checks() -> int:
    results = logic_check_suite()
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0 if all(entry["pass"] for entry in results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logiclab",
        description="Differentiable-logic laboratory: train the toy contenders, "
        "export decision-boundary grids, and verify gradients and operator algebra.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="DIR", help="output directory")

    p_train = sub.add_parser("train", help="multi-seed toy experiment; writes results.csv/summary.json")
    common(p_train)
    p_train.add_argument("--seeds", type=int, metavar="N", help="number of seeds (0..N-1)")
    p_train.add_argument("--epochs", type=int, metavar="N", help="training epochs")

    p_boundary = sub.add_parser("boundary", help="decision-boundary grids over [0,1]^2")
    common(p_boundary)
    p_boundary.add_argument("--beta", metavar="LIST", help="comma list of gate sharpness values")
    p_boundary.add_argument("--resolution", type=int, metavar="N", help="grid resolution per axis")
    p_boundary.add_argument("--svg", action="store_true", help="also write SVG heatmaps")

    p_tt = sub.add_parser("truth-table", help="operator truth tables on Boolean corners")
    p_tt.add_argument("--arity", type=int, default=2, choices=(2, 3))
    p_tt.add_argument("--sharpness", type=float, default=100.0)

    p_grad = sub.add_parser("gradcheck", help="finite-difference checks for every operator and model")
    p_grad.add_argument("--points", type=int, default=100, metavar="N",
                        help="random points per check (default 100)")

    sub.add_parser("logic-checks", help="operator-algebra verification, JSON report")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            cfg = _apply_flags(load_config(args.config), args)
            return cmd_train(cfg)
        if args.command == "boundary":
            cfg = _apply_flags(load_config(args.config), args)
            return cmd_boundary(cfg)
        if args.command == "truth-table":
            return cmd_truth_table(args.arity, args.sharpness)
        if args.command == "gradcheck":
            return cmd_gradcheck(args.points)
        if args.command == "logic-checks":
            return cmd_logic_checks()
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory; use a smaller configuration "
              f"({' '.join(str(exc).split()) or 'MemoryError'})", file=sys.stderr)
        return 2
    except WorkerError as exc:
        print(f"error: {args.command} stopped: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def entry() -> None:
    """The ``logiclab`` program: ``main`` in a process of its own, whose heap
    thresholds are pinned first (``workers.pin_heap_thresholds``); workers
    forked from it inherit them.  ``main`` leaves a caller's allocator alone."""
    from .workers import pin_heap_thresholds

    pin_heap_thresholds()
    sys.exit(main())


if __name__ == "__main__":
    entry()
