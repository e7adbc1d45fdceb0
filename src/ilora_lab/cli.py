"""Config-driven command line: run experiments, interpolation sweeps, and
diagnostics over the run directories that `artifacts` writes and reads.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

# save_checkpoint, load_checkpoint and rebuild_environment stay bound here:
# callers import them from cli, and the benchmark's tracer finds them here.
from .artifacts import (SavedRun, claim_run_dir,  # noqa: F401
                        load_checkpoint, read_echo, read_json,
                        rebuild_environment, save_checkpoint, task_spec,
                        write_csv, write_run)
from .bench import ArchConfig, TaskSpec
from .connectivity import (LAMBDA_GRID_POINTS, default_lambda_grid,
                           landscape_grid, linear_cka, sweep_lambda,
                           weight_distance)
from .model import embed
from .numerics import RngState, check_seed
from .strategies import StrategyConfig, run_sequence

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


# --- config schema ----------------------------------------------------------
# Each block's keys, types and defaults are the fields of the dataclass it
# builds; stream.tasks, the stream length, is the one key of its own.

_TRAINING = ("epochs", "batch_size", "optimizer", "base_lr", "warmup_ratio")


def _fields(cls, keep=lambda name: True) -> dict[str, tuple[type, object]]:
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default) for f in fields(cls)
            if keep(f.name)}


SCHEMA = {
    "stream": {"tasks": (int, 5), **_fields(TaskSpec)},
    "arch": _fields(ArchConfig),
    "strategy": _fields(StrategyConfig, lambda k: k not in _TRAINING),
    "training": _fields(StrategyConfig, lambda k: k in _TRAINING),
}
# field type -> (accepts a value, what the value must be); bools are no ints
_TYPE_RULES = {
    int: (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    float: (lambda v: (_is_int(v) and abs(v) <= sys.float_info.max)
            or (isinstance(v, float) and math.isfinite(v)), "a finite number"),
    bool: (lambda v: isinstance(v, bool), "true or false"),
    str: (lambda v: isinstance(v, str), "a string"),
}


def _merge_block(name: str, block: dict, schema: dict) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"config block {name!r} must be an object")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    merged = {}
    for key, (typ, default) in schema.items():
        value = merged[key] = block.get(key, default)
        accepts, want = _TYPE_RULES[typ]
        if not accepts(value):
            raise ConfigError(f"{name}.{key} must be {want}, got {value!r}")
    return merged


def validate_config(raw: dict) -> dict:
    """Strict-schema validation; returns the fully materialized config."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - {"seed", *SCHEMA, "out_dir"}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}")
    cfg = {"seed": _build(check_seed, raw.get("seed", 0)),
           **{name: _merge_block(name, raw.get(name, {}), schema)
              for name, schema in SCHEMA.items()},
           "out_dir": out_dir}
    # the dataclasses' own checks: kind, ranges
    _strategy_config(cfg)
    _build(ArchConfig, **cfg["arch"], block="arch")
    _build(task_spec, cfg, block="stream")
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _build(make, *args, block: str = "", **kwargs):
    """make(*args, **kwargs), its range checks failing as a ConfigError.
    ``block`` is the config block that holds every field checked, so the
    message names the key as ``block.field``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{block}.{exc}" if block else str(exc)) from exc


def _strategy_config(cfg: dict) -> StrategyConfig:
    return _build(StrategyConfig, **cfg["strategy"], **cfg["training"])


# --- commands ---------------------------------------------------------------

def _exit_code(command):
    """Wrap a command so its failures end in an exit code and a one-line
    message; success returns EXIT_OK. numpy's floating-point warnings are
    off inside: a non-finite value is reported once, as exit 4."""
    def run(*args, **kwargs) -> int:
        try:
            with np.errstate(all="ignore"):
                command(*args, **kwargs)
        except (FileNotFoundError, IsADirectoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MISSING
        # ConfigError, bad or foreign checkpoints, an output path in use,
        # any other filesystem error (a name too long, a symlink loop)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        # a config too large for this machine's memory, say a huge
        # arch.hidden
        except MemoryError as exc:
            detail = f": {exc}" if str(exc) else ""
            print(f"error: out of memory{detail}", file=sys.stderr)
            return EXIT_CONFIG
        except ArithmeticError as exc:
            print(f"error: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK
    return run


@_exit_code
def cmd_run(config_path: str, seed_override: int | None = None,
            out_override: str | None = None) -> None:
    cfg = validate_config(read_json(config_path))
    if seed_override is not None:
        cfg["seed"] = _build(check_seed, seed_override)
    if out_override is not None:
        cfg["out_dir"] = out_override
    if not cfg["out_dir"]:
        raise ConfigError("out_dir is required (config key or --out)")
    strategy = _strategy_config(cfg)
    with claim_run_dir(Path(cfg["out_dir"])) as tmp:
        stream, net = rebuild_environment(cfg)
        record = run_sequence(strategy, stream.pairs, net,
                              RngState(cfg["seed"]))
        write_run(tmp, cfg, net, record, stream.evals)


def _check_transition(t: int, cfg: dict) -> None:
    T = cfg["stream"]["tasks"]
    if not 1 <= t <= T - 1:
        raise ConfigError(f"transition {t} outside 1..{T - 1} "
                          f"for a {T}-task run")


@_exit_code
def cmd_sweep_lambda(run_dir: str, transition: int, points: int,
                     role: str) -> None:
    cfg = validate_config(read_echo(run_dir))
    _check_transition(transition, cfg)
    grid = default_lambda_grid(points)
    run = SavedRun(run_dir, cfg)
    theta_a = run.params(transition, role)
    theta_b = run.params(transition + 1, role)
    *past, new = run.evals()[:transition + 1]
    sweep = sweep_lambda(theta_a, theta_b, run.net, past, new, grid,
                         transition=transition)
    write_csv(run.out / f"sweep_t{transition}.csv", "lambda,Ap,An,Aall",
              zip(sweep.lambda_grid, sweep.Ap, sweep.An, sweep.Aall))


@_exit_code
def cmd_probe(run_dir: str, kind: str, transition: int | None,
              grid_extent: float | None, grid_points: int | None) -> None:
    """Probe `kind` over a finished run. The three options are the
    landscape's (None: 1, 1.5, 11); the other probes refuse them."""
    options = {"--transition": transition, "--grid-extent": grid_extent,
               "--grid-points": grid_points}
    given = [flag for flag, value in options.items() if value is not None]
    if kind != "landscape" and given:
        raise ConfigError(f"probe {kind} takes no {', '.join(given)} "
                          f"(landscape options)")
    cfg = validate_config(read_echo(run_dir))
    if kind == "landscape":
        transition = 1 if transition is None else transition
        grid_extent = 1.5 if grid_extent is None else grid_extent
        grid_points = 11 if grid_points is None else grid_points
        _check_transition(transition, cfg)
        if grid_points < 2:
            raise ConfigError(f"grid points must be >= 2, got {grid_points}")
        if not (math.isfinite(grid_extent) and grid_extent > 0.0):
            raise ConfigError(f"grid extent must be finite and > 0, "
                              f"got {grid_extent}")
    run = SavedRun(run_dir, cfg)
    T = cfg["stream"]["tasks"]

    if kind == "wd":
        rows = []
        for t in range(1, T):
            wd = [weight_distance(run.params(t, r), run.params(t + 1, r))
                  for r in run.roles]
            rows.append((t, wd[0], wd[-1]))  # single memory: WD_l is WD_w
        write_csv(run.out / "wd.csv", "transition,WD_w,WD_l", rows)
    elif kind == "cka":
        X = np.asfortranarray(run.evals()[0].X)  # no embed copies X.T
        zs = [embed(run.net, run.params(t, "working"), X)
              for t in range(1, T + 1)]
        write_csv(run.out / "cka.csv", "transition,cka",
                  [(t, linear_cka(zs[t - 1], zs[t])) for t in range(1, T)])
    else:
        t = transition
        theta0 = run.params(t, "working")
        d1 = run.params(t + 1, "working") - theta0
        d2 = run.params(t + 1, "longterm") - theta0
        coords = np.linspace(-grid_extent, grid_extent, grid_points)
        grid = landscape_grid(theta0, d1, d2, coords, coords, run.net,
                              run.evals()[0])
        write_csv(run.out / "landscape.csv", "a,b,value",
                  [(a, b, v) for a, row in zip(grid.a_grid, grid.values)
                   for b, v in zip(grid.b_grid, row)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ilora-lab",
        description="continual-learning experiments on synthetic task streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full continual experiment")
    p_run.add_argument("config", help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep-lambda",
                             help="interpolation sweep between two checkpoints")
    p_sweep.add_argument("run_dir")
    p_sweep.add_argument("--transition", type=int, required=True)
    p_sweep.add_argument("--points", type=int, default=LAMBDA_GRID_POINTS)
    p_sweep.add_argument("--role", choices=["working", "longterm"],
                         default="working")

    p_probe = sub.add_parser("probe", help="diagnostics over a finished run")
    p_probe.add_argument("run_dir")
    p_probe.add_argument("kind", choices=["wd", "cka", "landscape"])
    # landscape's options; their defaults are cmd_probe's
    p_probe.add_argument("--transition", type=int)
    p_probe.add_argument("--grid-extent", type=float)
    p_probe.add_argument("--grid-points", type=int)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, args.seed, args.out)
    if args.command == "sweep-lambda":
        return cmd_sweep_lambda(args.run_dir, args.transition, args.points,
                                args.role)
    return cmd_probe(args.run_dir, args.kind, args.transition,
                     args.grid_extent, args.grid_points)


if __name__ == "__main__":
    sys.exit(main())
