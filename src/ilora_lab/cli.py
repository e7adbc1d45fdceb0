"""Config-driven command line: run experiments, interpolation sweeps, and
diagnostics; persist checkpoints, result matrices, and curves.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 numeric failure.

File formats
------------
results_matrix.csv   header ``after_task,eval_task,accuracy``; one row per
                     defined result-matrix entry; numbers use 17 significant
                     digits so reloads are bit-faithful.
sweep_t{t}.csv       header ``lambda,Ap,An,Aall``.
metrics.json         keys ``acc`` (per t), ``bwt`` (from t=2),
                     ``general_retention``.
Checkpoints          binary, little-endian: magic ``ILORA1``, u32 format
                     version, u64 parameter count, u32 task index, u64 seed,
                     u8 role (0 working, 1 longterm, 2 backbone), then the
                     payload as float64 in flat parameter order.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .bench import ArchConfig, TaskSpec, make_stream, pretrain_backbone
from .connectivity import (default_lambda_grid, landscape_grid, linear_cka,
                           sweep_lambda, weight_distance)
from .metrics import acc_t, bwt_t, general_retention
from .model import backbone_from_vector, backbone_vector, embed
from .numerics import RngState
from .strategies import StrategyConfig, run_sequence

CHECKPOINT_MAGIC = b"ILORA1"
CHECKPOINT_VERSION = 1
ROLE_CODES = {"working": 0, "longterm": 1, "backbone": 2}
ROLE_NAMES = {v: k for k, v in ROLE_CODES.items()}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4


class ConfigError(ValueError):
    pass


# --- checkpoint binary format ----------------------------------------------

_HEADER = struct.Struct("<6sIQIQB")


def save_checkpoint(path, params: np.ndarray, task_index: int, seed: int,
                    role: str) -> None:
    params = np.ascontiguousarray(params, dtype="<f8")
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.size,
                          task_index, seed, ROLE_CODES[role])
    Path(path).write_bytes(header + params.tobytes())


def load_checkpoint(path):
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"truncated checkpoint: {path}")
    magic, version, count, task_index, seed, role = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    payload = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if payload.size != count:
        raise ValueError(f"checkpoint payload size mismatch in {path}")
    if role not in ROLE_NAMES:
        raise ValueError(f"unknown checkpoint role {role} in {path}")
    meta = {"task_index": task_index, "seed": seed, "role": ROLE_NAMES[role]}
    return payload.astype(np.float64), meta


# --- config schema ----------------------------------------------------------
# Each block's keys, types and defaults are the fields of the dataclass it
# builds; stream.tasks, the stream length, is the one key of its own.

_TRAINING = ("epochs", "batch_size", "optimizer", "base_lr", "warmup_ratio")


def _fields(cls, keep=lambda name: True) -> dict[str, tuple[type, object]]:
    types = get_type_hints(cls)
    return {f.name: (types[f.name], f.default) for f in fields(cls)
            if keep(f.name)}


SCHEMA = {
    "stream": {"tasks": (int, 5),
               **_fields(TaskSpec, lambda k: k != "task_id")},
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
    cfg = {"seed": _check_seed(raw.get("seed", 0)),
           **{name: _merge_block(name, raw.get(name, {}), schema)
              for name, schema in SCHEMA.items()},
           "out_dir": out_dir}
    _strategy_config(cfg)  # StrategyConfig's own checks: kind, ranges
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_seed(seed):
    """The seed is stored as a u64 in every checkpoint header."""
    if not _is_int(seed) or not 0 <= seed < 1 << 64:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _strategy_config(cfg: dict) -> StrategyConfig:
    try:
        return StrategyConfig(**cfg["strategy"], **cfg["training"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _task_spec(cfg: dict) -> TaskSpec:
    return TaskSpec(**{k: v for k, v in cfg["stream"].items() if k != "tasks"})


def rebuild_environment(cfg: dict):
    """Deterministically regenerate (stream, backbone network) from a config."""
    seed = cfg["seed"]
    stream = make_stream(seed, cfg["stream"]["tasks"], _task_spec(cfg))
    net = pretrain_backbone(stream.anchor[0], ArchConfig(**cfg["arch"]),
                            seed, classes=cfg["stream"]["classes"])
    return stream, net


def load_environment(out: Path, cfg: dict, tasks: int):
    """Load the backbone the run saved, instead of pretraining it again, and
    regenerate the eval sets of the first ``tasks`` tasks of the run's stream
    (none for 0); the training sets are skipped, not drawn."""
    path = out / "backbone.bin"
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    vec, _ = load_checkpoint(path)
    st, a = cfg["stream"], cfg["arch"]
    try:
        net = backbone_from_vector(vec, st["input_dim"], a["hidden"],
                                   a["embed"], st["classes"], a["rank"],
                                   a["alpha"])
    except ValueError as exc:
        raise ConfigError(f"{path} does not match the config: {exc}") from exc
    if tasks == 0:
        return [], net
    stream = make_stream(cfg["seed"], tasks, _task_spec(cfg), train_sets=False)
    return stream.evals, net


# --- output writers ---------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_results_matrix(path, R) -> None:
    lines = ["after_task,eval_task,accuracy"]
    for t, j, v in R.defined_entries():
        lines.append(f"{t},{j},{_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_metrics(path, R, gen_retention: float) -> None:
    payload = {
        "acc": [acc_t(R, t) for t in range(1, R.T + 1)],
        "bwt": [bwt_t(R, t) for t in range(2, R.T + 1)],
        "general_retention": gen_retention,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# --- commands ---------------------------------------------------------------

def _exit_code(command):
    """Wrap a command so its failures end in an exit code and a one-line
    message; success returns EXIT_OK."""
    def run(*args, **kwargs) -> int:
        try:
            command(*args, **kwargs)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MISSING
        # ConfigError, malformed checkpoints, an output path that is a file
        except (ValueError, FileExistsError, NotADirectoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except ArithmeticError as exc:
            print(f"error: numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK
    return run


@_exit_code
def cmd_run(config_path: str, seed_override: int | None = None,
            out_override: str | None = None) -> None:
    path = Path(config_path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {config_path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    cfg = validate_config(raw)
    if seed_override is not None:
        cfg["seed"] = _check_seed(seed_override)
    if out_override is not None:
        cfg["out_dir"] = out_override
    if not cfg["out_dir"]:
        raise ConfigError("out_dir is required (config key or --out)")
    strategy = _strategy_config(cfg)
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(json.dumps(cfg, indent=2) + "\n")

    stream, net = rebuild_environment(cfg)
    seed = cfg["seed"]
    record = run_sequence(strategy, stream.pairs, net, RngState(seed),
                          seed=seed)
    R = record.result_matrix
    write_results_matrix(out / "results_matrix.csv", R)
    save_checkpoint(out / "backbone.bin", backbone_vector(net), 0, seed,
                    "backbone")
    for role, thetas in (("working", record.checkpoints),
                         ("longterm", record.slow_checkpoints or [])):
        for t, theta in enumerate(thetas, start=1):
            save_checkpoint(out / f"task{t}_{role}.bin", theta, t, seed, role)
    gen = general_retention(net, record.initial_theta, record.deployed,
                            stream.anchor[1])
    write_metrics(out / "metrics.json", R, gen)


def _load_run_dir(run_dir: str):
    out = Path(run_dir)
    echo = out / "config_echo.json"
    if not echo.exists():
        raise FileNotFoundError(f"missing artifact: {echo}")
    cfg = validate_config(json.loads(echo.read_text()))
    return out, cfg


def _load_params(out: Path, t: int, role: str) -> np.ndarray:
    path = out / f"task{t}_{role}.bin"
    if not path.exists():
        raise FileNotFoundError(f"missing artifact: {path}")
    params, _ = load_checkpoint(path)
    return params


def _check_transition(t: int, cfg: dict) -> None:
    T = cfg["stream"]["tasks"]
    if not 1 <= t <= T - 1:
        raise ConfigError(f"transition {t} outside 1..{T - 1} "
                          f"for a {T}-task run")


@_exit_code
def cmd_sweep_lambda(run_dir: str, transition: int, points: int = 21,
                     role: str = "working") -> None:
    out, cfg = _load_run_dir(run_dir)
    _check_transition(transition, cfg)
    grid = default_lambda_grid(points)
    theta_a = _load_params(out, transition, role)
    theta_b = _load_params(out, transition + 1, role)
    evals, net = load_environment(out, cfg, transition + 1)
    sweep = sweep_lambda(theta_a, theta_b, net, evals[:transition],
                         evals[transition], grid, transition=transition)
    lines = ["lambda,Ap,An,Aall"]
    for lam, ap, an, aall in zip(sweep.lambda_grid, sweep.Ap, sweep.An,
                                 sweep.Aall):
        lines.append(f"{_fmt(lam)},{_fmt(ap)},{_fmt(an)},{_fmt(aall)}")
    (out / f"sweep_t{transition}.csv").write_text("\n".join(lines) + "\n")


@_exit_code
def cmd_probe(run_dir: str, kind: str, transition: int = 1,
              grid_extent: float = 1.5, grid_points: int = 11) -> None:
    out, cfg = _load_run_dir(run_dir)
    if kind not in ("wd", "cka", "landscape"):
        raise ConfigError(f"unknown probe kind {kind!r}")
    if kind == "landscape":
        _check_transition(transition, cfg)
        if grid_points < 2:
            raise ConfigError(f"grid points must be >= 2, got {grid_points}")
        if not (math.isfinite(grid_extent) and grid_extent > 0.0):
            raise ConfigError(f"grid extent must be finite and > 0, "
                              f"got {grid_extent}")
    # wd reads no eval set; cka and landscape read the anchor task's
    evals, net = load_environment(out, cfg, 0 if kind == "wd" else 1)
    T = cfg["stream"]["tasks"]
    has_slow = (out / "task1_longterm.bin").exists()

    if kind == "wd":
        lines = ["transition,WD_w,WD_l"]
        for t in range(1, T):
            ww = weight_distance(_load_params(out, t, "working"),
                                 _load_params(out, t + 1, "working"))
            if has_slow:
                wl = weight_distance(_load_params(out, t, "longterm"),
                                     _load_params(out, t + 1, "longterm"))
            else:
                wl = ww  # single-memory run: deployed == working
            lines.append(f"{t},{_fmt(ww)},{_fmt(wl)}")
        (out / "wd.csv").write_text("\n".join(lines) + "\n")
    elif kind == "cka":
        probe = evals[0]
        lines = ["transition,cka"]
        for t in range(1, T):
            za = embed(net, _load_params(out, t, "working"), probe.X)
            zb = embed(net, _load_params(out, t + 1, "working"), probe.X)
            lines.append(f"{t},{_fmt(linear_cka(za, zb))}")
        (out / "cka.csv").write_text("\n".join(lines) + "\n")
    else:
        t = transition
        theta0 = _load_params(out, t, "working")
        d1 = _load_params(out, t + 1, "working") - theta0
        if has_slow:
            d2 = _load_params(out, t + 1, "longterm") - theta0
        else:
            raise FileNotFoundError(
                "missing artifact: longterm checkpoints "
                "(landscape probe needs a dual-memory run)")
        coords = np.linspace(-grid_extent, grid_extent, grid_points)
        grid = landscape_grid(theta0, d1, d2, coords, coords, net, evals[0])
        lines = ["a,b,value"]
        for i, a in enumerate(grid.a_grid):
            for j, b in enumerate(grid.b_grid):
                lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(grid.values[i, j])}")
        (out / "landscape.csv").write_text("\n".join(lines) + "\n")


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
    p_sweep.add_argument("--points", type=int, default=21)
    p_sweep.add_argument("--role", choices=["working", "longterm"],
                         default="working")

    p_probe = sub.add_parser("probe", help="diagnostics over a finished run")
    p_probe.add_argument("run_dir")
    p_probe.add_argument("kind", choices=["wd", "cka", "landscape"])
    p_probe.add_argument("--transition", type=int, default=1)
    p_probe.add_argument("--grid-extent", type=float, default=1.5)
    p_probe.add_argument("--grid-points", type=int, default=11)

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
