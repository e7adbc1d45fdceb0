"""The run directory: one writer for what `ilora-lab run` makes and one
reader, checked against the run's config echo, for `sweep-lambda` and `probe`.

File formats
------------
results_matrix.csv   header ``after_task,eval_task,accuracy``; one row per
                     defined result-matrix entry. Every CSV prints numbers
                     with 17 significant digits, so reloads are bit-faithful.
metrics.json         keys ``acc`` (per t), ``bwt`` (from t=2),
                     ``general_retention``.
Checkpoints          binary, little-endian: magic ``ILORA1``, u32 format
                     version, u64 parameter count, u32 task index (0 for
                     ``backbone.bin``), u64 seed, u8 role (0 working,
                     1 longterm, 2 backbone), then the payload as float64 in
                     flat parameter order.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np

from .bench import ArchConfig, TaskSpec, make_stream, pretrain_backbone
from .metrics import acc_t, bwt_t
from .model import (Batch, Network, backbone_from_vector, backbone_vector,
                    param_length)
from .strategies import RunRecord

CHECKPOINT_MAGIC = b"ILORA1"
CHECKPOINT_VERSION = 1
ROLES = ("working", "longterm", "backbone")  # a role's code is its index

_HEADER = struct.Struct("<6sIQIQB")


def save_checkpoint(path, params: np.ndarray, task_index: int, seed: int,
                    role: str) -> None:
    params = np.ascontiguousarray(params, dtype="<f8")
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, params.size,
                          task_index, seed, ROLES.index(role))
    Path(path).write_bytes(header + params.tobytes())


def load_checkpoint(path):
    """(params, meta) with meta's keys task_index, seed and role."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"truncated checkpoint: {path}")
    magic, version, count, task_index, seed, role = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic in {path}")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if len(raw) - _HEADER.size != 8 * count:
        raise ValueError(f"checkpoint payload size mismatch in {path}")
    payload = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    if role >= len(ROLES):
        raise ValueError(f"unknown checkpoint role {role} in {path}")
    meta = {"task_index": task_index, "seed": seed, "role": ROLES[role]}
    return payload.astype(np.float64), meta


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(path, header: str, rows) -> None:
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _partial(out: Path) -> Path:
    """The hidden sibling that `write_run` builds the run in. The sibling of
    "." or ".." needs the real name; realpath, unlike ``Path.resolve``,
    leaves a symlink loop unresolved instead of raising RuntimeError."""
    out = Path(os.path.realpath(out))
    return out.with_name(f".{out.name}.{os.getpid()}.partial")


def claim_run_dir(out: Path) -> None:
    """Refuse an output path that is a file, a broken symlink or a non-empty
    directory, so no existing file is touched; make its parent, then make
    and remove the hidden sibling `write_run` will use, so a name that
    cannot be made fails here and not after training. On a failure the
    parents made here are removed. Call it before training."""
    if os.path.lexists(out) and not (out.is_dir() and
                                     not any(out.iterdir())):
        raise FileExistsError(f"output path {out} exists and is not an "
                              "empty directory")
    made = [p for p in out.parents if not p.exists()]  # nearest first
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        sibling = _partial(out)
        sibling.mkdir()
        sibling.rmdir()
    except OSError:
        for parent in made:
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise


def write_run(out: Path, cfg: dict, net: Network, record: RunRecord,
              gen_retention: float) -> None:
    """Every file of a finished run, written into a hidden sibling of `out`
    that is then renamed to `out`: `out` holds a complete run or nothing."""
    seed = cfg["seed"]
    R = record.result_matrix
    tmp = _partial(out)
    tmp.mkdir()
    try:
        write_json(tmp / "config_echo.json", cfg)
        write_csv(tmp / "results_matrix.csv", "after_task,eval_task,accuracy",
                  R.defined_entries())
        save_checkpoint(tmp / "backbone.bin", backbone_vector(net), 0, seed,
                        "backbone")
        for role, thetas in (("working", record.checkpoints),
                             ("longterm", record.slow_checkpoints or [])):
            for t, theta in enumerate(thetas, start=1):
                save_checkpoint(tmp / f"task{t}_{role}.bin", theta, t, seed,
                                role)
        write_json(tmp / "metrics.json", {
            "acc": [acc_t(R, t) for t in range(1, R.T + 1)],
            "bwt": [bwt_t(R, t) for t in range(2, R.T + 1)],
            "general_retention": gen_retention,
        })
        tmp.rename(os.path.realpath(out))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def read_json(path) -> dict:
    """A config file or config echo, parsed; the caller validates it."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def read_echo(run_dir) -> dict:
    return read_json(Path(run_dir) / "config_echo.json")


def task_spec(cfg: dict) -> TaskSpec:
    return TaskSpec(**{k: v for k, v in cfg["stream"].items() if k != "tasks"})


def rebuild_environment(cfg: dict):
    """Deterministically regenerate (stream, backbone network) from a config."""
    seed = cfg["seed"]
    stream = make_stream(seed, cfg["stream"]["tasks"], task_spec(cfg))
    net = pretrain_backbone(stream.anchor[0], ArchConfig(**cfg["arch"]),
                            seed, classes=cfg["stream"]["classes"])
    return stream, net


class SavedRun:
    """A finished run read against its validated config echo: the backbone it
    saved (not pretrained again), and checkpoints whose headers must hold the
    seed, task index, role and parameter count the echo implies (ValueError
    otherwise). Only an ILORA run has longterm checkpoints."""

    def __init__(self, run_dir, cfg: dict):
        self.out, self.cfg = Path(run_dir), cfg
        self.roles = ("working", "longterm") if \
            cfg["strategy"]["kind"] == "ILORA" else ("working",)
        st, a = cfg["stream"], cfg["arch"]
        # backbone_from_vector checks the length against the echo's shapes
        self.net = backbone_from_vector(
            self._read("backbone.bin", 0, "backbone", None), st["input_dim"],
            a["hidden"], a["embed"], st["classes"], a["rank"], a["alpha"])

    def _read(self, name: str, task: int, role: str,
              count: int | None) -> np.ndarray:
        path = self.out / name
        params, meta = load_checkpoint(path)
        held = (meta["seed"], meta["task_index"], meta["role"], params.size)
        implied = (self.cfg["seed"], task, role, count or params.size)
        if held != implied:
            raise ValueError(f"{path} holds (seed, task, role, parameter "
                             f"count) {held}; the config echo implies "
                             f"{implied}")
        return params

    def params(self, t: int, role: str) -> np.ndarray:
        """The working or longterm adapter parameters after task t."""
        if role not in self.roles:
            raise FileNotFoundError(
                f"missing artifact: {role} checkpoints (a "
                f"{self.cfg['strategy']['kind']} run is not dual-memory)")
        return self._read(f"task{t}_{role}.bin", t, role,
                          param_length(self.net))

    def evals(self, tasks: int) -> list[Batch]:
        """The first `tasks` eval sets; the training sets are skipped."""
        return make_stream(self.cfg["seed"], tasks, task_spec(self.cfg),
                           train_sets=False).evals
