"""The run directory: one owner of its lifecycle, one writer for what
`ilora-lab run` makes and one reader, checked against the run's config
echo, for `sweep-lambda` and `probe`.

`claim_run_dir` makes the directory's hidden sibling before training and
renames it into place when the run is written; on any failure it removes
the sibling and the parents it made, and nothing else in the package
makes, renames or removes a directory. `write_run` only writes the files,
into the directory it is given.

File formats
------------
results_matrix.csv   header ``after_task,eval_task,accuracy``; one row per
                     defined result-matrix entry. Every CSV prints numbers
                     with 17 significant digits, so reloads are bit-faithful.
metrics.json         keys ``acc`` (per t), ``bwt`` (from t=2),
                     ``general_retention``: the deployed accuracy on task
                     1's eval set after the last task minus the untrained
                     adapters' accuracy on it.
Checkpoints          binary, little-endian: magic ``ILORA1``, u32 format
                     version, u64 value count, u32 task index (0 for
                     ``backbone.bin``), u64 seed, u8 role (0 working,
                     1 longterm, 2 backbone, 3 evals), then the payload as
                     float64 in flat parameter order.
evals.bin            the checkpoint format with task index T and role evals;
                     the payload is the T eval inputs, task-major, as
                     (T, n_eval, input_dim). The labels are not stored:
                     they are ``bench.round_robin_labels``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import struct
from pathlib import Path

import numpy as np

from .bench import (ArchConfig, TaskSpec, make_stream, pretrain_backbone,
                    round_robin_labels)
from .metrics import acc_t, bwt_t
from .model import (Batch, Network, backbone_from_vector, backbone_vector,
                    param_length)
from .strategies import RunRecord

CHECKPOINT_MAGIC = b"ILORA1"
CHECKPOINT_VERSION = 1
# a role's code is its index
ROLES = ("working", "longterm", "backbone", "evals")

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


@contextlib.contextmanager
def claim_run_dir(out: Path):
    """Own the run directory from claim to rename; build the run inside
    ``with claim_run_dir(out) as tmp:``, from before training on.

    Refuse an output path that is a file, a broken symlink or a non-empty
    directory, so no existing file is touched. Make the missing parents and
    the hidden sibling ``.<name>.<token>.partial``, so a name that cannot be
    made fails before training, and yield the sibling. The token is 16
    random hex digits, so a sibling left by a killed run never blocks a
    later one; another sibling is never read, renamed or removed. A plain
    mkdir gives the run directory the mode the umask sets. The sibling is
    named from the real path, since the sibling of "." or ".." needs the real
    name; realpath, unlike ``Path.resolve``, leaves a symlink loop
    unresolved instead of raising RuntimeError. When the block ends the
    sibling is renamed to `out`, so `out` holds a complete run or nothing:
    on any failure, here or in the block (Ctrl-C included), the sibling
    made here and the parents made here are removed before it re-raises.
    """
    if os.path.lexists(out) and not (out.is_dir() and
                                     not any(out.iterdir())):
        raise FileExistsError(f"output path {out} exists and is not an "
                              "empty directory")
    made = [p for p in out.parents if not p.exists()]  # nearest first
    tmp = None
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        real = Path(os.path.realpath(out))
        sibling = real.with_name(f".{real.name}.{os.urandom(8).hex()}.partial")
        sibling.mkdir()
        tmp = sibling
        yield tmp
        tmp.rename(real)
    except BaseException:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        for parent in made:
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise


def write_run(run_dir: Path, cfg: dict, net: Network, record: RunRecord,
              evals: list[Batch]) -> None:
    """Every file of a finished run, written into the directory `run_dir`
    (the one `claim_run_dir` yields)."""
    seed = cfg["seed"]
    R = record.result_matrix
    write_json(run_dir / "config_echo.json", cfg)
    write_csv(run_dir / "results_matrix.csv", "after_task,eval_task,accuracy",
              R.defined_entries())
    save_checkpoint(run_dir / "backbone.bin", backbone_vector(net), 0, seed,
                    "backbone")
    save_checkpoint(run_dir / "evals.bin", np.stack([ev.X for ev in evals]),
                    len(evals), seed, "evals")
    for role, thetas in (("working", record.checkpoints),
                         ("longterm", record.slow_checkpoints)):
        for t, theta in enumerate(thetas, start=1):
            save_checkpoint(run_dir / f"task{t}_{role}.bin", theta, t, seed,
                            role)
    write_json(run_dir / "metrics.json", {
        "acc": [acc_t(R, t) for t in range(1, R.T + 1)],
        "bwt": [bwt_t(R, t) for t in range(2, R.T + 1)],
        "general_retention": record.general_retention,
    })


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
    """A finished run read against its validated config echo: the backbone
    and eval sets it saved (not made again), and checkpoints whose headers
    must hold the seed, task index, role and value count the echo implies
    (ValueError otherwise). Only an ILORA run has longterm checkpoints."""

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
            raise ValueError(f"{path} holds (seed, task, role, value "
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

    def evals(self) -> list[Batch]:
        """Every task's eval set, as the run saved it."""
        st = self.cfg["stream"]
        shape = (st["tasks"], st["n_eval"], st["input_dim"])
        X = self._read("evals.bin", shape[0], "evals",
                       math.prod(shape)).reshape(shape)
        y = round_robin_labels(st["n_eval"], st["classes"])
        return [Batch(x, y) for x in X]
