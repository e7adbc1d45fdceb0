"""The benchmark's workloads: the `ilora-lab` commands each one runs, and the
checks every command's outputs must pass.

A workload is prepared once per set-up and then run in rounds; a round is
one pass over its command list. Round r of a training workload trains on
inputs generated from seed `input_seed(seed, r)`, so no two rounds repeat
the same experiment. The probe workload probes one run, made at set-up, in
every round.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

KINDS = ("SEQ", "ER", "EWC", "AGEM", "MTL", "ILORA")
# EWC is left out of the wide workload: its per-sample Fisher is call-bound
# at any width and would bury the arithmetic-bound kernel signal.
WIDE_KINDS = ("SEQ", "ER", "AGEM", "ILORA")
WIDE_CONFIG = {
    "stream": {"tasks": 3, "input_dim": 64, "n_train": 512, "n_eval": 256},
    "arch": {"hidden": 256, "embed": 64, "rank": 32, "pretrain_epochs": 4,
             "pretrain_batch": 64},
    "training": {"epochs": 2, "batch_size": 64},
}
PROBE_TRANSITIONS = (1, 2, 3, 4)
SWEEP_POINTS = 21
LANDSCAPE_POINTS = 11
# Seeds of one benchmark seed's rounds are seed*ROUND_STRIDE + r.
ROUND_STRIDE = 1000
CKA_SLACK = 1e-9


def input_seed(seed: int, r: int) -> int:
    return seed * ROUND_STRIDE + r


@dataclass(frozen=True)
class Command:
    """One `ilora-lab` invocation. `run_dir` is the run directory it writes
    (for `run`) or reads and writes its CSV into (for the probes);
    `input_key` is the seed its inputs come from, so two commands with the
    same label and key must produce identical bytes."""

    label: str
    argv: tuple[str, ...]
    run_dir: Path
    input_key: int
    kind: str
    transition: int = 0

    def reset(self) -> None:
        """Remove what an earlier round left, so a missing output shows."""
        if self.kind == "run":
            shutil.rmtree(self.run_dir, ignore_errors=True)
        else:
            (self.run_dir / self._probe_file()).unlink(missing_ok=True)

    def outputs(self, cfg: dict) -> list[str]:
        if self.kind != "run":
            return [self._probe_file()]
        T = cfg["stream"]["tasks"]
        roles = (("working", "longterm") if cfg["strategy"]["kind"] == "ILORA"
                 else ("working",))
        return (["results_matrix.csv", "metrics.json", "backbone.bin"]
                + [f"task{t}_{role}.bin" for role in roles
                   for t in range(1, T + 1)])

    def validate(self, cfg: dict) -> list[str]:
        """Range checks that hold for every seed."""
        if self.kind == "run":
            return _validate_run(self.run_dir, cfg)
        _, header, rows, columns = _PROBES[self.kind]
        return _csv(self.run_dir / self._probe_file(), header,
                    rows(cfg["stream"]["tasks"]), columns)

    def adapter_steps(self, cfg: dict) -> int:
        if self.kind != "run":
            return 0
        tr = cfg["training"]
        return (cfg["stream"]["tasks"] * tr["epochs"]
                * math.ceil(cfg["stream"]["n_train"] / tr["batch_size"]))

    def _probe_file(self) -> str:
        return _PROBES[self.kind][0].format(t=self.transition)


_UNIT = (0.0, 1.0)
_NONNEG = (0.0, math.inf)
# Probe kind: (output file, CSV header, row count given the task count,
# range of each checked column).
_PROBES = {
    "sweep-lambda": ("sweep_t{t}.csv", "lambda,Ap,An,Aall",
                     lambda T: SWEEP_POINTS,
                     {"lambda": _UNIT, "Ap": _UNIT, "An": _UNIT,
                      "Aall": _UNIT}),
    "wd": ("wd.csv", "transition,WD_w,WD_l", lambda T: T - 1,
           {"WD_w": _NONNEG, "WD_l": _NONNEG}),
    "cka": ("cka.csv", "transition,cka", lambda T: T - 1,
            {"cka": (0.0, 1.0 + CKA_SLACK)}),
    "landscape": ("landscape.csv", "a,b,value",
                  lambda T: LANDSCAPE_POINTS ** 2, {"value": _NONNEG}),
}


def _within(x: float, lo: float, hi: float) -> bool:
    return math.isfinite(x) and lo <= x <= hi


def _csv(path: Path, header: str, rows: int, columns: dict) -> list[str]:
    """Check the header, the row count and each named column's range."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        return [f"{path.name}: header is not {header!r}"]
    if len(lines) - 1 != rows:
        return [f"{path.name}: {len(lines) - 1} rows, expected {rows}"]
    names = header.split(",")
    problems = []
    for line in lines[1:]:
        values = dict(zip(names, (float(v) for v in line.split(","))))
        for col, (lo, hi) in columns.items():
            if not _within(values[col], lo, hi):
                problems.append(f"{path.name}: {col}={values[col]} "
                                f"outside [{lo}, {hi}]")
    return problems


def _validate_run(run_dir: Path, cfg: dict) -> list[str]:
    T = cfg["stream"]["tasks"]
    problems = _csv(run_dir / "results_matrix.csv",
                    "after_task,eval_task,accuracy", T * (T + 1) // 2,
                    {"accuracy": _UNIT})
    m = json.loads((run_dir / "metrics.json").read_text())
    if len(m["acc"]) != T or len(m["bwt"]) != T - 1:
        problems.append("metrics.json: acc/bwt lengths do not match tasks")
    if not all(_within(a, *_UNIT) for a in m["acc"]):
        problems.append(f"metrics.json: acc outside [0, 1]: {m['acc']}")
    if not all(_within(b, -1.0, 1.0) for b in
               m["bwt"] + [m["general_retention"]]):
        problems.append("metrics.json: bwt or general_retention outside "
                        "[-1, 1]")
    for path in run_dir.glob("*.bin"):
        if not path.read_bytes().startswith(b"ILORA1"):
            problems.append(f"{path.name}: bad checkpoint magic")
    return problems


def _write_config(work: Path, name: str, config: dict) -> None:
    (work / f"{name}.json").write_text(json.dumps(config, indent=2) + "\n")


def _run(work: Path, kind: str, key: int, run_dir: Path) -> Command:
    return Command(f"run {kind}", ("run", str(work / f"{kind}.json"),
                                   "--seed", str(key), "--out", str(run_dir)),
                   run_dir, key, "run")


@dataclass(frozen=True)
class TrainingWorkload:
    """`run` for each kind in `kinds` on `config`, with fresh inputs every
    round."""

    name: str
    kinds: tuple[str, ...]
    config: dict

    def prepare(self, work: Path, seed: int) -> list[Command]:
        for kind in self.kinds:
            _write_config(work, kind, {**self.config,
                                       "strategy": {"kind": kind}})
        return []

    def round(self, work: Path, seed: int, r: int) -> list[Command]:
        key = input_seed(seed, r)
        return [_run(work, kind, key, work / kind) for kind in self.kinds]


@dataclass(frozen=True)
class ProbeWorkload:
    """Set-up makes one default ILORA run; each round then runs every
    interpolation sweep and probe over it."""

    name: str

    def prepare(self, work: Path, seed: int) -> list[Command]:
        _write_config(work, "ILORA", {"strategy": {"kind": "ILORA"}})
        return [_run(work, "ILORA", input_seed(seed, 0), work / "run")]

    def round(self, work: Path, seed: int, r: int) -> list[Command]:
        key = input_seed(seed, 0)
        run_dir = work / "run"
        d = str(run_dir)
        cmds = [Command(f"sweep-lambda {t}",
                        ("sweep-lambda", d, "--transition", str(t),
                         "--points", str(SWEEP_POINTS)),
                        run_dir, key, "sweep-lambda", t)
                for t in PROBE_TRANSITIONS]
        cmds += [Command(f"probe {k}", ("probe", d, k), run_dir, key, k)
                 for k in ("wd", "cka")]
        cmds += [Command(f"probe landscape {t}",
                         ("probe", d, "landscape", "--transition", str(t),
                          "--grid-points", str(LANDSCAPE_POINTS)),
                         run_dir, key, "landscape", t)
                 for t in PROBE_TRANSITIONS]
        return cmds


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    TrainingWorkload("default-sweep", KINDS, {}),
    TrainingWorkload("wide-adapter", WIDE_KINDS, WIDE_CONFIG),
    ProbeWorkload("probe-read"),
)}
