"""Span tracing for the benchmark's traced runs.

`Tracer.patched()` replaces the package's public functions with timing
wrappers at every name they are bound to. The modules import each other's
functions by name (`from .numerics import matmul`), so patching only the
defining module would miss most calls: the wrapper has to be installed in
`model`, `bench`, `strategies`, ... wherever the same object is bound. The
originals are restored on exit.

Each call records one span (name, start, end, parent span) in flat arrays in
memory; self time is derived afterwards from the spans. Shape- and
size-derived counters (computed flops and bytes, rows, values) are
accumulated at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "ilora_lab"

# (defining module, attribute) of every traced function, grouped by layer.
TARGETS = (
    ("numerics", "matmul"), ("numerics", "gaussian_fill"),
    ("model", "forward"), ("model", "loss_and_grad"),
    ("model", "predict_accuracy"), ("model", "backbone_loss_and_grad"),
    ("optim", "adam_step"), ("optim", "ema_update"),
    ("optim", "ewc_penalty_grad"), ("optim", "ewc_fisher"),
    ("optim", "agem_project"),
    ("replay", "ReplayBuffer.sample"), ("replay", "ReplayBuffer.ingest_task"),
    ("strategies", "run_sequence"), ("strategies", "train_task"),
    ("strategies", "ilora_step"),
    ("bench", "make_stream"), ("bench", "pretrain_backbone"),
    ("connectivity", "sweep_lambda"), ("connectivity", "landscape_grid"),
    ("connectivity", "linear_cka"),
    ("cli", "rebuild_environment"), ("cli", "save_checkpoint"),
    ("cli", "load_checkpoint"),
)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_matmul(c, args, kwargs, out):
    m, k = np.shape(_arg(args, kwargs, 0, "a"))
    n = out.shape[1]
    c["flops_computed"] += 2 * m * k * n
    c["bytes_computed"] += 8 * (m * k + k * n + m * n)


def _count_gaussian_fill(c, args, kwargs, out):
    c["values"] += out.size


def _count_loss_and_grad(c, args, kwargs, out):
    rows = _arg(args, kwargs, 2, "batch").n
    mem = _arg(args, kwargs, 4, "mem_batch")
    if mem is not None and _arg(args, kwargs, 3, "gamma", 0.0) > 0.0:
        rows += mem.n
    c["rows"] += rows


def _count_ewc_fisher(c, args, kwargs, out):
    c["rows"] += _arg(args, kwargs, 2, "dataset").n


def _count_agem_project(c, args, kwargs, out):
    # agem_project hands back its input object when the constraint holds.
    c["binds"] += out is not _arg(args, kwargs, 0, "g")


def _count_file_bytes(c, args, kwargs, out):
    c["bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


# Traced function: (counter, the keys it increments).
COUNTERS = {
    "matmul": (_count_matmul, ("flops_computed", "bytes_computed")),
    "gaussian_fill": (_count_gaussian_fill, ("values",)),
    "loss_and_grad": (_count_loss_and_grad, ("rows",)),
    "ewc_fisher": (_count_ewc_fisher, ("rows",)),
    "agem_project": (_count_agem_project, ("binds",)),
    "save_checkpoint": (_count_file_bytes, ("bytes",)),
    "load_checkpoint": (_count_file_bytes, ("bytes",)),
}


class Tracer:
    """In-memory span recorder. Span i is (name[i], start[i], end[i],
    parent[i]); parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, dict[str, int]] = {}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """`fn` with a span recorded around every call."""
        idx = len(self.names)
        self.names.append(name)
        count, keys = COUNTERS.get(name, (None, ()))
        counters = self.counters.setdefault(name, dict.fromkeys(keys, 0))
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                        self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install wrappers at every binding of every target; restore them
        afterwards, also when the body raises."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []
        try:
            for mod_name, attr in TARGETS:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(home, cls_name)
                    orig = owner.__dict__[meth]
                    undo.append((owner, meth, orig))
                    setattr(owner, meth, self.wrap(meth, orig))
                    continue
                orig = getattr(home, attr)
                wrapper = self.wrap(attr, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total and self seconds, plus its counters. Self
        time is a span's duration minus that of its direct children."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.uint16)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=dur - child, minlength=k)
        out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **c}
               for n, c in self.counters.items()}
        for i, n in enumerate(self.names):
            out[n]["calls"] += int(calls[i])
            out[n]["total_s"] += float(total[i])
            out[n]["self_s"] += float(self_s[i])
        return out

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
