"""Run-level relations: what must hold between whole runs at any config,
before and after a change of the artifact bytes, so they need no recorded
digest.

- One task: on a 1-task stream every kind trains SEQ's phase (the other
  kinds' extra terms need a past task, and MTL's one phase is SEQ's), so
  every kind ends with SEQ's working parameters.
- Prefix: a task's data, its step count and the draws before it do not
  depend on how many tasks follow. So for every kind but MTL, whose one
  phase covers every task, a 3-task run's backbone, checkpoints and result
  matrix rows are the first three of a 4-task run's.

Each run calls `run_sequence` in process on the tiny config of
`test_golden.py`, with the default strategy block and with its variant.
"""

import functools

import pytest

from ilora_lab import (ArchConfig, RngState, StrategyConfig, TaskSpec,
                       make_stream, pretrain_backbone, run_sequence)
from ilora_lab.model import backbone_vector

from test_golden import KINDS, TINY, VARIANTS

SPEC = TaskSpec(**{k: v for k, v in TINY["stream"].items() if k != "tasks"})
ARCH = ArchConfig(**TINY["arch"])
SEED = TINY["seed"]


def strategy(kind, variant):
    return StrategyConfig(kind=kind, **TINY["training"], **VARIANTS[variant])


@functools.cache
def environment(T):
    """(stream, backbone) of a T-task run of the tiny config, built once."""
    stream = make_stream(SEED, T, SPEC)
    return stream, pretrain_backbone(stream.anchor[0], ARCH, SEED,
                                     classes=SPEC.classes)


def run(T, kind, variant):
    stream, net = environment(T)
    return run_sequence(strategy(kind, variant), stream.pairs, net,
                        RngState(SEED))


def row(R, t):
    return [R.get(t, j) for j in range(1, t + 1)]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_one_task_runs_train_seqs_phase(variant):
    seq = run(1, "SEQ", variant).checkpoints[0].tobytes()
    for kind in KINDS:
        record = run(1, kind, variant)
        assert len(record.checkpoints) == 1, kind
        assert record.checkpoints[0].tobytes() == seq, kind


def test_backbone_does_not_depend_on_the_task_count():
    assert backbone_vector(environment(3)[1]).tobytes() == \
        backbone_vector(environment(4)[1]).tobytes()


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "MTL"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_shorter_run_is_a_prefix(variant, kind):
    short, full = run(3, kind, variant), run(4, kind, variant)
    for role in ("checkpoints", "slow_checkpoints"):
        ours, theirs = getattr(short, role), getattr(full, role)
        assert len(ours) == (3 if role == "checkpoints" or kind == "ILORA"
                             else 0)
        assert [c.tobytes() for c in ours] == \
            [c.tobytes() for c in theirs[:3]], role
    R3, R4 = short.result_matrix, full.result_matrix
    for t in range(1, 4):
        assert row(R3, t) == row(R4, t), t
