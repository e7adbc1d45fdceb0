"""The RNG contract as a property: any sequence of bulk draws, from any seed,
gives the scalar oracle's values, and leaves the generator where the oracle
is, so the next uniforms match too.

hypothesis runs derandomized and without an example database, so a run of
the same command on the same tree tries the same examples. (hypothesis also
mixes in integer constants it finds in the loaded local modules. conftest
loads every module that tests load at run time before any test runs, so
this file alone and the whole suite try the same examples; editing a
constant in a loaded module changes them.) A missing hypothesis fails this
module's import; it is not skipped.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ilora_lab import Batch, ReplayBuffer, RngState, gaussian_fill

import scalar_rng
from scalar_rng import ScalarRng, assert_same_next


def _stratified_buffer() -> ReplayBuffer:
    """Three non-empty stores of distinct rows and one empty store."""
    buf = ReplayBuffer(stratified=True)
    start = 0
    for tid, (rho, n) in enumerate([(0.3, 40), (0.0, 25), (0.5, 33),
                                    (1.0, 7)], start=1):
        buf.rho = rho
        X = np.arange(start, start + 2 * n, dtype=np.float64).reshape(n, 2)
        buf.ingest_task(Batch(X, np.arange(n) % 3), tid, RngState(60 + tid))
        start += 2 * n
    return buf


BUFFER = _stratified_buffer()
STORES = [(X, y) for X, y, _ in BUFFER.stores if len(y)]


def row_batch(n: int) -> Batch:
    return Batch(np.arange(2.0 * n).reshape(n, 2), np.arange(n))


def draw(step, rng: RngState):
    """The bulk consumer's output for one step, as comparable values."""
    kind, *args = step
    if kind == "uniforms":
        return rng.uniforms(*args).tolist()
    if kind == "fill":
        return gaussian_fill(rng, *args, 0.5, 2.0).tobytes()
    if kind == "shuffled":
        return rng.shuffled(*args)
    if kind == "choose":
        return rng.choose_without_replacement(*args)
    if kind == "draw":
        n, count = args
        got = row_batch(n).draw(count, rng)
    else:
        got = BUFFER.sample(*args, rng)
    return got.X.tobytes(), got.y.tobytes()


def oracle_draw(step, oracle: ScalarRng):
    """The same step drawn one value at a time."""
    kind, *args = step
    if kind == "uniforms":
        return oracle.floats(*args)
    if kind == "fill":
        return scalar_rng.gauss_fill(oracle, *args, 0.5, 2.0).tobytes()
    if kind == "shuffled":
        return scalar_rng.shuffled(oracle, *args)
    if kind == "choose":
        return sorted(scalar_rng.shuffled(oracle, *args))
    if kind == "draw":
        n, count = args
        X = row_batch(n).X
        rows = [(X[i], i) for i in
                [oracle.next_below(n) for _ in range(count)]]
    else:
        rows = []
        for _ in range(args[0]):
            X, y = STORES[oracle.next_below(len(STORES))]
            j = oracle.next_below(len(y))
            rows.append((X[j], y[j]))
    return (np.array([x for x, _ in rows]).tobytes(),
            np.array([y for _, y in rows], dtype=np.int64).tobytes())


def _subset(kind):
    return st.integers(0, 600).flatmap(
        lambda n: st.tuples(st.just(kind), st.just(n), st.integers(0, n)))


STEPS = st.lists(st.one_of(
    # counts up to about three blocks, so draws cross block edges
    st.tuples(st.just("uniforms"), st.integers(0, 1600)),
    # odd and even sizes: an odd fill drops its last pair's second value
    st.tuples(st.just("fill"), st.integers(1, 7), st.integers(1, 80)),
    _subset("shuffled"),
    _subset("choose"),
    st.tuples(st.just("draw"), st.integers(1, 50), st.integers(1, 700)),
    st.tuples(st.just("stratified"), st.integers(1, 700)),
), max_size=6)


def check(seed: int, steps: list) -> None:
    """Each step's bulk draw equals the oracle's, and the next uniforms
    then match too."""
    bulk, oracle = RngState(seed), ScalarRng(seed)
    for i, step in enumerate(steps):
        assert draw(step, bulk) == oracle_draw(step, oracle), (i, step)
    assert_same_next(bulk, oracle)


# Each consumer from a fresh generator and from a partly read block, counts
# at a block's edges included.
@pytest.mark.parametrize("before", [0, 100])
@pytest.mark.parametrize("step", [
    *(("uniforms", k) for k in (0, 1, 511, 512, 513, 1025)),
    ("shuffled", 30, 7), ("choose", 30, 7), ("fill", 3, 5), ("fill", 2, 8),
    ("draw", 10, 13), ("stratified", 13)],
    ids=lambda step: "-".join(map(str, step)))
def test_each_consumer_from_a_fresh_or_partly_read_block(before, step):
    check(3, [("uniforms", before), step])


@example(12, [("uniforms", 100), ("fill", 3, 5), ("uniforms", 311),
              ("choose", 30, 7), ("uniforms", 733), ("stratified", 19)])
@example(2 ** 64 - 1, [("uniforms", 511), ("fill", 1, 3),
                       ("uniforms", 510), ("draw", 1, 2)])
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 64 - 1), STEPS)
def test_any_bulk_draws_give_the_oracle_stream(seed, steps):
    check(seed, steps)
