"""The kernel contract as a property: `matmul` gives the triple loop's
bits for any shapes, on both sides of the orientation
switch, in C and Fortran order, with signed zeros; and a fixed set of
products gives the same bytes at numpy's default SIMD level and with
AVX-512 and x86-64-v3 turned off.

hypothesis runs derandomized and without an example database, so a run of
the same command on the same tree tries the same examples (see
`tests/test_rng_property.py` for what can still change them).
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ilora_lab import matmul

from test_numerics import loop_sum

SRC = Path(__file__).resolve().parent.parent / "src"
# what numpy may turn off at run time on an AVX-512 machine, down to its
# x86-64-v2 baseline
NO_AVX = "AVX512F AVX512_SKX X86_V4 X86_V3"


def loop_product(a, b):
    """The triple loop's bytes for a 2-D product."""
    cols = b.T.tolist()
    return np.array([[loop_sum(row, col) for col in cols]
                     for row in a.tolist()]).reshape(a.shape[0], b.shape[1])


@st.composite
def products(draw):
    """(m, K) and (K, n) operands with signed zeros and a wide spread of
    magnitudes, in C or Fortran order."""
    # both orientations of the switch, 1x1 and one-row outputs included
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    K = draw(st.one_of(st.integers(0, 8), st.integers(9, 300)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    out = []
    for shape in ((m, K), (K, n)):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        hit = rng.random(shape) < 0.2
        x[hit] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[hit]
        out.append(np.asfortranarray(x) if draw(st.booleans()) else x)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(products())
def test_any_product_gives_the_loop_bits(operands):
    a, b = operands
    out, want = matmul(a, b), loop_product(a, b)
    assert out.flags.c_contiguous
    assert out.shape == want.shape
    assert out.tobytes() == want.tobytes()


DIGEST = f"""
import hashlib, sys
import numpy as np
sys.path.insert(0, {str(SRC)!r})
from numpy._core.multiarray import c_einsum
from ilora_lab import numerics
from ilora_lab.numerics import matmul
rng = np.random.default_rng(11)
h = hashlib.sha256()
for m, k, n in ((64, 256, 64), (64, 256, 32), (16, 32, 16), (300, 17, 8),
                (5, 600, 3), (1, 40, 1)):
    a = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-9, 9, (m, k))
    h.update(matmul(a, rng.standard_normal((k, n))).tobytes())
a, b = rng.standard_normal((3, 20, 30)), rng.standard_normal((3, 30, 70))
for x, y in zip(a, b):
    h.update(matmul(x, y).tobytes())
print(numerics._kernel is c_einsum, h.hexdigest())
"""


def test_products_do_not_depend_on_the_simd_level():
    digests = set()
    for disabled in ("", NO_AVX):
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled}
        run = subprocess.run([sys.executable, "-c", DIGEST], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1
    assert digests.pop().startswith("True ")
