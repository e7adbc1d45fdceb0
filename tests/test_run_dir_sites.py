"""Where the package may make, rename or remove a directory.

`artifacts.claim_run_dir` owns the run directory from claim to rename: it
makes the missing parents and the hidden sibling, renames the sibling into
place and, on any failure, removes the sibling and the parents it made.
These tests pin that one owner, so a second cleanup path (a writer that
makes or removes a directory of its own, say) fails here instead of
growing beside it.
"""

from collections import Counter

import pytest

from test_product_sites import sites


@pytest.mark.parametrize("name, count", [("mkdir", 2), ("rename", 1),
                                         ("rmdir", 1), ("rmtree", 1)])
def test_only_claim_run_dir_touches_directories(name, count):
    assert sites(name) == Counter({("artifacts.py", "claim_run_dir"): count})
