"""Golden artifact digests: the sha256 of every file `ilora-lab run` writes,
except `config_echo.json`, for all six kinds on a tiny config at seed 7, with
the default strategy block and with one variant of it. A change that is meant
to keep behaviour (a refactor of the training loop or of the config schema)
must leave every digest unchanged.

The digests live in `golden_artifacts.json` next to this file. Re-record them,
only for an intended change of behaviour, with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from ilora_lab.cli import main

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
KINDS = ("SEQ", "ER", "EWC", "AGEM", "MTL", "ILORA")
# 37 training rows in batches of 8 leave a partial batch per task, so MTL's
# step count (a sum of per-task ceilings) differs from ceil(111 / 8).
TINY = {
    "seed": 7,
    "stream": {"tasks": 3, "input_dim": 6, "classes": 3, "n_train": 37,
               "n_eval": 29},
    "arch": {"hidden": 8, "embed": 6, "rank": 2, "alpha": 4.0,
             "pretrain_epochs": 2},
    "training": {"epochs": 1, "batch_size": 8},
}
VARIANTS = {
    "default": {},
    "variant": {"stratified_replay": True, "update_frequency": 2,
                "deploy_slow": False, "lambda_ewc": 5.0},
}


def run_digests(tmp: Path, variant: str, kind: str) -> dict[str, str]:
    cfg = json.loads(json.dumps(TINY))
    cfg["strategy"] = {"kind": kind, **VARIANTS[variant]}
    path = tmp / f"{variant}-{kind}.json"
    path.write_text(json.dumps(cfg))
    out = tmp / f"{variant}-{kind}"
    assert main(["run", str(path), "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "config_echo.json"}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_artifacts_match_golden_digests(tmp_path, variant, kind):
    golden = json.loads(GOLDEN.read_text())
    assert run_digests(tmp_path, variant, kind) == golden[f"{variant}/{kind}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {f"{v}/{k}": run_digests(Path(tmp), v, k)
                  for v in sorted(VARIANTS) for k in KINDS}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
