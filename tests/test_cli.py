import errno
import json
import os
import re
import shutil
import stat
import warnings

import numpy as np
import pytest

from ilora_lab import RngState, embed, gaussian_fill, linear_cka, make_stream
from ilora_lab.artifacts import SavedRun, read_echo, task_spec, write_csv
from ilora_lab.cli import (ConfigError, load_checkpoint, main,
                           save_checkpoint, validate_config)

SMALL_CONFIG = {
    "seed": 0,
    "stream": {"tasks": 3, "input_dim": 8, "classes": 3,
               "n_train": 96, "n_eval": 64},
    "arch": {"hidden": 12, "embed": 8, "rank": 4, "alpha": 8.0,
             "pretrain_epochs": 6},
    "strategy": {"kind": "SEQ"},
    "training": {"epochs": 2},
}


def write_config(tmp_path, overrides=None, **top):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    for block, vals in (overrides or {}).items():
        cfg.setdefault(block, {}).update(vals)
    cfg.update(top)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        params = gaussian_fill(RngState(1), 1, 37)[0]
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, task_index=4, seed=99, role="longterm")
        loaded, meta = load_checkpoint(path)
        assert np.array_equal(loaded, params)
        assert meta == {"task_index": 4, "seed": 99, "role": "longterm"}

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE!!" + bytes(100))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"ILO")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_payload_size_mismatch(self, tmp_path):
        params = np.zeros(5)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, params, 1, 0, "working")
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])  # drop one float
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestValidateConfig:
    def test_defaults_materialized(self):
        cfg = validate_config({})
        assert cfg["stream"]["tasks"] == 5
        assert cfg["strategy"]["kind"] == "SEQ"
        assert cfg["training"]["batch_size"] == 16

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            validate_config({"stream": {}, "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            validate_config({"strategy": {"kind": "SEQ", "momentum": 0.9}})

    def test_unknown_strategy_kind(self):
        with pytest.raises(ConfigError):
            validate_config({"strategy": {"kind": "LWF"}})

    @pytest.mark.parametrize("config, message", [
        ([], "config root must be an object"),
        ({"arch": []}, "config block 'arch' must be an object"),
    ], ids=["root", "block"])
    def test_not_an_object_exit_2_before_writing(self, tmp_path, capsys,
                                                  config, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            validate_config(config)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestRunCommand:
    def test_seq_run_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert (out / "config_echo.json").exists()
        assert (out / "results_matrix.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "backbone.bin").exists()
        for t in (1, 2, 3):
            assert (out / f"task{t}_working.bin").exists()
            assert not (out / f"task{t}_longterm.bin").exists()
        rows = (out / "results_matrix.csv").read_text().strip().split("\n")
        assert rows[0] == "after_task,eval_task,accuracy"
        assert len(rows) == 1 + 6  # header plus lower triangle of T=3
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["acc"]) == 3
        assert len(metrics["bwt"]) == 2
        assert "general_retention" in metrics

    def test_ilora_run_writes_both_memories(self, tmp_path):
        cfg = write_config(tmp_path, {"strategy": {"kind": "ILORA"}})
        out = tmp_path / "run"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for t in (1, 2, 3):
            assert (out / f"task{t}_working.bin").exists()
            assert (out / f"task{t}_longterm.bin").exists()

    def test_rerun_from_echo_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        echo = out1 / "config_echo.json"
        assert main(["run", str(echo), "--out", str(out2)]) == 0
        assert (out1 / "results_matrix.csv").read_bytes() == \
               (out2 / "results_matrix.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["run", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--seed", "1"]) == 0
        assert (out1 / "results_matrix.csv").read_text() != \
               (out2 / "results_matrix.csv").read_text()

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 3

    def test_invalid_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_key_exit_2(self, tmp_path):
        path = write_config(tmp_path, {"training": {"epochz": 3}})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_missing_out_dir_exit_2(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, "3", True])
    def test_bad_seed_exit_2_before_writing(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, seed=seed)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out), "--seed=-1"]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    def test_largest_seed_accepted(self):
        assert validate_config({"seed": 2 ** 64 - 1})["seed"] == 2 ** 64 - 1

    @pytest.mark.parametrize("tasks", [0, -2, 2.0, "3"])
    def test_bad_task_count_exit_2_before_writing(self, tmp_path, capsys,
                                                  tasks):
        path = write_config(tmp_path, {"stream": {"tasks": tasks}})
        out = tmp_path / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("overrides, top", [
        ({"training": {"epochs": "2"}}, {}),
        ({"arch": {"rank": 0}}, {}),
        ({"strategy": {"kind": "ILORA", "gamma": float("nan")}}, {}),
        ({"training": {"batch_size": True}}, {}),
        ({"stream": {"n_train": 0}}, {}),
        ({"training": {"base_lr": float("inf")}}, {}),
        ({"training": {"base_lr": 10 ** 400}}, {}),
        ({"strategy": {"deploy_slow": 1}}, {}),
        ({"training": {"optimizer": None}}, {}),
        ({}, {"out_dir": 5}),
        ({"training": {"base_lr": -0.01}}, {}),
        ({"arch": {"pretrain_lr": -0.5}}, {}),
        ({"training": {"warmup_ratio": -1.0}}, {}),
        ({"training": {"warmup_ratio": 1.5}}, {}),
        ({"stream": {"cluster_std": -0.5}}, {}),
        ({"arch": {"alpha": 0}}, {}),
        ({"arch": {"alpha": -8.0}}, {}),
        ({"stream": {"class_separation": -2.0}}, {}),
        ({"stream": {"mean_shift": -0.5}}, {}),
    ], ids=["epochs-str", "rank-0", "gamma-nan", "batch-bool", "n_train-0",
            "base_lr-inf", "base_lr-huge-int", "deploy_slow-int",
            "optimizer-null", "out_dir-int", "base_lr-negative",
            "pretrain_lr-negative", "warmup_ratio-negative",
            "warmup_ratio-above-1", "cluster_std-negative", "alpha-0",
            "alpha-negative", "class_separation-negative",
            "mean_shift-negative"])
    def test_mistyped_value_exit_2_before_writing(self, tmp_path, capsys,
                                                  monkeypatch, overrides,
                                                  top):
        # each field is checked against its dataclass type; out_dir is
        # taken from the config (no --out), so a bad one is not overridden
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, overrides, **{"out_dir": "o", **top})
        assert main(["run", str(path)]) == 2
        assert_one_line_error(capsys)
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("block, key, value", [
        ("training", "base_lr", -0.01), ("arch", "pretrain_lr", -0.5),
        ("training", "warmup_ratio", -1.0), ("training", "warmup_ratio", 2)])
    def test_bad_rate_or_warmup_names_the_key(self, block, key, value):
        with pytest.raises(ConfigError, match=key):
            validate_config({block: {key: value}})

    @pytest.mark.parametrize("block, key", [
        ("stream", "cluster_std"), ("stream", "class_separation"),
        ("stream", "mean_shift"), ("arch", "pretrain_lr"), ("arch", "alpha")])
    def test_one_block_checks_name_the_block(self, block, key):
        with pytest.raises(ConfigError, match=rf"^{block}\.{key} must be"):
            validate_config({block: {key: -0.5}})

    def test_zero_spread_and_rank_above_hidden_accepted(self):
        stream = {"cluster_std": 0, "class_separation": 0.0,
                  "mean_shift": 0.0}
        arch = {"hidden": 4, "rank": 9}
        cfg = validate_config({"stream": stream, "arch": arch})
        assert cfg["stream"] == {**cfg["stream"], **stream}
        assert cfg["arch"] == {**cfg["arch"], **arch}

    def test_zero_rates_and_warmup_bounds_accepted(self):
        for training in ({"base_lr": 0, "warmup_ratio": 0.0},
                         {"base_lr": 0.0, "warmup_ratio": 1}):
            cfg = validate_config({"training": training,
                                   "arch": {"pretrain_lr": 0.0}})
            assert cfg["training"] == {**cfg["training"], **training}

    def test_zero_rates_are_a_null_run(self, tmp_path):
        path = write_config(tmp_path, {"training": {"base_lr": 0.0},
                                       "arch": {"pretrain_lr": 0.0}})
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_float_fields_take_integers(self):
        cfg = validate_config({"arch": {"alpha": 8},
                               "strategy": {"gamma": 0}})
        assert cfg["arch"]["alpha"] == 8 and cfg["strategy"]["gamma"] == 0

    @pytest.mark.parametrize("target", ["taken", "taken/sub"])
    def test_out_path_through_a_file_exit_2(self, tmp_path, capsys, target):
        path = write_config(tmp_path)
        (tmp_path / "taken").write_text("keep")
        assert main(["run", str(path), "--out", str(tmp_path / target)]) == 2
        assert_one_line_error(capsys)
        assert (tmp_path / "taken").read_text() == "keep"


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# (patched target, --out under tmp_path) of a run that fails while
# training and of one that fails once some files are written, each with
# --out's parent there (id: the target) and under two missing parents
FAILING_RUNS = [pytest.param(target, out, id=target + suffix)
                for out, suffix in (("o", ""), ("w/v/o", "-w/v/o"))
                for target in ("ilora_lab.cli.run_sequence",
                               "ilora_lab.artifacts.save_checkpoint")]


class TestRunDirectory:
    """`run` builds the run directory in a hidden sibling and renames it
    into place: --out holds a complete run or does not exist."""

    def test_non_empty_out_refused_exit_2(self, tmp_path, capsys,
                                          monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained into a non-empty --out")

        monkeypatch.setattr("ilora_lab.cli.run_sequence", no_training)
        path = write_config(tmp_path)
        out = tmp_path / "o"
        (out / "sub").mkdir(parents=True)
        (out / "keep.txt").write_text("keep")
        (out / "sub" / "task1_working.bin").write_bytes(b"old run")
        before = tree_bytes(out)
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, "error: output path ")
        assert tree_bytes(out) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                              "o"]

    # the run is built in the hidden sibling, made before training
    def test_out_absent_while_training(self, tmp_path, monkeypatch):
        from ilora_lab.strategies import run_sequence
        out = tmp_path / "o"
        sibling = tmp_path / f".o.{os.getpid()}.partial"
        seen = []

        def checked(*args, **kwargs):
            seen.append((out.exists(), sibling.is_dir()))
            return run_sequence(*args, **kwargs)

        monkeypatch.setattr("ilora_lab.cli.run_sequence", checked)
        path = write_config(tmp_path)
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert seen == [(False, True)]
        assert (out / "metrics.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                              "o"]
        assert not any(".partial" in p.name for p in tmp_path.rglob("*"))

    # a failure while training, and one after some files are written
    @pytest.mark.parametrize("target, out", FAILING_RUNS)
    def test_training_error_leaves_nothing_exit_4(self, tmp_path, capsys,
                                                  monkeypatch, target, out):
        def diverge(*args, **kwargs):
            raise ArithmeticError("non-finite gradient, update rejected")

        monkeypatch.setattr(target, diverge)
        path = write_config(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / out)]) == 4
        assert_one_line_error(capsys, "error: numeric failure: ")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    # the disk filling up while the run is written
    def test_write_error_leaves_nothing_exit_2(self, tmp_path, capsys,
                                               monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr("ilora_lab.artifacts.save_checkpoint", disk_full)
        path = write_config(tmp_path)
        out = tmp_path / "w" / "v" / "o"
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"error: [Errno {errno.ENOSPC}]")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    # Ctrl-C while training: `main` lets the interrupt through, and the
    # run directory is undone on its way out
    def test_interrupt_leaves_nothing(self, tmp_path, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("ilora_lab.cli.run_sequence", interrupt)
        path = write_config(tmp_path)
        out = tmp_path / "w" / "v" / "o"
        with pytest.raises(KeyboardInterrupt):
            main(["run", str(path), "--out", str(out)])
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @staticmethod
    def forbid_training(monkeypatch):
        def no_pretraining(*args, **kwargs):
            raise AssertionError("trained before the output name was made")

        monkeypatch.setattr("ilora_lab.artifacts.pretrain_backbone",
                            no_pretraining)

    # a name too long itself, with and without its parent there: refused
    # before training, and a parent made for it is removed again
    @pytest.mark.parametrize("parent", [True, False])
    def test_name_too_long_exit_2(self, tmp_path, capsys, monkeypatch,
                                  parent):
        self.forbid_training(monkeypatch)
        path = write_config(tmp_path)
        if parent:
            (tmp_path / "w").mkdir()
        out = tmp_path / "w" / ("x" * 300)
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"error: [Errno {errno.ENAMETOOLONG}]")
        left = sorted(p.name for p in tmp_path.iterdir())
        assert left == (["config.json", "w"] if parent else ["config.json"])
        if parent:
            assert list((tmp_path / "w").iterdir()) == []

    # a valid name whose hidden `.{name}.{pid}.partial` sibling is too
    # long, under missing parents
    @pytest.mark.parametrize("parents", ["", "w", "w/v"])
    def test_sibling_name_too_long_exit_2(self, tmp_path, capsys,
                                          monkeypatch, parents):
        self.forbid_training(monkeypatch)
        path = write_config(tmp_path)
        out = tmp_path / parents / ("x" * 250)
        assert main(["run", str(path), "--out", str(out)]) == 2
        assert_one_line_error(capsys, f"error: [Errno {errno.ENAMETOOLONG}]")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    # a link to nothing, and a link to itself
    @pytest.mark.parametrize("target", ["gone", "link"])
    def test_broken_symlink_out_refused_exit_2(self, tmp_path, capsys,
                                               monkeypatch, target):
        self.forbid_training(monkeypatch)
        path = write_config(tmp_path)
        link = tmp_path / "link"
        link.symlink_to(tmp_path / target)
        assert main(["run", str(path), "--out", str(link)]) == 2
        assert_one_line_error(capsys, "error: output path ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                              "link"]
        assert os.readlink(link) == str(tmp_path / target)

    @pytest.mark.parametrize("cwd, arg", [(".", "o"), ("o", ".")])
    def test_empty_out_is_filled(self, tmp_path, monkeypatch, cwd, arg):
        path = write_config(tmp_path)
        out = tmp_path / "o"
        out.mkdir()
        monkeypatch.chdir(tmp_path / cwd)
        assert main(["run", str(path), "--out", arg]) == 0
        assert (out / "config_echo.json").exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json",
                                                              "o"]

    def test_empty_out_is_replaced_by_a_new_directory(self, tmp_path,
                                                       monkeypatch):
        # the finished run is renamed over the empty --out: the path gets a
        # new inode and the complete run, while a shell sitting in the old
        # directory sees nothing there until it re-enters the path
        path = write_config(tmp_path)
        inodes = {}
        for name in ("o", "ref"):
            out = tmp_path / name
            out.mkdir()
            inodes[name] = out.stat().st_ino
            monkeypatch.chdir(out)
            assert main(["run", str(path), "--out", "."]) == 0
            assert out.stat().st_ino != inodes[name]
            assert os.listdir(".") == []
            assert "metrics.json" in os.listdir(out)
        # complete: the same bytes as a second run of the same config
        assert tree_bytes(tmp_path / "o") == tree_bytes(tmp_path / "ref")

    def test_mode_matches_mkdir(self, tmp_path):
        path = write_config(tmp_path)
        old = os.umask(0o027)
        try:
            (tmp_path / "ref").mkdir()
            assert main(["run", str(path), "--out",
                         str(tmp_path / "o")]) == 0
        finally:
            os.umask(old)
        mode = stat.S_IMODE((tmp_path / "o").stat().st_mode)
        assert mode == stat.S_IMODE((tmp_path / "ref").stat().st_mode)
        assert mode == 0o750


@pytest.fixture(scope="module")
def seq_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("seqrun")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def ilora_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ilorarun")
    cfg = write_config(tmp, {"strategy": {"kind": "ILORA"}})
    out = tmp / "run"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    return out


def test_wide_run_and_sweep_keep_the_buffer_size(tmp_path, monkeypatch):
    # 256 hidden units and 32-row batches give the forward and backward
    # passes long rows and a long K; no product sets numpy's buffer size,
    # so the caller's stays in force throughout
    cfg = write_config(tmp_path, {
        "stream": {"tasks": 2},
        "arch": {"hidden": 256, "pretrain_epochs": 1, "pretrain_batch": 32},
        "training": {"epochs": 1, "batch_size": 32}})
    setbufsize = np.setbufsize
    sizes = []
    monkeypatch.setattr(np, "setbufsize",
                        lambda size: sizes.append(size) or setbufsize(size))
    old = setbufsize(4096)
    try:
        out = tmp_path / "run"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert np.getbufsize() == 4096
        assert main(["sweep-lambda", str(out), "--transition", "1"]) == 0
        assert np.getbufsize() == 4096
        assert sizes == []
    finally:
        setbufsize(old)


class TestSweepCommand:
    def test_sweep_csv(self, seq_run):
        assert main(["sweep-lambda", str(seq_run), "--transition", "1"]) == 0
        rows = (seq_run / "sweep_t1.csv").read_text().strip().split("\n")
        assert rows[0] == "lambda,Ap,An,Aall"
        assert len(rows) == 22
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0

    def test_sweep_endpoints_match_checkpoint_accuracy(self, seq_run):
        from ilora_lab.artifacts import SavedRun, read_echo
        from ilora_lab.cli import rebuild_environment, validate_config
        from ilora_lab import predict_accuracy
        assert main(["sweep-lambda", str(seq_run), "--transition", "2"]) == 0
        cfg = validate_config(read_echo(seq_run))
        run = SavedRun(seq_run, cfg)
        stream, net = rebuild_environment(cfg)
        rows = (seq_run / "sweep_t2.csv").read_text().strip().split("\n")[1:]
        an0 = float(rows[0].split(",")[2])
        an1 = float(rows[-1].split(",")[2])
        new_eval = stream.pairs[2][1]
        assert an0 == predict_accuracy(net, run.params(2, "working"),
                                       new_eval)
        assert an1 == predict_accuracy(net, run.params(3, "working"),
                                       new_eval)

    def test_missing_checkpoint_exit_3(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        (run / "task2_working.bin").unlink()
        assert main(["sweep-lambda", str(run), "--transition", "1"]) == 3
        assert_one_line_error(capsys)
        assert not (run / "sweep_t1.csv").exists()

    def test_missing_run_dir_exit_3(self, tmp_path):
        assert main(["sweep-lambda", str(tmp_path / "nope"),
                     "--transition", "1"]) == 3

    @pytest.mark.parametrize("command", [["sweep-lambda", "--transition",
                                          "1"], ["probe", "wd"]])
    def test_run_dir_in_a_symlink_loop_exit_2(self, tmp_path, capsys,
                                              command):
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        verb, *args = command
        assert main([verb, str(loop), *args]) == 2
        assert_one_line_error(capsys, f"error: [Errno {errno.ELOOP}]")

    @pytest.mark.parametrize("name", ["config_echo.json", "backbone.bin",
                                      "task2_working.bin"])
    def test_directory_in_place_of_a_file_exit_3(self, seq_run, tmp_path,
                                                 capsys, name):
        run = copy_run(seq_run, tmp_path)
        (run / name).unlink()
        (run / name).mkdir()
        assert main(["sweep-lambda", str(run), "--transition", "1"]) == 3
        assert_one_line_error(capsys)
        assert not (run / "sweep_t1.csv").exists()

    @pytest.mark.parametrize("t", ["0", "-1", "3"])  # T = 3: valid are 1, 2
    def test_transition_out_of_range_exit_2(self, seq_run, capsys,
                                            monkeypatch, t):
        nothing_read(monkeypatch)
        assert main(["sweep-lambda", str(seq_run), f"--transition={t}"]) == 2
        assert_one_line_error(capsys, "error: transition ")
        assert not (seq_run / f"sweep_t{t}.csv").exists()

    def test_too_few_points_exit_2(self, seq_run, capsys, monkeypatch):
        nothing_read(monkeypatch)
        assert main(["sweep-lambda", str(seq_run), "--transition", "1",
                     "--points", "1"]) == 2
        assert_one_line_error(capsys)


class TestProbeCommand:
    def test_wd_csv(self, seq_run):
        assert main(["probe", str(seq_run), "wd"]) == 0
        rows = (seq_run / "wd.csv").read_text().strip().split("\n")
        assert rows[0] == "transition,WD_w,WD_l"
        assert len(rows) == 3  # transitions 1..2 of a 3-task run
        for row in rows[1:]:
            _, ww, wl = row.split(",")
            assert float(ww) > 0.0
            assert float(wl) == float(ww)  # single-memory fallback

    def test_wd_dual_memory_differs(self, ilora_run):
        assert main(["probe", str(ilora_run), "wd"]) == 0
        rows = (ilora_run / "wd.csv").read_text().strip().split("\n")[1:]
        assert any(row.split(",")[1] != row.split(",")[2] for row in rows)

    def test_cka_csv(self, seq_run):
        assert main(["probe", str(seq_run), "cka"]) == 0
        rows = (seq_run / "cka.csv").read_text().strip().split("\n")
        assert rows[0] == "transition,cka"
        for row in rows[1:]:
            v = float(row.split(",")[1])
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_cka_embeds_each_checkpoint_once(self, seq_run, tmp_path,
                                             monkeypatch):
        from ilora_lab import cli
        from ilora_lab.artifacts import SavedRun
        run = copy_run(seq_run, tmp_path)
        embedded = []
        real = cli.embed

        def spy(net, theta, X):
            embedded.append(theta.tobytes())
            return real(net, theta, X)

        monkeypatch.setattr(cli, "embed", spy)
        assert main(["probe", str(run), "cka"]) == 0
        T = SMALL_CONFIG["stream"]["tasks"]
        # the bytes of embedding each pair's checkpoints on their own
        saved = SavedRun(run, validate_config(SMALL_CONFIG))
        X = saved.evals()[0].X
        assert embedded == [saved.params(t, "working").tobytes()
                            for t in range(1, T + 1)]
        rows = [(t, linear_cka(embed(saved.net, saved.params(t, "working"), X),
                               embed(saved.net, saved.params(t + 1, "working"),
                                     X)))
                for t in range(1, T)]
        write_csv(tmp_path / "want.csv", "transition,cka", rows)
        assert (run / "cka.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_landscape_csv(self, ilora_run):
        assert main(["probe", str(ilora_run), "landscape",
                     "--transition", "1", "--grid-points", "5"]) == 0
        rows = (ilora_run / "landscape.csv").read_text().strip().split("\n")
        assert rows[0] == "a,b,value"
        assert len(rows) == 1 + 25
        values = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
                  for r in rows[1:]}
        assert values[("0", "0")] == 0.0
        assert all(v >= 0.0 for v in values.values())

    def test_landscape_needs_dual_memory_exit_3(self, seq_run):
        assert main(["probe", str(seq_run), "landscape"]) == 3

    @pytest.mark.parametrize("flags", [
        ["--transition=0"], ["--transition=-1"], ["--transition=3"],
        ["--grid-points", "0"], ["--grid-points", "1"],
        ["--grid-extent", "nan"], ["--grid-extent", "inf"],
        ["--grid-extent", "0"], ["--grid-extent=-1.5"],
    ])
    def test_landscape_bad_arguments_exit_2(self, ilora_run, capsys,
                                            monkeypatch, flags):
        nothing_read(monkeypatch)
        (ilora_run / "landscape.csv").unlink(missing_ok=True)
        assert main(["probe", str(ilora_run), "landscape", *flags]) == 2
        assert_one_line_error(capsys)
        assert not (ilora_run / "landscape.csv").exists()

    @pytest.mark.parametrize("kind, flags", [
        ("wd", ["--transition", "1"]),
        ("wd", ["--transition", "99", "--grid-points", "0",
                "--grid-extent", "-5"]),
        ("wd", ["--grid-extent", "1.5"]),
        ("cka", ["--grid-points", "11"]),
        ("cka", ["--transition=2"]),
    ])
    def test_landscape_options_refused_by_other_probes_exit_2(
            self, seq_run, capsys, monkeypatch, kind, flags):
        nothing_read(monkeypatch)
        (seq_run / f"{kind}.csv").unlink(missing_ok=True)
        assert main(["probe", str(seq_run), kind, *flags]) == 2
        assert_one_line_error(capsys, f"error: probe {kind} takes no --")
        assert not (seq_run / f"{kind}.csv").exists()

    def test_landscape_defaults(self, ilora_run, tmp_path):
        run = copy_run(ilora_run, tmp_path)
        assert main(["probe", str(run), "landscape"]) == 0
        got = (run / "landscape.csv").read_bytes()
        assert got.count(b"\n") == 1 + 11 * 11
        assert main(["probe", str(run), "landscape", "--transition", "1",
                     "--grid-extent", "1.5", "--grid-points", "11"]) == 0
        assert (run / "landscape.csv").read_bytes() == got

    def test_wd_walks_no_stream(self, seq_run, monkeypatch):
        calls = spy_make_stream(monkeypatch)
        assert main(["probe", str(seq_run), "wd"]) == 0
        assert calls == []

    def test_probes_match_a_full_stream_walk(self, ilora_run, tmp_path):
        """Probes over evals.bin write the bytes that probes fed the eval
        sets of a full make_stream walk write."""
        commands = (["sweep-lambda", "--transition", "2", "--points", "5"],
                    ["probe", "cka"],
                    ["probe", "landscape", "--grid-points", "3"])
        files = ("sweep_t2.csv", "cka.csv", "landscape.csv")
        saved = copy_run(ilora_run, tmp_path / "saved")
        walked = copy_run(ilora_run, tmp_path / "walked")
        (walked / "evals.bin").unlink()
        for argv in commands:
            assert main([argv[0], str(saved), *argv[1:]]) == 0

        def full_walk(run):
            return make_stream(run.cfg["seed"], run.cfg["stream"]["tasks"],
                               task_spec(run.cfg)).evals

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(SavedRun, "evals", full_walk)
            for argv in commands:
                assert main([argv[0], str(walked), *argv[1:]]) == 0
        for name in files:
            assert (saved / name).read_bytes() == (walked / name).read_bytes()

    def test_unknown_probe_rejected(self, seq_run):
        with pytest.raises(SystemExit):
            main(["probe", str(seq_run), "entropy"])


PROBE_OUTPUTS = ("sweep_t*.csv", "wd.csv", "cka.csv", "landscape.csv")


def copy_run(run, tmp_path):
    """A private copy of a finished run without the probes' CSVs."""
    dst = tmp_path / "run"
    shutil.copytree(run, dst, ignore=shutil.ignore_patterns(*PROBE_OUTPUTS))
    return dst


def assert_one_line_error(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err


def nothing_read(monkeypatch):
    """Fail the test if the command reads a checkpoint or walks the
    stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("read before the arguments were checked")

    monkeypatch.setattr("ilora_lab.artifacts.load_checkpoint", refuse)
    monkeypatch.setattr("ilora_lab.artifacts.make_stream", refuse)


def spy_make_stream(monkeypatch):
    """Record the length T of every stream walk, wherever make_stream is
    bound."""
    calls = []

    def spy(seed, T, spec=None):
        calls.append(T)
        return make_stream(seed, T, spec)

    for where in ("ilora_lab", "ilora_lab.bench", "ilora_lab.artifacts"):
        monkeypatch.setattr(f"{where}.make_stream", spy)
    return calls


class TestSavedBackbone:
    def test_probes_do_not_pretrain(self, seq_run, monkeypatch):
        def no_pretrain(*args, **kwargs):
            raise AssertionError("probe pretrained the backbone again")

        monkeypatch.setattr("ilora_lab.artifacts.pretrain_backbone",
                            no_pretrain)
        assert main(["probe", str(seq_run), "wd"]) == 0
        assert main(["probe", str(seq_run), "cka"]) == 0
        assert main(["sweep-lambda", str(seq_run), "--transition", "1"]) == 0

    def test_missing_backbone_exit_3(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        (run / "backbone.bin").unlink()
        for argv in (["probe", str(run), "cka"],
                     ["sweep-lambda", str(run), "--transition", "1"]):
            assert main(argv) == 3
            assert_one_line_error(capsys)

    def test_backbone_shape_mismatch_exit_2(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        vec, _ = load_checkpoint(run / "backbone.bin")
        save_checkpoint(run / "backbone.bin", vec[:-1], 0, 0, "backbone")
        for argv in (["probe", str(run), "wd"],
                     ["sweep-lambda", str(run), "--transition", "1"]):
            assert main(argv) == 2
            assert_one_line_error(capsys)
        assert not (run / "wd.csv").exists()


class TestSavedEvals:
    """`run` saves the eval sets it evaluated on as evals.bin; `sweep-lambda`
    and the probes read them there and walk no stream."""

    READERS = ((["sweep-lambda", "--transition", "1"], "sweep_t1.csv"),
               (["probe", "cka"], "cka.csv"),
               (["probe", "landscape", "--grid-points", "3"],
                "landscape.csv"))

    def test_payload_is_the_streams_eval_sets(self, ilora_run):
        cfg = validate_config(read_echo(ilora_run))
        T = cfg["stream"]["tasks"]
        want = make_stream(cfg["seed"], T, task_spec(cfg)).evals
        X, meta = load_checkpoint(ilora_run / "evals.bin")
        assert meta == {"task_index": T, "seed": 0, "role": "evals"}
        assert X.tobytes() == np.stack([ev.X for ev in want]).tobytes()
        got = SavedRun(ilora_run, cfg).evals()
        assert len(got) == T
        for ev, ref in zip(got, want, strict=True):
            assert ev.X.tobytes() == ref.X.tobytes()
            assert ev.y.dtype == np.int64
            assert ev.y.tobytes() == ref.y.tobytes()

    def test_missing_evals_exit_3(self, ilora_run, tmp_path, capsys):
        run = copy_run(ilora_run, tmp_path)
        (run / "evals.bin").unlink()
        for argv, csv in self.READERS:
            assert main([argv[0], str(run), *argv[1:]]) == 3
            assert_one_line_error(capsys)
            assert not (run / csv).exists()

    @pytest.mark.parametrize("seed, role, cut", [(5, "evals", 0),
                                                 (0, "working", 0),
                                                 (0, "evals", 1)],
                             ids=["seed", "role", "count"])
    def test_foreign_header_exit_2(self, ilora_run, tmp_path, capsys, seed,
                                   role, cut):
        run = copy_run(ilora_run, tmp_path)
        X, meta = load_checkpoint(run / "evals.bin")
        save_checkpoint(run / "evals.bin", X[cut:], meta["task_index"], seed,
                        role)
        for argv, csv in self.READERS:
            assert main([argv[0], str(run), *argv[1:]]) == 2
            assert_one_line_error(capsys, f"error: {run / 'evals.bin'} holds")
            assert not (run / csv).exists()

    def test_readers_walk_no_stream(self, ilora_run, monkeypatch):
        # probe wd: TestProbeCommand::test_wd_walks_no_stream
        calls = spy_make_stream(monkeypatch)
        for argv, _ in self.READERS:
            assert main([argv[0], str(ilora_run), *argv[1:]]) == 0
        assert calls == []


class TestNumericFailure:
    @pytest.fixture
    def nan_run(self, ilora_run, tmp_path):
        run = copy_run(ilora_run, tmp_path)
        theta, _ = load_checkpoint(run / "task2_working.bin")
        save_checkpoint(run / "task2_working.bin", np.full_like(theta, np.nan),
                        2, 0, "working")
        return run

    @pytest.mark.parametrize("argv, csv", [
        (["sweep-lambda", "--transition", "1"], "sweep_t1.csv"),
        (["probe", "cka"], "cka.csv"),
        (["probe", "landscape", "--transition", "1", "--grid-points", "3"],
         "landscape.csv"),
    ])
    def test_nan_checkpoint_exit_4(self, nan_run, capsys, argv, csv):
        assert main([argv[0], str(nan_run), *argv[1:]]) == 4
        assert_one_line_error(capsys, "error: numeric failure: ")
        assert not (nan_run / csv).exists()

    def test_nan_direction_landscape_exit_4(self, ilora_run, tmp_path,
                                            capsys):
        # NaN in the slow learner: d2 of transition 1, the landscape's
        # second direction, while theta0 and d1 stay finite
        run = copy_run(ilora_run, tmp_path)
        theta, _ = load_checkpoint(run / "task2_longterm.bin")
        save_checkpoint(run / "task2_longterm.bin",
                        np.full_like(theta, np.nan), 2, 0, "longterm")
        assert main(["probe", str(run), "landscape", "--transition", "1"]) == 4
        assert_one_line_error(capsys, "error: numeric failure: ")
        assert not (run / "landscape.csv").exists()

    def test_nan_checkpoint_wd_exit_4(self, nan_run, capsys):
        assert main(["probe", str(nan_run), "wd"]) == 4
        assert_one_line_error(capsys, "error: numeric failure: ")
        assert not (nan_run / "wd.csv").exists()

    def test_overflowing_stream_prints_one_line(self, tmp_path, capsys):
        # the loss takes log(0) on the way to the non-finite check; numpy's
        # RuntimeWarning for it must not come before the one-line error
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"stream": {"tasks": 2, "n_train": 32, "mean_shift": 1e300}}))
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 4
        assert [str(w.message) for w in caught] == []
        assert_one_line_error(capsys, "error: numeric failure: ")
        assert np.geterr() == before


class TestOutOfMemory:
    """Memory running out (a config too large for the machine) exits 2
    with one line and leaves no output. The patched functions raise
    MemoryError themselves; nothing large is allocated."""

    MESSAGE = "Unable to allocate 11.9 GiB for an array"

    def exhaust(self, *args, **kwargs):
        raise MemoryError(self.MESSAGE)

    # while training, and once some files are written
    @pytest.mark.parametrize("target, out", FAILING_RUNS)
    def test_run_leaves_no_out_exit_2(self, tmp_path, capsys, monkeypatch,
                                      target, out):
        monkeypatch.setattr(target, self.exhaust)
        path = write_config(tmp_path)
        assert main(["run", str(path), "--out", str(tmp_path / out)]) == 2
        assert_one_line_error(capsys, f"error: out of memory: {self.MESSAGE}")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_probe_writes_no_csv_exit_2(self, seq_run, tmp_path, capsys,
                                        monkeypatch):
        def exhaust(*args, **kwargs):
            raise MemoryError  # no message: the line is just the prefix

        monkeypatch.setattr("ilora_lab.cli.weight_distance", exhaust)
        run = copy_run(seq_run, tmp_path)
        assert main(["probe", str(run), "wd"]) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not (run / "wd.csv").exists()


class TestCorruptCheckpoint:
    ROLE_BYTE = 30  # after magic, version, count, task index and seed
    VERSION_BYTE = 6  # the u32 after the magic

    def test_unknown_version_exit_2(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        path = run / "task1_working.bin"
        raw = bytearray(path.read_bytes())
        assert raw[self.VERSION_BYTE] == 1
        raw[self.VERSION_BYTE] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError,
                           match="^unsupported checkpoint version 2$"):
            load_checkpoint(path)
        for argv, csv in ((["probe", str(run), "wd"], "wd.csv"),
                          (["sweep-lambda", str(run), "--transition", "1"],
                           "sweep_t1.csv")):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                "error: unsupported checkpoint version 2\n"
            assert not (run / csv).exists()

    def test_unknown_role_exit_2(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        path = run / "task1_working.bin"
        raw = bytearray(path.read_bytes())
        assert raw[self.ROLE_BYTE] == 0  # "working"
        raw[self.ROLE_BYTE] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="role"):
            load_checkpoint(path)
        for argv, csv in ((["probe", str(run), "wd"], "wd.csv"),
                          (["sweep-lambda", str(run), "--transition", "1"],
                           "sweep_t1.csv")):
            assert main(argv) == 2
            assert_one_line_error(capsys)
            assert not (run / csv).exists()


class TestCheckpointHeaders:
    """Each checkpoint's header must match what the config echo implies:
    seed, task index, role and parameter count."""

    def assert_refused(self, run, capsys, what):
        for argv, csv in ((["probe", str(run), "wd"], "wd.csv"),
                          (["sweep-lambda", str(run), "--transition", "1"],
                           "sweep_t1.csv")):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert what in err and "task1_working.bin" in err, err
            assert not (run / csv).exists()

    def test_foreign_seed_exit_2(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        theta, _ = load_checkpoint(run / "task1_working.bin")
        save_checkpoint(run / "task1_working.bin", theta, 1, 5, "working")
        self.assert_refused(run, capsys, "(5, 1, 'working', ")

    def test_other_task_exit_2(self, seq_run, tmp_path, capsys):
        run = copy_run(seq_run, tmp_path)
        shutil.copy(run / "task2_working.bin", run / "task1_working.bin")
        self.assert_refused(run, capsys, "(0, 2, 'working', ")

    def test_longterm_over_working_exit_2(self, ilora_run, tmp_path, capsys):
        run = copy_run(ilora_run, tmp_path)
        shutil.copy(run / "task1_longterm.bin", run / "task1_working.bin")
        self.assert_refused(run, capsys, "(0, 1, 'longterm', ")

    def test_truncated_consistent_payload_exit_2(self, seq_run, tmp_path,
                                                 capsys):
        run = copy_run(seq_run, tmp_path)
        theta, _ = load_checkpoint(run / "task1_working.bin")
        save_checkpoint(run / "task1_working.bin", theta[:-1], 1, 0,
                        "working")
        self.assert_refused(run, capsys,
                            f"(0, 1, 'working', {theta.size - 1})")

    # a payload cut mid-value, or with a part-value after it, is refused
    # before numpy reads it, with the file named
    @pytest.mark.parametrize("edit", [lambda raw: raw[:-3],
                                      lambda raw: raw + bytes(3)],
                             ids=["cut", "extra"])
    def test_payload_not_whole_values_exit_2(self, seq_run, tmp_path,
                                             capsys, edit):
        run = copy_run(seq_run, tmp_path)
        path = run / "task1_working.bin"
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ValueError, match="payload size mismatch"):
            load_checkpoint(path)
        self.assert_refused(run, capsys, "payload size mismatch")

    def test_stray_longterm_files_ignored_on_seq_run(self, seq_run,
                                                     ilora_run, tmp_path,
                                                     capsys):
        """Dual-memory comes from the echoed kind, not from which files
        exist: longterm checkpoints beside a SEQ echo are not read."""
        run = copy_run(seq_run, tmp_path)
        for t in (1, 2, 3):
            shutil.copy(ilora_run / f"task{t}_longterm.bin", run)
        assert main(["probe", str(run), "landscape"]) == 3
        assert_one_line_error(capsys, "error: missing artifact: ")
        assert not (run / "landscape.csv").exists()
        assert main(["probe", str(run), "wd"]) == 0
        for row in (run / "wd.csv").read_text().strip().split("\n")[1:]:
            _, ww, wl = row.split(",")
            assert wl == ww
