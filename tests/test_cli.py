"""End-to-end command-line workflow: exit codes, files, reports."""

import hashlib
import itertools
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import urbanet
from urbanet import evaluate, files, grid, synth, trainer, unet
from urbanet.cli import main
from urbanet.grid import WorldGrid, load_grid, pad_grid, save_grid
from urbanet.synth import INPUT_CHANNELS, SynthConfig, gen_world
from urbanet.tiler import TileDataset
from urbanet.unet import UNetSpec, init_params, load_params, save_params


@pytest.fixture(scope="module")
def world_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "world.wgrd"
    rc = main(["synth", "--out", str(path), "--seed", "5", "--height", "24",
               "--width", "24", "--noise-std", "0.005"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def world_256(tmp_path_factory):
    """A 256x256 world of 40 regions: a 6.0 MB file."""
    path = tmp_path_factory.mktemp("cli-256") / "world.wgrd"
    save_grid(gen_world(SynthConfig(seed=0, height=256, width=256, n_regions=40)), path)
    return path


def traced_peak(run) -> int:
    """``tracemalloc``'s peak over a second call of ``run``: the first call
    makes the imports and caches that any later one reuses."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, world_file):
    out = tmp_path_factory.mktemp("cli-run")
    rc = main(["train", "--grid", str(world_file), "--window", "16",
               "--pad", "8", "--test-regions", "R03", "--out-dir", str(out),
               "--depth", "1", "--base-features", "4", "--max-epochs", "2",
               "--seed", "0"])
    assert rc == 0
    return out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["fit"]) == 1

    def test_unknown_flag(self):
        assert main(["synth", "--out", "x.wgrd", "--wat", "1"]) == 1

    def test_window_choices_enforced(self, world_file):
        rc = main(["eval", "--grid", str(world_file), "--window", "8",
                   "--checkpoint", "x", "--report", "r.csv"])
        assert rc == 1

    @pytest.mark.parametrize("argv, named", [
        (["train", "--grid", "w", "--max-epoch", "3"], "--max-epoch 3"),
        (["train", "--grid", "w", "--test", "R02"], "--test R02"),
        (["--thread=1", "synth", "--out", "x.wgrd"], "--thread=1"),
    ])
    def test_abbreviated_flag_exits_1(self, capsys, argv, named):
        # argparse would read a unique prefix as the whole flag (--max-epochs,
        # --test-regions, --threads)
        assert main(argv) == 1
        assert f"unrecognized arguments: {named}" in capsys.readouterr().err

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_bad_threads(self):
        assert main(["--threads", "0", "synth", "--out", "x.wgrd"]) == 1

    @pytest.mark.parametrize("command", [
        ["train"],
        ["multitask", "--checkpoint", "x.unpk"],
        ["eval", "--checkpoint", "x.unpk", "--report", "r.csv"],
    ])
    def test_negative_pad(self, world_file, capsys, command):
        rc = main(command + ["--grid", str(world_file), "--pad", "-1"])
        assert rc == 1
        assert "error: --pad must be >= 0" in capsys.readouterr().err


class TestDefaultTestRegions:
    # synth worlds name their regions R01, R02, ..., none of the defaults
    @pytest.mark.parametrize("command", [
        ["split"],
        ["train", "--window", "16", "--pad", "8", "--depth", "1",
         "--base-features", "4", "--max-epochs", "1"],
        ["multitask", "--window", "16", "--pad", "8", "--checkpoint", "CKPT"],
        ["eval", "--window", "16", "--pad", "8", "--split", "all",
         "--checkpoint", "CKPT", "--report", "OUT/r.csv"],
    ], ids=lambda command: command[0])
    def test_omitted_flag_fails_before_work(self, world_file, run_dir, tmp_path,
                                            monkeypatch, capsys, command):
        def no_work(*args, **kwargs):
            raise AssertionError("ran without a test split")

        for module, name in ((trainer, "train"), (trainer, "train_multitask"),
                             (evaluate, "predict_world")):
            monkeypatch.setattr(module, name, no_work)
        ckpt = str(run_dir / "unet_urban_sz16.unpk")
        argv = [a.replace("CKPT", ckpt).replace("OUT", str(tmp_path)) for a in command]
        if command[0] in ("train", "multitask"):
            argv += ["--out-dir", str(tmp_path)]
        assert main(argv + ["--grid", str(world_file)]) == 1
        regions = ", ".join(sorted(load_grid(world_file).region_table.values()))
        assert regions.startswith("R01, R02")
        err = capsys.readouterr().err
        assert "none of the default test regions USA,CHN,GBR,MWI" in err
        assert f"(grid regions: {regions})" in err
        assert list(tmp_path.iterdir()) == []


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.wgrd", tmp_path / "b.wgrd"
        for path in (a, b):
            assert main(["synth", "--out", str(path), "--seed", "3",
                         "--height", "16", "--width", "16"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_is_usage_error(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path / "x.wgrd"), "--height", "2"])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [
        ("--noise-std", "nan"), ("--noise-std", "inf"), ("--regions", "70000"),
        ("--seed", "-1")])
    def test_unbuildable_config_exits_1_before_work(self, tmp_path, capsys, monkeypatch,
                                                    flag, value):
        def no_work(*args, **kwargs):
            raise AssertionError("generated a world from a bad config")

        monkeypatch.setattr(synth, "gen_world", no_work)
        out = tmp_path / "x.wgrd"
        assert main(["synth", "--out", str(out), flag, value]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_logs_go_to_stderr(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "w.wgrd"), "--height", "16",
              "--width", "16"])
        out, err = capsys.readouterr()
        assert out == ""
        assert "land px" in err


class TestSplit:
    def test_counts_line(self, world_file, capsys):
        assert main(["split", "--grid", str(world_file),
                     "--test-regions", "R03"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("land=")
        parts = dict(kv.split("=") for kv in out.split())
        assert int(parts["train"]) + int(parts["test"]) == int(parts["land"])

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["split", "--grid", str(tmp_path / "nope.wgrd")]) == 2

    def test_keeps_only_the_mask_and_regions(self, world_256, capsys):
        # every plane is read and checked, one at a time, and dropped;
        # loading the whole grid peaked at 1.05 times the file
        peak = traced_peak(lambda: main(["split", "--grid", str(world_256),
                                         "--test-regions", "R02"]))
        assert capsys.readouterr().out.startswith("land=")
        assert peak < 0.25 * world_256.stat().st_size, peak / world_256.stat().st_size

    def test_unknown_region_warns_and_empties_test(self, world_file, capsys):
        # unknown codes warn (module contract); the command still reports
        with pytest.warns(UserWarning, match="ATLANTIS"):
            assert main(["split", "--grid", str(world_file),
                         "--test-regions", "ATLANTIS"]) == 0
        parts = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert parts["test"] == "0"


class TestTrain:
    @pytest.mark.parametrize("flags, message", [
        (["--base-features", "0"], "base_features must be in 1..65535"),
        (["--depth", "5"], "2**5 = 32 pixels, but --window is 16"),
        (["--depth", "9"], "2**9 = 512 pixels, but --window is 16"),
    ], ids=["no-features", "depth-5", "depth-9"])
    def test_bad_network_fails_before_work(self, world_file, tmp_path, monkeypatch,
                                           capsys, flags, message):
        # --depth 9 at window 16 would build a 553.7 M-parameter network on
        # inputs padded to 512 pixels: the refusal must come before any work
        def no_work(*args, **kwargs):
            raise AssertionError("ran with a bad network")

        for module, name in ((grid, "open_grid"), (trainer, "build_streams"),
                             (trainer, "train")):
            monkeypatch.setattr(module, name, no_work)
        assert main(["train", "--grid", str(world_file), "--window", "16", "--pad", "8",
                     "--test-regions", "R03", "--out-dir", str(tmp_path), *flags]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and message in err and "streams:" not in err
        assert list(tmp_path.iterdir()) == []

    def test_print_config_defaults(self, capsys):
        assert main(["train", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "batch_size=64" in out
        assert "samples_per_epoch=none" in out

    def test_grid_required_without_print_config(self, capsys):
        # --print-config reads no grid; anything else still needs --grid
        assert main(["train", "--max-epochs", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: the following arguments are required: --grid" in err

    def test_flags_parse_like_file_values(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("max_epochs=7\nsamples_per_epoch=50\n")
        assert main(["train", "--config", str(cfg),
                     "--batch-size", "16", "--learning-rate", "5e-4", "--patience", "3",
                     "--min-delta", "0.25", "--seed", "2", "--samples-per-epoch", "none",
                     "--print-config"]) == 0
        assert capsys.readouterr().out == (
            "batch_size=16\nlearning_rate=0.0005\nmax_epochs=7\npatience=3\n"
            "min_delta=0.25\nseed=2\nsamples_per_epoch=none\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "x", "error: bad value for batch_size: 'x'"),
        ("--seed", "1.5", "error: bad value for seed: '1.5'"),
        ("--seed", "-1", "error: seed must be >= 0, got -1"),
    ])
    def test_bad_flag_value_exits_1(self, capsys, flag, value, message):
        assert main(["train", flag, value, "--print-config"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize("line", ["optimizer=adam", "momentum=0.9", "shuffle=true"])
    def test_removed_option_in_config_exits_1(self, tmp_path, capsys, line):
        # training is always Adam and always shuffled: a file that still sets
        # either is refused, not read as if it had been obeyed
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"batch_size=64\n{line}\n")
        assert main(["train", "--config", str(cfg), "--print-config"]) == 1
        out, err = capsys.readouterr()
        key = line.split("=")[0]
        assert out == ""
        assert f"error: {cfg}, line 2: unknown training option {key!r}" in err

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("learning_rate=0.5\nbatch_size=16\n")
        assert main(["train", "--config", str(cfg),
                     "--learning-rate", "0.25", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "learning_rate=0.25" in out
        assert "batch_size=16" in out

    @pytest.mark.parametrize("line", ["learning_rate = nan", "learning_rate=inf",
                                      "min_delta=nan"])
    def test_non_finite_config_exits_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(line + "\n")
        assert main(["train", "--config", str(cfg),
                     "--print-config"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_artifacts_written(self, run_dir):
        params = load_params(run_dir / "unet_urban_sz16.unpk")
        assert params.spec.heads == ("urban",)
        history = (run_dir / "history_urban_sz16.csv").read_text().splitlines()
        assert history[0] == "epoch,phase,train_loss,val_loss,seconds"
        assert len(history) == 3  # two epochs
        assert (run_dir / "config_urban_sz16.cfg").exists()

    def test_divergence_exit_code(self, world_file, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--grid", str(world_file), "--window", "16",
                       "--pad", "8", "--test-regions", "R03",
                       "--out-dir", str(tmp_path), "--depth", "1",
                       "--base-features", "4", "--max-epochs", "2",
                       "--learning-rate", "1e30"])
        assert rc == 3
        assert re.search(r"^error: epoch [12]: ", capsys.readouterr().err, re.M)


class TestEvalReport:
    def test_eval_appends_both_strata(self, world_file, run_dir, tmp_path, monkeypatch):
        report = tmp_path / "rows.csv"
        rc = main(["eval", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--report", str(report),
                   "--pred-out", str(tmp_path / "pred.wgrd")])
        assert rc == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "model,window,scope,stratum,n_cells,mean_abs,max_abs,std,r2"
        assert len(lines) == 3
        assert any("U-Net (sz16)" in ln and "All grid cells" in ln for ln in lines)
        assert any("observed built-up land fraction > 0" in ln for ln in lines)

        pred = load_grid(tmp_path / "pred.wgrd")
        assert "pred_urban" in pred.channels
        assert "coverage" in pred.channels

        # appending the same rows again collides on the report key, and
        # that is found before the world is predicted
        def no_prediction(*args, **kwargs):
            raise AssertionError("predict_world ran on a colliding rerun")

        monkeypatch.setattr(evaluate, "predict_world", no_prediction)
        before = report.read_bytes()
        assert main(["eval", "--grid", str(world_file), "--window", "16",
                     "--pad", "8", "--test-regions", "R03",
                     "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                     "--report", str(report)]) == 2
        assert report.read_bytes() == before

    def test_failed_report_write_keeps_the_rows(self, world_file, run_dir, tmp_path,
                                                failing_writes):
        # eval loads the report, appends its rows and saves it: a save that
        # fails midway leaves the old rows and no temporary file
        report = tmp_path / "rows.csv"
        args = ["eval", "--grid", str(world_file), "--window", "16", "--pad", "8",
                "--test-regions", "R03", "--report", str(report),
                "--checkpoint", str(run_dir / "unet_urban_sz16.unpk")]
        assert main(args + ["--split", "test"]) == 0
        before = report.read_bytes()
        failing_writes.arm()
        assert main(args + ["--split", "all"]) == 2
        assert failing_writes.opened
        assert report.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv"]

    def test_unwritable_prediction_adds_no_rows(self, world_file, run_dir, tmp_path):
        # the prediction file is written before the report rows are added,
        # so a failed write leaves nothing that would refuse a rerun
        report = tmp_path / "r.csv"
        args = ["eval", "--grid", str(world_file), "--window", "16", "--pad", "8",
                "--test-regions", "R03", "--report", str(report),
                "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"), "--pred-out"]
        assert main(args + [str(tmp_path / "nodir" / "p.wgrd")]) == 2
        assert not report.exists()
        assert main(args + [str(tmp_path / "p.wgrd")]) == 0
        assert len(report.read_text().splitlines()) == 3

    def test_eval_logs_coverage_summary(self, world_file, run_dir, tmp_path, capsys):
        rc = main(["eval", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03", "--split", "all",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--report", str(tmp_path / "r.csv"),
                   "--pred-out", str(tmp_path / "pred.wgrd")])
        assert rc == 0
        world = load_grid(world_file)
        land = world.mask == 1
        cover = load_grid(tmp_path / "pred.wgrd").channels["coverage"][land]
        line = next(ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("predicted "))
        assert line.startswith(f"predicted {int(land.sum())} tiles in ")
        assert " tiles/s); coverage on all-split land: " in line
        assert f"min {int(cover.min())}, median {np.median(cover):g}; " in line
        assert line.endswith("; 0 all-split land pixels never covered")

    def test_eval_coverage_counts_only_the_evaluated_split(self, world_file, run_dir,
                                                          tmp_path, capsys):
        # a test-split run predicts no train-region tile, so counting over
        # all land would report every train-region pixel as never covered
        rc = main(["eval", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03", "--split", "test",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--report", str(tmp_path / "r.csv"),
                   "--pred-out", str(tmp_path / "pred.wgrd")])
        assert rc == 0
        world = load_grid(world_file)
        test_land = (world.mask == 1) & (world.regions == next(
            code for code, iso in world.region_table.items() if iso == "R03"))
        coverage = load_grid(tmp_path / "pred.wgrd").channels["coverage"]
        assert (coverage[(world.mask == 1) & ~test_land] == 0).any()
        cover = coverage[test_land]
        line = next(ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("predicted "))
        assert line.startswith(f"predicted {int(test_land.sum())} tiles in ")
        assert " tiles/s); coverage on test-split land: " in line
        assert f"min {int(cover.min())}, median {np.median(cover):g}; " in line
        assert line.endswith("; 0 test-split land pixels never covered")

    def test_eval_without_padding(self, run_dir, tmp_path):
        # land sits 9 pixels from every edge, beyond the reach of a 16-pixel
        # window, so --pad 0 and --pad 8 predict the same tiles
        world = tmp_path / "margin.wgrd"
        save_grid(pad_grid(gen_world(SynthConfig(seed=5, height=46, width=46)), 9),
                  world)
        for split in ("test", "all"):
            rows = []
            for pad in ("0", "8"):
                report = tmp_path / f"{split}-{pad}.csv"
                assert main(["eval", "--grid", str(world), "--window", "16",
                             "--pad", pad, "--test-regions", "R03",
                             "--split", split,
                             "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                             "--report", str(report)]) == 0
                rows.append(report.read_text().splitlines())
            assert len(rows[0]) == 3
            assert rows[0] == rows[1]

    def test_eval_population_checkpoint(self, world_file, tmp_path):
        # a single-task model of delta_population has only the "pop" head
        assert main(["train", "--grid", str(world_file), "--window", "16",
                     "--pad", "8", "--test-regions", "R03",
                     "--out-dir", str(tmp_path), "--depth", "1",
                     "--base-features", "4", "--max-epochs", "1",
                     "--target", "delta_population"]) == 0
        report = tmp_path / "pop.csv"
        assert main(["eval", "--grid", str(world_file), "--window", "16",
                     "--pad", "8", "--test-regions", "R03", "--split", "all",
                     "--checkpoint", str(tmp_path / "unet_pop_sz16.unpk"),
                     "--report", str(report),
                     "--pred-out", str(tmp_path / "pred.wgrd")]) == 0
        rows = report.read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.startswith("U-Net (sz16) on delta_population,16,all,")
                   for row in rows)
        assert "pred_pop" in load_grid(tmp_path / "pred.wgrd").channels

    def test_eval_unknown_head_exits_2(self, world_file, tmp_path, capsys):
        spec = UNetSpec(len(INPUT_CHANNELS), 4, 1, heads=("water",))
        save_params(init_params(spec, 0), tmp_path / "water.unpk")
        rc = main(["eval", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(tmp_path / "water.unpk"),
                   "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: " in err and "'water'" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("corrupt", ["depth-0", "even-kernel", "non-ascii-head"])
    def test_eval_corrupt_checkpoint_exits_2(self, world_file, tmp_path, capsys, reseal,
                                             corrupt):
        path = tmp_path / "bad.unpk"
        save_params(init_params(UNetSpec(len(INPUT_CHANNELS), 4, 1), 0), path)

        def edit(header, arrays):
            spec = header["meta"]["spec"]
            if corrupt == "depth-0":
                spec["depth"] = 0
            elif corrupt == "even-kernel":
                spec["kernel_size"] = 2
            else:
                spec["heads"][0][0] = "\u00e9rban"

        reseal(path, edit)
        rc = main(["eval", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(path), "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert f"error: {path}: " in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_eval_multi_plane_head_fails_before_work(self, world_file, tmp_path, capsys,
                                                     reseal, monkeypatch):
        # a head is one plane; a checkpoint that claims two is refused on
        # load, before the grid is read
        def no_work(*args, **kwargs):
            raise AssertionError("read the grid for a two-plane head")

        monkeypatch.setattr(grid, "open_grid", no_work)
        path = tmp_path / "wide.unpk"
        save_params(init_params(UNetSpec(len(INPUT_CHANNELS), 4, 1), 0), path)

        def widen(header, arrays):
            header["meta"]["spec"]["heads"][0][1] = 2

        reseal(path, widen)
        rc = main(["eval", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(path), "--report", str(tmp_path / "r.csv")])
        assert rc == 2
        assert (f"error: {path}: head 'urban' has 2 output planes"
                in capsys.readouterr().err)
        assert not (tmp_path / "r.csv").exists()

    def test_world_replaced_mid_run_is_read_as_it_was(self, world_file, run_dir, tmp_path,
                                                      monkeypatch):
        # eval reads its planes again after the first pass; a world that an
        # atomic write replaces meanwhile is read from the file it opened
        world = tmp_path / "world.wgrd"
        shutil.copy(world_file, world)

        def run(tag):
            assert main(["eval", "--grid", str(world), "--window", "16", "--pad", "8",
                         "--test-regions", "R03", "--split", "all",
                         "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                         "--report", str(tmp_path / f"{tag}.csv"),
                         "--pred-out", str(tmp_path / f"{tag}.wgrd")]) == 0
            return [(tmp_path / f"{tag}.{ext}").read_bytes() for ext in ("csv", "wgrd")]

        honest = evaluate.predict_world

        def replace_then_predict(*args, **kwargs):
            save_grid(gen_world(SynthConfig(seed=6, height=24, width=24)), world)
            return honest(*args, **kwargs)

        before = run("before")
        monkeypatch.setattr(evaluate, "predict_world", replace_then_predict)
        assert run("replaced") == before
        assert world.read_bytes() != world_file.read_bytes()

    def test_eval_never_mutates_inputs(self, world_file, run_dir, tmp_path):
        before = hashlib.sha256(world_file.read_bytes()).hexdigest()
        main(["eval", "--grid", str(world_file), "--window", "16",
              "--pad", "8", "--test-regions", "R03",
              "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
              "--report", str(tmp_path / "r.csv")])
        assert hashlib.sha256(world_file.read_bytes()).hexdigest() == before

    def test_report_merges_and_prepends_baseline(self, world_file, run_dir, tmp_path,
                                                 capsys):
        rows = tmp_path / "rows.csv"
        main(["eval", "--grid", str(world_file), "--window", "16",
              "--pad", "8", "--test-regions", "R03",
              "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
              "--report", str(rows),
              "--pred-out", str(tmp_path / "pred.wgrd")])
        final = tmp_path / "final.csv"
        svg = tmp_path / "scatter.svg"
        rc = main(["report", str(rows), "--out", str(final),
                   "--scatter", str(svg), "--pred", str(tmp_path / "pred.wgrd"),
                   "--grid", str(world_file)])
        assert rc == 0
        text = final.read_text()
        assert "SELECT (published baseline)" in text
        assert ">50%" in text
        assert text.index("SELECT") < text.index("U-Net (sz16)")
        assert svg.exists() and "<svg" in svg.read_text()
        assert (tmp_path / "scatter.svg.csv").exists()
        assert f"wrote {svg} and {svg}.csv" in capsys.readouterr().err

    def test_report_scatter_csv_flag_is_gone(self, tmp_path, capsys):
        # the pairs always go beside the SVG, at <svg>.csv
        assert main(["report", "rows.csv", "--out", str(tmp_path / "f.csv"),
                     "--scatter-csv", "x"]) == 1
        assert "unrecognized arguments: --scatter-csv x" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, says", [
        (["--pred", "nothere.wgrd"], "--pred and --grid are read only with --scatter"),
        (["--grid", "alsonot.wgrd"], "--pred and --grid are read only with --scatter"),
        (["--pred", "nothere.wgrd", "--grid", "alsonot.wgrd"],
         "--pred and --grid are read only with --scatter"),
        (["--scatter", "s.svg", "--pred", "nothere.wgrd"], "--scatter needs --pred and --grid"),
    ], ids=["pred", "grid", "both", "scatter-alone"])
    def test_report_scatter_inputs_need_scatter(self, tmp_path, capsys, flags, says):
        # the flags that only the scatter reads are refused without it, and
        # it without them, before any report is read or written
        assert main(["report", "rows.csv", "--out", str(tmp_path / "f.csv")] + flags) == 1
        assert f"error: {says}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_report_duplicate_rows_exit_2(self, world_file, run_dir, tmp_path):
        rows = tmp_path / "rows.csv"
        main(["eval", "--grid", str(world_file), "--window", "16",
              "--pad", "8", "--test-regions", "R03",
              "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
              "--report", str(rows)])
        rc = main(["report", str(rows), str(rows), "--out", str(tmp_path / "f.csv")])
        assert rc == 2


def planes_file(path, world, **planes):
    """A WGRD of ``world``'s mask and regions holding only ``planes``."""
    save_grid(WorldGrid(mask=world.mask, regions=world.regions, channels=planes,
                        region_table=world.region_table), path)
    return path


class TestBadInputsExit2:
    """Files that are not what a command needs exit 2 with a message naming
    the file, before anything is written or predicted."""

    HEADER = ",".join(evaluate.REPORT_COLUMNS).encode() + b"\n"
    ROW = b"U-Net (sz16),16,test,All grid cells,12,0.5,1.0,0.25,0.5\n"

    @pytest.mark.parametrize("body, line, says", [
        (b"model,window\n\x89PNG\r\n\x1a\n\xff\x00", 2, "not a text report"),
        (HEADER + ROW + b"U-Net (sz16),16,test,other,abc,0.5,1.0,0.25,0.5\n", 3, "'abc'"),
        (HEADER + b"x" * 200_000 + b",16,test,other,12,0.5,1.0,0.25,0.5\n", 2,
         "field larger than field limit"),
    ], ids=["binary", "non-integer-count", "oversized-field"])
    def test_report_input_that_is_not_a_report(self, tmp_path, capsys, body, line, says):
        path = tmp_path / "rows.csv"
        path.write_bytes(body)
        out = tmp_path / "final.csv"
        assert main(["report", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}, line {line}: " in err and says in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["no-coverage", "no-pred-pop", "other-shape"])
    def test_scatter_planes_checked_first(self, world_file, tmp_path, capsys, case):
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(evaluate.REPORT_COLUMNS) + "\n")
        world = load_grid(world_file)
        ones = world.mask.astype(np.float64)  # water planes must hold 0
        target = "delta_urban"
        if case == "no-coverage":
            pred = planes_file(tmp_path / "pred.wgrd", world, pred_urban=ones)
            want = f"error: {tmp_path / 'pred.wgrd'}: no 'coverage' channel"
        elif case == "no-pred-pop":
            pred = planes_file(tmp_path / "pred.wgrd", world, pred_urban=ones,
                               coverage=ones)
            target = "delta_population"
            want = f"error: {tmp_path / 'pred.wgrd'}: no 'pred_pop' channel"
        else:
            small = gen_world(SynthConfig(seed=1, height=20, width=20))
            small_ones = small.mask.astype(np.float64)
            pred = planes_file(tmp_path / "pred.wgrd", small, pred_urban=small_ones,
                               coverage=small_ones)
            want = f"error: {tmp_path / 'pred.wgrd'}: planes of shape (20, 20)"
        out = tmp_path / "final.csv"
        rc = main(["report", str(rows), "--out", str(out), "--scatter",
                   str(tmp_path / "s.svg"), "--pred", str(pred),
                   "--grid", str(world_file), "--target", target])
        assert rc == 2
        assert want in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pred.wgrd", "rows.csv"]

    def test_missing_plane_refused_from_the_header(self, world_file, run_dir, tmp_path,
                                                   capsys):
        # the channel list is checked before any array is read, so a later
        # corrupt array does not hide the missing plane
        world = load_grid(world_file)
        inputs = planes_file(tmp_path / "inputs.wgrd", world,
                             **{n: world.channels[n] for n in INPUT_CHANNELS})
        raw = bytearray(inputs.read_bytes())
        raw[-64] ^= 0x01  # inside the last array
        inputs.write_bytes(bytes(raw))
        report = tmp_path / "r.csv"
        rc = main(["eval", "--grid", str(inputs), "--window", "16", "--pad", "8",
                   "--test-regions", "R03",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--report", str(report)])
        assert rc == 2
        assert f"error: {inputs}: no 'delta_urban' channel" in capsys.readouterr().err
        assert not report.exists()

    def test_eval_grid_without_target_fails_before_predicting(
            self, world_file, run_dir, tmp_path, monkeypatch, capsys):
        def no_prediction(*args, **kwargs):
            raise AssertionError("predict_world ran on a grid without the target")

        monkeypatch.setattr(evaluate, "predict_world", no_prediction)
        world = load_grid(world_file)
        grid = planes_file(tmp_path / "inputs.wgrd", world,
                           **{n: world.channels[n] for n in INPUT_CHANNELS})
        report = tmp_path / "r.csv"
        rc = main(["eval", "--grid", str(grid), "--window", "16", "--pad", "8",
                   "--test-regions", "R03",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--report", str(report)])
        assert rc == 2
        assert f"error: {grid}: no 'delta_urban' channel" in capsys.readouterr().err
        assert not report.exists()


class TestLoaderMemory:
    """The CLI moves each plane from the file into the tiler's pixel table
    on its own: the whole file, the padded grid and the normalized grid
    never exist at once.  Each command peaked at 3.54 times the file when
    it read the whole grid, padded it and normalized it."""

    class Built(Exception):
        pass

    def test_eval_tiles_peak_near_one_copy(self, world_256, tmp_path, monkeypatch):
        def tiles_only(params, grid, window, *, pad, input_names, split, split_filter):
            TileDataset(grid, window, pad=pad, input_names=input_names, target_names=(),
                        split=split, split_filter=split_filter)
            raise self.Built

        monkeypatch.setattr(evaluate, "predict_world", tiles_only)
        save_params(init_params(UNetSpec(len(INPUT_CHANNELS), 4, 1), 0), tmp_path / "m.unpk")

        def run():
            with pytest.raises(self.Built):
                main(["eval", "--grid", str(world_256), "--test-regions", "R02",
                      "--window", "28", "--checkpoint", str(tmp_path / "m.unpk"),
                      "--report", str(tmp_path / "r.csv")])

        peak = traced_peak(run)
        assert peak < 1.2 * world_256.stat().st_size, peak / world_256.stat().st_size

    def test_train_streams_peak_near_one_copy(self, world_256, tmp_path, monkeypatch):
        def stop(*args, **kwargs):
            raise self.Built

        monkeypatch.setattr(trainer, "train", stop)

        def run():
            with pytest.raises(self.Built):
                main(["train", "--grid", str(world_256), "--test-regions", "R02",
                      "--window", "28", "--max-epochs", "1", "--out-dir", str(tmp_path)])

        peak = traced_peak(run)
        assert peak < 1.2 * world_256.stat().st_size, peak / world_256.stat().st_size


class TestOnePath:
    """``train``, ``multitask`` and ``eval`` go from the file to the tiles
    through ``pad_grid``, ``assign_split`` and ``normalize_channels``, the
    path of README's library sketch, and every command that opens a world
    reads each of its sections a fixed number of times."""

    class Built(Exception):
        pass

    def commands(self, world_file, run_dir, tmp_path, monkeypatch):
        """Each command's arguments; ``train`` and ``multitask`` stop once
        their streams are built.  ``report`` draws the scatter of a
        prediction file ``pred.wgrd`` against the world."""
        def stop(*args, **kwargs):
            raise self.Built

        monkeypatch.setattr(trainer, "train", stop)
        monkeypatch.setattr(trainer, "train_multitask", stop)
        world = load_grid(world_file)
        ones = world.mask.astype(np.float64)  # water planes must hold 0
        pred = planes_file(tmp_path / "pred.wgrd", world, pred_urban=ones, coverage=ones)
        rows = tmp_path / "rows.csv"
        rows.write_text(",".join(evaluate.REPORT_COLUMNS) + "\n")
        data = ["--grid", str(world_file), "--window", "16", "--pad", "8",
                "--test-regions", "R03"]
        checkpoint = ["--checkpoint", str(run_dir / "unet_urban_sz16.unpk")]
        return {"train": ["train", *data, "--depth", "1", "--base-features", "4",
                          "--out-dir", str(tmp_path)],
                "multitask": ["multitask", *data, *checkpoint, "--out-dir", str(tmp_path)],
                "eval": ["eval", *data, *checkpoint, "--report", str(tmp_path / "r.csv")],
                "split": ["split", "--grid", str(world_file), "--test-regions", "R03"],
                "report": ["report", str(rows), "--out", str(tmp_path / "final.csv"),
                           "--scatter", str(tmp_path / "s.svg"), "--pred", str(pred),
                           "--grid", str(world_file)]}

    def run(self, argv):
        if argv[0] in ("train", "multitask"):
            with pytest.raises(self.Built):
                main(argv)
        else:
            assert main(argv) == 0

    @pytest.mark.parametrize("command", ["train", "multitask", "eval"])
    def test_pads_and_normalizes_once(self, world_file, run_dir, tmp_path, monkeypatch,
                                      command):
        calls = {"pad_grid": 0, "normalize_channels": 0}
        for name in calls:
            def counted(*args, _real=getattr(grid, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(grid, name, counted)
        self.run(self.commands(world_file, run_dir, tmp_path, monkeypatch)[command])
        assert calls == {"pad_grid": 1, "normalize_channels": 1}

    @pytest.mark.parametrize("command", ["train", "eval", "split", "report"])
    def test_reads_each_section_as_often_as_before(self, world_file, run_dir, tmp_path,
                                                   monkeypatch, command):
        # each input is read to fit its statistics and again into the pixel
        # table; eval reads urban_2000 and delta_urban again for its strata
        # and delta_urban for the metrics; every plane is read and checked.
        # split, and report for both of its files, read each section once.
        argv = self.commands(world_file, run_dir, tmp_path, monkeypatch)[command]
        pred = tmp_path / "pred.wgrd"
        names = {str(world_file): list(load_grid(world_file).channels),
                 str(pred): list(load_grid(pred).channels)}
        reads = {}
        real = files.Container.read

        def counted(src, name):
            if src.path in names:
                key = (names[src.path][int(name[8:])] if name.startswith("channel.")
                       else name)
                key = key if src.path == str(world_file) else f"pred:{key}"
                reads[key] = reads.get(key, 0) + 1
            return real(src, name)

        monkeypatch.setattr(files.Container, "read", counted)
        self.run(argv)
        every = {"mask": 1, "regions": 1, **{name: 1 for name in names[str(world_file)]}}
        want = {
            "train": {**every, **{name: 2 for name in INPUT_CHANNELS},
                      synth.TARGET_URBAN: 2},
            "eval": {**every, **{name: 2 for name in INPUT_CHANNELS},
                     "urban_2000": 3, synth.TARGET_URBAN: 3},
            "split": every,
            "report": {**every, "pred:mask": 1, "pred:regions": 1,
                       "pred:pred_urban": 1, "pred:coverage": 1},
        }[command]
        assert reads == want


class TestMultitask:
    def test_two_phase_run(self, world_file, run_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("max_epochs=1\n")
        cfg2 = tmp_path / "fast2.cfg"
        cfg2.write_text("max_epochs=1\nlearning_rate=0.0001\n")
        rc = main(["multitask", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--phase1-config", str(cfg), "--phase2-config", str(cfg2),
                   "--out-dir", str(tmp_path), "--seed", "1"])
        assert rc == 0
        params = load_params(tmp_path / "multitask_sz16.unpk")
        assert list(params.spec.heads) == ["urban", "pop"]
        history = (tmp_path / "history_multitask_sz16.csv").read_text().splitlines()
        phases = [ln.split(",")[1] for ln in history[1:]]
        assert phases == ["phase1", "phase2"]

    @pytest.mark.parametrize("phase2, message, line", [
        ("max_epochs=1\nwarmup=5\n", "unknown training option 'warmup'", 2),
        ("# tuned\nlearning_rate=inf\n", "learning_rate must be finite", 2),
        ("max_epochs=1\nseed=-1\n", "seed must be >= 0", 2),
        ("max_epochs=1\nlearning_rate=0.001\n", "fine-tuning rate must be smaller", None),
    ], ids=["unknown-key", "non-finite-rate", "negative-seed", "schedule-violation"])
    def test_bad_phase_config_fails_before_work(self, world_file, run_dir, tmp_path,
                                                monkeypatch, capsys, phase2, message, line):
        def no_work(*args, **kwargs):
            raise AssertionError("ran with a bad phase config")

        for module, name in ((grid, "open_grid"), (trainer, "build_streams"),
                             (trainer, "train_multitask")):
            monkeypatch.setattr(module, name, no_work)
        good, bad = tmp_path / "phase1.cfg", tmp_path / "phase2.cfg"
        good.write_text("max_epochs=1\n")
        bad.write_text(phase2)
        out = tmp_path / "out"
        assert main(["multitask", "--grid", str(world_file), "--window", "16",
                     "--pad", "8", "--test-regions", "R03",
                     "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                     "--phase1-config", str(good), "--phase2-config", str(bad),
                     "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err and str(good) not in err
        if line is not None:
            assert f"error: {bad}, line {line}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, seed", [([], 7), (["--seed", "3"], 3)],
                             ids=["phase-file", "flag"])
    def test_phase1_seed_draws_head_and_regions(self, world_file, run_dir, tmp_path,
                                                monkeypatch, flags, seed):
        # phase 1's seed, as its file or --seed sets it, initialises the new
        # head and picks the validation regions
        class Stop(Exception):
            pass

        seen = {}
        honest_build, honest_streams = trainer.build_multitask, trainer.build_streams

        def build_spy(pre, **kwargs):
            seen["head"] = kwargs["seed"]
            return honest_build(pre, **kwargs)

        def streams_spy(*args, **kwargs):
            seen["streams"] = kwargs["seed"]
            return honest_streams(*args, **kwargs)

        def stop(*args, **kwargs):
            raise Stop

        monkeypatch.setattr(trainer, "build_multitask", build_spy)
        monkeypatch.setattr(trainer, "build_streams", streams_spy)
        monkeypatch.setattr(trainer, "train_multitask", stop)
        cfg1, cfg2 = tmp_path / "phase1.cfg", tmp_path / "phase2.cfg"
        cfg1.write_text("max_epochs=1\nseed=7\n")
        cfg2.write_text("max_epochs=1\nlearning_rate=0.0001\n")
        with pytest.raises(Stop):
            main(["multitask", "--grid", str(world_file), "--window", "16",
                  "--pad", "8", "--test-regions", "R03",
                  "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                  "--phase1-config", str(cfg1), "--phase2-config", str(cfg2),
                  "--out-dir", str(tmp_path / "out"), *flags])
        assert seen == {"head": seed, "streams": seed}

    def test_checkpoint_with_pop_head_fails_before_work(self, world_file, tmp_path,
                                                        monkeypatch, capsys):
        # multitask appends a "pop" head; a model that has one is refused
        # before the grid is read
        def no_work(*args, **kwargs):
            raise AssertionError("read the grid for a model that has a pop head")

        monkeypatch.setattr(grid, "open_grid", no_work)
        path = tmp_path / "multi.unpk"
        spec = UNetSpec(len(INPUT_CHANNELS), 4, 1, heads=("urban", "pop"))
        save_params(init_params(spec, 0), path)
        out = tmp_path / "out"
        assert main(["multitask", "--grid", str(world_file), "--window", "16",
                     "--pad", "8", "--test-regions", "R03", "--checkpoint", str(path),
                     "--out-dir", str(out)]) == 1
        assert "error: model already has a head named 'pop'" in capsys.readouterr().err
        assert not out.exists()

    def test_schedule_violation_is_usage_error(self, world_file, run_dir, tmp_path):
        cfg = tmp_path / "same.cfg"
        cfg.write_text("max_epochs=1\n")
        rc = main(["multitask", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--phase1-config", str(cfg), "--phase2-config", str(cfg),
                   "--out-dir", str(tmp_path)])
        assert rc == 1


class TestCheckpointDepth:
    @staticmethod
    def refuse(world_file, tmp_path, monkeypatch, command, spec):
        """Run ``command`` on a checkpoint of ``spec`` with the grid reader
        stubbed out; return the exit code and the checkpoint's path."""
        def no_work(*args, **kwargs):
            raise AssertionError("read the grid for a checkpoint it cannot run")

        monkeypatch.setattr(grid, "open_grid", no_work)
        path = tmp_path / "model.unpk"
        save_params(init_params(spec, 0), path)
        out = tmp_path / "out"
        argv = [command, "--grid", str(world_file), "--window", "16", "--pad", "8",
                "--test-regions", "R03", "--checkpoint", str(path)]
        argv += (["--report", str(out / "r.csv")] if command == "eval"
                 else ["--out-dir", str(out)])
        rc = main(argv)
        assert not out.exists()
        return rc, path

    @pytest.mark.parametrize("command", ["eval", "multitask"])
    def test_too_deep_checkpoint_fails_before_work(self, world_file, tmp_path, monkeypatch,
                                                   capsys, command):
        # a depth-5 network pads every 16-pixel tile to 32 pixels
        spec = UNetSpec(len(INPUT_CHANNELS), 2, 5)
        rc, path = self.refuse(world_file, tmp_path, monkeypatch, command, spec)
        assert rc == 1
        assert (f"error: {path}: depth 5 needs tiles of at least 2**5 = 32 pixels, "
                "but --window is 16") in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "multitask"])
    def test_checkpoint_for_other_inputs_fails_before_work(self, world_file, tmp_path,
                                                           monkeypatch, capsys, command):
        # the pipeline feeds the nine standard input channels
        rc, path = self.refuse(world_file, tmp_path, monkeypatch, command, UNetSpec(3, 4, 1))
        assert rc == 2
        assert (f"error: {path}: model expects 3 input channels, the grid gives 9"
                in capsys.readouterr().err)


class TestGradcheck:
    def test_passes_on_tiny_model(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--tile-size", "6"]) == 0
        assert "gradients ok" in capsys.readouterr().err

    def test_failure_exits_3(self, capsys):
        # the command owns the verdict: grad_check reports, it judges
        assert main(["gradcheck", "--seeds", "1", "--tolerance", "1e-30"]) == 3
        err = capsys.readouterr().err
        assert "gradient check failed" in err and "gradients ok" not in err

    def test_checks_the_desk_network_at_12_pixels(self, capsys):
        argv = ["gradcheck", "--channels", "9", "--base-features", "8", "--depth", "2",
                "--tile-size", "12", "--seeds", "1"]
        assert main(argv) == 0
        assert "(500 coords" in capsys.readouterr().err

    def test_no_proven_probe_exits_3(self, monkeypatch, capsys):
        flips = itertools.count()
        monkeypatch.setattr(unet, "_pattern", lambda cache: [np.array(next(flips))])
        assert main(["gradcheck", "--seeds", "1"]) == 3
        err = capsys.readouterr().err
        assert "straddles" in err and "gradients ok" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "0"], "--seeds"),
        (["--seeds", "-2"], "--seeds"),
        (["--tile-size", "0"], "--tile-size"),
        (["--tolerance", "-1"], "--tolerance"),
        (["--tolerance", "0"], "--tolerance"),
        (["--tolerance", "nan"], "--tolerance"),
        (["--base-features", "0"], "base_features"),
        (["--depth", "4", "--tile-size", "8"], "--tile-size is 8"),
        (["--depth", "9"], "--tile-size is 8"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ])
    def test_rejects_arguments_that_check_nothing(self, monkeypatch, capsys, flags, message):
        # refused before any gradient is checked: zero seeds used to print
        # "gradients ok", tile size 0 to crash with a traceback
        def no_check(*args, **kwargs):
            raise AssertionError("grad_check ran")

        monkeypatch.setattr(unet, "grad_check", no_check)
        assert main(["gradcheck", *flags]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "gradients ok" not in err


class TestConsoleScript:
    def test_module_invocation(self, world_file):
        # the child imports the same urbanet as this process, installed or not
        src = str(Path(urbanet.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "urbanet", "--threads", "1", "split",
             "--grid", str(world_file), "--test-regions", "R03"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("land=")
