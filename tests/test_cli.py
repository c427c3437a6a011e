"""End-to-end command-line workflow: exit codes, files, reports."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import urbanet
from urbanet import evaluate, grid, trainer, unet
from urbanet.cli import main
from urbanet.grid import WorldGrid, load_grid, pad_grid, save_grid
from urbanet.synth import INPUT_CHANNELS, SynthConfig, gen_world
from urbanet.unet import UNetSpec, init_params, load_params, save_params


@pytest.fixture(scope="module")
def world_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "world.wgrd"
    rc = main(["synth", "--out", str(path), "--seed", "5", "--height", "24",
               "--width", "24", "--noise-std", "0.005"])
    assert rc == 0
    return path


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

        for module, name in ((grid, "load_grid"), (trainer, "build_streams"),
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
        assert "optimizer=adam" in out

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
                     "--batch-size", "16", "--learning-rate", "5e-4", "--optimizer", "sgd",
                     "--momentum", "0.5", "--shuffle", "false", "--samples-per-epoch", "none",
                     "--print-config"]) == 0
        assert capsys.readouterr().out == (
            "batch_size=16\nlearning_rate=0.0005\noptimizer=sgd\nmomentum=0.5\n"
            "max_epochs=7\npatience=10\nmin_delta=1e-07\nseed=0\nshuffle=false\n"
            "samples_per_epoch=none\n")

    @pytest.mark.parametrize("flag, value, message", [
        ("--batch-size", "x", "error: bad value for batch_size: 'x'"),
        ("--seed", "1.5", "error: bad value for seed: '1.5'"),
        ("--optimizer", "rmsprop", "error: optimizer must be one of ('adam', 'sgd')"),
        ("--shuffle", "maybe", "error: shuffle must be true or false, got 'maybe'"),
    ])
    def test_bad_flag_value_exits_1(self, capsys, flag, value, message):
        assert main(["train", flag, value, "--print-config"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and message in err

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
        assert params.spec.heads == (("urban", 1),)
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
        assert " tiles/s); coverage on land: " in line
        assert f"min {int(cover.min())}, median {np.median(cover):g}; " in line
        assert line.endswith("; 0 land pixels never covered")

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
        spec = UNetSpec(len(INPUT_CHANNELS), 4, 1, heads=(("water", 1),))
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

    def test_eval_never_mutates_inputs(self, world_file, run_dir, tmp_path):
        before = hashlib.sha256(world_file.read_bytes()).hexdigest()
        main(["eval", "--grid", str(world_file), "--window", "16",
              "--pad", "8", "--test-regions", "R03",
              "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
              "--report", str(tmp_path / "r.csv")])
        assert hashlib.sha256(world_file.read_bytes()).hexdigest() == before

    def test_report_merges_and_prepends_baseline(self, world_file, run_dir, tmp_path):
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
        assert [h for h, _ in params.spec.heads] == ["urban", "pop"]
        history = (tmp_path / "history_multitask_sz16.csv").read_text().splitlines()
        phases = [ln.split(",")[1] for ln in history[1:]]
        assert phases == ["phase1", "phase2"]

    @pytest.mark.parametrize("phase2, message, line", [
        ("max_epochs=1\nwarmup=5\n", "unknown training option 'warmup'", 2),
        ("# tuned\nlearning_rate=inf\n", "learning_rate must be finite", 2),
        ("max_epochs=1\nlearning_rate=0.001\n", "fine-tuning rate must be smaller", None),
    ], ids=["unknown-key", "non-finite-rate", "schedule-violation"])
    def test_bad_phase_config_fails_before_work(self, world_file, run_dir, tmp_path,
                                                monkeypatch, capsys, phase2, message, line):
        def no_work(*args, **kwargs):
            raise AssertionError("ran with a bad phase config")

        for module, name in ((grid, "load_grid"), (trainer, "build_streams"),
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
    @pytest.mark.parametrize("command", ["eval", "multitask"])
    def test_too_deep_checkpoint_fails_before_work(self, world_file, tmp_path, monkeypatch,
                                                   capsys, command):
        # a depth-5 network pads every 16-pixel tile to 32 pixels
        def no_work(*args, **kwargs):
            raise AssertionError("read the grid for a too-deep checkpoint")

        monkeypatch.setattr(grid, "load_grid", no_work)
        path = tmp_path / "deep.unpk"
        save_params(init_params(UNetSpec(len(INPUT_CHANNELS), 2, 5), 0), path)
        out = tmp_path / "out"
        argv = [command, "--grid", str(world_file), "--window", "16", "--pad", "8",
                "--test-regions", "R03", "--checkpoint", str(path)]
        argv += (["--report", str(out / "r.csv")] if command == "eval"
                 else ["--out-dir", str(out)])
        assert main(argv) == 1
        assert (f"error: {path}: depth 5 needs tiles of at least 2**5 = 32 pixels, "
                "but --window is 16") in capsys.readouterr().err
        assert not out.exists()


class TestGradcheck:
    def test_passes_on_tiny_model(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--tile-size", "6"]) == 0
        assert "gradients ok" in capsys.readouterr().err

    def test_failure_exits_3(self, capsys):
        # the command owns the verdict: grad_check reports, it judges
        assert main(["gradcheck", "--seeds", "1", "--tolerance", "1e-30"]) == 3
        err = capsys.readouterr().err
        assert "gradient check failed" in err and "gradients ok" not in err

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
