"""End-to-end command-line workflow: exit codes, files, reports."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import urbanet
from urbanet import evaluate, trainer
from urbanet.cli import main
from urbanet.grid import load_grid, pad_grid, save_grid
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
    def test_print_config_defaults(self, capsys):
        assert main(["train", "--grid", "unused.wgrd", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "batch_size=64" in out
        assert "optimizer=adam" in out

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("learning_rate=0.5\nbatch_size=16\n")
        assert main(["train", "--grid", "unused.wgrd", "--config", str(cfg),
                     "--learning-rate", "0.25", "--print-config"]) == 0
        out = capsys.readouterr().out
        assert "learning_rate=0.25" in out
        assert "batch_size=16" in out

    def test_artifacts_written(self, run_dir):
        params = load_params(run_dir / "unet_urban_sz16.unpk")
        assert params.spec.heads == (("urban", 1),)
        history = (run_dir / "history_urban_sz16.csv").read_text().splitlines()
        assert history[0] == "epoch,phase,train_loss,val_loss,seconds"
        assert len(history) == 3  # two epochs
        assert (run_dir / "config_urban_sz16.cfg").exists()

    def test_divergence_exit_code(self, world_file, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["train", "--grid", str(world_file), "--window", "16",
                       "--pad", "8", "--test-regions", "R03",
                       "--out-dir", str(tmp_path), "--depth", "1",
                       "--base-features", "4", "--max-epochs", "2",
                       "--learning-rate", "1e30"])
        assert rc == 3


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

    def test_schedule_violation_is_usage_error(self, world_file, run_dir, tmp_path):
        cfg = tmp_path / "same.cfg"
        cfg.write_text("max_epochs=1\n")
        rc = main(["multitask", "--grid", str(world_file), "--window", "16",
                   "--pad", "8", "--test-regions", "R03",
                   "--checkpoint", str(run_dir / "unet_urban_sz16.unpk"),
                   "--phase1-config", str(cfg), "--phase2-config", str(cfg),
                   "--out-dir", str(tmp_path)])
        assert rc == 1


class TestGradcheck:
    def test_passes_on_tiny_model(self, capsys):
        assert main(["gradcheck", "--seeds", "1", "--tile-size", "6"]) == 0
        assert "gradients ok" in capsys.readouterr().err


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
