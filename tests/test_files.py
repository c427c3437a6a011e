"""Atomic writes: a writer that fails midway leaves the old file as it was
and no temporary file behind."""

from __future__ import annotations

import numpy as np
import pytest

from urbanet.evaluate import EvalReport, MetricsRow, export_scatter, save_report
from urbanet.files import atomic_write
from urbanet.grid import save_grid
from urbanet.synth import SynthConfig, gen_world
from urbanet.trainer import EpochStats, TrainConfig, TrainHistory, save_config, save_history
from urbanet.unet import UNetSpec, init_params, save_params


def report_of(n):
    report = EvalReport()
    for k in range(n):
        report.add(MetricsRow(scope=f"R{k:02d}", stratum="all", n_cells=10 + k,
                              mean_abs=0.1 * k, max_abs=1.0, std=0.5, r2=0.25,
                              model="U-Net (sz16)", window=16))
    return report


def history_of(n):
    rows = tuple(EpochStats(k + 1, "train", 1.0 / (k + 1), 2.0 / (k + 1), 0.5)
                 for k in range(n))
    return TrainHistory(rows=rows, best_epoch=n, best_val_loss=rows[-1].val_loss)


def scatter(path, n):
    values = np.linspace(0.0, 1.0, 4 * n).reshape(2 * n, 2)
    export_scatter(values, values[::-1], np.ones_like(values, bool), path)


# name -> (file name, write an old version, write a new one)
WRITERS = {
    "grid": ("w.wgrd",
             lambda p: save_grid(gen_world(SynthConfig(seed=1, height=12, width=12)), p),
             lambda p: save_grid(gen_world(SynthConfig(seed=2, height=16, width=16)), p)),
    "params": ("m.unpk",
               lambda p: save_params(init_params(UNetSpec(3, 2, 1), 0), p),
               lambda p: save_params(init_params(UNetSpec(3, 2, 1), 1), p)),
    "report": ("r.csv", lambda p: save_report(report_of(1), p),
               lambda p: save_report(report_of(3), p)),
    "config": ("t.cfg", lambda p: save_config(TrainConfig(), p),
               lambda p: save_config(TrainConfig(batch_size=8), p)),
    "history": ("h.csv", lambda p: save_history(history_of(1), p),
                lambda p: save_history(history_of(4), p)),
    "scatter": ("s.csv", lambda p: scatter(p, 2), lambda p: scatter(p, 5)),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, failing_writes, kind):
    name, write_old, write_new = WRITERS[kind]
    target = tmp_path / name
    write_old(target)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    failing_writes.arm()
    with pytest.raises(OSError):
        write_new(target)
    assert failing_writes.opened
    assert all(p.parent == tmp_path for p in failing_writes.opened)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    write_new(target)  # and the real write replaces it
    assert target.read_bytes() != before[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before)


def test_clean_exit_replaces_and_exception_keeps(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_write(target, "wb") as fh:
            fh.write(b"partial new")
            raise RuntimeError("interrupted")
    assert target.read_bytes() == b"old"
    with atomic_write(target, "wb") as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    with atomic_write(tmp_path / "fresh.txt", newline="") as fh:
        fh.write("a\r\nb\n")
    assert (tmp_path / "fresh.txt").read_bytes() == b"a\r\nb\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.txt", "out.bin"]


def test_missing_directory_leaves_nothing(tmp_path):
    with pytest.raises(OSError):
        with atomic_write(tmp_path / "no" / "such" / "file"):
            pass
    assert list(tmp_path.iterdir()) == []
