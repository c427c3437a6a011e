"""The benchmark's workloads: set-up, one measured unit, and output checks.

A unit is a whole user-level call with a fixed amount of work: one
``trainer.train`` (train-sz28), one ``trainer.train_multitask``
(multitask-sz16), or one ``urbanet eval`` run through ``cli.main``
(eval-128).  A fixed budget keeps the prediction loss comparable across
commits: it repeats exactly for a given seed and code.  ``unit_s`` is the
time budgeted per unit, from unit times on a 2-core host (train-sz28
26-37 s, multitask-sz16 13-19 s, eval-128 19-25 s); a run of
``--seconds`` does ``seconds // unit_s`` units (at least one), so the work
per run does not depend on the speed of the host or of the code.

Inputs come from the seed: it draws the observation noise on both target
planes.  The world layout, the validation regions, the initial weights
and the shuffle order are fixed parts of each workload (the default
synthetic world and a fixed starting checkpoint).  At this budget a
varying layout or initial weights moved the validation loss by up to 4x
between seeds, and a varying shuffle order by 25%; the work per unit
depends only on the land count, which the generator fixes.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from urbanet import cli, grid, synth, trainer, unet
from urbanet.evaluate import STRATUM_ALL, STRATUM_BUILTUP, load_report
from urbanet.errors import UrbanetError
from urbanet.tiler import TileDataset, WindowSpec, coverage_count

from spans import Tracer

WORLD_SEED = 0
INIT_SEED = 0
VAL_SEED = 0
SHUFFLE_SEED = 0
PAD = 20
TEST_REGIONS = ("R02", "R07")
NOISE_STD = 0.01  # the generator's default target noise
BATCH_SIZE = 64
BRUTE_FORCE_PIXELS = 4


@dataclass(frozen=True)
class Scale:
    """World sides and epoch budgets; the self-tests shrink them."""

    side: int = 96
    eval_side: int = 128
    epochs: int = 2          # train-sz28, and multitask phase 1
    phase2_epochs: int = 1


FULL = Scale()


@dataclass
class Unit:
    """What one measured unit produced."""

    wall_s: float
    tiles: int                  # training samples, or tiles predicted
    op_ms: list[float]          # step (or eval batch) intervals
    ops: int                    # steps, or eval batches
    outputs: dict = field(default_factory=dict)


def make_world(seed: int, side: int) -> grid.WorldGrid:
    """The fixed-layout world with target noise drawn from ``seed``."""
    base = synth.gen_world(synth.SynthConfig(seed=WORLD_SEED, height=side,
                                             width=side, noise_std=0.0))
    rng = np.random.default_rng(seed)
    land = base.mask.astype(np.float64)
    channels = dict(base.channels)
    for name in synth.TARGET_CHANNELS:
        channels[name] = channels[name] + rng.normal(0.0, NOISE_STD, land.shape) * land
    return grid.WorldGrid(mask=base.mask, regions=base.regions,
                          channels=channels, region_table=base.region_table)


def prepare(world: grid.WorldGrid):
    """Pad, split and normalize the way ``urbanet eval`` does."""
    padded = grid.pad_grid(world, PAD)
    split = grid.assign_split(padded, TEST_REGIONS)
    norm, _ = grid.normalize_channels(padded, fit_mask=split.train_mask,
                                      channels=synth.INPUT_CHANNELS)
    return padded, split, norm


class Stamped:
    """Tile stream that timestamps every ``batch`` call into ``marks``."""

    def __init__(self, stream, marks: list, tag: str):
        self.stream = stream
        self.marks = marks
        self.tag = tag

    def __len__(self) -> int:
        return len(self.stream)

    def batch(self, indices):
        self.marks.append((self.tag, time.perf_counter(), len(indices)))
        return self.stream.batch(indices)


def step_intervals(marks: list) -> list[float]:
    """Milliseconds between consecutive training batches; an interval in
    which a validation batch was drawn spans validation and is left out."""
    out = []
    for (tag_a, t_a, _), (tag_b, t_b, _) in zip(marks, marks[1:]):
        if tag_a == tag_b == "train":
            out.append((t_b - t_a) * 1e3)
    return out


def zero_predictor_loss(val) -> float:
    """Masked MSE of predicting 0 everywhere, weighted like evaluate_loss
    (per-sample land mean, uniform over channels, mean over samples)."""
    total = 0.0
    for start in range(0, len(val), 256):
        _, y, m = val.batch(np.arange(start, min(start + 256, len(val))))
        w = m.astype(np.float64)[..., None]
        per = (y.astype(np.float64) ** 2 * w).sum(axis=(1, 2)) / w.sum(axis=(1, 2))
        total += per.mean(axis=1).sum()
    return total / len(val)


# ---------------------------------------------------------------------------
# training workloads

@dataclass
class TrainState:
    params: unet.UNetParams
    train: object
    val: object
    config: object     # TrainConfig, or MultiTaskSchedule for multitask
    steps: int         # steps the config asks for


class _Training:
    window: int
    targets: tuple[str, ...]

    def __init__(self, scale: Scale = FULL):
        self.scale = scale

    def _streams(self, seed: int):
        world = make_world(seed, self.scale.side)
        _, split, norm = prepare(world)
        return trainer.build_streams(
            norm, WindowSpec(self.window), pad=PAD,
            input_names=synth.INPUT_CHANNELS, target_names=self.targets,
            split=split, seed=VAL_SEED,
        )[:2]

    def _call(self, state: TrainState, train, val):
        raise NotImplementedError

    def run(self, state: TrainState) -> Unit:
        marks: list = []
        t0 = time.perf_counter()
        model, history = self._call(state, Stamped(state.train, marks, "train"),
                                    Stamped(state.val, marks, "val"))
        wall = time.perf_counter() - t0
        steps = [n for tag, _, n in marks if tag == "train"]
        return Unit(wall_s=wall, tiles=sum(steps), op_ms=step_intervals(marks),
                    ops=len(steps), outputs={"model": model, "history": history})

    def check(self, state: TrainState, unit: Unit) -> tuple[float, dict[str, bool]]:
        """(best validation loss, named output checks) of one unit."""
        model, history = unit.outputs["model"], unit.outputs["history"]
        loss = history.best_val_loss
        try:
            unet.validate_params(model)
            params_ok = True
        except UrbanetError:
            params_ok = False
        # train() raises DivergenceError on the first non-finite step loss,
        # so a returned call had finite step losses; the epoch means are
        # checked here as well
        return loss, {
            "epoch_losses_finite": all(
                np.isfinite(r.train_loss) and np.isfinite(r.val_loss)
                for r in history.rows),
            "params_valid": params_ok,
            "steps_as_configured": unit.ops == state.steps,
            "val_loss_below_zero_predictor": loss < zero_predictor_loss(state.val),
        }


def _steps(config, n_samples: int) -> int:
    return config.max_epochs * -(-n_samples // config.batch_size)


class TrainSz28(_Training):
    name = "train-sz28"
    unit_s = 35.0
    window = 28
    targets = (synth.TARGET_URBAN,)

    def setup(self, seed: int, scratch) -> TrainState:
        tr, va = self._streams(seed)
        config = trainer.TrainConfig(
            batch_size=BATCH_SIZE, max_epochs=self.scale.epochs,
            samples_per_epoch=trainer.epoch_size(tr), seed=SHUFFLE_SEED,
        )
        params = unet.init_params(unet.UNetSpec.desk(), seed=INIT_SEED)
        return TrainState(params, tr, va, config,
                          _steps(config, config.samples_per_epoch))

    def _call(self, state, train, val):
        return trainer.train(state.params, train, val, state.config)


class MultitaskSz16(_Training):
    name = "multitask-sz16"
    unit_s = 20.0
    window = 16
    targets = (synth.TARGET_URBAN, synth.TARGET_POP)

    def setup(self, seed: int, scratch) -> TrainState:
        tr, va = self._streams(seed)
        phase1 = trainer.TrainConfig(
            batch_size=BATCH_SIZE, max_epochs=self.scale.epochs,
            samples_per_epoch=trainer.epoch_size(tr), seed=SHUFFLE_SEED,
        )
        phase2 = replace(phase1, max_epochs=self.scale.phase2_epochs,
                         learning_rate=1e-4)
        pre = unet.init_params(unet.UNetSpec.desk(), seed=INIT_SEED)
        params = trainer.build_multitask(pre, head="pop", seed=INIT_SEED)
        spe = phase1.samples_per_epoch
        return TrainState(params, tr, va, trainer.MultiTaskSchedule(phase1, phase2),
                          _steps(phase1, spe) + _steps(phase2, spe))

    def _call(self, state, train, val):
        return trainer.train_multitask(state.params, train, val, state.config)


# ---------------------------------------------------------------------------
# world evaluation

@dataclass
class EvalState:
    world: grid.WorldGrid
    checkpoint: str
    report: str
    pred_out: str
    argv: list[str]


class Eval128:
    name = "eval-128"
    unit_s = 25.0
    window = 28

    def __init__(self, scale: Scale = FULL):
        self.scale = scale

    def setup(self, seed: int, scratch) -> EvalState:
        world = make_world(seed, self.scale.eval_side)
        wgrd = os.path.join(scratch, "world.wgrd")
        ckpt = os.path.join(scratch, "unet_urban_sz28.unpk")
        grid.save_grid(world, wgrd)
        unet.save_params(unet.init_params(unet.UNetSpec.desk(), seed=INIT_SEED), ckpt)
        report = os.path.join(scratch, "report.csv")
        pred_out = os.path.join(scratch, "pred.wgrd")
        argv = ["eval", "--grid", wgrd, "--test-regions", ",".join(TEST_REGIONS),
                "--pad", str(PAD), "--window", str(self.window),
                "--checkpoint", ckpt, "--split", "all",
                "--report", report, "--pred-out", pred_out]
        return EvalState(world, ckpt, report, pred_out, argv)

    def run(self, state: EvalState) -> Unit:
        for path in (state.report, state.pred_out):
            if os.path.exists(path):
                os.remove(path)  # eval appends to an existing report
        clock = Tracer()
        t0 = time.perf_counter()
        with clock.installed([("urbanet.tiler", "TileDataset.batch", "batch",
                               lambda a, k, r: {"tiles": len(a[1])})]):
            code = cli.main(state.argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"urbanet eval exited with code {code}")
        starts = [s.start for s in clock.spans]
        return Unit(wall_s=wall, tiles=sum(s.attrs["tiles"] for s in clock.spans),
                    op_ms=list(np.diff(starts) * 1e3), ops=len(starts))

    def check(self, state: EvalState, unit: Unit) -> tuple[float, dict[str, bool]]:
        """(world-plane MSE over land, named output checks) of the last
        unit, read back from the files it wrote."""
        world = state.world
        pred = grid.load_grid(state.pred_out)
        land = np.asarray(world.mask) == 1
        err = pred.channels["pred_urban"][land] - world.channels[synth.TARGET_URBAN][land]
        coverage = pred.channels["coverage"]
        padded, split, norm = prepare(world)
        window = WindowSpec(self.window)
        expected = coverage_count(padded, window)[PAD:-PAD, PAD:-PAD]
        plane = pred.channels["pred_urban"]

        builtup = world.channels["urban_2000"] + world.channels[synth.TARGET_URBAN]
        want_rows = {STRATUM_ALL: int(land.sum()),
                     STRATUM_BUILTUP: int((land & (builtup > 0)).sum())}
        rows = {r.stratum: r.n_cells for r in load_report(state.report).rows}

        checks = {
            "coverage_matches_tiler_on_land":
                bool(np.array_equal(coverage[land], expected[land])),
            "coverage_zero_on_water": bool((coverage[~land] == 0).all()),
            "planes_finite": bool(np.isfinite(plane).all()),
            "planes_zero_on_water": bool((plane[~land] == 0).all()),
            "report_land_counts": rows == want_rows,
        }
        params = unet.load_params(state.checkpoint)
        tiles = TileDataset(norm, window, pad=PAD, input_names=synth.INPUT_CHANNELS,
                            target_names=())
        for k, (r, c) in enumerate(_lowest_coverage(expected, land)):
            ref = brute_force_median(params, tiles, (r + PAD, c + PAD))
            checks[f"brute_force_median_{k}"] = bool(
                np.isclose(plane[r, c], ref, rtol=1e-5, atol=1e-6))
        return float(np.mean(err * err)), checks


def _lowest_coverage(count: np.ndarray, land: np.ndarray) -> list[tuple[int, int]]:
    """The lowest-coverage land pixels, half with an even and half with an
    odd tile count, so that both branches of the median are checked."""
    flat = np.flatnonzero(land.ravel())
    order = flat[np.argsort(count.ravel()[flat], kind="stable")]
    parity = count.ravel()[order] % 2
    picked = np.concatenate([order[parity == p][: BRUTE_FORCE_PIXELS // 2] for p in (0, 1)])
    return [divmod(int(i), count.shape[1]) for i in picked]


def brute_force_median(params, tiles: TileDataset, q: tuple[int, int]) -> float:
    """Median over every tile of ``tiles`` containing padded pixel ``q``,
    each tile predicted on its own."""
    window = tiles.window
    rel = np.asarray(q) - (tiles.centers_padded - np.asarray(window.center_offset))
    inside = np.flatnonzero(((rel >= 0) & (rel < window.size)).all(axis=1))
    values = []
    for i in inside:
        x, _, _ = tiles.batch(np.array([i]))
        y, _ = unet._forward(params, np.ascontiguousarray(x, dtype=np.float32))
        values.append(float(y[0, rel[i, 0], rel[i, 1], 0]))
    return float(np.median(values))


WORKLOADS = {w.name: w for w in (TrainSz28, MultitaskSz16, Eval128)}
