"""Acceptance gate: one test (and one pass/fail line) per shipping criterion.

The heavy fixtures are session-scoped and shared: the 96x96 world backs the
end-to-end, window-ordering, and report criteria; the ten-seed study backs
the multi-task contract.
"""

import time

import numpy as np
import pytest

from urbanet.augment import AugmentedTiles, Transform, transform_plane
from urbanet.evaluate import (EvalReport, export_report, multitask_label,
                              predict_world, residual_metrics, stratify,
                              unet_label)
from urbanet.grid import assign_split, normalize_channels, pad_grid
from urbanet.synth import (INPUT_CHANNELS, TARGET_POP, TARGET_URBAN,
                           SynthConfig, gen_world)
from urbanet.tiler import TileDataset, WindowSpec, coverage_count
from urbanet.trainer import (MultiTaskSchedule, TrainConfig, build_multitask,
                             build_streams, phase1_trainable, train,
                             train_multitask)
from urbanet.unet import (UNetSpec, _masked_loss_grad, expected_shapes, grad_check,
                          init_params, load_params)

DESK = dict(base_features=8, depth=2)
BIG_TEST_REGIONS = ("R02", "R07")
BIG_PAD = 20


def _flag(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures

@pytest.fixture(scope="session")
def big_setup():
    world = gen_world(SynthConfig(seed=0))  # 96x96, noise_std 0.01
    padded = pad_grid(world, BIG_PAD)
    split = assign_split(padded, BIG_TEST_REGIONS)
    norm, _ = normalize_channels(padded, fit_mask=split.train_mask,
                                 channels=INPUT_CHANNELS)
    return world, padded, split, norm


def _test_r2(pred_plane, world, split, stratum_mask=None):
    tmask = split.test_mask[BIG_PAD:-BIG_PAD, BIG_PAD:-BIG_PAD].astype(bool)
    sel = tmask if stratum_mask is None else (tmask & stratum_mask)
    row = residual_metrics(pred_plane, world.channels[TARGET_URBAN], sel,
                           scope="test", stratum="all_cells")
    return row


@pytest.fixture(scope="session")
def windows_run(big_setup):
    """Default-config training at each window size on the one shared world."""
    world, padded, split, norm = big_setup
    out = {}
    for win in (28, 22, 16):
        t0 = time.perf_counter()
        tr, va, _ = build_streams(
            norm, WindowSpec(win), pad=BIG_PAD, input_names=INPUT_CHANNELS,
            target_names=(TARGET_URBAN,), split=split, seed=0,
        )
        cfg = TrainConfig(max_epochs=12, seed=0, samples_per_epoch=len(tr) // 6)
        model, hist = train(init_params(UNetSpec(input_channels=9, **DESK), seed=0),
                            tr, va, cfg)
        pred = predict_world(model, norm, WindowSpec(win), pad=BIG_PAD,
                             input_names=INPUT_CHANNELS, split=split,
                             split_filter="test")
        wall = time.perf_counter() - t0
        r2 = _test_r2(pred.planes["urban"], world, split).r2
        out[win] = dict(model=model, hist=hist, pred=pred, wall=wall, r2=r2)
    return out


@pytest.fixture(scope="session")
def multitask_run(big_setup, windows_run):
    """Two-phase joint model built from the sz28 single-task weights."""
    world, padded, split, norm = big_setup
    trm, vam, _ = build_streams(
        norm, WindowSpec(28), pad=BIG_PAD, input_names=INPUT_CHANNELS,
        target_names=(TARGET_URBAN, TARGET_POP), split=split, seed=0,
    )
    spe = len(trm) // 6
    schedule = MultiTaskSchedule(
        phase1=TrainConfig(max_epochs=3, seed=0, samples_per_epoch=spe),
        phase2=TrainConfig(max_epochs=2, seed=0, samples_per_epoch=spe,
                           learning_rate=1e-4),
    )
    multi = build_multitask(windows_run[28]["model"], head="pop", seed=1)
    model, hist = train_multitask(multi, trm, vam, schedule)
    pred = predict_world(model, norm, WindowSpec(28), pad=BIG_PAD,
                         input_names=INPUT_CHANNELS, split=split,
                         split_filter="test")
    return dict(model=model, hist=hist, pred=pred)


def _seed_study_once(seed: int, checkpoint_dir=None):
    """One seed of the multi-task-vs-single comparison at equal budget."""
    pad, win = 8, 16
    world = gen_world(SynthConfig(seed=seed, height=48, width=48))
    land_per_region = {c: int((world.regions == c).sum()) for c in world.region_table}
    test_code = max(land_per_region, key=lambda c: (land_per_region[c], -c))
    padded = pad_grid(world, pad)
    split = assign_split(padded, [world.region_table[test_code]])
    norm, _ = normalize_channels(padded, fit_mask=split.train_mask,
                                 channels=INPUT_CHANNELS)

    def streams(targets):
        return build_streams(norm, WindowSpec(win), pad=pad,
                             input_names=INPUT_CHANNELS, target_names=targets,
                             split=split, seed=seed)

    tru, vau, _ = streams((TARGET_URBAN,))
    trp, vap, _ = streams((TARGET_POP,))
    trm, vam, _ = streams((TARGET_URBAN, TARGET_POP))
    spe = len(tru) // 6

    def cfg(n, lr=1e-3):
        return TrainConfig(max_epochs=n, seed=seed, samples_per_epoch=spe,
                           learning_rate=lr)

    def pop_r2(params):
        pred = predict_world(params, norm, WindowSpec(win), pad=pad,
                             input_names=INPUT_CHANNELS, split=split,
                             split_filter="test")
        tmask = split.test_mask[pad:-pad, pad:-pad].astype(bool)
        head = params.spec.heads[-1][0]
        return residual_metrics(pred.planes[head], world.channels[TARGET_POP],
                                tmask, scope="test", stratum="all_cells").r2

    urban, _ = train(init_params(UNetSpec(input_channels=9, **DESK,
                                          heads=(("urban", 1),)), seed=seed),
                     tru, vau, cfg(10))
    single, _ = train(init_params(UNetSpec(input_channels=9, **DESK,
                                           heads=(("pop", 1),)), seed=seed),
                      trp, vap, cfg(6))
    multi = build_multitask(urban, head="pop", seed=seed + 1000)
    schedule = MultiTaskSchedule(phase1=cfg(4), phase2=cfg(2, 3e-4))
    mt, _ = train_multitask(multi, trm, vam, schedule,
                            checkpoint_dir=checkpoint_dir)
    return dict(single_r2=pop_r2(single), multi_r2=pop_r2(mt),
                multi_init=multi, spec=multi.spec)


@pytest.fixture(scope="session")
def seed_study(tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("mt-seed0")
    results = [_seed_study_once(0, checkpoint_dir=ckpt)]
    results += [_seed_study_once(seed) for seed in range(1, 10)]
    return results, ckpt


# ---------------------------------------------------------------------------
# criteria

def test_gradient_correctness():
    # the depth-1, base-4 network on the nine standard input channels
    spec = UNetSpec(input_channels=9, base_features=4, depth=1)
    t0 = time.perf_counter()
    worst = max(grad_check(spec, seed=s, tile_size=8).max_rel_err
                for s in range(10))
    wall = time.perf_counter() - t0
    _flag("gradient-correctness",
          worst < 1e-4 and wall < 60.0,
          f"10 seeds, max rel err {worst:.3e} (< 1e-4), {wall:.1f}s (< 60s)")


def test_masked_loss_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        s = int(rng.integers(2, 7))
        c = int(rng.integers(1, 4))
        pred = rng.normal(size=(n, s, s, c))
        tgt = rng.normal(size=(n, s, s, c))
        mask = np.zeros((n, s, s))
        for k in range(n):  # every sample keeps at least one valid pixel
            flat = rng.permutation(s * s)[: int(rng.integers(1, s * s + 1))]
            mask[k].ravel()[flat] = 1.0
        got, _ = _masked_loss_grad(pred, tgt, mask, None)
        want = 0.0
        for k in range(n):
            per_channel = []
            for ch in range(c):
                num = den = 0.0
                for i in range(s):
                    for j in range(s):
                        if mask[k, i, j]:
                            num += (tgt[k, i, j, ch] - pred[k, i, j, ch]) ** 2
                            den += 1.0
                per_channel.append(num / den)
            want += sum(per_channel) / c
        want /= n
        worst = max(worst, abs(got - want))

    hand, _ = _masked_loss_grad(
        np.zeros((1, 2, 2, 1)),
        np.array([[0.0, 1.0], [2.0, 9.9]]).reshape(1, 2, 2, 1),
        np.array([[1.0, 1.0], [1.0, 0.0]]).reshape(1, 2, 2),
        None,
    )
    _flag("masked-loss-oracle",
          worst <= 1e-12 and hand == 5.0 / 3.0,
          f"100 batches vs triple loop, max diff {worst:.2e} (<= 1e-12); "
          f"hand case {hand} == 5/3 exactly")


def test_augmentation_group_laws():
    rng = np.random.default_rng(1)
    tiles = rng.normal(size=(1000, 7, 7)).astype(np.float32)
    t0 = time.perf_counter()

    def apply(t, x):
        return transform_plane(x, t)

    r = tiles
    for _ in range(4):
        r = apply(Transform.ROT90, r)
    ok = np.array_equal(r, tiles)
    ok &= np.array_equal(apply(Transform.HFLIP, apply(Transform.HFLIP, tiles)), tiles)
    ok &= np.array_equal(apply(Transform.VFLIP, apply(Transform.VFLIP, tiles)), tiles)
    ok &= np.array_equal(apply(Transform.VFLIP, tiles),
                         apply(Transform.ROT180, apply(Transform.HFLIP, tiles)))
    wall = time.perf_counter() - t0
    _flag("augmentation-group-laws", ok and wall < 10.0,
          f"rot90^4 = hflip^2 = vflip^2 = id, vflip = rot180.hflip, "
          f"bitwise on 1000 tiles in {wall:.2f}s (< 10s)")


def test_tiler_bijection():
    ok, detail = True, []
    for size, lf in ((16, 1.0), (33, 0.7), (64, 0.55)):
        world = gen_world(SynthConfig(seed=size, height=size, width=size,
                                      land_fraction=lf, n_regions=4))
        pad = 3
        padded = pad_grid(world, pad)
        ds = TileDataset(padded, WindowSpec(6), pad=pad,
                         input_names=INPUT_CHANNELS, target_names=(TARGET_URBAN,))
        land_centers = {(int(r), int(c)) for r, c in zip(*np.nonzero(world.mask))}
        centers = {(int(r), int(c)) for r, c in ds.centers_padded - pad}
        ok &= len(ds) == len(land_centers) == int(world.mask.sum())
        ok &= centers == land_centers
        ok &= len(AugmentedTiles(ds)) == 6 * len(ds)
        detail.append(f"{size}x{size}: {len(ds)} tiles")
    _flag("tiler-bijection", ok,
          "one tile per land pixel, centers exhaustive, 6x augmented: "
          + ", ".join(detail))


def test_median_aggregation_oracle():
    worst_exact = True
    for size in (10, 12, 16, 20):
        world = gen_world(SynthConfig(seed=size, height=size, width=size,
                                      land_fraction=1.0 if size < 14 else 0.8,
                                      n_regions=2))
        win = WindowSpec(5)
        pad = 2
        padded = pad_grid(world, pad)
        params = init_params(UNetSpec(input_channels=9, base_features=4, depth=1),
                             seed=size)
        # batch_size=1 on both sides: GEMM results vary at float32 epsilon
        # with batch shape, and this oracle pins the aggregation, not BLAS
        got = predict_world(params, padded, win, pad=pad,
                            input_names=INPUT_CHANNELS, batch_size=1)

        # brute force: materialize every prediction a pixel receives
        from urbanet.unet import _forward

        ds = TileDataset(padded, win, pad=pad, input_names=INPUT_CHANNELS,
                         target_names=())
        buckets = {}
        for b in range(len(ds)):
            x, _, _ = ds.batch(np.array([b]))
            y, _ = _forward(params, x)
            tr, tc = ds.centers_padded[b] - win.center_offset
            for a in range(5):
                for cc in range(5):
                    buckets.setdefault((tr + a, tc + cc), []).append(
                        float(y[0, a, cc, 0]))
        plane = np.zeros((padded.height, padded.width))
        count = np.zeros((padded.height, padded.width), np.int64)
        for (r, c), vals in buckets.items():
            if padded.mask[r, c]:
                plane[r, c] = float(np.median(vals))
                count[r, c] = len(vals)
        sl = slice(pad, padded.height - pad), slice(pad, padded.width - pad)
        worst_exact &= np.array_equal(got.planes["urban"], plane[sl])
        worst_exact &= np.array_equal(got.count, count[sl])

    allland = gen_world(SynthConfig(seed=3, height=16, width=16,
                                    land_fraction=1.0, n_regions=2))
    cov = coverage_count(pad_grid(allland, 2), WindowSpec(5))
    interior_ok = (cov[6:-6, 6:-6] == 25).all()
    _flag("median-aggregation-oracle", worst_exact and bool(interior_ok),
          "predict_world == per-pixel median brute force (exact) on 6..20 px "
          "grids; interior coverage == S^2 on all-land")


def test_end_to_end_learning(big_setup, windows_run):
    run = windows_run[28]
    epochs = len(run["hist"].rows)
    r2 = run["r2"]
    _flag("end-to-end-learning",
          r2 >= 0.95 and epochs <= 100 and run["wall"] < 600.0,
          f"96x96 world, sz28 default config: test R2 {r2:.4f} (>= 0.95) in "
          f"{epochs} epochs (<= 100), {run['wall']:.0f}s (< 600s)")


def test_window_size_ordering(windows_run):
    r = {w: windows_run[w]["r2"] for w in (16, 22, 28)}
    ok = r[28] >= r[22] - 0.01 and r[22] >= r[16] - 0.01
    _flag("window-size-ordering", ok,
          f"same world: sz28 {r[28]:.4f} >= sz22 {r[22]:.4f} >= "
          f"sz16 {r[16]:.4f}, each link within the 0.01 tie tolerance")


def test_multitask_contract(seed_study):
    results, ckpt = seed_study
    first = results[0]

    phase1 = load_params(ckpt / "phase1_final.unpk")
    frozen_ok = all(
        np.array_equal(phase1.arrays[name], first["multi_init"].arrays[name])
        for name in set(expected_shapes(first["spec"])) - phase1_trainable(first["spec"])
    )
    designated_ok = first["multi_r2"] >= first["single_r2"] - 0.005
    wins = sum(r["multi_r2"] > r["single_r2"] for r in results)
    diffs = [r["multi_r2"] - r["single_r2"] for r in results]
    _flag("multitask-contract",
          frozen_ok and designated_ok and wins >= 7,
          f"phase-1 frozen params bitwise-identical: {frozen_ok}; seed-0 "
          f"task-2 R2 {first['multi_r2']:.4f} >= single {first['single_r2']:.4f}"
          f" - 0.005; improved in {wins}/10 seeds "
          f"(diffs {min(diffs):+.4f}..{max(diffs):+.4f})")


def test_metrics_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        truth = rng.normal(size=50)
        pred = truth + rng.normal(scale=0.3, size=50)
        sel = np.ones(50, bool)
        row = residual_metrics(pred.reshape(5, 10), truth.reshape(5, 10),
                               sel.reshape(5, 10), scope="g", stratum="all_cells")
        e = truth - pred
        want_mean = np.abs(e).mean()
        want_max = np.abs(e).max()
        want_std = np.sqrt(((e - e.mean()) ** 2).mean())
        want_r2 = 1.0 - (e ** 2).sum() / ((truth - truth.mean()) ** 2).sum()
        worst = max(worst, abs(row.mean_abs - want_mean), abs(row.max_abs - want_max),
                    abs(row.std - want_std), abs(row.r2 - want_r2))

    truth = rng.normal(size=(4, 4))
    sel = np.ones((4, 4), bool)
    perfect = residual_metrics(truth, truth, sel, scope="g", stratum="all_cells")
    const = residual_metrics(np.full((4, 4), truth.mean()), truth, sel,
                             scope="g", stratum="all_cells")
    _flag("metrics-oracle",
          worst <= 1e-12 and perfect.r2 == 1.0 and const.r2 == 0.0,
          f"100 random 50-cell cases, max |diff| {worst:.2e} (<= 1e-12); "
          f"perfect R2 == {perfect.r2}, constant-mean R2 == {const.r2}")


def test_report_fidelity(big_setup, windows_run, multitask_run, tmp_path):
    world, padded, split, norm = big_setup
    tmask = split.test_mask[BIG_PAD:-BIG_PAD, BIG_PAD:-BIG_PAD].astype(bool)
    builtup = world.channels["urban_2000"] + world.channels[TARGET_URBAN]
    strata = stratify(world.mask, builtup, select=tmask)

    report = EvalReport()
    for win in (16, 22, 28):
        for stratum, sel in strata.items():
            report.add(residual_metrics(
                windows_run[win]["pred"].planes["urban"],
                world.channels[TARGET_URBAN], sel, scope="test",
                stratum=stratum, model=unet_label(win), window=win))
    for stratum, sel in strata.items():
        report.add(residual_metrics(
            multitask_run["pred"].planes["urban"],
            world.channels[TARGET_URBAN], sel, scope="test",
            stratum=stratum, model=multitask_label(28), window=28))

    out = tmp_path / "final_report.csv"
    export_report(report, out)
    text = out.read_text()
    labels = [unet_label(16), unet_label(22), unet_label(28), multitask_label(28)]
    strata_labels = ["All grid cells", "observed built-up land fraction > 0"]
    ok = all(
        any(label in line and sl in line for line in text.splitlines())
        for label in labels for sl in strata_labels
    )
    ok &= ">50%" in text
    _flag("report-fidelity", ok,
          "rows for sz16/sz22/sz28/multi-task sz28 across both strata; "
          "baseline R2 rendered as literal '>50%'")
