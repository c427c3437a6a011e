"""Evaluator: median aggregation oracle, metric formulas, report round-trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanet import evaluate
from urbanet.errors import DataError, NumericError, ShapeError
from urbanet.evaluate import (
    STRATUM_ALL,
    STRATUM_BUILTUP,
    STRATUM_LABELS,
    EvalReport,
    MetricsRow,
    _slot_medians,
    export_report,
    export_scatter,
    load_baseline,
    load_report,
    multitask_label,
    predict_world,
    residual_metrics,
    save_report,
    stratify,
    unet_label,
)
from urbanet.grid import WorldGrid, assign_split, pad_grid
from urbanet.synth import INPUT_CHANNELS, TARGET_URBAN, SynthConfig, gen_world
from urbanet.tiler import TileDataset, WindowSpec, coverage_count
from urbanet.unet import UNetSpec, _forward, init_params


def brute_force_predict(params, grid, window, *, pad, split=None, split_filter="all",
                        batch_size=256):
    """Materialize every per-pixel prediction list and take medians by sorting."""
    ds = TileDataset(grid, window, pad=pad, input_names=INPUT_CHANNELS,
                     target_names=(), split=split, split_filter=split_filter)
    s = window.size
    off_r, off_c = window.center_offset
    buckets: dict[tuple[int, int], list[float]] = {}
    for start in range(0, len(ds), batch_size):
        idx = np.arange(start, min(start + batch_size, len(ds)))
        x, _, _ = ds.batch(idx)
        y, _ = _forward(params, x)
        for b, i in enumerate(idx):
            tr, tc = ds.centers_padded[i] - (off_r, off_c)
            for a in range(s):
                for c in range(s):
                    buckets.setdefault((tr + a, tc + c), []).append(float(y[b, a, c, 0]))
    plane = np.zeros((grid.height, grid.width))
    count = np.zeros((grid.height, grid.width), np.int64)
    for (r, c), vals in buckets.items():
        if grid.mask[r, c]:  # predictions exist only where there is land
            plane[r, c] = float(np.median(vals))
            count[r, c] = len(vals)
    sl = slice(pad, grid.height - pad), slice(pad, grid.width - pad)
    return plane[sl], count[sl]


def metrics_loop(pred, truth, sel):
    """Spreadsheet-style direct computation of the four metrics."""
    e = [t - p for p, t, s in zip(pred.ravel(), truth.ravel(), sel.ravel()) if s]
    n = len(e)
    mean_abs = sum(abs(v) for v in e) / n
    max_abs = max(abs(v) for v in e)
    mean_e = sum(e) / n
    std = (sum((v - mean_e) ** 2 for v in e) / n) ** 0.5
    t = [tv for tv, s in zip(truth.ravel(), sel.ravel()) if s]
    tbar = sum(t) / n
    ss_tot = sum((tv - tbar) ** 2 for tv in t)
    r2 = 1.0 - sum(v**2 for v in e) / ss_tot if ss_tot > 0 else None
    return mean_abs, max_abs, std, r2


def stand_in_forward(params, x):
    """A forward pass whose output does not depend on the batch it is in."""
    return x[..., : len(params.spec.heads)] * 1.5 + 0.25, None


def global_sort_reference(params, grid, window, *, pad, split=None,
                          split_filter="all", batch_size=256):
    """The pair-buffer aggregation predict_world used before it streamed:
    every (pixel, value) pair of every tile buffered, one lexsort per head."""
    ds = TileDataset(grid, window, pad=pad, input_names=INPUT_CHANNELS,
                     target_names=(), split=split, split_filter=split_filter)
    s = window.size
    hp, wp = grid.height, grid.width
    tls = ds.centers_padded - np.asarray(window.center_offset)
    ar = np.arange(s)
    heads = [name for name, _ in params.spec.heads]
    pix_chunks, val_chunks = [], {name: [] for name in heads}
    for start in range(0, len(ds), batch_size):
        idx = np.arange(start, min(start + batch_size, len(ds)))
        x, _, _ = ds.batch(idx)
        y, _ = evaluate._forward(params, x)
        rows = tls[idx, 0, None, None] + ar[None, :, None]
        cols = tls[idx, 1, None, None] + ar[None, None, :]
        pix_chunks.append((rows * wp + cols).reshape(-1))
        for c, name in enumerate(heads):
            val_chunks[name].append(y[..., c].astype(np.float64).reshape(-1))
    pix = np.concatenate(pix_chunks)
    land_flat = (np.asarray(grid.mask) == 1).ravel()
    count = np.zeros(hp * wp, np.int64)
    planes = {}
    for name in heads:
        val = np.concatenate(val_chunks[name])
        order = np.lexsort((val, pix))
        sp, sv = pix[order], val[order]
        starts = np.flatnonzero(np.r_[True, sp[1:] != sp[:-1]])
        cnt = np.diff(np.r_[starts, len(sp)])
        med = 0.5 * (sv[starts + (cnt - 1) // 2] + sv[starts + cnt // 2])
        plane = np.zeros(hp * wp)
        plane[sp[starts]] = med
        plane *= land_flat
        planes[name] = plane.reshape(hp, wp)[pad : hp - pad, pad : wp - pad]
        count[sp[starts]] = cnt
    count *= land_flat
    return planes, count.reshape(hp, wp)[pad : hp - pad, pad : wp - pad]


def banded_world(height, width, bands, seed=0):
    """A synthetic world with the given row ranges turned into water."""
    world = gen_world(SynthConfig(seed=seed, height=height, width=width,
                                  land_fraction=0.8, n_regions=4))
    land = world.mask.copy()
    for lo, hi in bands:
        land[lo:hi] = 0
    keep = land == 1
    return WorldGrid(mask=land, regions=np.where(keep, world.regions, 0),
                     channels={k: np.where(keep, v, 0.0)
                               for k, v in world.channels.items()},
                     region_table=world.region_table)


class TestSegmentMedians:
    """The per-row median kernel: NaN marks an empty slot."""

    def test_odd_count(self):
        med, cnt = _slot_medians(np.array([[[0.1, 0.3, np.nan, 0.2]]]))
        assert cnt.tolist() == [3]
        assert med[0, 0] == 0.2

    def test_even_count_mean_of_central(self):
        med, cnt = _slot_medians(np.array([[[np.nan, 0.1, 0.3],
                                            [np.nan, np.nan, np.nan]]]))
        assert med[0, 0] == pytest.approx(0.2)
        assert cnt.tolist() == [2, 0]
        assert med[0, 1] == 0.0  # a pixel no tile covers

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_numpy_median(self, seed):
        rng = np.random.default_rng(seed)
        slots = rng.normal(size=(2, 10, 9)).astype(np.float32)
        empty = rng.random((10, 9)) < rng.random()
        slots[:, empty] = np.nan
        med, cnt = _slot_medians(slots)
        for h in range(2):
            for c in range(10):
                grp = slots[h, c, ~empty[c]].astype(np.float64)
                assert cnt[c] == len(grp)
                want = float(np.median(grp)) if len(grp) else 0.0
                assert med[h, c] == pytest.approx(want, abs=1e-15)


class TestPredictWorld:
    @pytest.mark.parametrize("size,window", [(10, 3), (12, 4), (16, 5), (20, 5)])
    def test_matches_brute_force(self, size, window):
        land_fraction = 1.0 if size * size < 125 else 0.8
        cfg = SynthConfig(seed=size, height=size, width=size,
                          land_fraction=land_fraction, n_regions=4)
        world = gen_world(cfg)
        win = WindowSpec(window)
        pad = win.max_reach
        padded = pad_grid(world, pad)
        params = init_params(UNetSpec(input_channels=9, base_features=4, depth=1), seed=0)
        got = predict_world(params, padded, win, pad=pad, input_names=INPUT_CHANNELS)
        want_plane, want_count = brute_force_predict(params, padded, win, pad=pad)
        assert np.array_equal(got.planes["urban"], want_plane)
        assert np.array_equal(got.count, want_count)

    def test_count_matches_analytic_coverage(self):
        world = gen_world(SynthConfig(seed=1, height=14, width=14, land_fraction=0.8,
                                      n_regions=4))
        win = WindowSpec(5)
        padded = pad_grid(world, 2)
        params = init_params(UNetSpec(input_channels=9, base_features=4, depth=1), seed=0)
        got = predict_world(params, padded, win, pad=2, input_names=INPUT_CHANNELS)
        land = world.mask == 1
        cov = coverage_count(padded, win)[2:-2, 2:-2] * land
        assert np.array_equal(got.count, cov)
        assert (got.count[~land] == 0).all()

    def test_interior_coverage_is_window_squared_on_all_land(self):
        world = gen_world(SynthConfig(seed=1, height=16, width=16, land_fraction=1.0,
                                      n_regions=4))
        win = WindowSpec(5)
        padded = pad_grid(world, 2)
        cov = coverage_count(padded, win)
        # interior pixels: all S^2 windows that contain them have land centers
        assert (cov[2 + 4 : -2 - 4, 2 + 4 : -2 - 4] == 25).all()

    def test_split_filter_restricts_tiles(self):
        world = gen_world(SynthConfig(seed=5, height=16, width=16, land_fraction=0.8,
                                      n_regions=4))
        padded = pad_grid(world, 2)
        split = assign_split(padded, ["R01"])
        win = WindowSpec(4)
        params = init_params(UNetSpec(input_channels=9, base_features=4, depth=1), seed=0)
        got = predict_world(params, padded, win, pad=2, input_names=INPUT_CHANNELS,
                            split=split, split_filter="test")
        want_plane, want_count = brute_force_predict(
            params, padded, win, pad=2, split=split, split_filter="test")
        assert np.array_equal(got.planes["urban"], want_plane)
        assert np.array_equal(got.count, want_count)
        assert got.count.sum() < coverage_count(padded, win).sum()

    def test_channel_mismatch_raises(self):
        world = gen_world(SynthConfig(seed=1, height=16, width=16, land_fraction=0.8,
                                      n_regions=4))
        padded = pad_grid(world, 2)
        params = init_params(UNetSpec(input_channels=3, base_features=4, depth=1), seed=0)
        with pytest.raises(ShapeError):
            predict_world(params, padded, WindowSpec(4), pad=2,
                          input_names=INPUT_CHANNELS)

    def test_multi_head_planes(self):
        world = gen_world(SynthConfig(seed=2, height=12, width=12, land_fraction=0.8,
                                      n_regions=4))
        padded = pad_grid(world, 2)
        spec = UNetSpec(input_channels=9, base_features=4, depth=1,
                        heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, seed=3)
        got = predict_world(params, padded, WindowSpec(4), pad=2,
                            input_names=INPUT_CHANNELS)
        assert set(got.planes) == {"urban", "pop"}
        assert not np.array_equal(got.planes["urban"], got.planes["pop"])

    @pytest.mark.parametrize("split_filter", ["all", "test"])
    @pytest.mark.parametrize("batch_size", [1, 3, 7, None])
    def test_streaming_matches_global_sort(self, monkeypatch, batch_size, split_filter):
        # water bands of 8, 1 and 2 rows at S = 5: rows no tile reaches, and
        # rows closed across jumps in the tiles' top rows
        world = banded_world(30, 20, bands=[(4, 12), (16, 17), (21, 23)])
        win = WindowSpec(5)
        padded = pad_grid(world, 2)
        split = assign_split(padded, ["R01"])
        spec = UNetSpec(input_channels=9, base_features=4, depth=1,
                        heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, seed=0)
        monkeypatch.setattr(evaluate, "_forward", stand_in_forward)
        n = len(TileDataset(padded, win, pad=2, input_names=INPUT_CHANNELS,
                            target_names=(), split=split, split_filter=split_filter))
        got = predict_world(params, padded, win, pad=2, input_names=INPUT_CHANNELS,
                            split=split, split_filter=split_filter,
                            batch_size=batch_size or n)
        want_planes, want_count = global_sort_reference(
            params, padded, win, pad=2, split=split, split_filter=split_filter)
        assert got.tiles == n
        assert np.array_equal(got.count, want_count)
        for name in ("urban", "pop"):
            assert got.planes[name].tobytes() == want_planes[name].tobytes()

    def test_non_finite_prediction_raises(self):
        world = gen_world(SynthConfig(seed=2, height=12, width=12, land_fraction=0.8,
                                      n_regions=4))
        padded = pad_grid(world, 2)
        params = init_params(UNetSpec(input_channels=9, base_features=4, depth=1), seed=0)
        params.arrays["head.urban.b"][:] = np.nan
        with pytest.raises(NumericError, match="batch 0"):
            predict_world(params, padded, WindowSpec(4), pad=2,
                          input_names=INPUT_CHANNELS)

    def test_memory_does_not_grow_with_height(self, monkeypatch):
        monkeypatch.setattr(evaluate, "_forward", stand_in_forward)
        win = WindowSpec(16)
        params = init_params(UNetSpec(input_channels=9, base_features=4, depth=1), seed=0)
        peaks = []
        for height in (64, 256):
            world = gen_world(SynthConfig(seed=3, height=height, width=48,
                                          land_fraction=0.8, n_regions=4))
            padded = pad_grid(world, win.max_reach)
            tracemalloc.start()
            try:
                predict_world(params, padded, win, pad=win.max_reach,
                              input_names=INPUT_CHANNELS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


class TestResidualMetrics:
    def test_perfect_predictor(self):
        t = np.arange(20.0).reshape(4, 5)
        row = residual_metrics(t, t, np.ones_like(t, bool))
        assert (row.mean_abs, row.max_abs, row.std, row.r2) == (0.0, 0.0, 0.0, 1.0)

    def test_constant_mean_predictor_r2_zero(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(6, 6))
        pred = np.full_like(t, t.mean())
        row = residual_metrics(pred, t, np.ones_like(t, bool))
        assert row.r2 == 0.0

    def test_hundred_random_cases_match_direct_formula(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            pred = rng.normal(size=50)
            truth = rng.normal(size=50)
            sel = np.ones(50, bool)
            row = residual_metrics(pred, truth, sel)
            mean_abs, max_abs, std, r2 = metrics_loop(pred, truth, sel)
            assert abs(row.mean_abs - mean_abs) < 1e-12
            assert abs(row.max_abs - max_abs) < 1e-12
            assert abs(row.std - std) < 1e-12
            assert abs(row.r2 - r2) < 1e-12

    def test_twenty_cell_spreadsheet_case(self):
        rng = np.random.default_rng(7)
        pred = rng.uniform(-1, 1, size=20)
        truth = rng.uniform(-1, 1, size=20)
        sel = np.ones(20, bool)
        row = residual_metrics(pred, truth, sel)
        mean_abs, max_abs, std, r2 = metrics_loop(pred, truth, sel)
        for got, want in [(row.mean_abs, mean_abs), (row.max_abs, max_abs),
                          (row.std, std), (row.r2, r2)]:
            assert abs(got - want) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.normal(size=40)
        truth = rng.normal(size=40)
        sel = rng.random(40) < 0.8
        perm = rng.permutation(40)
        a = residual_metrics(pred, truth, sel)
        b = residual_metrics(pred[perm], truth[perm], sel[perm])
        assert a.n_cells == b.n_cells
        assert a.mean_abs == pytest.approx(b.mean_abs, abs=1e-14)
        assert a.max_abs == b.max_abs
        assert a.std == pytest.approx(b.std, abs=1e-14)
        assert a.r2 == pytest.approx(b.r2, abs=1e-12)

    def test_empty_stratum(self):
        t = np.zeros((3, 3))
        row = residual_metrics(t, t, np.zeros((3, 3), bool))
        assert row.n_cells == 0
        assert row.mean_abs is None and row.r2 is None

    def test_zero_variance_truth(self):
        pred = np.array([0.1, 0.2, 0.3])
        truth = np.full(3, 0.5)
        row = residual_metrics(pred, truth, np.ones(3, bool))
        assert row.r2 is None
        assert row.mean_abs == pytest.approx(0.3)
        assert row.max_abs == pytest.approx(0.4)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_metric_ordering_invariant(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        row = residual_metrics(rng.normal(size=n), rng.normal(size=n),
                               np.ones(n, bool))
        assert row.max_abs >= row.mean_abs >= 0.0
        if row.r2 is not None:
            assert row.r2 <= 1.0


class TestStratify:
    def test_subset_and_counts(self):
        world = gen_world(SynthConfig(seed=4, height=16, width=16, land_fraction=0.7,
                                      n_regions=4))
        land = world.mask.astype(bool)
        u2010 = world.channels["urban_2000"] + world.channels[TARGET_URBAN]
        strata = stratify(world.mask, u2010)
        assert strata[STRATUM_ALL].sum() == land.sum()
        assert (strata[STRATUM_BUILTUP] <= strata[STRATUM_ALL]).all()
        # brute-force scan
        want = sum(1 for r, c in np.argwhere(land) if u2010[r, c] > 0)
        assert strata[STRATUM_BUILTUP].sum() == want

    def test_no_builtup_land(self):
        mask = np.ones((4, 4), np.uint8)
        strata = stratify(mask, np.zeros((4, 4)))
        assert strata[STRATUM_BUILTUP].sum() == 0

    def test_select_mask_intersects(self):
        mask = np.ones((4, 4), np.uint8)
        select = np.zeros((4, 4), bool)
        select[:2] = True
        strata = stratify(mask, np.ones((4, 4)), select)
        assert strata[STRATUM_ALL].sum() == 8
        assert strata[STRATUM_BUILTUP].sum() == 8


class TestReports:
    def make_row(self, **over):
        base = dict(scope="global", stratum=STRATUM_ALL, n_cells=100,
                    mean_abs=0.001, max_abs=0.01, std=0.002, r2=0.97,
                    model="U-Net (sz16)", window=16)
        base.update(over)
        return MetricsRow(**base)

    def test_round_trip(self, tmp_path):
        report = EvalReport()
        report.add(self.make_row())
        report.add(self.make_row(stratum=STRATUM_BUILTUP, n_cells=40))
        report.add(self.make_row(model="Multi-task (sz28)", window=28, r2=None,
                                 mean_abs=None, max_abs=None, std=None, n_cells=0))
        save_report(report, tmp_path / "r.csv")
        back = load_report(tmp_path / "r.csv")
        assert back.rows == report.rows

    def test_duplicate_key_rejected(self):
        report = EvalReport()
        report.add(self.make_row())
        with pytest.raises(DataError):
            report.add(self.make_row())

    def test_stratum_rendered_with_table_label(self, tmp_path):
        report = EvalReport()
        report.add(self.make_row(stratum=STRATUM_BUILTUP))
        save_report(report, tmp_path / "r.csv")
        text = (tmp_path / "r.csv").read_text()
        assert "observed built-up land fraction > 0" in text
        assert STRATUM_BUILTUP not in text

    def test_baseline_rows(self):
        rows = load_baseline()
        assert len(rows) == 2
        assert all(r.r2 == ">50%" for r in rows)
        assert all("baseline" in r.model for r in rows)
        by_stratum = {r.stratum: r for r in rows}
        assert by_stratum[STRATUM_ALL].mean_abs == 0.000367
        assert by_stratum[STRATUM_BUILTUP].mean_abs == 0.000982
        assert by_stratum[STRATUM_ALL].max_abs == 0.435294

    def test_export_report_prepends_baseline(self, tmp_path):
        report = EvalReport()
        for window in (16, 22, 28):
            for stratum in (STRATUM_ALL, STRATUM_BUILTUP):
                report.add(self.make_row(model=unet_label(window), window=window,
                                         stratum=stratum))
        for stratum in (STRATUM_ALL, STRATUM_BUILTUP):
            report.add(self.make_row(model=multitask_label(28), window=28,
                                     stratum=stratum))
        export_report(report, tmp_path / "final.csv")
        text = (tmp_path / "final.csv").read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 2 + 8  # header + baseline + 4 models x 2 strata
        assert ">50%" in text
        for label in ("U-Net (sz16)", "U-Net (sz22)", "U-Net (sz28)", "Multi-task (sz28)"):
            assert label in text

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(DataError):
            save_report(EvalReport(), tmp_path / "r.csv")


class TestScatter:
    def test_csv_row_count_and_svg(self, tmp_path):
        rng = np.random.default_rng(0)
        truth = rng.normal(size=(8, 8))
        pred = truth + rng.normal(0, 0.1, size=(8, 8))
        sel = rng.random((8, 8)) < 0.7
        export_scatter(pred, truth, sel, tmp_path / "scatter.csv",
                       target_name="delta_urban")
        lines = (tmp_path / "scatter.csv").read_text().strip().split("\n")
        assert lines[0] == "observed,predicted"
        assert len(lines) == 1 + sel.sum()
        svg = (tmp_path / "scatter.svg").read_text()
        assert svg.startswith("<svg")
        assert "delta_urban" in svg
        assert svg.count("<circle") == sel.sum()
