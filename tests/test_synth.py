"""Synthetic world generator: determinism, distances, target formulas, and
the numpy kernels that stand for scipy.ndimage byte for byte."""

import hashlib

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from urbanet.errors import ConfigError
from urbanet.evaluate import residual_metrics
from urbanet.grid import box_sum, load_grid, save_grid, validate_grid
from urbanet.synth import (
    INPUT_CHANNELS,
    TARGET_CHANNELS,
    TARGET_POP,
    TARGET_URBAN,
    SynthConfig,
    _gaussian_smooth,
    _taxicab_to,
    _top_k_mask,
    clean_targets,
    gen_world,
    masked_box_mean,
)

SMALL = SynthConfig(seed=7, height=16, width=16, land_fraction=0.7, n_regions=4)


def oracle_metrics(grid, predictor, target=TARGET_URBAN):
    """Closed-form baseline metrics over all land cells.

    predictor: "zero" and "persistence" both predict no change;
    "true-function" predicts the noise-free target formula.
    """
    if target not in TARGET_CHANNELS:
        raise ConfigError(f"unknown target channel: {target!r}")
    if predictor in ("zero", "persistence"):
        pred = np.zeros((grid.height, grid.width))
    elif predictor == "true-function":
        pred = clean_targets(grid)[target]
    else:
        raise ConfigError(f"unknown predictor: {predictor!r}")
    stratum = grid.mask.astype(bool)
    return residual_metrics(
        pred, grid.channels[target], stratum, scope="global", stratum="all_cells"
    )


def box_mean_loop(plane, land, size):
    """Triple-loop oracle for the masked box mean."""
    h, w = plane.shape
    out = np.zeros((h, w))
    r = size // 2
    for i in range(h):
        for j in range(w):
            if not land[i, j]:
                continue
            num = den = 0.0
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii, jj = i + di, j + dj
                    if 0 <= ii < h and 0 <= jj < w and land[ii, jj]:
                        num += plane[ii, jj]
                        den += 1.0
            out[i, j] = num / den
    return out


def taxicab_min(targets, h, w):
    """All-pairs minimum taxicab distance to any True pixel."""
    pts = np.argwhere(targets)
    rr, cc = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    d = np.abs(rr[..., None] - pts[:, 0]) + np.abs(cc[..., None] - pts[:, 1])
    return d.min(axis=-1)


def world_digest(world) -> str:
    """sha256 over the mask, the regions and every channel in order."""
    h = hashlib.sha256(world.mask.tobytes() + world.regions.tobytes())
    for name in INPUT_CHANNELS + TARGET_CHANNELS:
        h.update(name.encode() + np.ascontiguousarray(world.channels[name]).tobytes())
    return h.hexdigest()


class TestConfig:
    def test_defaults_valid(self):
        SynthConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(land_fraction=0.0),
            dict(land_fraction=1.2),
            dict(n_regions=0),
            dict(noise_std=-0.1),
            dict(height=3),
            dict(height=8, width=8),  # < 100 land pixels
            dict(noise_std=float("nan")),  # would silently add no noise
            dict(noise_std=float("inf")),
            dict(n_regions=0x10000),  # region codes are 16-bit
            dict(seed=-1),  # numpy's generators refuse it, but only mid-run
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SynthConfig(**kwargs)


class TestGenerate:
    def test_deterministic(self, tmp_path):
        a, b = gen_world(SMALL), gen_world(SMALL)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.regions, b.regions)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name])
        save_grid(a, tmp_path / "a.wgrd")
        save_grid(b, tmp_path / "b.wgrd")
        assert (tmp_path / "a.wgrd").read_bytes() == (tmp_path / "b.wgrd").read_bytes()

    def test_seed_changes_world(self):
        a = gen_world(SMALL)
        b = gen_world(SynthConfig(seed=8, height=16, width=16, land_fraction=0.7, n_regions=4))
        assert not np.array_equal(a.mask, b.mask) or not np.array_equal(
            a.channels["elevation"], b.channels["elevation"]
        )

    def test_exact_land_count(self):
        w = gen_world(SMALL)
        assert w.mask.sum() == round(16 * 16 * 0.7)

    def test_channel_directory(self):
        w = gen_world(SMALL)
        assert tuple(w.channels) == INPUT_CHANNELS + TARGET_CHANNELS

    def test_valid_grid(self):
        validate_grid(gen_world(SMALL))

    def test_urban_growth_monotone(self):
        w = gen_world(SMALL)
        assert (w.channels["urban_1980"] <= w.channels["urban_1990"]).all()
        assert (w.channels["urban_1990"] <= w.channels["urban_2000"]).all()

    def test_regions(self):
        w = gen_world(SMALL)
        land = w.mask.astype(bool)
        assert w.regions[~land].max(initial=0) == 0
        codes = np.unique(w.regions[land])
        assert codes.min() >= 1 and codes.max() <= 4
        assert w.region_table == {1: "R01", 2: "R02", 3: "R03", 4: "R04"}

    def test_all_land_world(self):
        cfg = SynthConfig(seed=1, height=16, width=16, land_fraction=1.0, n_regions=4)
        w = gen_world(cfg)
        assert w.mask.all()
        assert (w.channels["dist_water"] == 32.0).all()

    def test_builtup_stratum_is_proper_subset(self):
        # a single sparse city leaves remote land below the built-up floor
        cfg = SynthConfig(seed=0, height=40, width=40, land_fraction=0.7,
                          n_regions=1, noise_std=0.0)
        w = gen_world(cfg)
        land = w.mask.astype(bool)
        built = land & (w.channels["urban_2000"] > 0)
        assert 0 < built.sum() < land.sum()

    def test_round_trip_through_file(self, tmp_path):
        w = gen_world(SMALL)
        save_grid(w, tmp_path / "w.wgrd")
        back = load_grid(tmp_path / "w.wgrd")
        for name in w.channels:
            assert np.array_equal(back.channels[name], w.channels[name])


class TestDistances:
    def test_city_distance_matches_brute_force(self):
        cfg = SynthConfig(seed=3, height=20, width=20, land_fraction=0.6, n_regions=4)
        w = gen_world(cfg)
        land = w.mask.astype(bool)
        cities = (w.channels["dist_city"] == 0) & land
        assert cities.any()
        oracle = taxicab_min(cities, 20, 20) * land
        assert np.array_equal(w.channels["dist_city"], oracle)

    def test_water_distance_matches_brute_force(self):
        cfg = SynthConfig(seed=3, height=20, width=20, land_fraction=0.6, n_regions=4)
        w = gen_world(cfg)
        land = w.mask.astype(bool)
        oracle = (taxicab_min(~land, 20, 20) - 1.0) * land
        assert np.array_equal(w.channels["dist_water"], oracle)

    def test_zero_exactly_on_coastal_land(self):
        w = gen_world(SMALL)
        land = w.mask.astype(bool)
        water = ~land
        dw = w.channels["dist_water"]
        n_coastal = 0
        for r, c in np.argwhere(land):
            adjacent = any(
                0 <= r + dr < 16 and 0 <= c + dc < 16 and water[r + dr, c + dc]
                for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
            )
            assert (dw[r, c] == 0.0) == adjacent
            n_coastal += adjacent
        assert n_coastal > 0


class TestTargets:
    def test_box_mean_matches_loop(self):
        rng = np.random.default_rng(5)
        plane = rng.random((12, 12))
        land = rng.random((12, 12)) < 0.7
        for size in (5, 11):
            got = masked_box_mean(plane, land, size)
            want = box_mean_loop(plane, land, size)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("size", [4, 0, -1])
    def test_box_mean_refuses_uncentred_sizes(self, size):
        # an even window has no centre pixel, and numpy's own errors for
        # these sizes (a broadcast, a negative pad) do not name the size
        with pytest.raises(ConfigError, match=f"odd and >= 1, got {size}"):
            masked_box_mean(np.ones((8, 8)), np.ones((8, 8), bool), size)

    def test_noise_free_targets_match_formula_oracle(self):
        cfg = SynthConfig(seed=11, height=20, width=20, land_fraction=0.7,
                          n_regions=4, noise_std=0.0)
        w = gen_world(cfg)
        land = w.mask.astype(bool)
        u2000 = w.channels["urban_2000"]
        d = w.channels["dist_city"]
        pop = w.channels["population_2000"]
        m5 = box_mean_loop(u2000, land, 5)
        p11 = box_mean_loop(pop, land, 11)
        room = 1.0 - u2000
        g1 = (1.40 * m5 * room + 0.75 * np.exp(-d / 7.0) * room
              + 0.35 * np.tanh(pop) * room) * land
        g2 = (1.80 * m5 * room + 0.35 * p11 + 0.45 * np.exp(-d / 9.0)) * land
        np.testing.assert_allclose(w.channels[TARGET_URBAN], g1, atol=1e-12)
        np.testing.assert_allclose(w.channels[TARGET_POP], g2, atol=1e-12)

    def test_noise_perturbs_targets(self):
        noisy = gen_world(SynthConfig(seed=7, height=32, width=32, noise_std=0.05))
        clean = clean_targets(noisy)
        land = noisy.mask.astype(bool)
        resid = (noisy.channels[TARGET_URBAN] - clean[TARGET_URBAN])[land]
        assert 0.03 < resid.std() < 0.07
        water = ~land
        assert (noisy.channels[TARGET_URBAN][water] == 0).all()


class TestOracleMetrics:
    def test_true_function_is_exact_at_zero_noise(self):
        w = gen_world(SynthConfig(seed=2, height=16, width=16, noise_std=0.0))
        row = oracle_metrics(w, "true-function")
        assert row.r2 == 1.0
        assert row.mean_abs == 0.0 and row.max_abs == 0.0 and row.std == 0.0

    def test_zero_predictor_has_nonpositive_r2(self):
        w = gen_world(SynthConfig(seed=2, height=16, width=16))
        row = oracle_metrics(w, "zero")
        assert row.r2 <= 0.0
        assert row.mean_abs > 0.0

    def test_persistence_equals_zero_predictor(self):
        w = gen_world(SynthConfig(seed=2, height=16, width=16))
        assert oracle_metrics(w, "persistence") == oracle_metrics(w, "zero")

    def test_unknown_predictor(self):
        w = gen_world(SMALL)
        with pytest.raises(ConfigError):
            oracle_metrics(w, "nearest-neighbor")


# (height, width): tiny planes whose 4-sigma radius is wider than a side
# (the mirror repeats), non-square planes, and the bench's world sides
KERNEL_SHAPES = [(4, 4), (4, 9), (7, 5), (12, 12), (16, 40), (96, 96), (128, 128)]


class TestNumpyKernels:
    """The kernels gen_world uses in place of scipy.ndimage must give its
    bytes, or every world (and every result built on one) changes."""

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_gaussian_smooth_is_scipys_bytes(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        # gen_world's five smoothings use side / 12, 16, 10, 8 and 16, at
        # least 1; a sigma below 1 is added
        for sigma in sorted({max(1.0, min(shape) / d) for d in (12, 16, 10, 8)} | {0.6}):
            got = _gaussian_smooth(a, sigma)
            want = ndimage.gaussian_filter(a, sigma=sigma, mode="reflect")
            assert got.flags.c_contiguous
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), sigma

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_taxicab_is_scipys_distance(self, shape):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(sum(shape))
        one = np.zeros(shape, bool)
        one[rng.integers(shape[0]), rng.integers(shape[1])] = True
        corner = np.zeros(shape, bool)
        corner[-1, -1] = True
        cases = {"one pixel": one, "corner": corner, "all": np.ones(shape, bool),
                 **{f"density {p}": (rng.random(shape) < p) | one for p in (0.02, 0.3, 0.9)}}
        for name, targets in cases.items():
            want = ndimage.distance_transform_cdt(~targets, metric="taxicab").astype(np.float64)
            assert _taxicab_to(targets).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=str)
    def test_box_count_is_the_window_sum(self, shape):
        # the centred odd boxes of synth, and the boxes of coverage_count,
        # which reach S - 1 - S//2 before a pixel and S//2 after it
        mask = np.random.default_rng(sum(shape)).random(shape) < 0.6
        reaches = [(size // 2, size // 2) for size in (1, 3, 5, 11)]
        reaches += [(s - 1 - s // 2, s // 2) for s in (1, 2, 4, 5, 6, 16, 22, 28)]
        for before, after in reaches:
            size = before + after + 1
            got = box_sum(mask, before, after)
            want = sliding_window_view(np.pad(mask.astype(np.float64), (before, after)),
                                       (size, size)).sum(axis=(-2, -1))
            assert got.dtype == np.int64 and np.array_equal(got, want), (before, after)
            assert np.array_equal(box_sum(mask.astype(np.uint8), before, after), got)

    def test_top_k_takes_a_stable_sorts_last_k(self):
        # ties at the k-th value are broken the way the last k entries of a
        # stable ascending argsort break them: the later ones win
        rng = np.random.default_rng(4)
        for field in (rng.integers(0, 4, (6, 7)).astype(np.float64), rng.random((6, 7)),
                      np.where(rng.random((6, 7)) < 0.5, -np.inf, 1.0)):
            for k in range(1, field.size + 1):
                want = np.zeros(field.size, bool)
                want[np.argsort(field, axis=None, kind="stable")[field.size - k:]] = True
                got = _top_k_mask(field, k)
                assert got.sum() == k
                assert np.array_equal(got, want.reshape(field.shape)), k

    # two worlds' bytes, pinned so that they stay checked where scipy is absent
    @pytest.mark.parametrize("config, digest", [
        (SynthConfig(),
         "092d1802350b14e7ddf393d553121ef8abaf89a933a4bcb7a32a1df41ed0ff91"),
        (SynthConfig(seed=3, height=128, width=128),
         "8271a85373352dce61d9e650dad77019e282bb72e88537f0b6ee8b3b19d3344c"),
    ], ids=["default", "128x128"])
    def test_world_bytes_are_pinned(self, config, digest):
        assert world_digest(gen_world(config)) == digest
