"""Tile sampling: window geometry, bijection with land pixels, coverage."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from urbanet.errors import DataError, ShapeError
from urbanet.grid import TEST, TRAIN, WorldGrid, assign_split, pad_grid
from urbanet.tiler import TileDataset, WindowSpec, coverage_count


def make_world(mask, n_inputs=2, seed=0, value_fn=None):
    """Unpadded world with inputs in0..inN and one target channel."""
    mask = np.asarray(mask, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    channels = {}
    for k in range(n_inputs):
        plane = value_fn(k, mask) if value_fn else rng.normal(size=mask.shape)
        channels[f"in{k}"] = np.where(mask == 1, plane, 0.0)
    channels["target"] = np.where(mask == 1, rng.normal(size=mask.shape), 0.0)
    regions = (mask.astype(np.uint16)) * 5
    return WorldGrid(mask, regions, channels, {5: "AAA"})


def dataset(world, size, pad, **kw):
    padded = pad_grid(world, pad)
    names = [n for n in world.channels if n != "target"]
    return TileDataset(
        padded, WindowSpec(size), pad=pad,
        input_names=names, target_names=["target"], **kw,
    )


def centers(ds, pad):
    """Tile centers in the coordinates of the grid before its ``pad``, in
    dataset order."""
    return [(int(r), int(c)) for r, c in ds.centers_padded - pad]


def index_of(ds, pad, center):
    return centers(ds, pad).index(center)


def stacked(grid, names):
    """The planes ``names`` of ``grid`` stacked channel-last, in float64."""
    return np.stack([grid.channels[name] for name in names], axis=-1)


def oracle_tile(padded, ds, i):
    """Tile ``i`` of ``ds``, built by :func:`dataset` from the grid
    ``padded``, sliced straight from its stacked planes, channel-last, with
    the inputs cast to the float32 the tiler stores them in."""
    s = ds.window.size
    tr, tc = ds.centers_padded[i] - ds.window.center_offset
    window = np.s_[tr : tr + s, tc : tc + s]
    inputs = [n for n in padded.channels if n != "target"]
    return (stacked(padded, inputs)[window].astype(np.float32),
            stacked(padded, ["target"])[window],
            np.asarray(padded.mask)[window])


class TestWindowSpec:
    def test_default_center_offset(self):
        assert WindowSpec(28).center_offset == (14, 14)
        assert WindowSpec(16).center_offset == (8, 8)
        assert WindowSpec(1).center_offset == (0, 0)

    def test_offset_bounds_checked(self):
        with pytest.raises(ShapeError):
            WindowSpec(0)


class TestTileAt:
    def test_full_window_shapes(self):
        world = make_world(np.ones((30, 30), np.uint8), n_inputs=9)
        ds = dataset(world, size=28, pad=20)
        i = index_of(ds, 20, (15, 15))
        x, y, m = ds.batch(np.array([i]))
        assert x.shape == (1, 28, 28, 9)
        assert y.shape == (1, 28, 28, 1)
        assert m.shape == (1, 28, 28)
        assert m[0, 14, 14] == 1

    def test_single_pixel_window(self):
        world = make_world(np.ones((1, 1), np.uint8))
        ds = dataset(world, size=1, pad=20)
        x, _, m = ds.batch(np.array([0]))
        assert x[0, 0, 0, 0] == np.float32(world.channels["in0"][0, 0])
        assert m[0, 0, 0] == 1

    def test_values_match_index_oracle(self):
        # channel value = 10*row + col on land; verify against direct indexing
        world = make_world(
            np.ones((5, 5), np.uint8),
            n_inputs=1,
            value_fn=lambda k, m: np.add.outer(
                10.0 * np.arange(5), np.arange(5, dtype=float)
            ),
        )
        pad, s = 3, 4
        off = s // 2
        ds = dataset(world, size=s, pad=pad)
        x, _, _ = ds.batch(np.array([index_of(ds, pad, (2, 3))]))
        for i in range(s):
            for j in range(s):
                rr, cc = 2 - off + i, 3 - off + j  # unpadded coordinates
                if 0 <= rr < 5 and 0 <= cc < 5:
                    assert x[0, i, j, 0] == 10.0 * rr + cc
                else:
                    assert x[0, i, j, 0] == 0.0

    def test_insufficient_padding_rejected(self):
        world = make_world(np.ones((4, 4), np.uint8))
        with pytest.raises(ShapeError, match="padding"):
            dataset(world, size=5, pad=1)

    def test_center_split_and_region(self):
        mask = np.ones((2, 2), np.uint8)
        regions = np.array([[5, 5], [5, 9]], np.uint16)
        world = make_world(mask)
        world = WorldGrid(mask, regions, world.channels, {5: "AAA", 9: "BBB"})
        split = assign_split(pad_grid(world, 2), {"BBB"})
        test = dataset(world, size=2, pad=2, split=split, split_filter="test")
        train = dataset(world, size=2, pad=2, split=split, split_filter="train")
        assert centers(test, 2) == [(1, 1)]
        assert test.regions.tolist() == [9]
        assert centers(train, 2) == [(0, 0), (0, 1), (1, 0)]
        assert train.regions.tolist() == [5, 5, 5]


class TestSampleAll:
    def test_bijection_with_land_pixels(self):
        rng = np.random.default_rng(7)
        mask = np.zeros(64, np.uint8)
        mask[rng.choice(64, size=37, replace=False)] = 1
        mask = mask.reshape(8, 8)
        ds = dataset(make_world(mask), size=6, pad=4)
        assert len(ds) == 37
        assert len(set(centers(ds, 4))) == 37
        land = {(r, c) for r in range(8) for c in range(8) if mask[r, c] == 1}
        assert set(centers(ds, 4)) == land

    def test_zero_land_gives_empty_sequence(self):
        ds = dataset(make_world(np.zeros((4, 4), np.uint8)), size=4, pad=4)
        assert len(ds) == 0
        assert centers(ds, 4) == []
        x, y, m = ds.batch(np.arange(0))
        assert x.shape == (0, 4, 4, 2) and y.shape == (0, 4, 4, 1)
        assert m.shape == (0, 4, 4)

    def test_row_major_order_and_determinism(self):
        rng = np.random.default_rng(1)
        mask = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        world = make_world(mask, seed=1)
        a = dataset(world, size=4, pad=4)
        b = dataset(world, size=4, pad=4)
        assert centers(a, 4) == sorted(centers(a, 4))
        assert centers(a, 4) == centers(b, 4)
        every = np.arange(len(a))
        for got, want in zip(a.batch(every), b.batch(every)):
            np.testing.assert_array_equal(got, want)

    def test_tile_invariants_exhaustively(self):
        rng = np.random.default_rng(2)
        mask = rng.integers(0, 2, size=(7, 7)).astype(np.uint8)
        ds = dataset(make_world(mask, seed=2), size=5, pad=4)
        off_r, off_c = WindowSpec(5).center_offset
        x, y, m = ds.batch(np.arange(len(ds)))
        assert (m[:, off_r, off_c] == 1).all()
        water = m == 0
        assert (x[water] == 0.0).all()
        assert (y[water] == 0.0).all()

    def test_split_filtering(self):
        mask = np.ones((6, 6), np.uint8)
        regions = np.full((6, 6), 5, np.uint16)
        regions[:, 3:] = 9
        world = make_world(mask)
        world = WorldGrid(mask, regions, world.channels, {5: "AAA", 9: "BBB"})
        split = assign_split(pad_grid(world, 3), {"BBB"})
        all_t, train, test = (
            dataset(world, size=4, pad=3, split=split, split_filter=f)
            for f in ("all", "train", "test")
        )
        assert len(train) == 18 and len(test) == 18
        assert len(all_t) == len(train) + len(test)
        for ds, label, region in ((train, TRAIN, 5), (test, TEST, 9)):
            r, c = ds.centers_padded.T
            assert (split.labels[r, c] == label).all()
            assert (ds.regions == region).all()

    def test_no_split_makes_every_land_pixel_a_train_pixel(self):
        rng = np.random.default_rng(5)
        mask = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        world = make_world(mask, seed=5)
        land = sorted(map(tuple, np.argwhere(mask == 1).tolist()))
        for f in ("all", "train"):
            assert centers(dataset(world, size=4, pad=3, split_filter=f), 3) == land
        assert len(dataset(world, size=4, pad=3, split_filter="test")) == 0

    def test_batch_matches_items(self):
        rng = np.random.default_rng(3)
        mask = rng.integers(0, 2, size=(6, 6)).astype(np.uint8)
        mask[0, 0] = 1
        world = make_world(mask, seed=3)
        ds = dataset(world, size=4, pad=4)
        idx = np.array([0, len(ds) - 1, len(ds) // 2])
        x, y, m = ds.batch(idx)
        assert x.shape == (3, 4, 4, 2) and y.shape == (3, 4, 4, 1)
        for b, i in enumerate(idx):
            want_x, want_y, want_m = oracle_tile(pad_grid(world, 4), ds, i)
            np.testing.assert_array_equal(x[b], want_x)
            np.testing.assert_array_equal(y[b], want_y)
            np.testing.assert_array_equal(m[b], want_m)

    def test_bad_split_filter(self):
        world = make_world(np.ones((2, 2), np.uint8))
        with pytest.raises(DataError, match="split_filter"):
            dataset(world, size=2, pad=2, split_filter="validation")

    @pytest.mark.parametrize("field", ["input_names", "target_names"])
    def test_unknown_channel(self, field):
        world = pad_grid(make_world(np.ones((3, 3), np.uint8)), 2)
        names = {"input_names": ["in0"], "target_names": ["target"], field: ["nope"]}
        with pytest.raises(DataError, match="unknown channel 'nope'"):
            TileDataset(world, WindowSpec(2), pad=2, **names)

    def test_no_target_planes(self):
        # evaluation tiles carry inputs only
        world = pad_grid(make_world(np.ones((3, 3), np.uint8)), 2)
        ds = TileDataset(world, WindowSpec(2), pad=2, input_names=["in0", "in1"],
                         target_names=[])
        x, y, m = ds.batch(np.arange(len(ds)))
        assert x.shape == (9, 2, 2, 2) and y.shape == (9, 2, 2, 0) and m.shape == (9, 2, 2)
        assert x.dtype == np.float32 and y.dtype == np.float64

    def test_holds_no_reference_to_the_grid(self):
        # the padded float64 grid is freed once its pixel tables are built
        world = pad_grid(make_world(np.ones((3, 3), np.uint8)), 2)
        ds = TileDataset(world, WindowSpec(2), pad=2, input_names=["in0"],
                         target_names=["target"])
        grid, plane = weakref.ref(world), weakref.ref(world.channels["in1"])
        del world
        gc.collect()
        assert grid() is None and plane() is None
        assert len(ds) == 9 and ds.batch(np.arange(9))[0].shape == (9, 2, 2, 1)


class TestCoverage:
    def test_interior_pixel_full_coverage(self):
        world = make_world(np.ones((60, 60), np.uint8))
        padded = pad_grid(world, 20)
        counts = coverage_count(padded, WindowSpec(28))
        # a pixel at least S-1 land pixels from any water in every direction
        assert counts[20 + 25, 20 + 25] == 28 * 28 == 784

    def test_isolated_pixel(self):
        world = make_world(np.ones((1, 1), np.uint8))
        padded = pad_grid(world, 20)
        for s in (1, 5, 16):
            counts = coverage_count(padded, WindowSpec(s))
            assert counts[20, 20] == 1

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(11)
        mask = rng.integers(0, 2, size=(12, 12)).astype(np.uint8)
        world = make_world(mask, seed=11)
        pad, s = 6, 6
        padded = pad_grid(world, pad)
        ds = dataset(world, size=s, pad=pad)
        brute = np.zeros((padded.height, padded.width), np.int64)
        for tr, tc in ds.centers_padded - ds.window.center_offset:
            brute[tr : tr + s, tc : tc + s] += 1
        np.testing.assert_array_equal(coverage_count(padded, WindowSpec(s)), brute)
