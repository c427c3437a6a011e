"""Augmentation: transform definitions, group laws, 6x dataset expansion."""

from __future__ import annotations

import numpy as np
import pytest

from urbanet.augment import (
    TRANSFORMS,
    AugmentedTiles,
    Transform,
    transform_plane,
)
from urbanet.errors import ShapeError
from urbanet.grid import WorldGrid, pad_grid
from urbanet.tiler import TileDataset, WindowSpec


def make_tile(s=4, seed=0):
    """Channel-last planes of one tile: input (S,S,2), target (S,S,1), mask."""
    rng = np.random.default_rng(seed)
    mask = rng.integers(0, 2, size=(s, s)).astype(np.uint8)
    mask[s // 2, s // 2] = 1
    inp = rng.normal(size=(s, s, 2)) * mask[..., None]
    target = rng.normal(size=(s, s, 1)) * mask[..., None]
    return inp, target, mask


def make_dataset(mask, inputs, target, pad=3, size=4):
    """The padded grid of a world with input planes ``inputs`` and one
    target plane, and its tiles."""
    mask = np.asarray(mask, np.uint8)
    channels = {f"in{k}": np.where(mask == 1, p, 0.0) for k, p in enumerate(inputs)}
    channels["target"] = np.where(mask == 1, target, 0.0)
    padded = pad_grid(WorldGrid(mask, mask.astype(np.uint16), channels, {1: "AAA"}), pad)
    return padded, TileDataset(
        padded, WindowSpec(size), pad=pad,
        input_names=[f"in{k}" for k in range(len(inputs))], target_names=["target"],
    )


def transform_tile(plane, t):
    """``t`` applied to the two leading (spatial) axes of a channel-last
    plane, through ``transform_plane`` on its channel-first view."""
    if plane.ndim == 2:
        return transform_plane(plane, t)
    return np.moveaxis(transform_plane(np.moveaxis(plane, -1, 0), t), 0, -1)


def stacked(grid, names):
    """The planes ``names`` of ``grid`` stacked channel-last, in float64."""
    return np.stack([grid.channels[name] for name in names], axis=-1)


def oracle(padded, base, i, t):
    """Base tile ``i`` under ``t``: a direct slice of the stacked planes of
    ``padded``, the grid ``make_dataset`` built ``base`` from, with the
    inputs cast to the float32 the tiler stores them in."""
    s = base.window.size
    tr, tc = base.centers_padded[i] - base.window.center_offset
    window = np.s_[tr : tr + s, tc : tc + s]
    inputs = [name for name in padded.channels if name != "target"]
    planes = (stacked(padded, inputs)[window].astype(np.float32),
              stacked(padded, ["target"])[window],
              np.asarray(padded.mask)[window])
    return tuple(transform_tile(p, t) for p in planes)


def variants(aug, i):
    """Every augmented sample of base tile ``i``, gathered in one batch."""
    return aug.batch(i + len(aug.base) * np.arange(len(TRANSFORMS)))


class TestDefinitions:
    def test_identity_is_bitwise_equal(self):
        for plane in make_tile():
            np.testing.assert_array_equal(
                transform_tile(plane, Transform.IDENTITY), plane
            )

    def test_hflip_mirrors_columns(self):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            transform_plane(plane, Transform.HFLIP), [[2.0, 1.0], [4.0, 3.0]]
        )

    def test_vflip_mirrors_rows(self):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            transform_plane(plane, Transform.VFLIP), [[3.0, 4.0], [1.0, 2.0]]
        )

    def test_rot90_counterclockwise(self):
        plane = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            transform_plane(plane, Transform.ROT90), [[2.0, 4.0], [1.0, 3.0]]
        )

    def test_rot90_index_map(self):
        # element (i, j) must land at (S-1-j, i)
        s = 5
        rng = np.random.default_rng(1)
        plane = rng.normal(size=(s, s))
        out = transform_plane(plane, Transform.ROT90)
        for i in range(s):
            for j in range(s):
                assert out[s - 1 - j, i] == plane[i, j]

    def test_non_square_rejected(self):
        inp, _, mask = make_tile()
        with pytest.raises(ShapeError, match="square"):
            transform_tile(inp[:3], Transform.HFLIP)
        with pytest.raises(ShapeError, match="square"):
            transform_plane(mask[:3, :], Transform.HFLIP)


class TestGroupLaws:
    def planes(self, n=50):
        rng = np.random.default_rng(42)
        return [rng.normal(size=(5, 5)) for _ in range(n)]

    def test_rot90_fourth_power_is_identity(self):
        for p in self.planes():
            out = p
            for _ in range(4):
                out = transform_plane(out, Transform.ROT90)
            np.testing.assert_array_equal(out, p)

    def test_flips_are_involutions(self):
        for p in self.planes():
            for t in (Transform.HFLIP, Transform.VFLIP, Transform.ROT180):
                np.testing.assert_array_equal(
                    transform_plane(transform_plane(p, t), t), p
                )

    def test_vflip_equals_rot180_of_hflip(self):
        for p in self.planes():
            np.testing.assert_array_equal(
                transform_plane(p, Transform.VFLIP),
                transform_plane(transform_plane(p, Transform.HFLIP), Transform.ROT180),
            )

    def test_rot270_is_rot90_cubed(self):
        for p in self.planes():
            out = p
            for _ in range(3):
                out = transform_plane(out, Transform.ROT90)
            np.testing.assert_array_equal(out, transform_plane(p, Transform.ROT270))


class TestAugmentSet:
    def make_aug(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
        mask[2, 2] = 1
        inputs = [rng.normal(size=(5, 5)) for _ in range(2)]
        _, base = make_dataset(mask, inputs, rng.normal(size=(5, 5)))
        return AugmentedTiles(base, np.arange(len(base)))

    def test_six_tiles_first_is_original(self):
        aug = self.make_aug(0)
        x, y, m = variants(aug, 0)  # base tile 0 meets TRANSFORMS in order
        assert len(x) == len(y) == len(m) == 6
        for got, want in zip((x[0], y[0], m[0]), aug.base.batch(np.array([0]))):
            np.testing.assert_array_equal(got, want[0])

    def test_asymmetric_marker_gives_distinct_planes(self):
        marker = np.zeros((3, 3))
        marker[0, 0], marker[0, 1] = 1.0, 2.0  # breaks every symmetry
        _, base = make_dataset(np.ones((3, 3)), [marker], marker + 5.0, pad=1, size=3)
        aug = AugmentedTiles(base, np.arange(len(base)))
        x, _, _ = variants(aug, 4)  # the center tile covers the whole world
        assert len({v.tobytes() for v in x}) == 6

    def test_mask_value_coupling_preserved(self):
        aug = self.make_aug(3)
        x, y, m = aug.batch(np.arange(len(aug)))
        water = m == 0
        assert (x[water] == 0.0).all()
        assert (y[water] == 0.0).all()

    def test_pointwise_relation_survives(self):
        rng = np.random.default_rng(4)
        mask = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
        mask[2, 2] = 1
        # float32-representable inputs, so the float32 input tiles hold them
        # exactly and the relation can be recomputed in float64
        plane = rng.normal(size=(5, 5)).astype(np.float32).astype(np.float64)
        _, base = make_dataset(mask, [plane], 2.0 * plane + 1.0)
        aug = AugmentedTiles(base, np.arange(len(base)))
        x, y, m = aug.batch(np.arange(len(aug)))
        np.testing.assert_array_equal(
            y[..., 0], (2.0 * x[..., 0].astype(np.float64) + 1.0) * m)


class TestAugmentedTiles:
    def make_dataset(self):
        rng = np.random.default_rng(9)
        mask = rng.integers(0, 2, size=(5, 5)).astype(np.uint8)
        mask[2, 2] = 1
        return make_dataset(mask, [rng.normal(size=(5, 5))], rng.normal(size=(5, 5)))

    def pairs(self, padded, aug, ks):
        """The (base tile, transform) pair behind each sample of ``aug.batch``."""
        n = len(aug.base)
        key = {}
        for i in range(n):
            for t in TRANSFORMS:
                key[b"".join(p.tobytes() for p in oracle(padded, aug.base, i, t))] = (i, t)
        assert len(key) == 6 * n  # every pair is told apart by its planes
        x, y, m = aug.batch(np.asarray(ks))
        return [key[x[b].tobytes() + y[b].tobytes() + m[b].tobytes()]
                for b in range(len(ks))]

    def test_expansion_factor_is_six(self):
        _, base = self.make_dataset()
        assert len(AugmentedTiles(base, np.arange(len(base)))) == 6 * len(base)

    def test_each_pair_appears_exactly_once(self):
        padded, base = self.make_dataset()
        aug = AugmentedTiles(base, np.arange(len(base)))
        seen = self.pairs(padded, aug, range(len(aug)))
        assert len(set(seen)) == len(aug)
        assert {t for _, t in seen} == set(TRANSFORMS)

    def test_consecutive_samples_change_transform(self):
        padded, base = self.make_dataset()
        aug = AugmentedTiles(base, np.arange(len(base)))
        transforms = [t for _, t in self.pairs(padded, aug, range(min(6, len(aug))))]
        assert len(set(transforms)) > 1

    def test_batch_matches_items(self):
        padded, base = self.make_dataset()
        aug = AugmentedTiles(base, np.arange(len(base)))
        n = len(base)
        idx = np.array([0, 1, len(aug) - 1, len(aug) // 2])
        x, y, m = aug.batch(idx)
        for b, k in enumerate(idx):
            # index k is base tile k % n under TRANSFORMS[(k % n + k // n) % 6]
            i = k % n
            want_x, want_y, want_m = oracle(padded, base, i, TRANSFORMS[(i + k // n) % 6])
            np.testing.assert_array_equal(x[b], want_x)
            np.testing.assert_array_equal(y[b], want_y)
            np.testing.assert_array_equal(m[b], want_m)

    def test_subset_sample_is_its_kept_tile_under_its_pass(self):
        # sample j of K kept tiles is tile keep[j % K] under
        # TRANSFORMS[(keep[j % K] + j // K) % 6]: each kept tile meets every
        # transform once, and no other tile appears
        padded, base = self.make_dataset()
        keep = np.array([len(base) - 1, 0, len(base) // 2])
        aug = AugmentedTiles(base, keep)
        assert len(aug) == 6 * len(keep)
        x, y, m = aug.batch(np.arange(len(aug)))
        seen = set()
        for j in range(len(aug)):
            i = int(keep[j % len(keep)])
            t = TRANSFORMS[(i + j // len(keep)) % 6]
            for got, want in zip((x[j], y[j], m[j]), oracle(padded, base, i, t)):
                np.testing.assert_array_equal(got, want)
            seen.add((i, t))
        assert seen == {(int(i), t) for i in keep for t in TRANSFORMS}


class TestGatherGeometry:
    """Plain and augmented batches against the slice oracle on a padded
    world whose height and width differ, so a window offset table built
    with the wrong row stride cannot pass."""

    def make_aug(self, size):
        rng = np.random.default_rng(size)
        mask = rng.integers(0, 2, size=(5, 9)).astype(np.uint8)
        mask[2, 4] = 1
        inputs = [rng.normal(size=(5, 9)) for _ in range(2)]
        padded, base = make_dataset(mask, inputs, rng.normal(size=(5, 9)), pad=size,
                                    size=size)
        assert padded.height != padded.width
        return padded, AugmentedTiles(base, np.arange(len(base)))

    def expected(self, padded, stream, ks):
        """Oracle batch for ``ks``: plain tiles, or augmented samples."""
        if isinstance(stream, AugmentedTiles):
            n = len(stream.base)
            pairs = [(k % n, TRANSFORMS[(k % n + k // n) % 6]) for k in ks]
            stream = stream.base
        else:
            pairs = [(k, Transform.IDENTITY) for k in ks]
        tiles = [oracle(padded, stream, i, t) for i, t in pairs]
        return tuple(np.stack(planes) for planes in zip(*tiles))

    @pytest.mark.parametrize("size", [4, 5])
    def test_batches_match_slice_oracle(self, size):
        padded, aug = self.make_aug(size)
        n = len(aug.base)
        assert {TRANSFORMS[(k % n + k // n) % 6] for k in range(len(aug))} == set(TRANSFORMS)
        for stream in (aug.base, aug):
            ks = np.arange(len(stream))
            for got, want in zip(stream.batch(ks), self.expected(padded, stream, ks)):
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [4, 5])
    def test_batches_are_fresh_contiguous_arrays(self, size):
        padded, aug = self.make_aug(size)
        for stream in (aug.base, aug):
            ks = np.array([len(stream) - 1, 0, len(stream) // 2, 0])
            first = stream.batch(ks)
            for arr, dtype in zip(first, (np.float32, np.float64, np.uint8)):
                assert arr.dtype == dtype and arr.flags.c_contiguous
                arr.fill(7)
            for got, want in zip(stream.batch(ks), self.expected(padded, stream, ks)):
                assert got.tobytes() == want.tobytes()
