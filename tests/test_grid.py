"""Grid layer: WGRD round-trips, padding, normalization, split assignment."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanet.errors import (
    DataError,
    DegenerateChannelError,
    FormatError,
    IntegrityError,
)
from urbanet.grid import (
    TEST,
    TRAIN,
    WATER,
    NormStats,
    WorldGrid,
    assign_split,
    load_grid,
    normalize_channels,
    pad_grid,
    save_grid,
    validate_grid,
)


def n_water(split):
    """Water pixels of a split."""
    return int(np.count_nonzero(split.labels == WATER))


def make_grid(mask, *, n_channels=1, regions=None, region_table=None, seed=0):
    """Random grid honoring the water-zero invariant."""
    mask = np.asarray(mask, dtype=np.uint8)
    rng = np.random.default_rng(seed)
    if regions is None:
        regions = (mask * 7).astype(np.uint16)
        region_table = {7: "AAA"}
    channels = {}
    for k in range(n_channels):
        plane = rng.normal(size=mask.shape)
        channels[f"ch{k}"] = np.where(mask == 1, plane, 0.0)
    return WorldGrid(
        mask=mask,
        regions=np.asarray(regions, dtype=np.uint16),
        channels=channels,
        region_table=dict(region_table or {}),
    )


class TestRoundTrip:
    def test_value_round_trip(self, tmp_path):
        grid = make_grid([[1, 0, 1], [1, 1, 0]], n_channels=3)
        path = tmp_path / "g.wgrd"
        save_grid(grid, path)
        back = load_grid(path)
        assert back.height == 2 and back.width == 3
        assert list(back.channels) == list(grid.channels)
        assert back.region_table == grid.region_table
        np.testing.assert_array_equal(back.mask, grid.mask)
        np.testing.assert_array_equal(back.regions, grid.regions)
        for name in grid.channels:
            np.testing.assert_array_equal(back.channels[name], grid.channels[name])

    def test_byte_round_trip(self, tmp_path):
        grid = make_grid([[1, 1], [0, 1]], n_channels=2)
        p1, p2 = tmp_path / "a.wgrd", tmp_path / "b.wgrd"
        save_grid(grid, p1)
        save_grid(load_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_round_trip_unsorted_region_table(self, tmp_path):
        # Table order is whatever the file says; a reload must not reorder it.
        grid = make_grid(
            [[1, 1]],
            regions=[[9, 3]],
            region_table={9: "ZZZ", 3: "AAA"},
        )
        p1, p2 = tmp_path / "a.wgrd", tmp_path / "b.wgrd"
        save_grid(grid, p1)
        save_grid(load_grid(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numpy_region_codes_save(self, tmp_path):
        grid = make_grid([[1, 1]], regions=[[3, 3]], region_table={np.uint16(3): "AAA"})
        save_grid(grid, tmp_path / "g.wgrd")
        assert load_grid(tmp_path / "g.wgrd").region_table == {3: "AAA"}

    def test_save_deterministic(self, tmp_path):
        grid = make_grid([[1, 0], [1, 1]], n_channels=2)
        p1, p2 = tmp_path / "a.wgrd", tmp_path / "b.wgrd"
        save_grid(grid, p1)
        save_grid(grid, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_arrays_are_read_only(self, tmp_path):
        grid = make_grid([[1]])
        path = tmp_path / "g.wgrd"
        save_grid(grid, path)
        back = load_grid(path)
        with pytest.raises(ValueError):
            back.mask[0, 0] = 0

    @settings(max_examples=25, deadline=None)
    @given(
        h=st.integers(1, 6),
        w=st.integers(1, 6),
        n_channels=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_round_trip_random_grids(self, tmp_path_factory, h, w, n_channels, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(h, w))
        grid = make_grid(mask, n_channels=n_channels, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "g.wgrd"
        save_grid(grid, path)
        back = load_grid(path)
        for name in grid.channels:
            np.testing.assert_array_equal(back.channels[name], grid.channels[name])
        np.testing.assert_array_equal(back.regions, grid.regions)


class TestFormatErrors:
    def test_water_pixel_loads_as_zero(self, tmp_path):
        grid = make_grid([[1, 0], [1, 1]])
        path = tmp_path / "g.wgrd"
        save_grid(grid, path)
        assert load_grid(path).channels["ch0"][0, 1] == 0.0

    def test_save_refuses_nonzero_water(self):
        grid = make_grid([[1, 0], [1, 1]])
        bad = dict(grid.channels)
        plane = bad["ch0"].copy()
        plane[0, 1] = 3.5
        bad["ch0"] = plane
        broken = WorldGrid(grid.mask, grid.regions, bad, grid.region_table)
        with pytest.raises(IntegrityError, match=r"\(0, 1\)"):
            save_grid(broken, "/dev/null")

    def test_load_names_offending_water_pixel(self, tmp_path, reseal):
        grid = make_grid([[1, 0], [1, 1]])
        path = tmp_path / "g.wgrd"
        save_grid(grid, path)

        def poke(header, arrays):
            # a nonzero float in the water pixel (row 0, col 1) of ch0
            arrays[2][0, 1] = 2.25

        reseal(path, poke)
        with pytest.raises(IntegrityError, match=r"\(0, 1\).*'ch0'") as exc:
            load_grid(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_flipped_plane_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1, 0], [1, 1]]), path)
        raw = bytearray(path.read_bytes())
        raw[-64] ^= 0x01  # first byte of ch0, the last array
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="'channel.0' fails its checksum"):
            load_grid(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1]]), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="magic"):
            load_grid(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1]]), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            load_grid(path)

    def test_version_1_file_refused(self, tmp_path):
        # the hand-packed layout of version 1: a 1x1 land grid, one channel
        path = tmp_path / "g.wgrd"
        path.write_bytes(b"WGRD" + struct.pack("<HIIHH", 1, 1, 1, 1, 1)
                         + struct.pack("<HB", 7, 3) + b"AAA" + b"\x03ch0"
                         + struct.pack("<BHd", 1, 7, 0.5))
        with pytest.raises(FormatError, match="unsupported version 1, expected 2"):
            load_grid(path)

    def test_truncated_plane(self, tmp_path):
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1, 1]]), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(IntegrityError, match="size mismatch"):
            load_grid(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1, 1]]), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(IntegrityError, match="size mismatch"):
            load_grid(path)

    def test_duplicate_channel_names_rejected(self, tmp_path, reseal):
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1]], n_channels=2), path)

        def rename(header, arrays):
            # the directory holds "ch0" then "ch1"; rename the second to "ch0"
            header["meta"]["channels"][1] = "ch0"

        reseal(path, rename)
        with pytest.raises(IntegrityError, match="duplicate channel"):
            load_grid(path)

    def test_empty_channel_list_refused(self):
        grid = WorldGrid(
            mask=np.ones((1, 1), np.uint8),
            regions=np.ones((1, 1), np.uint16),
            channels={},
            region_table={1: "AAA"},
        )
        with pytest.raises(FormatError, match="at least one channel"):
            save_grid(grid, "/dev/null")

    def test_shape_mismatch_rejected(self):
        grid = WorldGrid(
            mask=np.ones((3, 2), np.uint8),
            regions=np.ones((3, 2), np.uint16),
            channels={"ch0": np.zeros((2, 2))},
            region_table={1: "AAA"},
        )
        with pytest.raises(IntegrityError, match="shape"):
            validate_grid(grid)

    def test_mask_values_restricted(self):
        grid = make_grid([[1, 1]])
        broken = WorldGrid(
            np.array([[1, 2]], np.uint8), grid.regions, grid.channels, grid.region_table
        )
        with pytest.raises(IntegrityError, match="expected 0 or 1"):
            validate_grid(broken)

    def test_non_ascii_channel_name_refused(self, tmp_path):
        grid = make_grid([[1]])
        renamed = WorldGrid(
            grid.mask, grid.regions, {"chß": grid.channels["ch0"]}, grid.region_table
        )
        with pytest.raises(FormatError, match="ASCII"):
            save_grid(renamed, tmp_path / "g.wgrd")


class TestPad:
    def test_zero_border(self):
        grid = make_grid([[1, 1], [1, 0]])
        padded = pad_grid(grid, 1)
        assert padded.height == 4 and padded.width == 4
        assert padded.mask[0].sum() == 0 and padded.mask[-1].sum() == 0
        assert padded.regions[:, 0].sum() == 0 and padded.regions[:, -1].sum() == 0
        np.testing.assert_array_equal(padded.mask[1:3, 1:3], grid.mask)
        np.testing.assert_array_equal(
            padded.channels["ch0"][1:3, 1:3], grid.channels["ch0"]
        )
        validate_grid(padded)

    def test_pad_zero_is_identity(self):
        grid = make_grid([[1, 0], [1, 1]])
        same = pad_grid(grid, 0)
        np.testing.assert_array_equal(same.mask, grid.mask)
        np.testing.assert_array_equal(same.channels["ch0"], grid.channels["ch0"])

    def test_pad_twenty_preserves_interior(self):
        rng = np.random.default_rng(3)
        grid = make_grid(rng.integers(0, 2, size=(100, 100)), n_channels=2, seed=3)
        padded = pad_grid(grid, 20)
        assert (padded.height, padded.width) == (140, 140)
        for name in grid.channels:
            np.testing.assert_array_equal(
                padded.channels[name][20:120, 20:120], grid.channels[name]
            )

    @settings(max_examples=25, deadline=None)
    @given(pad=st.integers(0, 8), seed=st.integers(0, 2**16))
    def test_pad_dimensions_property(self, pad, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(rng.integers(0, 2, size=(4, 5)), seed=seed)
        padded = pad_grid(grid, pad)
        assert padded.height == 4 + 2 * pad
        assert padded.width == 5 + 2 * pad
        np.testing.assert_array_equal(
            padded.channels["ch0"][pad : pad + 4, pad : pad + 5],
            grid.channels["ch0"],
        )


class TestNormalize:
    def test_min_max_formula(self):
        grid = make_grid([[1, 1, 1, 0]])
        channels = {"ch0": np.array([[2.0, 4.0, 6.0, 0.0]])}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        normed, stats = normalize_channels(grid)
        np.testing.assert_array_equal(normed.channels["ch0"], [[0.0, 0.5, 1.0, 0.0]])
        assert stats.channels["ch0"] == (2.0, 6.0)

    def test_water_stays_zero_even_with_positive_min(self):
        grid = make_grid([[1, 1, 0]])
        channels = {"ch0": np.array([[5.0, 9.0, 0.0]])}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        normed, _ = normalize_channels(grid)
        assert normed.channels["ch0"][0, 2] == 0.0

    def test_applying_returned_stats_is_idempotent(self):
        grid = make_grid([[1, 1], [1, 1]], seed=11)
        first, stats = normalize_channels(grid)
        second, _ = normalize_channels(grid, stats)
        np.testing.assert_array_equal(first.channels["ch0"], second.channels["ch0"])

    def test_constant_channel_rejected(self):
        grid = make_grid([[1, 1, 1]])
        channels = {"flat": np.full((1, 3), 5.0)}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        with pytest.raises(DegenerateChannelError, match="'flat'"):
            normalize_channels(grid)

    def test_out_of_range_values_not_clipped(self):
        # Fit on the left half only; the right half holds larger values.
        mask = np.ones((1, 4), np.uint8)
        grid = make_grid(mask)
        channels = {"ch0": np.array([[1.0, 2.0, 3.0, 5.0]])}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        fit = np.array([[True, True, False, False]])
        normed, stats = normalize_channels(grid, fit_mask=fit)
        assert stats.channels["ch0"] == (1.0, 2.0)
        np.testing.assert_array_equal(normed.channels["ch0"], [[0.0, 1.0, 2.0, 4.0]])

    def test_train_pixels_land_in_unit_interval(self):
        rng = np.random.default_rng(5)
        grid = make_grid(np.ones((6, 6), np.uint8), n_channels=3, seed=5)
        fit = rng.random((6, 6)) < 0.5
        fit[0, 0] = fit[1, 1] = True
        normed, _ = normalize_channels(grid, fit_mask=fit)
        for plane in normed.channels.values():
            assert plane[fit].min() >= 0.0 and plane[fit].max() <= 1.0

    def test_channel_subset_passthrough(self):
        grid = make_grid([[1, 1, 1]], n_channels=2, seed=7)
        normed, stats = normalize_channels(grid, channels=["ch0"])
        assert set(stats.channels) == {"ch0"}
        np.testing.assert_array_equal(normed.channels["ch1"], grid.channels["ch1"])

    def test_stats_for_missing_channel_rejected(self):
        grid = make_grid([[1, 1]])
        stats = NormStats(channels={"nope": (0.0, 1.0)})
        with pytest.raises(DataError, match="'nope'"):
            normalize_channels(grid, stats)

    def test_all_water_fit_rejected(self):
        grid = make_grid([[1, 1]])
        with pytest.raises(DataError, match="no land pixels"):
            normalize_channels(grid, fit_mask=np.zeros((1, 2), bool))


class TestSplit:
    def test_left_half_region_counts(self):
        # Region 1 ("AAA") on the left half, region 2 ("BBB") right, row 0 water.
        mask = np.ones((10, 10), np.uint8)
        mask[0, :] = 0
        regions = np.zeros((10, 10), np.uint16)
        regions[mask == 1] = 2
        left = np.zeros((10, 10), bool)
        left[:, :5] = True
        regions[(mask == 1) & left] = 1
        grid = make_grid(mask, regions=regions, region_table={1: "AAA", 2: "BBB"})
        split = assign_split(grid, {"AAA"})
        brute = sum(
            1
            for r in range(10)
            for c in range(10)
            if mask[r, c] == 1 and regions[r, c] == 1
        )
        assert split.n_test == brute == 45
        assert split.n_train == 45
        assert n_water(split) == 10

    def test_empty_test_regions(self):
        grid = make_grid([[1, 0], [1, 1]])
        split = assign_split(grid, set())
        assert split.n_test == 0
        assert split.n_train == 3

    def test_label_invariants(self):
        grid = make_grid(
            [[1, 0], [1, 1]],
            regions=[[3, 0], [3, 9]],
            region_table={3: "AAA", 9: "BBB"},
        )
        split = assign_split(grid, {"BBB"})
        labels = split.labels
        np.testing.assert_array_equal(labels == WATER, np.asarray(grid.mask) == 0)
        np.testing.assert_array_equal(labels == TEST, [[False, False], [False, True]])
        np.testing.assert_array_equal(labels == TRAIN, [[True, False], [True, False]])

    def test_unknown_region_warns(self):
        grid = make_grid([[1]])
        with pytest.warns(UserWarning, match="XXX"):
            split = assign_split(grid, {"XXX"})
        assert split.n_test == 0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_partition_property(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, size=(7, 5))
        regions = np.where(mask == 1, rng.integers(1, 4, size=(7, 5)), 0)
        grid = make_grid(
            mask, regions=regions, region_table={1: "AAA", 2: "BBB", 3: "CCC"}
        )
        split = assign_split(grid, {"BBB"})
        assert split.n_train + split.n_test + n_water(split) == 35
        assert split.n_test == int(np.count_nonzero((mask == 1) & (regions == 2)))
