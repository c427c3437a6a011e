"""Grid layer: WGRD round-trips, padding, normalization, split assignment."""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urbanet.errors import (
    DataError,
    DegenerateChannelError,
    FormatError,
    IntegrityError,
    ShapeError,
)
from urbanet.grid import (
    TEST,
    TRAIN,
    WATER,
    WorldGrid,
    assign_split,
    load_grid,
    normalize_channels,
    open_grid,
    pad_grid,
    save_grid,
    validate_grid,
)


def n_water(split):
    """Water pixels of a split."""
    return int(np.count_nonzero(split.labels == WATER))


def n_pixels(split, scope):
    """Pixels that ``split.select(scope)`` names."""
    return int(np.count_nonzero(split.select(scope)))


def normalize_on_land(grid, **kw):
    """``normalize_channels`` fitted on every land pixel, of every channel
    unless ``channels`` is given."""
    kw.setdefault("channels", list(grid.channels))
    return normalize_channels(grid, fit_mask=np.ones(grid.mask.shape, bool), **kw)


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

    def test_open_file_checks_every_read_again(self, tmp_path):
        # a plane read again after the file changed in place is refused; the
        # plane is larger than a read buffer, so the bytes come from the file
        path = tmp_path / "g.wgrd"
        save_grid(make_grid(np.ones((48, 48))), path)
        with open_grid(path) as src:
            src.channels["ch0"]
            raw = bytearray(path.read_bytes())
            raw[-8] ^= 0x01  # in the last value of ch0, the last array
            with open(path, "r+b") as fh:
                fh.write(raw)
            with pytest.raises(IntegrityError, match="'channel.0' fails its checksum"):
                src.channels["ch0"]

    @pytest.mark.parametrize("case, want", [
        ("mask-checksum", "'mask' fails its checksum"),
        ("regions-checksum", "'regions' fails its checksum"),
        ("mask-value", r"mask value at \(0, 0\) is 2"),
        ("water-region", r"water pixel \(0, 1\) has region code 7"),
    ], ids=["mask-checksum", "regions-checksum", "mask-value", "water-region"])
    def test_open_refuses_corrupt_mask_or_regions(self, tmp_path, reseal, case, want):
        # the mask and the regions are read and checked as the file opens,
        # before any plane is looked up
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1, 0], [1, 1]]), path)
        if case.endswith("checksum"):
            raw = bytearray(path.read_bytes())
            (length,) = struct.unpack_from("<I", raw, 6)
            start = -(-(14 + length) // 64) * 64  # the mask; the regions 64 bytes on
            raw[start + (64 if case == "regions-checksum" else 0)] ^= 0x01
            path.write_bytes(bytes(raw))
        else:
            def poke(header, arrays):
                if case == "mask-value":
                    arrays[0][0, 0] = 2
                else:
                    arrays[1][0, 1] = 7

            reseal(path, poke)
        with pytest.raises(IntegrityError, match=want) as exc:
            with open_grid(path):
                pass
        assert str(exc.value).startswith(f"{path}: ")

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

    def test_negative_pad_is_a_shape_error(self):
        # the package's own error, which the command line maps to exit 2
        with pytest.raises(ShapeError, match="pad must be >= 0, got -1"):
            pad_grid(make_grid([[1, 0], [1, 1]]), -1)

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
        normed, stats = normalize_on_land(grid)
        np.testing.assert_array_equal(normed.channels["ch0"], [[0.0, 0.5, 1.0, 0.0]])
        assert stats.channels["ch0"] == (2.0, 6.0)

    def test_water_stays_zero_even_with_positive_min(self):
        grid = make_grid([[1, 1, 0]])
        channels = {"ch0": np.array([[5.0, 9.0, 0.0]])}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        normed, _ = normalize_on_land(grid)
        assert normed.channels["ch0"][0, 2] == 0.0

    def test_returned_stats_are_the_ones_applied(self):
        rng = np.random.default_rng(11)
        mask = rng.integers(0, 2, size=(6, 7))
        grid = make_grid(mask, n_channels=2, seed=11)
        fit = rng.random((6, 7)) < 0.5
        normed, stats = normalize_channels(grid, fit_mask=fit, channels=["ch1", "ch0"])
        assert list(stats.channels) == ["ch1", "ch0"]
        for name, (lo, hi) in stats.channels.items():
            plane = grid.channels[name]
            assert (lo, hi) == (plane[fit & (mask == 1)].min(), plane[fit & (mask == 1)].max())
            want = np.where(mask == 1, (plane - lo) / (hi - lo), 0.0)
            assert normed.channels[name].tobytes() == want.tobytes()

    def test_constant_channel_rejected(self):
        grid = make_grid([[1, 1, 1]])
        channels = {"flat": np.full((1, 3), 5.0)}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        with pytest.raises(DegenerateChannelError, match="'flat'"):
            normalize_on_land(grid)

    def test_out_of_range_values_not_clipped(self):
        # Fit on the left half only; the right half holds larger values.
        mask = np.ones((1, 4), np.uint8)
        grid = make_grid(mask)
        channels = {"ch0": np.array([[1.0, 2.0, 3.0, 5.0]])}
        grid = WorldGrid(grid.mask, grid.regions, channels, grid.region_table)
        fit = np.array([[True, True, False, False]])
        normed, stats = normalize_channels(grid, fit_mask=fit, channels=["ch0"])
        assert stats.channels["ch0"] == (1.0, 2.0)
        np.testing.assert_array_equal(normed.channels["ch0"], [[0.0, 1.0, 2.0, 4.0]])

    def test_train_pixels_land_in_unit_interval(self):
        rng = np.random.default_rng(5)
        grid = make_grid(np.ones((6, 6), np.uint8), n_channels=3, seed=5)
        fit = rng.random((6, 6)) < 0.5
        fit[0, 0] = fit[1, 1] = True
        normed, _ = normalize_channels(grid, fit_mask=fit, channels=list(grid.channels))
        for plane in normed.channels.values():
            assert plane[fit].min() >= 0.0 and plane[fit].max() <= 1.0

    def test_channel_subset_passthrough(self):
        # the planes left out pass through as the input's own arrays, and
        # the input grid is not changed
        grid = make_grid([[1, 0, 1], [1, 1, 0]], n_channels=3, seed=7)
        before = {name: plane.copy() for name, plane in grid.channels.items()}
        normed, stats = normalize_on_land(grid, channels=["ch1"])
        assert set(stats.channels) == {"ch1"}
        assert list(normed.channels) == ["ch0", "ch1", "ch2"]
        assert normed.channels["ch0"] is grid.channels["ch0"]
        assert normed.channels["ch2"] is grid.channels["ch2"]
        assert not np.shares_memory(normed.channels["ch1"], grid.channels["ch1"])
        for name, plane in grid.channels.items():
            assert plane.tobytes() == before[name].tobytes()

    @pytest.mark.parametrize("pad", [0, 3])
    def test_planes_from_the_file_match_pad_and_normalize(self, tmp_path, pad):
        # the CLI's path: pad and normalize the open file, whose planes are
        # read one at a time, to the bytes of an eager np.pad and the
        # min-max formula on the grid as generated
        rng = np.random.default_rng(5)
        mask = rng.integers(0, 2, size=(7, 9))
        regions = mask * rng.integers(1, 3, size=mask.shape)
        grid = make_grid(mask, n_channels=3, regions=regions,
                         region_table={1: "AAA", 2: "BBB"}, seed=5)
        save_grid(grid, tmp_path / "g.wgrd")
        land = np.pad(mask, pad) == 1
        fit = land & np.pad(np.isin(regions, [1]), pad)  # the train split: AAA
        with open_grid(tmp_path / "g.wgrd") as src:
            padded = pad_grid(src, pad)
            split = assign_split(padded, ["BBB"])
            assert split.train_mask.tobytes() == fit.tobytes()
            got, stats = normalize_channels(padded, fit_mask=split.train_mask,
                                            channels=["ch2", "ch0"])
            assert list(got.channels) == ["ch0", "ch1", "ch2"]
            for name, raw in grid.channels.items():
                want = np.pad(raw, pad)
                if name in ("ch2", "ch0"):
                    lo, hi = want[fit].min(), want[fit].max()
                    assert stats.channels[name] == (lo, hi)
                    want = np.where(land, (want - lo) / (hi - lo), 0.0)
                plane = got.channels[name]
                assert plane.dtype == want.dtype and plane.tobytes() == want.tobytes()
            assert list(stats.channels) == ["ch2", "ch0"]
            for side in ("mask", "regions"):
                plane, want = getattr(got, side), np.pad(getattr(grid, side), pad)
                assert plane.dtype == want.dtype and plane.tobytes() == want.tobytes()

    def test_normalizes_an_opened_file(self, tmp_path):
        # an opened file is a WorldGrid, so normalize_channels takes it
        # directly and gives the bytes and statistics of the loaded grid
        path = tmp_path / "g.wgrd"
        save_grid(make_grid([[1, 0, 1], [1, 1, 1]], n_channels=3, seed=4), path)
        want, want_stats = normalize_on_land(load_grid(path), channels=["ch2", "ch0"])
        with open_grid(path) as src:
            assert isinstance(src, WorldGrid)
            got, stats = normalize_on_land(src, channels=["ch2", "ch0"])
            assert stats == want_stats
            assert list(got.channels) == list(want.channels)
            for name, plane in want.channels.items():
                assert got.channels[name].tobytes() == plane.tobytes(), name

    def test_unknown_channel_rejected(self):
        grid = make_grid([[1, 1]])
        with pytest.raises(DataError, match="unknown channel 'nope'"):
            normalize_on_land(grid, channels=["nope"])

    def test_all_water_fit_rejected(self):
        grid = make_grid([[1, 1]])
        with pytest.raises(DataError, match="no land pixels"):
            normalize_channels(grid, fit_mask=np.zeros((1, 2), bool), channels=["ch0"])

    def test_mis_shaped_fit_mask_rejected(self):
        # checked before the mask is combined with the land: numpy would
        # raise its own broadcast error, or broadcast a row without a word
        grid = make_grid(np.ones((4, 4), np.uint8))
        for shape in ((3, 3), (1, 4)):
            with pytest.raises(DataError, match=rf"fit_mask shape \({shape[0]}, {shape[1]}\)"):
                normalize_channels(grid, fit_mask=np.ones(shape, bool), channels=["ch0"])


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
        assert n_pixels(split, "test") == brute == 45
        assert n_pixels(split, "train") == 45
        assert n_water(split) == 10

    def test_empty_test_regions(self):
        grid = make_grid([[1, 0], [1, 1]])
        split = assign_split(grid, set())
        assert n_pixels(split, "test") == 0
        assert n_pixels(split, "train") == 3

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

    @pytest.mark.parametrize("scope, want", [
        ("train", [[True, False], [True, False]]),
        ("test", [[False, False], [False, True]]),
        ("all", [[True, False], [True, True]]),
    ], ids=["train", "test", "all"])
    def test_select_names_its_pixels(self, scope, want):
        grid = make_grid([[1, 0], [1, 1]], regions=[[3, 0], [3, 9]],
                         region_table={3: "AAA", 9: "BBB"})
        split = assign_split(grid, {"BBB"})
        got = split.select(scope)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, want)

    def test_select_refuses_an_unknown_name(self):
        split = assign_split(make_grid([[1]]), set())
        with pytest.raises(DataError, match=r"one of \('train', 'test', 'all'\), got 'valid'"):
            split.select("valid")

    def test_unknown_region_warns(self):
        grid = make_grid([[1]])
        with pytest.warns(UserWarning, match="XXX"):
            split = assign_split(grid, {"XXX"})
        assert n_pixels(split, "test") == 0

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
        assert n_pixels(split, "train") + n_pixels(split, "test") + n_water(split) == 35
        assert n_pixels(split, "test") == int(np.count_nonzero((mask == 1) & (regions == 2)))

    def test_labels_peak_at_their_size_and_one_bool_plane(self):
        # the labels are uint8 from the start; built through an int64
        # temporary, and test pixels found by np.isin, they peaked at 10
        # times their size on this world
        rng = np.random.default_rng(2)
        mask = (rng.random((256, 256)) < 0.7).astype(np.uint8)
        regions = mask * rng.integers(1, 41, size=mask.shape)
        grid = pad_grid(make_grid(mask, regions=regions,
                                  region_table={c: f"R{c:02d}" for c in range(1, 41)}), 20)
        wanted = ["R02", "R07", "R11"]
        assign_split(grid, wanted)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            split = assign_split(grid, wanted)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = split.labels.nbytes
        assert split.labels.dtype == np.uint8 and size == 296 * 296
        assert peak < 2 * size + 8192, peak / size
        test = np.isin(grid.regions, [2, 7, 11]) & (grid.mask == 1)
        np.testing.assert_array_equal(split.labels,
                                      np.where(test, TEST, np.where(grid.mask == 1, TRAIN, WATER)))
