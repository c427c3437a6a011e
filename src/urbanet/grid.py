"""World rasters: multi-channel 2-D grids with a land/water mask and region codes.

A :class:`WorldGrid` holds named float64 channel planes plus two side planes:
``mask`` (1 = land, 0 = water) and ``regions`` (16-bit region code per pixel,
0 = water/none).  Water pixels are zero-filled in every channel; that invariant
is enforced on load and save so downstream code never has to re-check it.

On disk a grid is a :mod:`urbanet.files` container, magic ``WGRD``,
version 2: meta ``{"regions": [[code, ISO text], ...], "channels": [name, ...]}``
and (H, W) arrays ``mask`` ``<u1``, ``regions`` ``<u2``, then ``channel.<i>``
``<f8`` for the i-th name.

All grid-layer arithmetic stays in float64.  The tiler keeps the network
inputs it gathers in float32 (see :mod:`urbanet.tiler`); targets stay float64.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DataError,
    DegenerateChannelError,
    FormatError,
    IntegrityError,
)
from .files import read_container, write_container

MAGIC = b"WGRD"
VERSION = 2
_SCHEMA = {"regions": [[int, str]], "channels": [str]}

# Split labels used by SplitAssignment.labels.
WATER = 0
TRAIN = 1
TEST = 2


@dataclass(frozen=True)
class WorldGrid:
    """Immutable multi-channel raster; see module docstring for invariants."""

    mask: np.ndarray                      # (H, W) {0,1}
    regions: np.ndarray                   # (H, W) region codes, 0 = water/none
    channels: dict[str, np.ndarray]       # name -> (H, W) float64, order matters
    region_table: dict[int, str]          # code -> ISO text

    @property
    def height(self) -> int:
        return int(self.mask.shape[0])

    @property
    def width(self) -> int:
        return int(self.mask.shape[1])

    def stacked(self, names: Iterable[str] | None = None) -> np.ndarray:
        """Stack channels into an (H, W, C) array in the given (or directory) order."""
        picked = list(self.channels) if names is None else list(names)
        for name in picked:
            if name not in self.channels:
                raise DataError(f"unknown channel {name!r}")
        if not picked:  # e.g. evaluation tiles carry no target planes
            return np.empty((self.height, self.width, 0))
        return np.stack([self.channels[n] for n in picked], axis=-1)


@dataclass(frozen=True)
class NormStats:
    """Per-channel min/max normalization statistics."""

    channels: dict[str, tuple[float, float]]  # name -> (min, max)


@dataclass(frozen=True)
class SplitAssignment:
    """Per-pixel train/test/water labels derived from region membership."""

    labels: np.ndarray  # (H, W) uint8 in {WATER, TRAIN, TEST}

    @property
    def train_mask(self) -> np.ndarray:
        return self.labels == TRAIN

    @property
    def test_mask(self) -> np.ndarray:
        return self.labels == TEST

    @property
    def n_train(self) -> int:
        return int(np.count_nonzero(self.labels == TRAIN))

    @property
    def n_test(self) -> int:
        return int(np.count_nonzero(self.labels == TEST))


def validate_grid(grid: WorldGrid) -> None:
    """Raise IntegrityError/FormatError if ``grid`` violates a type invariant."""
    if not grid.channels:
        raise FormatError("a WorldGrid needs at least one channel")
    mask = np.asarray(grid.mask)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise IntegrityError(f"mask must be a non-empty 2-D array, got shape {mask.shape}")
    shape = mask.shape
    if not np.issubdtype(mask.dtype, np.integer) and mask.dtype != np.bool_:
        raise IntegrityError(f"mask must be integer-valued, got dtype {mask.dtype}")
    bad = (mask != 0) & (mask != 1)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise IntegrityError(f"mask value at ({r}, {c}) is {mask[r, c]}, expected 0 or 1")

    regions = np.asarray(grid.regions)
    if regions.shape != shape:
        raise IntegrityError(
            f"regions plane shape {regions.shape} does not match mask shape {shape}"
        )
    if not np.issubdtype(regions.dtype, np.integer):
        raise IntegrityError(f"regions must be integer-valued, got dtype {regions.dtype}")
    if regions.min(initial=0) < 0 or regions.max(initial=0) > 0xFFFF:
        raise IntegrityError("region codes must fit in an unsigned 16-bit integer")

    water = mask == 0
    bad = water & (regions != 0)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise IntegrityError(
            f"water pixel ({r}, {c}) has region code {regions[r, c]}, expected 0"
        )

    for name, plane in grid.channels.items():
        if not name:
            raise IntegrityError("channel names must be non-empty")
        _check_name(name, f"channel name {name!r}")
        plane = np.asarray(plane)
        if plane.shape != shape:
            raise IntegrityError(
                f"channel {name!r} shape {plane.shape} does not match mask shape {shape}"
            )
        if plane.dtype != np.float64:
            raise IntegrityError(f"channel {name!r} must be float64, got {plane.dtype}")
        if not np.isfinite(plane).all():
            r, c = np.argwhere(~np.isfinite(plane))[0]
            raise IntegrityError(f"channel {name!r} has a non-finite value at ({r}, {c})")
        bad = water & (plane != 0.0)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise IntegrityError(
                f"water pixel ({r}, {c}) has nonzero value {plane[r, c]!r} "
                f"in channel {name!r}"
            )

    for code, iso in grid.region_table.items():
        if code == 0:
            raise IntegrityError("region code 0 is reserved for water and cannot be named")
        if not (0 < code <= 0xFFFF):
            raise IntegrityError(f"region code {code} does not fit in 16 bits")
        _check_name(iso, f"region name for code {code}")


def _check_name(text: str, what: str) -> None:
    if not text.isascii():
        raise FormatError(f"{what} must be ASCII, got {text!r}")
    if len(text) > 255:
        raise FormatError(f"{what} is longer than 255 bytes")


def save_grid(grid: WorldGrid, path: str | Path) -> None:
    """Write ``grid`` to ``path`` as a WGRD file (deterministic bytes)."""
    validate_grid(grid)
    # the region table and channel directory keep the grid's own order, so
    # a load/save round trip is byte-identical
    meta = {"regions": [[int(code), iso] for code, iso in grid.region_table.items()],
            "channels": list(grid.channels)}
    arrays = {"mask": np.asarray(grid.mask, np.uint8),
              "regions": np.asarray(grid.regions, np.uint16),
              **{f"channel.{i}": plane for i, plane in enumerate(grid.channels.values())}}
    try:
        write_container(path, MAGIC, VERSION, meta, arrays)
    except OSError as exc:
        raise OSError(f"cannot write grid to {path}: {exc}") from exc


def load_grid(path: str | Path) -> WorldGrid:
    """Read a WGRD file; validates every type invariant before returning.
    Its planes are read-only views of the file's bytes."""
    meta, arrays = read_container(path, MAGIC, VERSION, _SCHEMA)
    codes, names = [code for code, _ in meta["regions"]], meta["channels"]
    for what, keys in (("region code", codes), ("channel name", names)):
        if len(set(keys)) != len(keys):
            dup = next(key for i, key in enumerate(keys) if key in keys[:i])
            raise IntegrityError(f"{path}: duplicate {what} {dup!r}")
    expected = ["mask", "regions", *(f"channel.{i}" for i in range(len(names)))]
    if list(arrays) != expected:
        raise IntegrityError(f"{path}: arrays {list(arrays)}, expected {expected}")
    grid = WorldGrid(mask=arrays["mask"], regions=arrays["regions"],
                     channels={name: arrays[f"channel.{i}"] for i, name in enumerate(names)},
                     region_table=dict(meta["regions"]))
    try:
        validate_grid(grid)
    except (FormatError, IntegrityError) as err:
        raise type(err)(f"{path}: {err}") from None
    return grid


def pad_grid(grid: WorldGrid, pad: int) -> WorldGrid:
    """Surround the grid with a ``pad``-wide ring of water (mask 0, values 0)."""
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if pad == 0:
        return dataclasses.replace(grid)
    width = ((pad, pad), (pad, pad))
    return WorldGrid(
        mask=np.pad(grid.mask, width),
        regions=np.pad(grid.regions, width),
        channels={n: np.pad(p, width) for n, p in grid.channels.items()},
        region_table=dict(grid.region_table),
    )


def normalize_channels(
    grid: WorldGrid,
    stats: NormStats | None = None,
    *,
    fit_mask: np.ndarray | None = None,
    channels: Iterable[str] | None = None,
) -> tuple[WorldGrid, NormStats]:
    """Min-max normalize channels to [0, 1] over the fitting pixels.

    When ``stats`` is absent, per-channel (min, max) are computed over land
    pixels selected by ``fit_mask`` (every land pixel when ``fit_mask`` is
    None; pass a train-split mask so the test split reuses training
    statistics).  When ``stats`` is present it is applied unchanged, and
    values outside the fitted range are deliberately NOT clipped.  Water
    pixels stay exactly 0 in the output.  ``channels`` restricts fitting to a
    subset; channels outside it are copied through untouched.
    """
    land = np.asarray(grid.mask) == 1
    if stats is None:
        fit = land if fit_mask is None else (land & np.asarray(fit_mask, dtype=bool))
        if fit_mask is not None and np.asarray(fit_mask).shape != land.shape:
            raise DataError(
                f"fit_mask shape {np.asarray(fit_mask).shape} does not match "
                f"grid shape {land.shape}"
            )
        if not fit.any():
            raise DataError("no land pixels available to fit normalization statistics")
        picked = list(grid.channels) if channels is None else list(channels)
        table: dict[str, tuple[float, float]] = {}
        for name in picked:
            if name not in grid.channels:
                raise DataError(f"unknown channel {name!r}")
            values = grid.channels[name][fit]
            lo, hi = float(values.min()), float(values.max())
            if hi == lo:
                raise DegenerateChannelError(
                    f"channel {name!r} is constant ({lo!r}) on the fitting pixels"
                )
            table[name] = (lo, hi)
        stats = NormStats(channels=table)
    else:
        for name in stats.channels:
            if name not in grid.channels:
                raise DataError(f"stats cover channel {name!r} absent from the grid")

    new_channels: dict[str, np.ndarray] = {}
    for name, plane in grid.channels.items():
        if name in stats.channels:
            lo, hi = stats.channels[name]
            scaled = (plane - lo) / (hi - lo)
            scaled[~land] = 0.0  # water pixels stay zero-filled
            new_channels[name] = scaled
        else:
            new_channels[name] = plane.copy()
    return dataclasses.replace(grid, channels=new_channels), stats


def assign_split(grid: WorldGrid, test_regions: Iterable[str]) -> SplitAssignment:
    """Label each pixel train/test/water; test = land whose region is listed.

    Unknown ISO codes in ``test_regions`` produce a warning, not an error, so
    a world that simply lacks a region can still be evaluated on the rest.
    """
    wanted = frozenset(test_regions)
    known = set(grid.region_table.values())
    missing = sorted(wanted - known)
    if missing:
        warnings.warn(
            f"test regions not present in region table: {', '.join(missing)}",
            stacklevel=2,
        )
    test_codes = [code for code, iso in grid.region_table.items() if iso in wanted]
    land = np.asarray(grid.mask) == 1
    labels = np.where(land, TRAIN, WATER).astype(np.uint8)
    if test_codes:
        labels[land & np.isin(grid.regions, test_codes)] = TEST
    return SplitAssignment(labels=labels)

