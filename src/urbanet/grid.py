"""World rasters: multi-channel 2-D grids with a land/water mask and region codes.

A :class:`WorldGrid` holds named float64 channel planes plus two side planes:
``mask`` (1 = land, 0 = water) and ``regions`` (16-bit region code per pixel,
0 = water/none).  Water pixels are zero-filled in every channel; that invariant
is enforced on load and save so downstream code never has to re-check it.

On disk a grid is a :mod:`urbanet.files` container, magic ``WGRD``,
version 2: meta ``{"regions": [[code, ISO text], ...], "channels": [name, ...]}``
and (H, W) arrays ``mask`` ``<u1``, ``regions`` ``<u2``, then ``channel.<i>``
``<f8`` for the i-th name.  Both readers give a :class:`WorldGrid`:
:func:`load_grid` reads all of it; :func:`open_grid` reads the mask and
regions when the file opens and a plane at each lookup, so a reader holds
only the planes it keeps.

A grid goes to tiles through :func:`pad_grid`, :func:`assign_split` and
:func:`normalize_channels`, whether it was generated, loaded or opened.
Their grids make each plane at every lookup, padded and scaled from the
plane underneath, so that the tiler, which reads one plane at a time,
never holds a padded or normalized grid.

All grid-layer arithmetic stays in float64.  The tiler keeps the network
inputs it gathers in float32 (see :mod:`urbanet.tiler`); targets stay float64.
"""

from __future__ import annotations

import dataclasses
import warnings
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Iterable

import numpy as np

from .errors import (
    DataError,
    DegenerateChannelError,
    FormatError,
    IntegrityError,
)
from .files import open_container, write_container

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
    channels: Mapping[str, np.ndarray]    # name -> (H, W) float64, order matters
    region_table: dict[int, str]          # code -> ISO text

    @property
    def height(self) -> int:
        return int(self.mask.shape[0])

    @property
    def width(self) -> int:
        return int(self.mask.shape[1])


@dataclass(frozen=True)
class NormStats:
    """Per-channel min/max normalization statistics."""

    channels: dict[str, tuple[float, float]]  # name -> (min, max)


@dataclass(frozen=True)
class SplitAssignment:
    """Per-pixel train/test/water labels derived from region membership."""

    labels: np.ndarray  # (H, W) uint8 in {WATER, TRAIN, TEST}
    SCOPES: ClassVar[tuple[str, ...]] = ("train", "test", "all")  # what select takes

    def select(self, scope: str) -> np.ndarray:
        """(H, W) bool mask of the pixels ``scope`` names: the train or the
        test pixels, or "all" of them, which is every land pixel."""
        if scope not in self.SCOPES:
            raise DataError(f"split_filter must be one of {self.SCOPES}, got {scope!r}")
        if scope == "all":
            return self.labels != WATER
        return self.labels == (TRAIN if scope == "train" else TEST)

    @property
    def train_mask(self) -> np.ndarray:
        return self.select("train")


def validate_grid(grid: WorldGrid) -> None:
    """Raise IntegrityError/FormatError if ``grid`` violates a type invariant."""
    if not grid.channels:
        raise FormatError("a WorldGrid needs at least one channel")
    water = _check_sides(grid.mask, grid.regions, grid.region_table)
    for name, plane in grid.channels.items():
        _check_channel(name, plane, water)


def _check_sides(mask, regions, region_table: dict[int, str]) -> np.ndarray:
    """Check the mask, the region codes and the region table; return the
    (H, W) bool plane of water pixels."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.shape[0] < 1 or mask.shape[1] < 1:
        raise IntegrityError(f"mask must be a non-empty 2-D array, got shape {mask.shape}")
    shape = mask.shape
    if not np.issubdtype(mask.dtype, np.integer) and mask.dtype != np.bool_:
        raise IntegrityError(f"mask must be integer-valued, got dtype {mask.dtype}")
    bad = (mask != 0) & (mask != 1)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise IntegrityError(f"mask value at ({r}, {c}) is {mask[r, c]}, expected 0 or 1")

    regions = np.asarray(regions)
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

    for code, iso in region_table.items():
        if code == 0:
            raise IntegrityError("region code 0 is reserved for water and cannot be named")
        if not (0 < code <= 0xFFFF):
            raise IntegrityError(f"region code {code} does not fit in 16 bits")
        _check_name(iso, f"region name for code {code}")
    return water


def _check_channel(name: str, plane, water: np.ndarray) -> None:
    """Check channel ``name``: its name, and a finite float64 ``plane`` of
    the mask's shape that holds 0 on every ``water`` pixel."""
    if not name:
        raise IntegrityError("channel names must be non-empty")
    _check_name(name, f"channel name {name!r}")
    plane = np.asarray(plane)
    if plane.shape != water.shape:
        raise IntegrityError(
            f"channel {name!r} shape {plane.shape} does not match mask shape {water.shape}"
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


class _Planes(Mapping):
    """Named planes, each made by ``make(name)`` when it is looked up."""

    def __init__(self, names: Iterable[str], make):
        self._names = tuple(names)
        self._make = make

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._names:
            raise KeyError(name)
        return self._make(name)

    def __contains__(self, name) -> bool:
        return name in self._names

    def __iter__(self):
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


def _named(path, check, *args):
    """``check(*args)``, its FormatError or IntegrityError naming ``path``."""
    try:
        return check(*args)
    except (FormatError, IntegrityError) as err:
        raise type(err)(f"{path}: {err}") from None


@contextmanager
def open_grid(path: str | Path):
    """Open a WGRD file as a :class:`WorldGrid` for the ``with`` block.
    The header, the mask and the regions are read and checked here;
    ``channels`` maps each channel name, in file order, to its plane, which
    is read and checked at every lookup.  A file replaced meanwhile by an
    atomic write is still read as it was."""
    with open_container(path, MAGIC, VERSION, _SCHEMA) as src:
        codes, names = [code for code, _ in src.meta["regions"]], src.meta["channels"]
        for what, keys in (("region code", codes), ("channel name", names)):
            if len(set(keys)) != len(keys):
                dup = next(key for i, key in enumerate(keys) if key in keys[:i])
                raise IntegrityError(f"{path}: duplicate {what} {dup!r}")
        expected = ["mask", "regions", *(f"channel.{i}" for i in range(len(names)))]
        if list(src.arrays) != expected:
            raise IntegrityError(f"{path}: arrays {list(src.arrays)}, expected {expected}")
        if not names:
            raise FormatError(f"{path}: a WorldGrid needs at least one channel")
        region_table = dict(src.meta["regions"])
        mask, regions = src.read("mask"), src.read("regions")
        water = _named(path, _check_sides, mask, regions, region_table)

        def read(name: str) -> np.ndarray:
            plane = src.read(f"channel.{names.index(name)}")
            _named(path, _check_channel, name, plane, water)
            return plane

        yield WorldGrid(mask, regions, _Planes(names, read), region_table)


def read_planes(grid: WorldGrid, keep: Iterable[str]) -> dict[str, np.ndarray]:
    """Look up every plane of ``grid`` once, in order, and return those
    named in ``keep``; the others are dropped as they are read, so an
    opened file has every plane checked while one at a time is held."""
    keep, kept = frozenset(keep), {}
    for name in grid.channels:
        if name in keep:
            kept[name] = grid.channels[name]
        else:
            grid.channels[name]  # read, then dropped
    return kept


def load_grid(path: str | Path) -> WorldGrid:
    """Read a WGRD file; validates every type invariant before returning.
    Its planes are read-only views of the file's bytes."""
    with open_grid(path) as grid:
        return dataclasses.replace(grid, channels=read_planes(grid, grid.channels))


def box_sum(mask: np.ndarray, before: int, after: int) -> np.ndarray:
    """Sum of ``mask`` over rows ``r - before .. r + after`` and columns
    ``c - before .. c + after`` of each pixel (r, c), nothing outside the
    grid counted, as int64 from one summed-area table."""
    h, w = mask.shape
    sat = np.zeros((h + 1, w + 1), np.int64)
    np.cumsum(mask, axis=0, dtype=np.int64, out=sat[1:, 1:])
    np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
    rows, cols = np.arange(h), np.arange(w)
    r0, r1 = np.clip(rows - before, 0, h), np.clip(rows + after + 1, 0, h)
    c0, c1 = np.clip(cols - before, 0, w), np.clip(cols + after + 1, 0, w)
    return sat[np.ix_(r1, c1)] - sat[np.ix_(r0, c1)] - sat[np.ix_(r1, c0)] + sat[np.ix_(r0, c0)]


def pad_grid(grid: WorldGrid, pad: int) -> WorldGrid:
    """Surround ``grid`` with a ``pad``-wide ring of water (mask 0, values
    0).  The mask and regions are padded here; each channel plane is
    padded at every lookup, so the result holds none of them."""
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    planes = grid.channels
    return WorldGrid(
        mask=np.pad(grid.mask, pad),
        regions=np.pad(grid.regions, pad),
        channels=_Planes(planes, lambda name: np.pad(planes[name], pad)),
        region_table=dict(grid.region_table),
    )


def normalize_channels(
    grid: WorldGrid,
    *,
    fit_mask: np.ndarray,
    channels: Iterable[str],
) -> tuple[WorldGrid, NormStats]:
    """Min-max normalize ``channels`` to [0, 1] and return the new grid with
    the fitted statistics.

    Each of ``channels``' (min, max) is fitted over the land pixels of
    ``fit_mask``, the train split's, so that held-out pixels are scaled by
    training statistics; each plane of ``grid`` is read once for it, in
    ``channels`` order.  The new grid scales a plane at every lookup, as
    ``(plane - lo) / (hi - lo)`` in float64 with every water pixel set to 0;
    values outside the fitted range are deliberately NOT clipped.  The
    other planes pass through as the input's own objects, and ``grid`` is
    not changed.
    """
    mask, planes = np.asarray(grid.mask), grid.channels
    fit_mask = np.asarray(fit_mask, dtype=bool)
    if fit_mask.shape != mask.shape:
        raise DataError(
            f"fit_mask shape {fit_mask.shape} does not match grid shape {mask.shape}"
        )
    fit = (mask == 1) & fit_mask
    if not fit.any():
        raise DataError("no land pixels available to fit normalization statistics")
    table: dict[str, tuple[float, float]] = {}
    for name in channels:
        if name not in planes:
            raise DataError(f"unknown channel {name!r}")
        values = planes[name][fit]
        lo, hi = float(values.min()), float(values.max())
        if hi == lo:
            raise DegenerateChannelError(
                f"channel {name!r} is constant ({lo!r}) on the fitting pixels"
            )
        table[name] = (lo, hi)

    def scaled(name: str) -> np.ndarray:
        if name not in table:
            return planes[name]
        lo, hi = table[name]
        plane = planes[name] - lo
        plane /= hi - lo
        plane[mask != 1] = 0.0  # water pixels stay zero-filled
        return plane

    return (dataclasses.replace(grid, channels=_Planes(planes, scaled)),
            NormStats(channels=table))


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
    labels = np.where(np.asarray(grid.mask) == 1, np.uint8(TRAIN), np.uint8(WATER))
    regions = np.asarray(grid.regions)
    for code, iso in grid.region_table.items():
        if iso in wanted:  # water has no region code, so a coded pixel is land
            labels[regions == code] = TEST
    return SplitAssignment(labels=labels)

