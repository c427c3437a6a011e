"""World rasters: multi-channel 2-D grids with a land/water mask and region codes.

A :class:`WorldGrid` holds named float64 channel planes plus two side planes:
``mask`` (1 = land, 0 = water) and ``regions`` (16-bit region code per pixel,
0 = water/none).  Water pixels are zero-filled in every channel; that invariant
is enforced on load and save so downstream code never has to re-check it.

On-disk format (``WGRD``, little-endian)::

    magic "WGRD" | version u16 = 1 | H u32 | W u32 | n_channels u16 | n_regions u16
    region table:      (code u16, len u8, ASCII ISO text) x n_regions
    channel directory: (len u8, ASCII name) x n_channels
    mask plane:        H*W u8, row-major
    regions plane:     H*W u16, row-major
    channel planes:    H*W f64, row-major, in directory order

All grid-layer arithmetic stays in float64.  The tiler keeps the network
inputs it gathers in float32 (see :mod:`urbanet.tiler`); targets stay float64.
"""

from __future__ import annotations

import dataclasses
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DataError,
    DegenerateChannelError,
    FormatError,
    IntegrityError,
)

MAGIC = b"WGRD"
VERSION = 1

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

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(self.channels)

    @property
    def land_count(self) -> int:
        return int(np.count_nonzero(self.mask))

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

    test_regions: frozenset[str]
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

    @property
    def n_water(self) -> int:
        return int(np.count_nonzero(self.labels == WATER))


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
        _ascii_bytes(iso, f"region name for code {code}")


def _ascii_bytes(text: str, what: str) -> bytes:
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FormatError(f"{what} must be ASCII, got {text!r}") from exc
    if len(raw) > 255:
        raise FormatError(f"{what} is longer than 255 bytes")
    return raw


def save_grid(grid: WorldGrid, path: str | Path) -> None:
    """Write ``grid`` to ``path`` in WGRD format (deterministic bytes)."""
    validate_grid(grid)
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack(
        "<HIIHH", VERSION, grid.height, grid.width,
        len(grid.channels), len(grid.region_table),
    )
    # Table and directory keep the grid's own ordering so load/save round-trips
    # are byte-identical for any well-formed file.
    for code, iso in grid.region_table.items():
        raw = _ascii_bytes(iso, f"region name for code {code}")
        buf += struct.pack("<HB", code, len(raw)) + raw
    for name in grid.channels:
        raw = _ascii_bytes(name, f"channel name {name!r}")
        buf += struct.pack("<B", len(raw)) + raw
    buf += np.ascontiguousarray(grid.mask, dtype=np.uint8).tobytes()
    buf += np.ascontiguousarray(grid.regions, dtype="<u2").tobytes()
    for plane in grid.channels.values():
        buf += np.ascontiguousarray(plane, dtype="<f8").tobytes()
    try:
        Path(path).write_bytes(buf)
    except OSError as exc:
        raise OSError(f"cannot write grid to {path}: {exc}") from exc


def load_grid(path: str | Path) -> WorldGrid:
    """Read a WGRD file; validates every type invariant before returning."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read grid from {path}: {exc}") from exc

    header = struct.calcsize("<HIIHH")
    if len(data) < 4 + header:
        raise FormatError(f"{path}: truncated header ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, h, w, n_channels, n_regions = struct.unpack_from("<HIIHH", data, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}, expected {VERSION}")
    off = 4 + header

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise IntegrityError(f"{path}: file ends inside {what}")
        chunk = data[off:off + n]
        off += n
        return chunk

    region_table: dict[int, str] = {}
    for _ in range(n_regions):
        code, length = struct.unpack("<HB", take(3, "region table"))
        iso = _decode_ascii(take(length, "region table"), path, "region name")
        if code in region_table:
            raise IntegrityError(f"{path}: duplicate region code {code}")
        region_table[code] = iso

    names: list[str] = []
    for _ in range(n_channels):
        (length,) = struct.unpack("<B", take(1, "channel directory"))
        name = _decode_ascii(take(length, "channel directory"), path, "channel name")
        if name in names:
            raise IntegrityError(f"{path}: duplicate channel name {name!r}")
        names.append(name)

    n_pix = h * w
    expected = off + n_pix * (1 + 2 + 8 * n_channels)
    if len(data) != expected:
        raise IntegrityError(
            f"{path}: plane data size mismatch (expected {expected} bytes total, "
            f"got {len(data)})"
        )

    mask = np.frombuffer(take(n_pix, "mask plane"), dtype=np.uint8).reshape(h, w)
    regions = np.frombuffer(take(2 * n_pix, "regions plane"), dtype="<u2")
    regions = regions.astype(np.uint16).reshape(h, w)
    channels: dict[str, np.ndarray] = {}
    for name in names:
        plane = np.frombuffer(take(8 * n_pix, f"channel {name!r}"), dtype="<f8")
        channels[name] = plane.astype(np.float64).reshape(h, w)

    grid = WorldGrid(
        mask=mask.copy(), regions=regions, channels=channels,
        region_table=region_table,
    )
    validate_grid(grid)
    for arr in (grid.mask, grid.regions, *grid.channels.values()):
        arr.flags.writeable = False
    return grid


def _decode_ascii(raw: bytes, path: str | Path, what: str) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not ASCII") from exc


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


def save_stats(stats: NormStats, path: str | Path) -> None:
    lines = [
        f"channel={name} min={lo!r} max={hi!r}\n"
        for name, (lo, hi) in stats.channels.items()
    ]
    Path(path).write_text("".join(lines), encoding="ascii")


def load_stats(path: str | Path) -> NormStats:
    table: dict[str, tuple[float, float]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            head, min_part, max_part = line.rsplit(" ", 2)
            name = _expect_key(head, "channel", path, lineno)
            lo = float(_expect_key(min_part, "min", path, lineno))
            hi = float(_expect_key(max_part, "max", path, lineno))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed stats line {line!r}") from exc
        if name in table:
            raise IntegrityError(f"{path}:{lineno}: duplicate channel {name!r}")
        if hi < lo:
            raise IntegrityError(f"{path}:{lineno}: max {hi!r} < min {lo!r}")
        table[name] = (lo, hi)
    if not table:
        raise FormatError(f"{path}: no stats lines found")
    return NormStats(channels=table)


def _expect_key(part: str, key: str, path: str | Path, lineno: int) -> str:
    prefix = key + "="
    if not part.startswith(prefix):
        raise FormatError(f"{path}:{lineno}: expected {prefix}..., got {part!r}")
    return part[len(prefix):]


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
    return SplitAssignment(test_regions=wanted, labels=labels)


def region_iso(grid: WorldGrid, code: int) -> str:
    """ISO text for a region code; water/unknown codes get a stable fallback."""
    if code == 0:
        return "WATER"
    return grid.region_table.get(code, f"R{code}")
