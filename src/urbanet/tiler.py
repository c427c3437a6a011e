"""Dense tile sampling: one fixed-size window per land pixel.

The sampler works on a *padded* grid (see :func:`urbanet.grid.pad_grid`) so
every window stays in bounds; ``centers_padded`` holds the tile centers in
padded coordinates (subtract ``pad`` for the unpadded grid).
The center pixel sits at window index ``(S // 2, S // 2)``, so a tile
centered at ``r`` spans rows ``[r - S//2, r - S//2 + S - 1]``.  Windows of
even size have no exact center; theirs is the lower-right of the middle
four.  Either way the window reaches ``S // 2`` pixels from its center,
which the padding must cover.

Tiles are materialized lazily: :class:`TileDataset` keeps inputs (float32),
targets (float64, for the loss) and mask (uint8) as flat channel-last pixel
tables and gathers a batch with one ``np.take`` each, at every tile's flat
top-left index plus an (S, S) table of window offsets ``i * W + j``; a
transformed tile is just another offset table.  Densely sampling a world of
any real size as one array would not fit in memory, by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError, ShapeError
from .grid import SplitAssignment, WorldGrid, assign_split, box_sum


@dataclass(frozen=True)
class WindowSpec:
    """Square S×S sampling window centered at window index (S//2, S//2)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ShapeError(f"window size must be >= 1, got {self.size}")

    @property
    def center_offset(self) -> tuple[int, int]:
        """Window index (row, col) of the center pixel."""
        return self.size // 2, self.size // 2


def _pixel_table(grid: WorldGrid, names: tuple[str, ...], dtype) -> np.ndarray:
    """The planes ``names`` of ``grid`` as one (H, W, C) ``dtype`` table,
    written plane by plane; C may be 0 (evaluation tiles carry no targets)."""
    table = np.empty((grid.height, grid.width, len(names)), dtype)
    for c, name in enumerate(names):
        if name not in grid.channels:
            raise DataError(f"unknown channel {name!r}")
        table[:, :, c] = grid.channels[name]
    return table


class TileDataset:
    """Deterministic random-access tile set, one tile per land pixel.

    Centers run in row-major order over the grid.  ``split_filter`` keeps
    only tiles whose *center* pixel is a land pixel of
    ``split.select(split_filter)``; window contents are never filtered (the
    protocol assigns samples by center alone).  Without a ``split`` every
    land pixel is a train pixel.  The dataset keeps no reference to
    ``grid``: it holds only its pixel tables, each tile's top-left pixel and
    its center's region.  The tables are written one plane of ``grid`` at
    a time, so a grid whose planes are made on access, as those of
    :func:`urbanet.grid.pad_grid` and :func:`urbanet.grid.normalize_channels`
    are, never holds them all at once.
    """

    def __init__(
        self,
        grid: WorldGrid,
        window: WindowSpec,
        *,
        pad: int,
        input_names: Iterable[str],
        target_names: Iterable[str],
        split: SplitAssignment | None = None,
        split_filter: str = "all",
    ):
        mask = np.asarray(grid.mask)
        if split is None:
            split = assign_split(grid, ())
        selected = split.select(split_filter)
        if pad < 0:
            raise ShapeError(f"pad must be >= 0, got {pad}")
        self.window = window
        input_names, target_names = tuple(input_names), tuple(target_names)
        overlap = set(input_names) & set(target_names)
        if overlap:
            raise DataError(f"channels cannot be both input and target: {sorted(overlap)}")

        if split.labels.shape != mask.shape:
            raise ShapeError(
                f"split labels shape {split.labels.shape} does not match "
                f"grid shape {mask.shape} (compute the split on the padded grid)"
            )
        centers = np.argwhere((mask == 1) & selected)  # row-major by construction
        self._regions = np.asarray(grid.regions)[centers[:, 0], centers[:, 1]]

        s, off = window.size, window.size // 2
        if len(centers):
            top = centers.min(axis=0) - off
            bot = centers.max(axis=0) - off + s
            if top.min() < 0 or bot[0] > grid.height or bot[1] > grid.width:
                raise ShapeError(
                    f"padding {pad} too small for window size {s}; "
                    f"need at least {off}"
                )

        h, w = grid.height, grid.width
        self._width = w
        self._top_left = (centers - off) @ np.array([w, 1])
        del centers  # centers_padded makes them again from the top-left pixels
        self._inputs = _pixel_table(grid, input_names, np.float32).reshape(h * w, -1)
        self._targets = _pixel_table(grid, target_names, np.float64).reshape(h * w, -1)
        self._mask = np.asarray(grid.mask, np.uint8).reshape(h * w)
        self.offsets = np.arange(s)[:, None] * w + np.arange(s)

    def __len__(self) -> int:
        return len(self._top_left)

    @property
    def centers_padded(self) -> np.ndarray:
        """(N, 2) tile centers in padded coordinates, a new array at each use."""
        rows, cols = np.divmod(self._top_left, self._width)
        return np.stack([rows, cols], axis=1) + self.window.center_offset

    @property
    def regions(self) -> np.ndarray:
        return self._regions

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather tiles ``indices`` as NHWC arrays: (B,S,S,C_in), (B,S,S,C_t), (B,S,S)."""
        return self.gather(indices, self.offsets)

    def gather(
        self, indices: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`batch`, with window position (i, j) of each tile read
        from ``offsets[..., i, j]`` pixels past its top-left pixel; ``offsets``
        is one (S, S) table or a (B, S, S) table per tile."""
        flat = self._top_left[np.asarray(indices), None, None] + offsets
        return (np.take(self._inputs, flat, axis=0),
                np.take(self._targets, flat, axis=0),
                np.take(self._mask, flat))


def coverage_count(grid: WorldGrid, window: WindowSpec) -> np.ndarray:
    """How many sampled tiles contain each pixel of the (padded) grid.

    Pixel q lies inside the tile centered at p exactly when p falls in the
    S×S box ``[q - (S - 1 - S//2), q + S//2]``, so the count is
    :func:`urbanet.grid.box_sum` of the land mask over that box.  Every land
    pixel counts, whatever split a dataset selects.
    """
    s = window.size
    return box_sum(np.asarray(grid.mask) == 1, s - 1 - s // 2, s // 2)
