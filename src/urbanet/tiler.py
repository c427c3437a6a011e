"""Dense tile sampling: one fixed-size window per land pixel.

The sampler works on a *padded* grid (see :func:`urbanet.grid.pad_grid`) so
every window stays in bounds; ``centers_padded`` holds the tile centers in
padded coordinates (subtract ``pad`` for the unpadded grid).
Windows of even size have no exact center, so the center pixel sits at index
``S // 2`` and the window spans ``[r - S//2, r + S//2 - 1]`` — the maximum
reach from the center is ``S // 2`` pixels, which the padding must cover.

Tiles are materialized lazily: :class:`TileDataset` keeps sliding-window
views over the stacked channel planes and copies windows out only when a
batch is requested.  Densely sampling a world of any real size as
one array would not fit in memory, by design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ShapeError
from .grid import TEST, TRAIN, SplitAssignment, WorldGrid

SPLIT_FILTERS = ("train", "test", "all")


@dataclass(frozen=True)
class WindowSpec:
    """Square sampling window; ``center_offset`` defaults to (S//2, S//2)."""

    size: int
    center_offset: tuple[int, int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.size < 1:
            raise ShapeError(f"window size must be >= 1, got {self.size}")
        if self.center_offset is None:
            object.__setattr__(
                self, "center_offset", (self.size // 2, self.size // 2)
            )
        off_r, off_c = self.center_offset
        if not (0 <= off_r < self.size and 0 <= off_c < self.size):
            raise ShapeError(
                f"center_offset {self.center_offset} outside window of size {self.size}"
            )

    @property
    def max_reach(self) -> int:
        """Largest distance the window extends from its center, any direction."""
        off_r, off_c = self.center_offset
        return max(off_r, off_c, self.size - 1 - off_r, self.size - 1 - off_c)


class TileDataset:
    """Deterministic random-access tile set, one tile per land pixel.

    Centers run in row-major order over the grid.  ``split_filter`` keeps
    only tiles whose *center* pixel carries the matching label; window
    contents are never filtered (the protocol assigns samples by center
    alone).
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
        if split_filter not in SPLIT_FILTERS:
            raise DataError(f"split_filter must be one of {SPLIT_FILTERS}, got {split_filter!r}")
        if pad < 0:
            raise ShapeError(f"pad must be >= 0, got {pad}")
        self.grid = grid
        self.window = window
        self.pad = int(pad)
        self.input_names = tuple(input_names)
        self.target_names = tuple(target_names)
        overlap = set(self.input_names) & set(self.target_names)
        if overlap:
            raise DataError(f"channels cannot be both input and target: {sorted(overlap)}")

        mask = np.asarray(grid.mask)
        centers_p = np.argwhere(mask == 1)  # row-major by construction
        if split is None:
            labels = np.full(len(centers_p), TRAIN, np.uint8)
        else:
            if split.labels.shape != mask.shape:
                raise ShapeError(
                    f"split labels shape {split.labels.shape} does not match "
                    f"grid shape {mask.shape} (compute the split on the padded grid)"
                )
            labels = split.labels[centers_p[:, 0], centers_p[:, 1]]
        if split_filter == "train":
            keep = labels == TRAIN
        elif split_filter == "test":
            keep = labels == TEST
        else:
            keep = np.ones(len(centers_p), bool)
        self._centers_p = centers_p[keep]
        self._regions = np.asarray(grid.regions)[
            self._centers_p[:, 0], self._centers_p[:, 1]
        ]

        s = window.size
        off_r, off_c = window.center_offset
        if len(self._centers_p):
            top = self._centers_p.min(axis=0) - (off_r, off_c)
            bot = self._centers_p.max(axis=0) - (off_r, off_c) + s
            if top.min() < 0 or bot[0] > grid.height or bot[1] > grid.width:
                raise ShapeError(
                    f"padding {pad} too small for window size {s} with offset "
                    f"({off_r}, {off_c}); need at least {window.max_reach}"
                )

        self._in_stack = grid.stacked(self.input_names)
        self._tg_stack = grid.stacked(self.target_names)
        self._in_win = sliding_window_view(self._in_stack, (s, s), axis=(0, 1))
        self._tg_win = sliding_window_view(self._tg_stack, (s, s), axis=(0, 1))
        self._mask_win = sliding_window_view(np.asarray(grid.mask), (s, s))

    def __len__(self) -> int:
        return len(self._centers_p)

    @property
    def centers_padded(self) -> np.ndarray:
        return self._centers_p

    @property
    def regions(self) -> np.ndarray:
        return self._regions

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather tiles ``indices`` as NHWC arrays: (B,S,S,C_in), (B,S,S,C_t), (B,S,S)."""
        idx = np.asarray(indices)
        off_r, off_c = self.window.center_offset
        tr = self._centers_p[idx, 0] - off_r
        tc = self._centers_p[idx, 1] - off_c
        # views are (..., C, S, S); move channels last for the network layer
        x = self._in_win[tr, tc].transpose(0, 2, 3, 1)
        y = self._tg_win[tr, tc].transpose(0, 2, 3, 1)
        m = self._mask_win[tr, tc]
        return x, y, m


def coverage_count(grid: WorldGrid, window: WindowSpec) -> np.ndarray:
    """How many sampled tiles contain each pixel of the (padded) grid.

    Pixel q lies inside the tile centered at p exactly when p falls in the
    S×S box ``[q + off - S + 1, q + off]``, so the count is a box sum of the
    land mask, computed with a summed-area table.
    """
    land = (np.asarray(grid.mask) == 1).astype(np.int64)
    h, w = land.shape
    sat = np.zeros((h + 1, w + 1), np.int64)
    np.cumsum(np.cumsum(land, axis=0), axis=1, out=sat[1:, 1:])
    s = window.size
    off_r, off_c = window.center_offset
    r0 = np.clip(np.arange(h) + off_r - s + 1, 0, h)
    r1 = np.clip(np.arange(h) + off_r + 1, 0, h)
    c0 = np.clip(np.arange(w) + off_c - s + 1, 0, w)
    c1 = np.clip(np.arange(w) + off_c + 1, 0, w)
    return (
        sat[np.ix_(r1, c1)]
        - sat[np.ix_(r0, c1)]
        - sat[np.ix_(r1, c0)]
        + sat[np.ix_(r0, c0)]
    )
