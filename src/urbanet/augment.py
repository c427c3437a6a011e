"""Geometric tile augmentation: the original plus five transforms.

The training set uses exactly {identity, horizontal flip, vertical flip,
rotation by 90/180/270 degrees}, applied identically to input channels,
target channels, and mask.  Rot90 is 90 degrees counterclockwise, pinned by
the index map (i, j) -> (S-1-j, i); all other conventions follow from it.
Evaluation never augments.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ShapeError
from .tiler import TileDataset


class Transform(enum.Enum):
    IDENTITY = "identity"
    HFLIP = "hflip"
    VFLIP = "vflip"
    ROT90 = "rot90"
    ROT180 = "rot180"
    ROT270 = "rot270"


#: Fixed augmentation order used everywhere a set of variants is produced.
TRANSFORMS: tuple[Transform, ...] = (
    Transform.IDENTITY,
    Transform.HFLIP,
    Transform.VFLIP,
    Transform.ROT90,
    Transform.ROT180,
    Transform.ROT270,
)


def transform_plane(
    plane: np.ndarray, t: Transform, axes: tuple[int, int] = (-2, -1)
) -> np.ndarray:
    """Apply ``t`` to the two spatial axes of ``plane`` (any leading axes kept)."""
    rows, cols = axes
    if plane.shape[rows] != plane.shape[cols]:
        raise ShapeError(
            f"spatial axes must be square, got {plane.shape[rows]}x{plane.shape[cols]}"
        )
    if t is Transform.IDENTITY:
        out = plane
    elif t is Transform.HFLIP:
        out = np.flip(plane, axis=cols)
    elif t is Transform.VFLIP:
        out = np.flip(plane, axis=rows)
    elif t is Transform.ROT90:
        out = np.rot90(plane, 1, axes=axes)
    elif t is Transform.ROT180:
        out = np.rot90(plane, 2, axes=axes)
    elif t is Transform.ROT270:
        out = np.rot90(plane, 3, axes=axes)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown transform {t!r}")
    return np.ascontiguousarray(out)


class AugmentedTiles:
    """Lazy 6x expansion of a tile dataset.

    Index ``k`` maps to base tile ``i = k % n`` under transform
    ``TRANSFORMS[(i + k // n) % 6]``: a diagonal enumeration, so consecutive
    samples differ in both base tile and transform rather than replaying one
    tile six times in a row.
    """

    def __init__(self, base: TileDataset):
        self.base = base

    def __len__(self) -> int:
        return 6 * len(self.base)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather NHWC arrays like TileDataset.batch, applying each transform."""
        idx = np.asarray(indices)
        n = len(self.base)
        base_idx = idx % n
        t_idx = (base_idx + idx // n) % 6
        x, y, m = self.base.batch(base_idx)
        x, y, m = x.copy(), y.copy(), m.copy()
        for ti in range(6):
            rows = t_idx == ti
            if not rows.any() or TRANSFORMS[ti] is Transform.IDENTITY:
                continue
            t = TRANSFORMS[ti]
            x[rows] = transform_plane(x[rows], t, axes=(1, 2))
            y[rows] = transform_plane(y[rows], t, axes=(1, 2))
            m[rows] = transform_plane(m[rows], t, axes=(1, 2))
        return x, y, m
