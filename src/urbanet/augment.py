"""Geometric tile augmentation: the original plus five transforms.

The training set uses exactly {identity, horizontal flip, vertical flip,
rotation by 90/180/270 degrees}, applied identically to input channels,
target channels, and mask.  Rot90 is 90 degrees counterclockwise, pinned by
the index map (i, j) -> (S-1-j, i); all other conventions follow from it.
Augmented tiles are gathered through the tiler's window offset table as
rearranged by :func:`transform_plane`.  :class:`AugmentedTiles` expands a
subset of a dataset's tiles: training keeps the train-split tiles outside
the validation regions.  Evaluation never augments.
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


#: Fixed augmentation order used everywhere a set of variants is produced:
#: the order the transforms are defined in.
TRANSFORMS: tuple[Transform, ...] = tuple(Transform)

# counterclockwise quarter turns of the transforms that are rotations
_TURNS = {Transform.IDENTITY: 0, Transform.ROT90: 1, Transform.ROT180: 2, Transform.ROT270: 3}


def transform_plane(plane: np.ndarray, t: Transform) -> np.ndarray:
    """Apply ``t`` to the last two axes of ``plane`` (any leading axes kept)."""
    if plane.shape[-2] != plane.shape[-1]:
        raise ShapeError(
            f"spatial axes must be square, got {plane.shape[-2]}x{plane.shape[-1]}"
        )
    if t is Transform.HFLIP:
        out = np.flip(plane, axis=-1)
    elif t is Transform.VFLIP:
        out = np.flip(plane, axis=-2)
    else:
        out = np.rot90(plane, _TURNS[t], axes=(-2, -1))
    return np.ascontiguousarray(out)


class AugmentedTiles:
    """Lazy 6x expansion of the tiles ``keep`` of a tile dataset, in six
    passes over ``keep``.

    With K = len(keep), sample ``j`` is base tile ``i = keep[j % K]`` under
    transform ``TRANSFORMS[(i + j // K) % 6]``: a diagonal enumeration, so
    consecutive samples differ in both base tile and transform rather than
    replaying one tile six times in a row, and a tile meets every
    transform once in the six passes.  ``keep = arange(len(base))``
    expands the whole dataset.  Each batch works its tiles out, so no
    6K-long index is stored (it would take 48 bytes per kept tile), and
    is one gather of the base dataset.
    """

    def __init__(self, base: TileDataset, keep: np.ndarray):
        self.base = base
        self.keep = np.asarray(keep, np.int64)
        self.offsets = np.stack([transform_plane(base.offsets, t) for t in TRANSFORMS])

    def __len__(self) -> int:
        return len(TRANSFORMS) * len(self.keep)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather NHWC arrays like TileDataset.batch, each under its transform."""
        passes, at = np.divmod(np.asarray(indices), len(self.keep))
        tiles = self.keep[at]
        return self.base.gather(tiles, self.offsets[(tiles + passes) % 6])
