"""Masked pixel-wise U-Net regression on multi-channel world grids.

The package module imports none of its submodules, so a bare
``import urbanet`` and the lightweight entry points (argument parsing,
``--threads`` environment setup) never pay the numpy import cost.  Import
a submodule by name: ``from urbanet import tiler`` or
``from urbanet.tiler import TileDataset``.
"""

__version__ = "0.1.0"
