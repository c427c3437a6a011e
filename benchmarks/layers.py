"""The bindings the traced run wraps and the per-layer metrics read from
its spans.

Each binding is a name a calling module holds: ``trainer._forward``,
``evaluate._forward`` and ``unet._forward`` are three bindings of one
function, and all three feed the ``unet.forward`` span.  Class methods are
wrapped on the class, which is what every caller looks up.  Counts marked
"computed" are derived from call arguments and shapes, not measured.
"""

from __future__ import annotations

import functools
import os

import numpy as np

from urbanet import unet
from urbanet.grid import TEST, TRAIN


@functools.lru_cache(maxsize=64)
def forward_gflop(spec: unet.UNetSpec, shape: tuple[int, ...]) -> float:
    """Computed: 2 * k^2 * C_in * C_out multiply-adds per output pixel of
    every conv, at its level's resolution after padding to 2^depth."""
    n, h, w = shape[:3]
    mult = 1 << spec.depth
    hp, wp = h + (-h) % mult, w + (-w) % mult
    flops = 0
    for name, shape in unet.expected_shapes(spec).items():
        if not name.endswith(".w"):
            continue
        cout, cin, k, _ = shape
        parts = name.split(".")
        if parts[0].startswith("enc"):
            level = int(parts[0][3:])
        elif parts[0] == "dec":
            level = int(parts[2])
        else:
            level = 0
        flops += 2 * cout * cin * k * k * n * (hp >> level) * (wp >> level)
    return flops / 1e9


def _forward_work(args, kwargs, result):
    params, x = args[0], args[1]
    return {"tiles": x.shape[0], "gflop": forward_gflop(params.spec, tuple(x.shape))}


def _buffered_pairs(args, kwargs, result):
    """Computed: (pixel, value) pairs predict_world buffers, that is
    tiles * S^2 per head, from the call arguments."""
    params, grid, window = args[:3]
    centers = np.asarray(grid.mask) == 1
    wanted = kwargs.get("split_filter", "all")
    if wanted != "all":
        centers &= kwargs["split"].labels == (TRAIN if wanted == "train" else TEST)
    return {"pairs": int(centers.sum()) * window.size ** 2 * len(params.spec.heads)}


def _batch_bytes(args, kwargs, result):
    return {"bytes": sum(a.nbytes for a in result)}


def _bytes_of(position):
    def counter(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return counter


# (module, attribute path, span name, counter)
BINDINGS = (
    ("urbanet.unet", "_forward", "unet.forward", _forward_work),
    ("urbanet.trainer", "_forward", "unet.forward", _forward_work),
    ("urbanet.evaluate", "_forward", "unet.forward", _forward_work),
    ("urbanet.unet", "_masked_loss_grad", "unet.loss", None),
    ("urbanet.trainer", "_masked_loss_grad", "unet.loss", None),
    ("urbanet.trainer", "loss_and_grads", "unet.loss_and_grads", None),
    ("urbanet.unet", "init_params", "unet.init_params", None),
    ("urbanet.trainer", "init_params", "unet.init_params", None),
    ("urbanet.unet", "load_params", "unet.load_params", None),
    ("urbanet.unet", "save_params", "unet.save_params", None),
    ("urbanet.evaluate", "predict_world", "evaluate.predict_world", _buffered_pairs),
    ("urbanet.evaluate", "residual_metrics", "evaluate.metrics", None),
    ("urbanet.evaluate", "stratify", "evaluate.metrics", None),
    ("urbanet.evaluate", "load_report", "evaluate.report", None),
    ("urbanet.evaluate", "save_report", "evaluate.report", None),
    ("urbanet.trainer", "train", "trainer.train", None),
    ("urbanet.trainer", "train_multitask", "trainer.train_multitask", None),
    ("urbanet.trainer", "evaluate_loss", "trainer.evaluate_loss", None),
    ("urbanet.trainer", "build_streams", "trainer.build_streams", None),
    ("urbanet.trainer", "build_multitask", "trainer.build_multitask", None),
    ("urbanet.tiler", "TileDataset.__init__", "tiler.init", None),
    ("urbanet.tiler", "TileDataset.batch", "tiler.batch", _batch_bytes),
    ("urbanet.augment", "AugmentedTiles.batch", "augment.batch", None),
    ("urbanet.grid", "load_grid", "grid.load_grid", _bytes_of(0)),
    ("urbanet.grid", "save_grid", "grid.save_grid", _bytes_of(1)),
    ("urbanet.grid", "pad_grid", "grid.prepare", None),
    ("urbanet.grid", "assign_split", "grid.prepare", None),
    ("urbanet.grid", "normalize_channels", "grid.prepare", None),
    ("urbanet.synth", "gen_world", "synth.gen_world", None),
    ("urbanet.cli", "main", "cli.main", None),
)

# metric -> (span name, what to read, scale, unit).  "total" is summed
# span duration, "self" summed self time, "calls" the span count, any
# other key a summed counter.
PER_LAYER = {
    "unet.forward_ms": ("unet.forward", "total", 1e3, "ms"),
    "unet.forward_calls": ("unet.forward", "calls", 1, "count"),
    "unet.forward_tiles": ("unet.forward", "tiles", 1, "count"),
    "unet.forward_gflop": ("unet.forward", "gflop", 1, "GFLOP"),
    "unet.loss_ms": ("unet.loss", "total", 1e3, "ms"),
    "unet.backward_ms": ("unet.loss_and_grads", "self", 1e3, "ms"),
    "unet.load_params_s": ("unet.load_params", "total", 1, "s"),
    "evaluate.predict_world_s": ("evaluate.predict_world", "total", 1, "s"),
    "evaluate.aggregate_ms": ("evaluate.predict_world", "self", 1e3, "ms"),
    "evaluate.buffered_pairs": ("evaluate.predict_world", "pairs", 1, "count"),
    "evaluate.metrics_ms": ("evaluate.metrics", "total", 1e3, "ms"),
    "evaluate.report_ms": ("evaluate.report", "total", 1e3, "ms"),
    "trainer.validation_ms": ("trainer.evaluate_loss", "total", 1e3, "ms"),
    "trainer.self_ms": ("trainer.train", "self", 1e3, "ms"),
    "tiler.init_s": ("tiler.init", "total", 1, "s"),
    "tiler.batch_calls": ("tiler.batch", "calls", 1, "count"),
    "tiler.batch_ms": ("tiler.batch", "total", 1e3, "ms"),
    "tiler.batch_mb": ("tiler.batch", "bytes", 1e-6, "MB"),
    "augment.batch_calls": ("augment.batch", "calls", 1, "count"),
    "augment.batch_ms": ("augment.batch", "self", 1e3, "ms"),
    "grid.load_grid_s": ("grid.load_grid", "total", 1, "s"),
    "grid.save_grid_s": ("grid.save_grid", "total", 1, "s"),
    "grid.prepare_s": ("grid.prepare", "total", 1, "s"),
    "grid.wgrd_bytes": ("grid.load_grid", "bytes", 1, "B"),
    "synth.gen_world_s": ("synth.gen_world", "total", 1, "s"),
    "cli.self_ms": ("cli.main", "self", 1e3, "ms"),
}

# derived from arguments and shapes, not measured
COMPUTED = ("unet.forward_gflop", "evaluate.buffered_pairs", "tiler.batch_mb",
            "trace.overhead_est_pct")


def layer_metrics(totals) -> dict[str, tuple[float, str]]:
    """Per-layer values from ``spans.totals_by_name``; a layer that did
    not run in the workload reads 0."""
    out = {}
    for metric, (span, what, scale, unit) in PER_LAYER.items():
        t = totals.get(span)
        if t is None:
            value = 0
        elif what in ("total", "self", "calls"):
            value = getattr(t, what)
        else:
            value = t.attrs.get(what, 0)
        out[metric] = (value * scale, unit)
    return out
