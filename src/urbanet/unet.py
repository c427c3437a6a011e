"""Encoder/decoder pixel-wise regressor with hand-derived analytic gradients.

Architecture (fixed by this artifact, not tunable per call):

* Every level applies two same-padded 3x3 convolutions, each followed
  by ``max(0, .)``.  Feature widths double per level from ``base_features``.
* ``depth`` 2x2 max-poolings contract the encoder; the deepest (bottleneck)
  level counts as part of the encoder so multi-task models share it.
* Each head owns a full decoder: nearest-neighbor 2x upsampling, a 3x3
  convolution (+ReLU), concatenation with the same-level encoder output
  (up-path channels first, skip channels second), then the two-convolution
  block.  The head itself is a single 1x1 convolution to one output plane
  with *no* nonlinearity — outputs are unbounded regression values.  The
  network's output stacks the heads' planes in head order, so output
  channel i is head i.
* No batch normalization, no dropout: gradients stay exactly checkable.

The forward builds neither the upsampled nor the concatenated tensor.  A
3x3 conv after nearest 2x upsampling equals one conv on the low-resolution
input with four output phases, whose taps are sums of the stored taps (the
resize-convolution identity, in the sub-pixel layout): the up-conv runs
at low resolution and interleaves the phases.  Each phase reads only a
2x2 window of the low-resolution input, so the phase kernel is 2x2 and
holds no structurally zero tap (``_TAP_SUMS``).  The two phases of each
axis read windows one pixel apart: the phase conv runs on the input
padded by one, at one extra row and column, and phase 1 reads its output
one pixel further on.  Its float32 result differs from upsample-then-conv
by about 1e-6 of the largest value, as the taps are summed before the
products.  Each decoder level allocates its ``conv1``'s zero-bordered
input, writes the skip into its second half and interleaves the
up-conv's phases straight into its first half (``_join``); ``conv1`` then
runs as a valid convolution on it.  The patch rows are those of the
concatenation, so the bytes are the same.

Tile sizes that ``2^depth`` does not divide are zero-padded internally to the
next multiple (e.g. 28 -> 32 at depth 3, two pixels on each side) and the
output is center-cropped back; the padding never leaks into the loss.

Precision policy: parameters and activations run in float32 by default; the
loss and the residual scaling that seeds backpropagation are always computed
in float64.  ``grad_check`` builds float64 parameters so the whole pipeline,
forward and backward, runs in 64-bit when checked against finite differences.
It reads from a probe's tape which ReLU units are open and where each
pooling window routes (``_pattern``), to prove a difference exact.

Activations use channel-last (N, H, W, C) layout.  Every convolution, the
1x1 head included, is an im2col GEMM, built and multiplied one block of a
few images at a time (``_im2col_blocks``), so the patch matrix never exists
whole and each block is still in cache when its GEMM reads it.  The patch
rows end in a column of ones and the weight matrix in the bias, so the
GEMM adds the bias, and the ReLU runs on each output block right after
it.  A GEMM narrower than 16 columns runs far below BLAS's wider speed,
so such a convolution (desk's 8-feature layers, and the one-plane head)
lowers two horizontally adjacent output pixels per patch row when the
width is even (``_pixels_per_row``): the row is a k x (k+1) window and
the weight matrix has each pixel's taps in its own column half, zero at
the other window column, so the GEMM is 2F wide and its output is the
activation in memory.  The backward builds one
patch matrix, of the zero-padded output gradient: times the flipped kernel
it is the input gradient (the transposed-kernel identity, no scatter-add),
and the input's rows times it give the weight gradient, block by block.
It pairs pixels by the same rule, on the input gradient's C columns.
The bias gradient is one GEMV of ones with the gradient's rows.  Row
blocks and pixel pairs change float32 rounding against a single
whole-batch GEMM (BLAS picks its kernel by matrix size), by about
float32 epsilon; a fixed thread count stays bit-reproducible.  A tile's
forward bytes do not depend on its batch for the two standard specs at
S = 16, 22 and 28 (a test pins it), but BLAS may round a block of a few
rows otherwise (README); the gradients, summed block by block, do.  Beside
the GEMMs the backward makes no whole-array pass it can avoid: the ReLU
gate multiplies in place a gradient the backward itself allocated (the
caller's output gradient reaches only un-gated layers), and a pool's
gradient is written slot by slot, never zero-filled first.  Training and
evaluation pass channel-last batches straight from the tile streams to
``_forward`` and ``loss_and_grads``.

The wiring is written once, in ``_forward``.  For backprop it records a
tape, one entry per ``conv``, ``upconv``, ``pool`` and ``cat`` layer, which
``_backward`` replays in reverse without knowing the network's shape.  A
decoder ``conv1`` is taped with two inputs, the up path and the skip, and
its backward takes them as two parts, so training builds no concatenated
copy.  Inference records no tape and frees each activation once it is dead:
the bottleneck goes once the last live decoder's first up-conv has read it,
and a skip once that decoder has copied it into its ``conv1`` input.  So
its memory is a few layers' worth rather than the whole network's, and
world prediction sizes its micro-batches so that this stays within
``_PREDICT_BYTES``.  A taped forward keeps a contiguous copy of each
up-conv output, which ``_backward`` reads.

The forward mirrors the backward's liveness rule.  A loss evaluation runs a
head only when its plane has nonzero loss weight or a trainable
parameter feeds it (``_live_heads``): the frozen multi-task phase never
runs the first head's decoder, in training or in validation.  The tape
keeps only what the backward replays: a pool stores no argmax, and its
backward recomputes the routing from the taped input and output.  Both
leave every loss and gradient byte-for-byte as a full pass gives them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DataError,
    IntegrityError,
    NumericError,
    ShapeError,
    SpecError,
)
from .files import open_container, write_container

CHECKPOINT_MAGIC = b"UNPK"
CHECKPOINT_VERSION = 2
_CHECKPOINT_SCHEMA = {"spec": {"input_channels": int, "base_features": int, "depth": int,
                               "kernel_size": int, "heads": [[str, int]]}}
# Every convolution but the 1x1 head is 3x3; checkpoints still store it.
_KERNEL = 3


# ---------------------------------------------------------------------------
# specification and parameters


@dataclass(frozen=True)
class UNetSpec:
    """Network shape: channel widths, depth, and named output heads.

    Each head predicts one output plane (one target variable), so
    ``heads`` is a tuple of names and the network emits ``len(heads)``
    channels, in that order.
    """

    input_channels: int
    base_features: int
    depth: int
    heads: tuple[str, ...] = ("urban",)

    @classmethod
    def desk(cls) -> "UNetSpec":
        """Small network on the nine standard input channels that trains in
        minutes on one CPU core."""
        return cls(input_channels=9, base_features=8, depth=2)

    @classmethod
    def full_scale(cls) -> "UNetSpec":
        """Production-size network on the nine standard input channels, for
        real multi-decade grid stacks."""
        return cls(input_channels=9, base_features=32, depth=3)


def validate_spec(spec: UNetSpec) -> None:
    # sizes and counts are bounded to 1..65535, far beyond any trainable network
    for field in ("input_channels", "base_features", "depth"):
        if not 1 <= getattr(spec, field) <= 0xFFFF:
            raise SpecError(f"{field} must be in 1..65535, got {getattr(spec, field)}")
    if not 1 <= len(spec.heads) <= 0xFFFF:
        raise SpecError(f"a spec needs 1..65535 heads, got {len(spec.heads)}")
    if len(set(spec.heads)) != len(spec.heads):
        raise SpecError(f"duplicate head names in {list(spec.heads)}")
    for name in spec.heads:
        if not name or not name.isascii():
            raise SpecError(f"head name {name!r} must be non-empty ASCII")


def expected_shapes(spec: UNetSpec) -> dict[str, tuple[int, ...]]:
    """Canonical parameter map: name -> shape, in deterministic order.

    Conv weights are (out_features, in_channels, k, k); biases (out_features,).
    The order here fixes both initialization draws and checkpoint layout.
    """
    validate_spec(spec)
    shapes: dict[str, tuple[int, ...]] = {}

    def conv(name: str, cin: int, cout: int, kk: int = _KERNEL) -> None:
        shapes[f"{name}.w"] = (cout, cin, kk, kk)
        shapes[f"{name}.b"] = (cout,)

    cin = spec.input_channels
    for lvl in range(spec.depth + 1):
        width = spec.base_features << lvl
        conv(f"enc{lvl}.conv1", cin, width)
        conv(f"enc{lvl}.conv2", width, width)
        cin = width
    for head in spec.heads:
        upper = spec.base_features << spec.depth
        for lvl in range(spec.depth - 1, -1, -1):
            width = spec.base_features << lvl
            conv(f"dec.{head}.{lvl}.up", upper, width)
            conv(f"dec.{head}.{lvl}.conv1", 2 * width, width)
            conv(f"dec.{head}.{lvl}.conv2", width, width)
            upper = width
        conv(f"head.{head}", spec.base_features, 1, 1)
    for name in shapes:  # names are bounded like grid channel names
        if len(name) > 255:
            raise SpecError(f"parameter name {name!r} is longer than 255 bytes")
    return shapes


def head_names(spec: UNetSpec, head: str) -> tuple[str, ...]:
    """Parameters owned by one task: its decoder path plus its 1x1 head."""
    if head not in spec.heads:
        raise SpecError(f"spec has no head named {head!r}")
    return tuple(
        n for n in expected_shapes(spec)
        if n.startswith(f"dec.{head}.") or n.startswith(f"head.{head}.")
    )


@dataclass
class UNetParams:
    """All learnable weights, keyed by the expected_shapes naming scheme."""

    spec: UNetSpec
    arrays: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        """The compute dtype: every array shares it."""
        return next(iter(self.arrays.values())).dtype

    def copy(self) -> "UNetParams":
        return UNetParams(self.spec, {k: v.copy() for k, v in self.arrays.items()})


def validate_params(params: UNetParams) -> None:
    shapes = expected_shapes(params.spec)
    if set(params.arrays) != set(shapes):
        missing = sorted(set(shapes) - set(params.arrays))
        extra = sorted(set(params.arrays) - set(shapes))
        raise IntegrityError(f"parameter set mismatch: missing {missing}, extra {extra}")
    for name, shape in shapes.items():
        arr = params.arrays[name]
        if tuple(arr.shape) != shape:
            raise IntegrityError(
                f"parameter {name!r} has shape {tuple(arr.shape)}, expected {shape}"
            )
        if not np.isfinite(arr).all():
            raise IntegrityError(f"parameter {name!r} contains non-finite values")


def init_params(spec: UNetSpec, seed: int, dtype=np.float32) -> UNetParams:
    """Fan-in-scaled Gaussian weights (std = sqrt(2/fan_in)), zero biases.

    Draws happen in expected_shapes order with one generator, so identical
    (spec, seed) gives bitwise-identical parameters.
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in expected_shapes(spec).items():
        if name.endswith(".b"):
            arrays[name] = np.zeros(shape, dtype)
        else:
            fan_in = shape[1] * shape[2] * shape[3]
            std = math.sqrt(2.0 / fan_in)
            arrays[name] = rng.normal(0.0, std, size=shape).astype(dtype)
    return UNetParams(spec=spec, arrays=arrays)


# ---------------------------------------------------------------------------
# layer primitives (channel-last)


# Patch-matrix block size: each block stays in cache from its copy to its
# GEMM.  Desk-spec train steps and forwards at S = 28 ran equally fast from
# 128 to 512 KiB and 10-25 % slower from 1 to 4 MiB (sweep in CHANGES.md).
_BLOCK_BYTES = 256 << 10
# Bytes of arrays one inference forward may hold: world prediction sizes
# its micro-batches by it (``_predict_tiles``), 60 desk tiles at S = 28.
# On the eval-128 bench 64-tile batches ran faster than 32- or 128-tile
# ones, and 60-tile ones than 256-tile ones, at 31 % less peak RSS
# (CHANGES.md).
_PREDICT_BYTES = 17 << 19  # 8.5 MiB


def _pixels_per_row(width: int, cols: int) -> int:
    """Output pixels per patch row of a convolution's lowering whose
    output rows are ``width`` pixels wide and whose GEMM has ``cols``
    columns: two horizontally adjacent pixels when that GEMM would be
    narrower than 16 columns (and the width is even), else one.

    A narrow GEMM runs far below BLAS's speed at 16 columns and up, and
    a k x k kernel's patch rows copy in runs of only k*C values.  Two
    pixels per row give the GEMM 2 * cols columns and the copy runs of
    (k+1)*C values for half as many rows; 1 / (k+1) of the paired weight
    matrix is zero (``_tap_matrix``).
    """
    return 2 if cols < 16 and width % 2 == 0 else 1


def _tap_matrix(taps: np.ndarray, px: int, bias: np.ndarray | None = None) -> np.ndarray:
    """The GEMM matrix of (k, k, C, F) ``taps`` for patch rows of ``px``
    pixels (``_im2col_blocks``): (k*(k+px-1)*C, px*F), rows in (du, dv, c)
    layout over the rows' k x (k+px-1) window.  Pixel h's column half holds
    the taps at window columns h .. h+k-1 and zeros elsewhere, so the GEMM
    output row is the px pixels' features side by side.  With ``bias`` one
    more row holds it, tiled px times, to meet the patch rows' ones.
    With px = 1 it is the taps reshaped, in the same order."""
    k, _, c, f = taps.shape
    kw = k + px - 1
    wm = np.zeros((k * kw * c + (bias is not None), px * f), taps.dtype)
    grid = wm[: k * kw * c].reshape(k, kw, c, px, f)  # a view
    for h in range(px):
        grid[:, h : h + k, :, h] = taps
    if bias is not None:
        wm[-1] = np.tile(bias, px)
    return wm


def _im2col_blocks(x: np.ndarray, k: int, pad: int, px: int, ones: bool = False):
    """Yield (row slice, patch rows) of the (N*Ho*Wo/px, k*(k+px-1)*C)
    patch matrix of (N,H,W,C) ``x`` zero-padded by ``pad`` on every side,
    a few whole images per block; Ho = H + 2 * pad - k + 1 (likewise Wo).
    A same-padded conv has ``pad = k // 2`` and Ho = H; a decoder
    ``conv1`` runs valid (``pad = 0``) on the input ``_join`` padded.

    Each row covers ``px`` horizontally adjacent output pixels, which must
    divide Wo (``_pixels_per_row``): row (n, i, j) holds the k x (k+px-1)
    window at padded pixel (i, px*j) in (du, dv, c) layout.  With px = 1
    that is pixel (i, j)'s k x k patch; a weight matrix from ``_tap_matrix``
    turns a row into the px pixels' outputs.

    The input is padded once (with no padding, only made contiguous).
    Each block is copied into one reused buffer of about
    ``_BLOCK_BYTES`` (at least one image), so a consumer must finish with
    a block before asking for the next.  Channel-last, window row du of
    patch row (n, i, j) is the (k+px-1)*C contiguous values
    xp[n, i + du, px*j : px*j + k + px - 1], so the copy moves runs of
    (k+px-1)*C values rather than C.

    With ``ones`` the buffer has one more column, of ones, written when it
    is allocated and never touched by the copies: each block is then
    (rows, k*(k+px-1)*C + 1), and a weight matrix whose last row is the bias
    adds the bias inside the GEMM.
    """
    n, h, w, c = x.shape
    if pad == 0:
        xp = np.ascontiguousarray(x)
    else:
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), x.dtype)
        xp[:, pad : pad + h, pad : pad + w] = x
    ho, wo = xp.shape[1] - k + 1, (xp.shape[2] - k + 1) // px
    run = (k + px - 1) * c  # values per window row
    sn, sh, sw, sc = xp.strides
    win = as_strided(xp, (n, ho, wo, k, run), (sn, sh, px * sw, sh, sc), writeable=False)
    step = max(1, min(n, _BLOCK_BYTES // (ho * wo * k * run * xp.itemsize)))
    buf = np.empty((step * ho * wo, k * run + ones), xp.dtype)
    if ones:
        buf[:, -1] = 1.0
    patches = buf[:, : k * run].reshape(step, ho, wo, k, run)  # a view
    for i in range(0, n, step):
        m = min(step, n - i)
        np.copyto(patches[:m], win[i : i + m])
        yield slice(i * ho * wo, (i + m) * ho * wo), buf[: m * ho * wo]


def _conv_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, pad: int, relu: bool
) -> np.ndarray:
    """Convolution of (N,H,W,C) ``x`` zero-padded by ``pad``, one GEMM block
    at a time (``_im2col_blocks``): (N, H + 2 * pad - k + 1,
    W + 2 * pad - k + 1, F).

    The bias is the last row of the weight matrix, which meets the patch
    rows' column of ones, so each block is one GEMM and, with ``relu``,
    one ReLU while it is still in cache.
    With fewer than 16 features and an even output width each patch row
    covers two adjacent output pixels (``_pixels_per_row``): the GEMM's
    (rows, 2F) output is then the (N, Ho, Wo, F) output in memory.
    """
    f, c, k, _ = w.shape
    n, h, wd, _ = x.shape
    ho, wo = h + 2 * pad - k + 1, wd + 2 * pad - k + 1
    px = _pixels_per_row(wo, f)
    wm = _tap_matrix(w.transpose(2, 3, 1, 0), px, b)
    y = np.empty((n, ho, wo, f), np.result_type(x, w))
    y2 = y.reshape(-1, px * f)
    for rows, cols in _im2col_blocks(x, k, pad, px, ones=True):
        yb = np.matmul(cols, wm, out=y2[rows])
        if relu:
            np.maximum(yb, 0.0, out=yb)
    return y


def _fold_pixels(dwp: np.ndarray) -> np.ndarray:
    """The (C, k, k, F) tap gradient from the per-pixel products
    (px, C, k, k+px-1, F) of a lowering with ``px`` pixels per row: pixel
    h's taps sit at window columns h .. h+k-1.  With px = 1 it is a view."""
    k = dwp.shape[2]
    dwt = dwp[0, :, :, :k]
    for h in range(1, len(dwp)):
        dwt = dwt + dwp[h, :, :, h : h + k]
    return dwt


def _conv_backward(x, w: np.ndarray, g: np.ndarray, pad: int, need_dx: bool):
    """Gradients of ``_conv_forward(x, w, b, pad)``: (d_input, d_weight, d_bias).

    Only the output gradient is lowered to patches (with no column of
    ones).  Zero-padded by k - 1 - pad, its patch row at input pixel (i, j)
    and tap (k-1-du, k-1-dv) is the output gradient that input pixel meets
    through weight tap (du, dv).  So d_input is that patch matrix times the
    spatially flipped, in/out-swapped kernel (a convolution, not a
    scatter-add), and d_weight, with its taps flipped back, sums
    x_rows.T @ cols over the same blocks.
    With fewer than 16 input channels and an even width each patch row
    covers two adjacent input pixels (``_pixels_per_row``), as in the
    forward: d_input's GEMM has 2C columns against the paired flipped
    kernel, and d_weight takes the input's rows two pixels at a time (a
    free reshape to 2C columns), whose product with the patch rows holds
    each pixel's taps in its own half, shifted by one window column; the
    halves are summed back once, after the last block.
    ``x`` may be a tuple of parts, the input as their channel
    concatenation, as a decoder ``conv1``'s up path and skip are taped:
    d_weight then takes one such product per part, so no concatenated
    copy is built, and d_input is a tuple of one gradient per part,
    channel views of one array.
    Without ``need_dx`` d_input is skipped (None).  d_bias is one GEMV, a
    vector of ones times the gradient's (N*H*W, F) rows, which BLAS sums
    faster and closer to the exact sum than a reduction over the rows.
    """
    f, c, k, _ = w.shape
    parts = x if isinstance(x, tuple) else (x,)
    n, h, wd, _ = parts[0].shape
    px = _pixels_per_row(wd, c)
    x_rows = [part.reshape(-1, px * part.shape[-1]) for part in parts]
    bounds = np.cumsum([0] + [part.shape[-1] for part in parts])
    dt = np.result_type(g, w)
    if need_dx:
        wflip = _tap_matrix(w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1), px)
        dx = np.empty((n, h, wd, c), dt)
        dx2 = dx.reshape(-1, px * c)
    # rows (pixel of the row, c), columns (flipped du, window column, f)
    dwp = np.zeros((px, c, k * (k + px - 1) * f), dt)
    for rows, cols in _im2col_blocks(g, k, k - 1 - pad, px):
        if need_dx:
            np.matmul(cols, wflip, out=dx2[rows])
        for xr, c0, c1 in zip(x_rows, bounds[:-1], bounds[1:]):
            dwp[:, c0:c1] += (xr[rows].T @ cols).reshape(px, c1 - c0, -1)
    dw = _fold_pixels(dwp.reshape(px, c, k, k + px - 1, f))
    dw = dw[:, ::-1, ::-1].transpose(3, 0, 1, 2)
    g2 = g.reshape(-1, f)
    db = np.ones(len(g2), g2.dtype) @ g2  # one GEMV, not a strided reduction
    if not need_dx:
        return None, dw, db
    if isinstance(x, tuple):
        dx = tuple(np.split(dx, bounds[1:-1], axis=-1))
    return dx, dw, db


# Output row 2i + a of a 3x3 conv after nearest 2x upsampling reads
# low-resolution rows i - 1 + a and i + a: phase a's two taps sum stored
# rows {0} and {1, 2} (a = 0), or {0, 1} and {2} (a = 1).  Columns likewise:
# _TAP_SUMS[a, b, u, v, du, dv] is 1 where phase (a, b)'s 2x2 tap (u, v)
# sums stored tap (du, dv).  Read-only.
_PHASE_ROWS = np.array([[[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]]], np.float64)
_TAP_SUMS = np.einsum("aud,bve->abuvde", _PHASE_ROWS, _PHASE_ROWS)
_TAP_SUMS.setflags(write=False)


def _phase_weight(w: np.ndarray) -> np.ndarray:
    """The (4F, C, 2, 2) sub-pixel kernel of stored (F, C, 3, 3) up-conv
    weights (``_TAP_SUMS``): its output channel (2a + b) * F + f is
    feature f at the output pixels (2i + a, 2j + b)."""
    f, c = w.shape[:2]
    wp = w.reshape(f * c, 9) @ _TAP_SUMS.reshape(16, 9).T.astype(w.dtype)
    return wp.reshape(f, c, 2, 2, 2, 2).transpose(2, 3, 0, 1, 4, 5).reshape(4 * f, c, 2, 2)


def _phase_weight_grad(dwp: np.ndarray) -> np.ndarray:
    """The adjoint of ``_phase_weight``: d_weight (F, C, 3, 3) from the
    (4F, C, 2, 2) sub-pixel kernel's gradient."""
    f, c = len(dwp) // 4, dwp.shape[1]
    d = dwp.reshape(2, 2, f, c, 2, 2).transpose(2, 3, 0, 1, 4, 5).reshape(f * c, 16)
    return (d @ _TAP_SUMS.reshape(16, 9).astype(dwp.dtype)).reshape(f, c, 3, 3)


def _phase_view(y4: np.ndarray) -> np.ndarray:
    """The (N, H, 2, W, 2, F) view of a (N, H+1, W+1, 4F) phase array whose
    element (n, i, a, j, b, f) is phase (a, b)'s feature f at output pixel
    (2i + a, 2j + b): channel (2a + b) * F + f at position (i + a, j + b).
    Reshaped, it is the (N, 2H, 2W, F) output.  The phases' elements are
    disjoint, so the view can be written through."""
    n, h1, w1, f4 = y4.shape
    f = f4 // 4
    sn, sh, sw, sc = y4.strides
    return as_strided(y4, (n, h1 - 1, 2, w1 - 1, 2, f),
                      (sn, sh, sh + 2 * f * sc, sw, sw + f * sc, sc))


def _upconv_phases(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool) -> np.ndarray:
    """Nearest-neighbor 2x upsampling of (N,H,W,C) ``x``, then a same-padded
    convolution with (F, C, 3, 3) ``w``, computed at low resolution: the
    four output phases as one (N, H+1, W+1, 4F) array, from one 2x2
    convolution of ``x`` zero-padded by one with the phase kernel
    (``_phase_weight``).  ``_phase_view`` reads the output."""
    return _conv_forward(x, _phase_weight(w), np.tile(b, 4), 1, relu)


def _depth_to_space(y4: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Interleave the up-conv phases ``y4`` into (N, 2H, 2W, F) ``out``,
    which may be a strided view, and return ``out``."""
    n, h2, w2, f = out.shape
    sn, sh, sw, sc = out.strides
    dst = as_strided(out, (n, h2 // 2, 2, w2 // 2, 2, f), (sn, 2 * sh, sh, 2 * sw, sw, sc))
    np.copyto(dst, _phase_view(y4))
    return out


def _upconv_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, need_dx: bool):
    """Gradients of the interleaved ``_upconv_phases(x, w, b)`` before its
    ReLU: (d_input, d_weight, d_bias), with d_input at the low resolution
    of ``x``.  The output gradient goes space-to-depth into the (N, H+1,
    W+1, 4F) phase layout, zero where no phase reads (phase 0's last row
    and column, phase 1's first), and through the phase conv's backward."""
    n, h, wd, _ = x.shape
    f = len(w)
    g4 = np.zeros((n, h + 1, wd + 1, 4 * f), g.dtype)
    np.copyto(_phase_view(g4), g.reshape(n, h, 2, wd, 2, f))
    dx, dwp, dbp = _conv_backward(x, _phase_weight(w), g4, 1, need_dx)
    return dx, _phase_weight_grad(dwp), dbp.reshape(4, f).sum(axis=0)


def _join(y4: np.ndarray, skip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A decoder ``conv1``'s input, zero-padded by one: the up path,
    interleaved from the up-conv phases ``y4``, in its first half and
    ``skip`` in its second.  Returns it and the view of its up path.  A
    valid 3x3 convolution of it has the patch rows of the same-padded
    convolution of the two parts (``_im2col_blocks``)."""
    n, h, w, f = skip.shape
    xp = np.zeros((n, h + 2, w + 2, 2 * f), skip.dtype)
    inner = xp[:, 1 : h + 1, 1 : w + 1]
    inner[..., f:] = skip
    return xp, _depth_to_space(y4, inner[..., :f])


def _pool_views(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four strided views of (N,H,W,C) ``x`` that each hold one pixel of
    every 2x2 window, in row-major window order."""
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


def _pool_forward(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling as the max of the four strided views of each window.

    No argmax is kept: ``_pool_backward`` recomputes the routing from the
    input and this output, so a pool whose backward never runs pays nothing.
    """
    views = _pool_views(x)
    y = np.maximum(views[0], views[1])
    np.maximum(y, views[2], out=y)
    np.maximum(y, views[3], out=y)
    return y


def _pool_backward(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of ``y = _pool_forward(x)``: each window's output gradient
    goes to its first maximum in row-major window order, the pixel that
    equals ``y`` first (the last pixel when none does, as for NaN).  Every
    other pixel gets +0.0.

    Each of the four window slots is written once, as the gradient's bits
    (an unsigned-integer view) times the slot's 0/1 routing mask: g's exact
    bits where the slot is routed, -0.0 included, and +0.0 where it is not.
    So ``dx`` is never zero-filled first and no select is built.  It is a
    new array, which the ReLU gate of the layer below may write in place."""
    bits = np.dtype(f"u{g.itemsize}")
    gb = g.view(bits)
    dx = np.empty(x.shape, g.dtype)
    dst = _pool_views(dx.view(bits))
    taken = np.zeros(y.shape, bool)  # windows already routed
    for pos, src in enumerate(_pool_views(x)[:3]):
        hit = src == y
        np.greater(hit, taken, out=hit)  # hit and not taken
        np.multiply(gb, hit, out=dst[pos])
        taken |= hit
    np.multiply(gb, np.logical_not(taken, out=taken), out=dst[3])
    return dx


# ---------------------------------------------------------------------------
# forward / backward


def _pad_amounts(size: int, multiple: int) -> tuple[int, int]:
    total = (-size) % multiple
    return total // 2, total - total // 2


def _predict_tiles(spec: UNetSpec, size: int, itemsize: int) -> int:
    """Tiles per inference forward of ``spec`` on ``size``-pixel tiles of
    ``itemsize``-byte values, so that the forward holds at most
    ``_PREDICT_BYTES`` of arrays (at least one tile).

    The forward peaks at one of two moments, and the count keeps both
    within the budget.  Per tile, at the padded size P, each holds the
    input tile and:

    * at level 0, the decoder join (``_join``): the up-conv's phases at
      (P/2 + 1)^2 positions, ``conv1``'s padded input and the level-0
      skip; or, on a wide input and narrow features, the first encoder
      conv: the padded tile, its padded input and its output.  Beside them
      one patch block (``_im2col_blocks``) of 3x3 patches and the weight
      matrix are held, whatever the tile count.  The term is that of one
      pixel per patch row, an upper bound when the layer pairs pixels
      (``_pixels_per_row``): desk's ``dec0.conv1`` block at S = 28 is
      303 KB paired, of the 455 KB reserved, and its weight matrix 12 KB,
      of 5 KB (315 of 459 KB);
    * at the deepest up-conv: the finer skips, the bottleneck, its copy
      padded by one and the phases.  Beside them its (2T, T, 2, 2) phase
      kernel (T the bottleneck's width) is held twice, as built and as its
      weight matrix, with one patch block.  At ``full_scale`` this is the
      larger moment.

    With more than one head, the skips a later head reads and the other
    heads' planes are held too.  16 KiB more covers the small arrays.
    """
    p = size + sum(_pad_amounts(size, 1 << spec.depth))
    f, c = spec.base_features, spec.input_channels
    top, low = f << spec.depth, p >> spec.depth  # the bottleneck's width and side
    finer = sum((p >> lvl) ** 2 * (f << lvl) for lvl in range(spec.depth))  # skips
    planes = p * p * (len(spec.heads) - 1)
    later = 0 if len(spec.heads) == 1 else planes + finer - p * p * f + low * low * top
    pp = (p + 2) ** 2  # pixels of a padded level-0 conv input
    join = (p // 2 + 1) ** 2 * 4 * f + pp * 2 * f + p * p * f + later
    encoder = p * p * c + pp * c + p * p * f
    rows = 9 * max(2 * f, c) + 1  # of the widest level-0 patch matrix
    level0 = (max(join, encoder),
              max(_BLOCK_BYTES, p * p * rows * itemsize) + rows * f * itemsize)
    deepest = (finer + planes + (low * low + (low + 2) ** 2) * top + (low + 1) ** 2 * 2 * top,
               _BLOCK_BYTES + itemsize * 2 * (8 * top * top + 2 * top))
    small = 16 << 10  # biases, tap maps and Python objects
    return max(1, min((_PREDICT_BYTES - small - fixed) // (itemsize * (size * size * c + tile))
                      for tile, fixed in (level0, deepest)))


def _forward(
    params: UNetParams,
    x: np.ndarray,
    keep_cache: bool = False,
    heads: frozenset[str] | None = None,
):
    """Channel-last forward pass; returns (output, cache).

    The cache is None unless ``keep_cache`` asks for it, as backprop does.
    Without it every activation is released once it is dead.  With it the
    cache holds the tape: one ``(kind, name, inputs, output, extra)`` entry
    per layer in execution order, where a ``conv`` or ``upconv`` names its
    parameters and carries its ReLU flag; a ``pool`` keeps only its input
    and output.  A decoder ``conv1``, which runs on ``_join``'s padded
    buffer, is taped with two inputs, the up path and the skip: its
    backward takes them as two parts.  The entries hold references, not
    copies.  Either way the outputs are the same bytes.

    ``heads`` names the heads to run (all when None, see ``_live_heads``);
    a head left out runs no layer, is not taped, and reads as zeros in its
    output plane.  The other planes are the bytes of a full pass.
    ``x`` is cast to the parameters' dtype, so callers pass tiles as gathered.
    """
    spec = params.spec
    arrays = params.arrays
    if x.ndim != 4 or x.shape[-1] != spec.input_channels:
        raise ShapeError(
            f"expected inputs (N, H, W, {spec.input_channels}), got {x.shape}"
        )
    x = np.ascontiguousarray(x, dtype=params.dtype)
    _, h, w, _ = x.shape
    mult = 1 << spec.depth
    pt, pb = _pad_amounts(h, mult)
    pl, pr = _pad_amounts(w, mult)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))

    tape: list[tuple] = []

    def layer(kind, name, inputs, out, extra=None):
        if keep_cache:
            tape.append((kind, name, inputs, out, extra))
        return out

    def conv(name: str, x: np.ndarray, relu: bool = True) -> np.ndarray:
        w = arrays[f"{name}.w"]  # same-padded
        y = _conv_forward(x, w, arrays[f"{name}.b"], w.shape[-1] // 2, relu)
        return layer("conv", name, (x,), y, relu)

    plane = x.shape[:3] + (1,)  # of one head's output
    skips: list[np.ndarray] = []  # every level's output; the last is the bottleneck
    for lvl in range(spec.depth + 1):
        y1 = conv(f"enc{lvl}.conv1", x)
        del x
        skips.append(conv(f"enc{lvl}.conv2", y1))
        del y1
        if lvl < spec.depth:
            x = layer("pool", None, (skips[-1],), _pool_forward(skips[-1]))

    live = [head for head in spec.heads if heads is None or head in heads]
    last = None if keep_cache or not live else live[-1]  # the skips' last reader
    head_outs: list[np.ndarray] = []
    for head in spec.heads:
        if head not in live:
            head_outs.append(np.zeros(plane, params.dtype))
            continue
        d = skips[-1]  # the bottleneck feeds every decoder
        if head == last:
            skips[-1] = None
        for lvl in range(spec.depth - 1, -1, -1):
            name = f"dec.{head}.{lvl}"
            y4 = _upconv_phases(d, arrays[f"{name}.up.w"], arrays[f"{name}.up.b"], relu=True)
            up_in = (d,) if keep_cache else ()
            del d
            # The tape keeps a contiguous copy of the up path, as _backward
            # reads it.  Allocated before conv1's input, it leaves a desk
            # training loop's peak RSS 2.6 MB lower than when allocated after.
            taped = np.empty(skips[lvl].shape, y4.dtype) if keep_cache else None
            xp, yu = _join(y4, skips[lvl])
            del y4
            if head == last:  # no later head reads this skip
                skips[lvl] = None
            if keep_cache:
                np.copyto(taped, yu)
                yu = layer("upconv", f"{name}.up", up_in, taped, True)
            y1 = _conv_forward(xp, arrays[f"{name}.conv1.w"], arrays[f"{name}.conv1.b"], 0,
                               relu=True)
            del xp
            layer("conv", f"{name}.conv1", (yu, skips[lvl]), y1, True)
            del yu
            d = conv(f"{name}.conv2", y1)
            del y1
        head_outs.append(conv(f"head.{head}", d, relu=False))
        del d

    if len(head_outs) == 1:
        y = head_outs[0]
    else:
        y = layer("cat", None, tuple(head_outs), np.concatenate(head_outs, axis=-1))
    if pt or pb or pl or pr:
        y = y[:, pt : pt + h, pl : pl + w, :]
    if not keep_cache:
        return y, None
    return y, {"pads": (pt, pb, pl, pr), "tape": tape}


def _backward(
    params: UNetParams, cache: dict, g_out: np.ndarray, trainable: set[str] | None
) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(output) by replaying the cached tape in reverse.

    Returns gradients for ``trainable`` names (all parameters when None).
    A layer runs only when a trainable parameter feeds its output, and a
    convolution computes its input gradient only when one feeds its input;
    the work skipped reaches no returned gradient.  An activation that
    several layers read sums their gradients as they arrive.
    """
    arrays = params.arrays
    wanted = set(arrays) if trainable is None else set(trainable)
    tape = cache["tape"]
    # activations are keyed by id(), which the tape keeps unique by keeping
    # every one of them alive
    fed: set[int] = set()  # the activations that a trainable parameter feeds
    for kind, name, inputs, out, _ in tape:
        if (name is not None and f"{name}.w" in wanted) or any(id(a) in fed for a in inputs):
            fed.add(id(out))

    g = g_out
    if any(cache["pads"]):  # undo the output crop
        pt, pb, pl, pr = cache["pads"]
        g = np.pad(g_out, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    pending = {id(tape[-1][3]): g}  # activation -> d(loss)/d(activation)
    grads: dict[str, np.ndarray] = {}
    for kind, name, inputs, out, extra in reversed(tape):
        if id(out) not in fed:
            continue
        g = pending.pop(id(out))
        if kind == "pool":
            g_in = [_pool_backward(g, inputs[0], out)]
        elif kind == "cat":  # each head takes back its own plane
            g_in = np.split(g, len(inputs), axis=-1)
        else:  # conv or upconv
            if extra:  # the ReLU passes gradient only where it was open.
                # In place: a gated g is the backward's own (a dx, a channel
                # view of one, a pool gradient or a pending sum); the
                # caller's g_out reaches only the heads and the cat.
                np.multiply(g, out > 0, out=g)
            need_dx = any(id(a) in fed for a in inputs)
            w = arrays[f"{name}.w"]
            if kind == "conv":
                dx, dw, db = _conv_backward(inputs, w, g, w.shape[-1] // 2, need_dx)
            else:
                dx, dw, db = _upconv_backward(inputs[0], w, g, need_dx)
                dx = (dx,)
            if f"{name}.w" in wanted:
                if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                    raise NumericError(f"non-finite gradient in layer {name!r}")
                grads[f"{name}.w"] = dw
                grads[f"{name}.b"] = db
            g_in = dx if need_dx else ()
        for a, ga in zip(inputs, g_in):
            if id(a) in fed:
                pending[id(a)] = pending[id(a)] + ga if id(a) in pending else ga
    return grads


# ---------------------------------------------------------------------------
# masked loss


def _weight_vector(channel_weights, c: int) -> np.ndarray:
    """``channel_weights`` as a float64 vector, which must have shape (c,)."""
    wts = np.asarray(channel_weights, dtype=np.float64)
    if wts.shape != (c,):
        raise ShapeError(f"channel_weights must have shape ({c},), got {wts.shape}")
    return wts


def _live_heads(
    spec: UNetSpec, channel_weights, trainable: set[str] | None = frozenset()
) -> frozenset[str] | None:
    """The heads a loss evaluation must run, for ``_forward``'s ``heads``.

    Loss weight i belongs to head i.  A head is dead when its weight is
    0, unless a trainable parameter feeds it (an encoder one or its own;
    None: every parameter is trainable): then its backward runs and it
    stays live, so the gradients keep their bytes.  A dead head changes
    neither the loss nor any returned gradient.  Returns None when every
    head is live, and also when none is: the weights are then invalid and
    the loss refuses them.
    """
    if channel_weights is None or trainable is None:
        return None
    wts = _weight_vector(channel_weights, len(spec.heads))
    shared = any(n.startswith("enc") for n in trainable)
    live = [head for head, wt in zip(spec.heads, wts)
            if shared or wt != 0
            or any(n.startswith((f"dec.{head}.", f"head.{head}.")) for n in trainable)]
    return frozenset(live) if 0 < len(live) < len(spec.heads) else None


def _masked_loss_grad(
    pred: np.ndarray,
    target: np.ndarray,
    mask: np.ndarray,
    channel_weights: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """Masked MSE and its gradient w.r.t. pred (channel-last, float64).

    Per sample: the squared residual is summed over masked-in pixels and
    divided by that sample's land-pixel count; per-channel means are combined
    by ``channel_weights`` (uniform when None) and samples averaged.  Target
    and mask must match ``pred`` exactly (no broadcasting); the mask must be
    binary.
    """
    if pred.ndim != 4 or target.shape != pred.shape or mask.shape != pred.shape[:3]:
        raise ShapeError(
            f"expected pred and target (N, H, W, C) and mask (N, H, W), got "
            f"{pred.shape}, {target.shape} and {mask.shape}"
        )
    if ((mask != 0) & (mask != 1)).any():
        raise IntegrityError("masks must be binary")
    p = pred.astype(np.float64, copy=False)
    t = target.astype(np.float64, copy=False)
    n, h, w, c = p.shape
    m = mask.astype(np.float64, copy=False).reshape(n, h, w, 1)
    denom = m.sum(axis=(1, 2, 3))
    if (denom == 0).any():
        k = int(np.argmin(denom))
        raise DataError(f"sample {k} has an all-water mask; the loss is undefined")
    if channel_weights is None:
        wts = np.full(c, 1.0 / c)
    else:
        wts = _weight_vector(channel_weights, c)
        if (wts < 0).any() or wts.sum() <= 0:
            raise DataError("channel_weights must be non-negative and sum to > 0")
        wts = wts / wts.sum()
    with np.errstate(invalid="ignore", over="ignore"):
        # divergent predictions yield a non-finite loss that callers detect
        diff = (p - t) * m
        per = np.einsum("nhwc->nc", diff * diff) / denom[:, None]
        loss = float((per @ wts).mean())
        grad = diff * (2.0 / n) * (wts / denom[:, None])[:, None, None, :]
    return loss, grad


def loss_and_grads(
    params: UNetParams,
    x: np.ndarray,
    y: np.ndarray,
    m: np.ndarray,
    channel_weights: np.ndarray | None = None,
    trainable: set[str] | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Fused forward + masked loss + backward on channel-last arrays.

    A head whose loss weight is zero and that no trainable parameter
    feeds is not computed (``_live_heads``).
    """
    heads = _live_heads(params.spec, channel_weights, trainable)
    pred, cache = _forward(params, x, keep_cache=True, heads=heads)
    loss, g = _masked_loss_grad(pred, y, m, channel_weights)
    if not math.isfinite(loss):
        raise NumericError(f"masked loss is non-finite ({loss})")
    grads = _backward(params, cache, g.astype(params.dtype, copy=False), trainable)
    return loss, grads


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    """The largest relative error, the array it was found in, and the
    number of coordinates compared, less those whose probes straddle a
    ReLU kink or a pooling tie (``grad_check``).  The caller judges it
    against its own tolerance."""

    max_rel_err: float
    worst_param: str
    n_checked: int

_PROBE_BATCH = 2
_EPSILON = 1e-5
# Models up to this many parameters are checked at every coordinate; larger
# ones at a stratified sample of _SAMPLED_COORDS (at least one per array).
_FULL_CHECK_COORDS = 4000
_SAMPLED_COORDS = 500


def _pattern(cache: dict) -> list[np.ndarray]:
    """The piece of the piecewise-linear network a taped forward ran on, in
    tape order: for each ReLU convolution or up-convolution which units
    are open (``out > 0``), and for each pooling the window slot its
    backward routes to, the first that equals the output."""
    pattern = []
    for kind, _, inputs, out, extra in cache["tape"]:
        if kind in ("conv", "upconv") and extra:
            pattern.append(out > 0)
        elif kind == "pool":
            hits = np.stack([view == out for view in _pool_views(inputs[0])])
            pattern.append(hits.argmax(axis=0))
    return pattern


def grad_check(spec: UNetSpec, seed: int, *, tile_size: int) -> GradCheckReport:
    """Compare analytic gradients of ``spec`` against central finite
    differences, and report the largest relative error; it sets no pass
    mark.

    Runs entirely in float64 on a batch of two ``tile_size`` tiles.  Every
    coordinate is checked when the model has at most 4000 parameters;
    otherwise a stratified sample of 500 coordinates (at least one per
    parameter array) is drawn.  With every other parameter fixed, the loss
    is a piecewise quadratic of one coordinate.  When the forwards at its
    probes, +-1e-5, open the same ReLU units and route every pooling
    window to the same slot (``_pattern``), every pre-activation is affine
    in the coordinate between them: the loss is one quadratic there, and
    the central difference is exact up to rounding.  A coordinate whose
    error would raise the maximum counts only once its probes are so
    proven; one whose probes differ is refused and left out of
    ``n_checked``.  Raises ``NumericError`` when every coordinate is
    refused.
    """
    params = init_params(spec, seed, dtype=np.float64)
    rng = np.random.default_rng([seed, 0x5EED])
    for name, arr in params.arrays.items():
        # Zero biases would leave structurally-zero pre-activations sitting
        # exactly on the ReLU kink; probe at a generic point instead.
        if name.endswith(".b"):
            params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape)
    n, size = _PROBE_BATCH, tile_size
    m = (rng.random((n, size, size)) < 0.8).astype(np.float64)
    for k in range(n):  # the loss needs at least one land pixel per sample
        if not m[k].any():
            m[k, size // 2, size // 2] = 1.0
    x = rng.normal(size=(n, size, size, spec.input_channels))
    y = rng.normal(size=(n, size, size, len(spec.heads)))

    _, analytic = loss_and_grads(params, x, y, m)

    def loss_only() -> float:
        pred, _ = _forward(params, x)
        loss, _ = _masked_loss_grad(pred, y, m, None)
        return loss

    def pattern_at(arr: np.ndarray, flat: int, value: float) -> list[np.ndarray]:
        arr.flat[flat] = value
        return _pattern(_forward(params, x, keep_cache=True)[1])

    names = list(expected_shapes(spec))
    sizes = {name: params.arrays[name].size for name in names}
    total = sum(sizes.values())
    if total <= _FULL_CHECK_COORDS:
        coords = [(name, i) for name in names for i in range(sizes[name])]
    else:  # at least one coordinate from every array
        coords = [(name, int(rng.integers(sizes[name]))) for name in names]
        while len(coords) < _SAMPLED_COORDS:
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(sizes[name]))))

    max_rel, worst, refused = 0.0, None, 0
    for name, flat in coords:
        arr = params.arrays[name]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + _EPSILON
        lp = loss_only()
        arr.flat[flat] = orig - _EPSILON
        lm = loss_only()
        fd = (lp - lm) / (2.0 * _EPSILON)
        an = float(analytic[name].flat[flat])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        if worst is None or rel > max_rel:  # prove it before it counts
            below = pattern_at(arr, flat, orig - _EPSILON)
            above = pattern_at(arr, flat, orig + _EPSILON)
            if all(np.array_equal(a, b) for a, b in zip(below, above)):
                max_rel, worst = rel, name
            else:
                refused += 1
        arr.flat[flat] = orig
    if worst is None:
        raise NumericError(
            f"every one of {len(coords)} finite-difference probes straddles a "
            f"ReLU kink or a pooling tie"
        )
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst,
                           n_checked=len(coords) - refused)


# ---------------------------------------------------------------------------
# checkpoints


def save_params(params: UNetParams, path: str | Path) -> None:
    """Write a UNPK checkpoint: a :mod:`urbanet.files` container, magic
    ``UNPK``, version 2, whose meta is ``{"spec": {...}}`` (the spec's
    fields, with ``kernel_size`` 3 after ``depth`` and heads as [name, 1]
    pairs: version 2 stores the kernel and each head's plane count, which
    are always 3 and 1) and whose arrays are the parameters as ``<f4`` in
    ``expected_shapes`` order."""
    validate_params(params)
    arrays = {name: np.asarray(params.arrays[name], np.float32)
              for name in expected_shapes(params.spec)}
    s = params.spec
    spec = {"input_channels": s.input_channels, "base_features": s.base_features,
            "depth": s.depth, "kernel_size": _KERNEL, "heads": [[name, 1] for name in s.heads]}
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, {"spec": spec}, arrays)


def load_params(path: str | Path) -> UNetParams:
    """Read a UNPK checkpoint, validating its arrays against its spec and
    refusing non-finite values, a kernel size other than 3 and any head
    whose plane count is not 1.  The header is checked before any array is
    read.  Returns writable float32 copies."""
    with open_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                        _CHECKPOINT_SCHEMA) as src:
        fields = dict(src.meta["spec"])
        kernel, heads = fields.pop("kernel_size"), fields.pop("heads")
        for name, planes in heads:
            if planes != 1:
                raise IntegrityError(f"{path}: head {name!r} has {planes} output planes; "
                                     "every head has one")
        spec = UNetSpec(**fields, heads=tuple(h for h, _ in heads))
        # the array count is checked before any array is read or any name
        # is built, so a header that asks for a huge depth costs no more
        # work than the header's size: each encoder level has 2 convs, each
        # decoder level 3, each head one more, and every conv is a weight
        # and a bias
        try:
            if kernel != _KERNEL:
                raise SpecError(f"kernel_size must be {_KERNEL}, got {kernel}")
            validate_spec(spec)
            need = 4 * (spec.depth + 1) + len(spec.heads) * (6 * spec.depth + 2)
            if len(src.arrays) != need:
                kind = "missing" if len(src.arrays) < need else "extra"
                raise IntegrityError(f"{path}: {kind} arrays: the spec needs {need}, "
                                     f"the file holds {len(src.arrays)}")
            shapes = expected_shapes(spec)
        except SpecError as err:  # a corrupt file, not a bad request
            raise IntegrityError(f"{path}: invalid spec block: {err}") from None
        params = UNetParams(spec, {name: src.read(name).astype(np.float32)
                                   for name in src.arrays})
    try:
        validate_params(params)
    except IntegrityError as err:
        raise IntegrityError(f"{path}: {err}") from None
    return UNetParams(spec, {name: params.arrays[name] for name in shapes})
