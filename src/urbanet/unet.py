"""Encoder/decoder pixel-wise regressor with hand-derived analytic gradients.

Architecture (fixed by this artifact, not tunable per call):

* Every level applies two same-padded ``k x k`` convolutions, each followed
  by ``max(0, .)``.  Feature widths double per level from ``base_features``.
* ``depth`` 2x2 max-poolings contract the encoder; the deepest (bottleneck)
  level counts as part of the encoder so multi-task models share it.
* Each head owns a full decoder: nearest-neighbor 2x upsampling, a ``k x k``
  convolution (+ReLU), concatenation with the same-level encoder output
  (up-path channels first, skip channels second), then the two-convolution
  block.  The head itself is a single 1x1 convolution with *no* nonlinearity
  — outputs are unbounded regression values.
* No batch normalization, no dropout: gradients stay exactly checkable.

Neither the upsampled nor the concatenated tensor is ever built.  A conv
after nearest 2x upsampling equals one conv on the low-resolution input
with four output phases, whose taps are sums of the stored taps (the
resize-convolution identity, in the sub-pixel layout): the up-conv runs
at low resolution and interleaves the phases.  Each phase reads only a
(k//2 + 1)^2 window of the low-resolution input, 2x2 at k = 3, so the
phase kernel is that size and holds no structurally zero tap; for an odd
k//2 the phases' windows are offset by one pixel, and the phase conv runs
on one extra row and column that each phase reads shifted
(``_tap_sum_map``).  Its float32 result differs from upsample-then-conv
by about 1e-6 of the largest value, as the taps are summed before the
products.  Each decoder ``conv1`` writes its two inputs side by side into
the padded input its im2col builds anyway, which gives the same bytes as
concatenating them first.

Tile sizes that ``2^depth`` does not divide are zero-padded internally to the
next multiple (e.g. 28 -> 32 at depth 3, two pixels on each side) and the
output is center-cropped back; the padding never leaks into the loss.

Precision policy: parameters and activations run in float32 by default; the
loss and the residual scaling that seeds backpropagation are always computed
in float64.  ``grad_check`` builds float64 parameters so the whole pipeline,
forward and backward, runs in 64-bit when checked against finite differences.

Activations use channel-last (N, H, W, C) layout.  Every convolution is an
im2col GEMM, built and multiplied one block of a few images at a time
(``_im2col_blocks``), so the patch matrix never exists whole and each block
is still in cache when its GEMM reads it.  The patch rows end in a column
of ones and the weight matrix in the bias, so the GEMM adds the bias, and
the ReLU runs on each output block right after it (a 1x1 kernel, which
copies no patches, adds its bias after the GEMM).  The backward builds one
patch matrix, of the zero-padded output gradient: times the flipped kernel
it is the input gradient (the transposed-kernel identity, no scatter-add),
and the input's rows times it give the weight gradient, block by block.
The bias gradient is one GEMV of ones with the gradient's rows.  Row
blocks change float32 rounding against a single whole-batch GEMM (BLAS
picks its kernel by matrix size), by about float32 epsilon; a fixed
thread count stays bit-reproducible.  Beside the GEMMs the backward makes
no whole-array pass it can avoid: the ReLU gate multiplies in place a
gradient the backward itself allocated (the caller's output gradient
reaches only un-gated layers), and a pool's gradient is written slot by
slot, never zero-filled first.  Training and evaluation pass
channel-last batches straight from the tile streams to ``_forward`` and
``loss_and_grads``.

The wiring is written once, in ``_forward``.  For backprop it records a
tape, one entry per ``conv``, ``upconv``, ``pool`` and ``cat`` layer, which
``_backward`` replays in reverse without knowing the network's shape and
``_margins`` reads to place the gradient checker's probe points.  Inference
records no tape and frees each activation once it is dead, so its memory is
a few layers' worth rather than the whole network's.

The forward mirrors the backward's liveness rule.  A loss evaluation runs a
head only when a channel of it has nonzero loss weight or a trainable
parameter feeds it (``_live_heads``): the frozen multi-task phase never
runs the first head's decoder, in training or in validation.  The tape
keeps only what the backward replays: a pool stores no argmax, and its
backward recomputes the routing from the taped input and output.  Both
leave every loss and gradient byte-for-byte as a full pass gives them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
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
from .files import read_container, write_container

CHECKPOINT_MAGIC = b"UNPK"
CHECKPOINT_VERSION = 2
_CHECKPOINT_SCHEMA = {"spec": {"input_channels": int, "base_features": int, "depth": int,
                               "kernel_size": int, "heads": [[str, int]]}}


# ---------------------------------------------------------------------------
# specification and parameters


@dataclass(frozen=True)
class UNetSpec:
    """Network shape: channel widths, depth, kernel, and named output heads."""

    input_channels: int
    base_features: int
    depth: int
    kernel_size: int = 3
    heads: tuple[tuple[str, int], ...] = (("urban", 1),)

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

    @property
    def out_channels(self) -> int:
        return sum(c for _, c in self.heads)


def validate_spec(spec: UNetSpec) -> None:
    # sizes and counts are bounded to 1..65535, far beyond any trainable network
    for field in ("input_channels", "base_features", "depth", "kernel_size"):
        if not 1 <= getattr(spec, field) <= 0xFFFF:
            raise SpecError(f"{field} must be in 1..65535, got {getattr(spec, field)}")
    if spec.kernel_size % 2 == 0:
        raise SpecError(f"kernel_size must be odd, got {spec.kernel_size}")
    if not 1 <= len(spec.heads) <= 0xFFFF:
        raise SpecError(f"a spec needs 1..65535 heads, got {len(spec.heads)}")
    names = [h for h, _ in spec.heads]
    if len(set(names)) != len(names):
        raise SpecError(f"duplicate head names in {names}")
    for name, out_ch in spec.heads:
        if not name or not name.isascii():
            raise SpecError(f"head name {name!r} must be non-empty ASCII")
        if not 1 <= out_ch <= 0xFFFF:
            raise SpecError(f"head {name!r} must emit 1..65535 channels, got {out_ch}")


def expected_shapes(spec: UNetSpec) -> dict[str, tuple[int, ...]]:
    """Canonical parameter map: name -> shape, in deterministic order.

    Conv weights are (out_features, in_channels, k, k); biases (out_features,).
    The order here fixes both initialization draws and checkpoint layout.
    """
    validate_spec(spec)
    shapes: dict[str, tuple[int, ...]] = {}
    k = spec.kernel_size

    def conv(name: str, cin: int, cout: int, kk: int = k) -> None:
        shapes[f"{name}.w"] = (cout, cin, kk, kk)
        shapes[f"{name}.b"] = (cout,)

    cin = spec.input_channels
    for lvl in range(spec.depth + 1):
        width = spec.base_features << lvl
        conv(f"enc{lvl}.conv1", cin, width)
        conv(f"enc{lvl}.conv2", width, width)
        cin = width
    for head, out_ch in spec.heads:
        upper = spec.base_features << spec.depth
        for lvl in range(spec.depth - 1, -1, -1):
            width = spec.base_features << lvl
            conv(f"dec.{head}.{lvl}.up", upper, width)
            conv(f"dec.{head}.{lvl}.conv1", 2 * width, width)
            conv(f"dec.{head}.{lvl}.conv2", width, width)
            upper = width
        conv(f"head.{head}", spec.base_features, out_ch, 1)
    for name in shapes:  # names are bounded like grid channel names
        if len(name) > 255:
            raise SpecError(f"parameter name {name!r} is longer than 255 bytes")
    return shapes


def head_names(spec: UNetSpec, head: str) -> tuple[str, ...]:
    """Parameters owned by one task: its decoder path plus its 1x1 head."""
    if head not in {h for h, _ in spec.heads}:
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


def _parts(x) -> tuple:
    """A convolution input as a tuple of parts (one part for a plain array)."""
    return x if isinstance(x, tuple) else (x,)


def _im2col_blocks(x, k: int, pad: int, ones: bool = False):
    """Yield (row slice, patch rows) of the (N*Ho*Wo, k*k*C) patch matrix of
    (N,H,W,C) ``x`` zero-padded by ``pad`` on every side, a few whole images
    per block; Ho = H + 2 * pad - k + 1 (likewise Wo), rows in (du, dv, c)
    layout.  A same-padded conv has ``pad = k // 2`` and Ho = H.

    ``x`` may also be a tuple of (N,H,W,C_i) parts: they are written side by
    side, in order, into the padded input, so the patch matrix is that of
    their channel concatenation without the concatenation being built.
    The input is padded once (with no padding and one part, only made
    contiguous).  Each block is copied into one reused buffer of about
    ``_BLOCK_BYTES`` (at least one image), so a consumer must finish with
    a block before asking for the next.  Channel-last, the
    patch row du of pixel (i, j) is the k*C contiguous values
    xp[i + du, j : j + k], so the copy moves runs of k*C values rather than
    C.  A 1x1 kernel needs no copy: its padded input is yielded as one block.

    With ``ones`` and k > 1 the buffer has one more column, of ones, written
    when it is allocated and never touched by the copies: each block is then
    (rows, k*k*C + 1), and a weight matrix whose last row is the bias adds
    the bias inside the GEMM.  A 1x1 kernel never gets the column.
    """
    parts = _parts(x)
    n, h, w, _ = parts[0].shape
    c = sum(part.shape[-1] for part in parts)
    if pad == 0 and len(parts) == 1:
        xp = np.ascontiguousarray(parts[0])
    else:
        xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), parts[0].dtype)
        c0 = 0
        for part in parts:
            xp[:, pad : pad + h, pad : pad + w, c0 : c0 + part.shape[-1]] = part
            c0 += part.shape[-1]
    ho, wo = xp.shape[1] - k + 1, xp.shape[2] - k + 1
    if k == 1:
        yield slice(0, n * ho * wo), xp.reshape(-1, c)
        return
    sn, sh, sw, sc = xp.strides
    win = as_strided(xp, (n, ho, wo, k, k * c), (sn, sh, sw, sh, sc), writeable=False)
    step = max(1, min(n, _BLOCK_BYTES // (ho * wo * k * k * c * xp.itemsize)))
    buf = np.empty((step * ho * wo, k * k * c + ones), xp.dtype)
    if ones:
        buf[:, -1] = 1.0
    patches = buf[:, : k * k * c].reshape(step, ho, wo, k, k * c)  # a view
    for i in range(0, n, step):
        m = min(step, n - i)
        np.copyto(patches[:m], win[i : i + m])
        yield slice(i * ho * wo, (i + m) * ho * wo), buf[: m * ho * wo]


def _conv_forward(x, w: np.ndarray, b: np.ndarray, pad: int, relu: bool = False) -> np.ndarray:
    """Convolution of (N,H,W,C) ``x`` zero-padded by ``pad``, one GEMM block
    at a time: (N, H + 2 * pad - k + 1, W + 2 * pad - k + 1, F).

    ``x`` may be a tuple of parts, convolved as their channel concatenation
    (``_im2col_blocks``).  For k > 1 the bias is the last row of the weight
    matrix, which meets the patch rows' column of ones, so each block is one
    GEMM and, with ``relu``, one ReLU while it is still in cache.  A 1x1
    kernel, which makes no patch copy, adds its bias after the GEMM.
    """
    f, c, k, _ = w.shape
    x0 = _parts(x)[0]
    n, h, wd, _ = x0.shape
    wm = w.transpose(2, 3, 1, 0).reshape(k * k * c, f)
    if k > 1:
        wm = np.concatenate([wm, b.reshape(1, f)], dtype=wm.dtype)
    y = np.empty((n, h + 2 * pad - k + 1, wd + 2 * pad - k + 1, f), np.result_type(x0, w))
    y2 = y.reshape(-1, f)
    for rows, cols in _im2col_blocks(x, k, pad, ones=True):
        yb = np.matmul(cols, wm, out=y2[rows])
        if k == 1:
            yb += b
        if relu:
            np.maximum(yb, 0.0, out=yb)
    return y


def _conv_backward(x, w: np.ndarray, g: np.ndarray, pad: int, need_dx: bool = True):
    """Gradients of ``_conv_forward(x, w, b, pad)``: (d_input, d_weight, d_bias).

    Only the output gradient is lowered to patches (with no column of
    ones).  Zero-padded by k - 1 - pad, its patch row at input pixel (i, j)
    and tap (k-1-du, k-1-dv) is the output gradient that input pixel meets
    through weight tap (du, dv).  So d_input is that patch matrix times the
    spatially flipped, in/out-swapped kernel (a convolution, not a
    scatter-add), and d_weight, with its taps flipped back, sums
    x_rows.T @ cols over the same blocks.
    For a tuple of parts, d_weight takes one such product per part, and
    d_input is a tuple of one gradient per part, channel views of one array.
    Without ``need_dx`` d_input is skipped (None).  d_bias is one GEMV, a
    vector of ones times the gradient's (N*H*W, F) rows, which BLAS sums
    faster and closer to the exact sum than a reduction over the rows.
    """
    f, c, k, _ = w.shape
    parts = _parts(x)
    n, h, wd, _ = parts[0].shape
    x_rows = [part.reshape(-1, part.shape[-1]) for part in parts]
    bounds = np.cumsum([0] + [part.shape[-1] for part in parts])
    dt = np.result_type(g, w)
    if need_dx:
        wflip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * f, c)
        dx = np.empty((n, h, wd, c), dt)
        dx2 = dx.reshape(-1, c)
    dwt = np.zeros((c, k * k * f), dt)  # rows c, columns (flipped du, dv, f)
    for rows, cols in _im2col_blocks(g, k, k - 1 - pad):
        if need_dx:
            np.matmul(cols, wflip, out=dx2[rows])
        for xr, c0, c1 in zip(x_rows, bounds[:-1], bounds[1:]):
            dwt[c0:c1] += xr[rows].T @ cols
    dw = dwt.reshape(c, k, k, f)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
    g2 = g.reshape(-1, f)
    db = np.ones(len(g2), g2.dtype) @ g2  # one GEMV, not a strided reduction
    if not need_dx:
        return None, dw, db
    if isinstance(x, tuple):
        dx = tuple(np.split(dx, bounds[1:-1], axis=-1))
    return dx, dw, db


@functools.cache
def _tap_sum_map(k: int) -> np.ndarray:
    """The 0/1 map from a k x k kernel run after nearest-neighbor 2x
    upsampling to the four (p+1) x (p+1) kernels, p = k // 2, one per output
    phase, that give the same output from the low-resolution input.  Every
    phase tap sums at least one stored tap.  Computed once per k; read-only.

    Shape (2, 2, p+1, p+1, k, k).  Output row 2i + a reads upsampled row
    2i + a + du - p, which is low-resolution row i + (a + du - p) // 2.  The
    phase kernel runs on the input padded by q = ceil(p / 2), and phase a
    reads it at row i + a * s, s = p % 2, whose tap t is low-resolution row
    i + a * s + t - q.  Columns likewise.
    """
    p = k // 2
    q, s = (p + 1) // 2, p % 2
    du = np.arange(k)
    taps = np.zeros((2, p + 1, k))
    for a in (0, 1):
        taps[a, (a + du - p) // 2 + q - a * s, du] = 1.0
    m = np.einsum("aud,bve->abuvde", taps, taps)
    m.setflags(write=False)
    return m


def _phase_weight(w: np.ndarray) -> np.ndarray:
    """The (4F, C, p+1, p+1) sub-pixel kernel of stored (F, C, k, k) up-conv
    weights: its output channel (2a + b) * F + f is feature f at the output
    pixels (2i + a, 2j + b)."""
    f, c, k, _ = w.shape
    m = _tap_sum_map(k)
    kl = m.shape[2]
    wp = w.reshape(f * c, k * k) @ m.reshape(-1, k * k).T.astype(w.dtype)
    return wp.reshape(f, c, 2, 2, kl, kl).transpose(2, 3, 0, 1, 4, 5).reshape(4 * f, c, kl, kl)


def _phase_weight_grad(dwp: np.ndarray, k: int) -> np.ndarray:
    """The adjoint of ``_phase_weight``: d_weight (F, C, k, k) from the
    sub-pixel kernel's gradient."""
    f4, c, kl, _ = dwp.shape
    f = f4 // 4
    d = dwp.reshape(2, 2, f, c, kl, kl).transpose(2, 3, 0, 1, 4, 5).reshape(f * c, -1)
    return (d @ _tap_sum_map(k).reshape(-1, k * k).astype(dwp.dtype)).reshape(f, c, k, k)


def _phase_view(y4: np.ndarray, s: int) -> np.ndarray:
    """The (N, H, 2, W, 2, F) view of a (N, H+s, W+s, 4F) phase array whose
    element (n, i, a, j, b, f) is phase (a, b)'s feature f at output pixel
    (2i + a, 2j + b): channel (2a + b) * F + f at position (i + a*s, j + b*s).
    Reshaped, it is the (N, 2H, 2W, F) output.  The phases' elements are
    disjoint, so the view can be written through."""
    n, hs, ws, f4 = y4.shape
    f = f4 // 4
    sn, sh, sw, sc = y4.strides
    return as_strided(y4, (n, hs - s, 2, ws - s, 2, f),
                      (sn, sh, s * sh + 2 * f * sc, sw, s * sw + f * sc, sc))


def _upconv_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool = False
) -> np.ndarray:
    """Nearest-neighbor 2x upsampling of (N,H,W,C) ``x``, then a same-padded
    convolution, computed at low resolution (sub-pixel layout).

    One valid convolution of ``x`` padded by ceil(p / 2) with the phase
    kernel yields the four output phases as 4F channels at (H+s) x (W+s)
    positions (``_tap_sum_map``); a depth-to-space copy interleaves them.
    """
    n, h, wd, _ = x.shape
    f, _, k, _ = w.shape
    p = k // 2
    y4 = _conv_forward(x, _phase_weight(w), np.tile(b, 4), (p + 1) // 2, relu)
    return _phase_view(y4, p % 2).reshape(n, 2 * h, 2 * wd, f)


def _upconv_backward(x: np.ndarray, w: np.ndarray, g: np.ndarray, need_dx: bool = True):
    """Gradients of ``_upconv_forward`` before its ReLU: (d_input, d_weight,
    d_bias), with d_input at the low resolution of ``x``.

    The output gradient goes space-to-depth into the phase layout, zero at
    the positions no phase reads, and through the convolution backward with
    the phase kernel.
    """
    n, h, wd, _ = x.shape
    f, _, k, _ = w.shape
    p = k // 2
    g4 = np.zeros((n, h + p % 2, wd + p % 2, 4 * f), g.dtype)
    np.copyto(_phase_view(g4, p % 2), g.reshape(n, h, 2, wd, 2, f))
    dx, dwp, dbp = _conv_backward(x, _phase_weight(w), g4, (p + 1) // 2, need_dx)
    return dx, _phase_weight_grad(dwp, k), dbp.reshape(4, f).sum(axis=0)


def _pool_views(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The four strided views of (N,H,W,C) ``x`` that each hold one pixel of
    every 2x2 window, in row-major window order."""
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


def _pool_windows(x: np.ndarray) -> np.ndarray:
    """The 2x2 pooling windows of (N,H,W,C) ``x`` as (N, H/2, W/2, C, 4)."""
    return np.stack(_pool_views(x), axis=-1)


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

    Each of the four window slots is written once, by a select of the
    gradient or +0.0, so ``dx`` is never zero-filled first.  It is a new
    array, which the ReLU gate of the layer below may write in place."""
    dx = np.empty(x.shape, g.dtype)
    dst = _pool_views(dx)
    taken = np.zeros(y.shape, bool)  # windows already routed
    for pos, src in enumerate(_pool_views(x)[:3]):
        hit = src == y
        np.greater(hit, taken, out=hit)  # hit and not taken
        np.copyto(dst[pos], np.where(hit, g, 0.0))
        taken |= hit
    np.copyto(dst[3], np.where(taken, 0.0, g))
    return dx


# ---------------------------------------------------------------------------
# forward / backward


def _pad_amounts(size: int, multiple: int) -> tuple[int, int]:
    total = (-size) % multiple
    return total // 2, total - total // 2


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
    and output.  A decoder ``conv1`` has two inputs, the up path and the
    skip, read side by side rather than concatenated.  The entries hold
    references, not copies.  Either way the outputs are the same bytes.

    ``heads`` names the heads to run (all when None, see ``_live_heads``);
    a head left out runs no layer, is not taped, and reads as zeros in its
    output channels.  The other channels are the bytes of a full pass.
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

    def conv(name: str, *parts: np.ndarray, relu: bool = True) -> np.ndarray:
        w = arrays[f"{name}.w"]  # same-padded
        y = _conv_forward(parts, w, arrays[f"{name}.b"], w.shape[-1] // 2, relu)
        return layer("conv", name, parts, y, relu)

    def upconv(name: str, a: np.ndarray) -> np.ndarray:
        y = _upconv_forward(a, arrays[f"{name}.w"], arrays[f"{name}.b"], relu=True)
        return layer("upconv", name, (a,), y, True)

    skips: list[np.ndarray] = []  # every level's output; the last is the bottleneck
    for lvl in range(spec.depth + 1):
        y1 = conv(f"enc{lvl}.conv1", x)
        del x
        skips.append(conv(f"enc{lvl}.conv2", y1))
        del y1
        if lvl < spec.depth:
            x = layer("pool", None, (skips[-1],), _pool_forward(skips[-1]))

    head_outs: list[np.ndarray] = []
    for head, out_ch in spec.heads:
        if heads is not None and head not in heads:
            head_outs.append(np.zeros(skips[0].shape[:3] + (out_ch,), skips[0].dtype))
            continue
        d = skips[-1]  # the bottleneck feeds every decoder
        for lvl in range(spec.depth - 1, -1, -1):
            yu = upconv(f"dec.{head}.{lvl}.up", d)
            del d
            y1 = conv(f"dec.{head}.{lvl}.conv1", yu, skips[lvl])
            del yu
            d = conv(f"dec.{head}.{lvl}.conv2", y1)
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
    params: UNetParams,
    cache: dict,
    g_out: np.ndarray,
    trainable: set[str] | None = None,
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
        elif kind == "cat":  # each input takes back its own channels
            g_in = np.split(g, np.cumsum([a.shape[-1] for a in inputs[:-1]]), axis=-1)
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

    A head is dead when every one of its channels has weight 0, unless a
    trainable parameter feeds it (an encoder one or its own; None: every
    parameter is trainable): then its backward runs and it stays live, so
    the gradients keep their bytes.  A dead head changes neither the loss
    nor any returned gradient.  Returns None when every head is live, and
    also when none is: the weights are then invalid and the loss refuses
    them.
    """
    if channel_weights is None or trainable is None:
        return None
    wts = _weight_vector(channel_weights, spec.out_channels)
    shared = any(n.startswith("enc") for n in trainable)
    live, c0 = [], 0
    for head, out_ch in spec.heads:
        own = (f"dec.{head}.", f"head.{head}.")
        if (shared or (wts[c0 : c0 + out_ch] != 0).any()
                or any(n.startswith(own) for n in trainable)):
            live.append(head)
        c0 += out_ch
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

    A head whose loss weights are all zero and that no trainable parameter
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
    number of coordinates checked.  The caller judges it against its own
    tolerance."""

    max_rel_err: float
    worst_param: str
    n_checked: int

# A probe batch is accepted only when every pre-activation and every
# contested pooling gap clears this margin, so no epsilon-perturbation can
# cross a ReLU kink or flip an argmax during finite differencing.
_KINK_MARGIN = 5e-4
_PROBE_ATTEMPTS = 500
_PROBE_BATCH = 2
_EPSILON = 1e-5
# Models up to this many parameters are checked at every coordinate; larger
# ones at a stratified sample of _SAMPLED_COORDS (at least one per array).
_FULL_CHECK_COORDS = 4000
_SAMPLED_COORDS = 500


def _margins(params: UNetParams, cache: dict) -> list[float]:
    """How far a taped batch sits from every ReLU kink and pooling tie.

    In tape order: for each ReLU convolution or up-convolution the smallest
    |pre-activation|, recomputed from its taped inputs by the same blocked
    forward without the ReLU; for each pooling the smallest gap between a
    window's top two values.
    """
    arrays = params.arrays
    margins: list[float] = []
    for kind, name, inputs, _, extra in cache["tape"]:
        if kind in ("conv", "upconv") and extra:
            w, b = arrays[f"{name}.w"], arrays[f"{name}.b"]
            if kind == "conv":
                pre = _conv_forward(inputs, w, b, w.shape[-1] // 2)
            else:
                pre = _upconv_forward(inputs[0], w, b)
            margins.append(float(np.abs(pre).min()))
        elif kind == "pool":
            top2 = np.sort(_pool_windows(inputs[0]), axis=-1)[..., -2:]
            gap = top2[..., 1] - top2[..., 0]
            # Ties among dead units (runner-up exactly 0) cannot flip
            # under a small perturbation; only contested windows matter.
            risky = top2[..., 0] > 0
            margins.append(float(gap[risky].min()) if risky.any() else np.inf)
    return margins


def _well_conditioned_batch(
    params: UNetParams, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    spec, n = params.spec, _PROBE_BATCH
    for _ in range(_PROBE_ATTEMPTS):
        m = (rng.random((n, size, size)) < 0.8).astype(np.float64)
        for k in range(n):  # the loss needs at least one land pixel per sample
            if not m[k].any():
                m[k, size // 2, size // 2] = 1.0
        x = rng.normal(size=(n, size, size, spec.input_channels))
        y = rng.normal(size=(n, size, size, spec.out_channels))
        _, cache = _forward(params, x, keep_cache=True)
        if min(_margins(params, cache)) > _KINK_MARGIN:
            return x, y, m
    raise NumericError(
        f"could not find a finite-difference probe batch clear of ReLU kinks "
        f"in {_PROBE_ATTEMPTS} attempts"
    )


def grad_check(spec: UNetSpec, seed: int = 0, *, tile_size: int = 8) -> GradCheckReport:
    """Compare analytic gradients of ``spec`` against central finite
    differences, and report the largest relative error; it sets no pass
    mark.

    Runs entirely in float64 on a batch of two ``tile_size`` tiles.  Every
    coordinate is checked when the model has at most 4000 parameters;
    otherwise a stratified sample of 500 coordinates (at least one per
    parameter array) is drawn.  The probe batch is re-sampled until it sits
    away from every ReLU kink and pooling tie, which keeps the quadratic
    finite-difference error model valid at a step of 1e-5.
    """
    params = init_params(spec, seed, dtype=np.float64)
    rng = np.random.default_rng([seed, 0x5EED])
    for name, arr in params.arrays.items():
        # Zero biases would leave structurally-zero pre-activations sitting
        # exactly on the ReLU kink; probe at a generic point instead.
        if name.endswith(".b"):
            params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape)
    x, y, m = _well_conditioned_batch(params, rng, tile_size)

    _, analytic = loss_and_grads(params, x, y, m)

    def loss_only() -> float:
        pred, _ = _forward(params, x)
        loss, _ = _masked_loss_grad(pred, y, m, None)
        return loss

    names = list(expected_shapes(spec))
    sizes = {n: params.arrays[n].size for n in names}
    total = sum(sizes.values())
    if total <= _FULL_CHECK_COORDS:
        coords = [(name, i) for name in names for i in range(sizes[name])]
    else:  # at least one coordinate from every array
        coords = [(name, int(rng.integers(sizes[name]))) for name in names]
        while len(coords) < _SAMPLED_COORDS:
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(sizes[name]))))

    max_rel, worst = 0.0, names[0]
    for name, flat in coords:
        arr = params.arrays[name]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + _EPSILON
        lp = loss_only()
        arr.flat[flat] = orig - _EPSILON
        lm = loss_only()
        arr.flat[flat] = orig
        fd = (lp - lm) / (2.0 * _EPSILON)
        an = float(analytic[name].flat[flat])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        if rel > max_rel:
            max_rel, worst = rel, name
    return GradCheckReport(max_rel_err=max_rel, worst_param=worst, n_checked=len(coords))


# ---------------------------------------------------------------------------
# checkpoints


def save_params(params: UNetParams, path: str | Path) -> None:
    """Write a UNPK checkpoint: a :mod:`urbanet.files` container, magic
    ``UNPK``, version 2, whose meta is ``{"spec": {...}}`` (the spec's
    fields, heads as [name, channels] pairs) and whose arrays are the
    parameters as ``<f4`` in ``expected_shapes`` order."""
    validate_params(params)
    arrays = {name: np.asarray(params.arrays[name], np.float32)
              for name in expected_shapes(params.spec)}
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                    {"spec": asdict(params.spec)}, arrays)


def load_params(path: str | Path) -> UNetParams:
    """Read a UNPK checkpoint, validating its arrays against its spec and
    refusing non-finite values.  Returns writable float32 copies."""
    meta, arrays = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                  _CHECKPOINT_SCHEMA)
    spec = UNetSpec(**{**meta["spec"], "heads": tuple(map(tuple, meta["spec"]["heads"]))})
    # the array count is checked before any name is built, so a header that
    # asks for a huge depth costs no more work than the file's size: each
    # encoder level has 2 convs, each decoder level 3, each head one more,
    # and every conv is a weight and a bias
    try:
        validate_spec(spec)
        need = 4 * (spec.depth + 1) + len(spec.heads) * (6 * spec.depth + 2)
        if len(arrays) != need:
            kind = "missing" if len(arrays) < need else "extra"
            raise IntegrityError(f"{path}: {kind} arrays: the spec needs {need}, "
                                 f"the file holds {len(arrays)}")
        shapes = expected_shapes(spec)
    except SpecError as err:  # a corrupt file, not a bad request
        raise IntegrityError(f"{path}: invalid spec block: {err}") from None
    params = UNetParams(spec, {name: arr.astype(np.float32) for name, arr in arrays.items()})
    try:
        validate_params(params)
    except IntegrityError as err:
        raise IntegrityError(f"{path}: {err}") from None
    return UNetParams(spec, {name: params.arrays[name] for name in shapes})
