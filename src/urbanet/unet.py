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
is still in cache when its GEMM reads it; the bias and the ReLU are applied
to each output block right after its GEMM.  The transposed-kernel identity
gives the input gradient as another blocked im2col GEMM, avoiding
scatter-adds.  Row blocks change float32 rounding against a single
whole-batch GEMM (BLAS picks its kernel by matrix size), by about float32
epsilon; a fixed thread count stays bit-reproducible.  Training and
evaluation pass channel-last batches straight from the tile streams to
``_forward`` and ``loss_and_grads``.  Only backprop asks ``_forward`` to
keep its activation cache; inference frees each activation once it is
dead, so its memory is a few layers' worth rather than the whole network's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DataError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    SpecError,
)

CHECKPOINT_MAGIC = b"UNPK"
CHECKPOINT_VERSION = 1


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
    def desk(cls, input_channels: int = 9, heads=(("urban", 1),)) -> "UNetSpec":
        """Small network that trains in minutes on one CPU core."""
        return cls(input_channels=input_channels, base_features=8, depth=2,
                   heads=tuple(heads))

    @classmethod
    def full_scale(cls, input_channels: int = 9, heads=(("urban", 1),)) -> "UNetSpec":
        """Production-size network for real multi-decade grid stacks."""
        return cls(input_channels=input_channels, base_features=32, depth=3,
                   heads=tuple(heads))

    @property
    def out_channels(self) -> int:
        return sum(c for _, c in self.heads)


def validate_spec(spec: UNetSpec) -> None:
    if spec.input_channels < 1:
        raise SpecError(f"input_channels must be >= 1, got {spec.input_channels}")
    if spec.base_features < 1:
        raise SpecError(f"base_features must be >= 1, got {spec.base_features}")
    if spec.depth < 1:
        raise SpecError(f"depth must be >= 1, got {spec.depth}")
    if spec.kernel_size < 1 or spec.kernel_size % 2 == 0:
        raise SpecError(f"kernel_size must be odd, got {spec.kernel_size}")
    if not spec.heads:
        raise SpecError("at least one head is required")
    names = [h for h, _ in spec.heads]
    if len(set(names)) != len(names):
        raise SpecError(f"duplicate head names in {names}")
    for name, out_ch in spec.heads:
        if not name or not name.isascii():
            raise SpecError(f"head name {name!r} must be non-empty ASCII")
        if out_ch < 1:
            raise SpecError(f"head {name!r} must emit >= 1 channel, got {out_ch}")


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
    return shapes


def encoder_names(spec: UNetSpec) -> tuple[str, ...]:
    """Shared-path parameters: every encoder level including the bottleneck."""
    return tuple(n for n in expected_shapes(spec) if n.startswith("enc"))


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

    @property
    def n_parameters(self) -> int:
        return sum(a.size for a in self.arrays.values())

    def copy(self) -> "UNetParams":
        return UNetParams(self.spec, {k: v.copy() for k, v in self.arrays.items()})

    def astype(self, dtype) -> "UNetParams":
        return UNetParams(self.spec, {k: v.astype(dtype) for k, v in self.arrays.items()})


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


def _im2col_blocks(x: np.ndarray, k: int):
    """Yield (row slice, patch rows) of the (N*H*W, k*k*C) patch matrix of
    (N,H,W,C) ``x``, a few whole images per block; rows in (du, dv, c) layout.

    The input is zero-padded once.  Each block is copied into one reused
    buffer of about ``_BLOCK_BYTES`` (at least one image), so a consumer
    must finish with a block before asking for the next.  Channel-last, the
    patch row du of pixel (i, j) is the k*C contiguous values
    xp[i + du, j : j + k], so the copy moves runs of k*C values rather than
    C.  A 1x1 kernel needs no copy: ``x`` itself is yielded as one block.
    Needs an odd k (validate_spec); the padding is k // 2.
    """
    n, h, w, c = x.shape
    if k == 1:
        yield slice(0, n * h * w), x.reshape(-1, c)
        return
    pad = k // 2
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    sn, sh, sw, sc = xp.strides
    win = as_strided(xp, (n, h, w, k, k * c), (sn, sh, sw, sh, sc), writeable=False)
    step = max(1, min(n, _BLOCK_BYTES // (h * w * k * k * c * x.itemsize)))
    buf = np.empty((step, h, w, k, k * c), x.dtype)
    for i in range(0, n, step):
        m = min(step, n - i)
        np.copyto(buf[:m], win[i : i + m])
        yield slice(i * h * w, (i + m) * h * w), buf[:m].reshape(m * h * w, k * k * c)


def _conv_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    relu: bool = False,
    margins: list[float] | None = None,
) -> np.ndarray:
    """Same-padded convolution of (N,H,W,C) ``x``, one GEMM block at a time.

    Each block gets its bias, and with ``relu`` its ReLU, while it is still
    in cache.  Given a ``margins`` list, appends the smallest |value| before
    the ReLU (how far the batch sits from the kink).
    """
    f, c, k, _ = w.shape
    n, h, wd, _ = x.shape
    wm = w.transpose(2, 3, 1, 0).reshape(k * k * c, f)
    y = np.empty((n, h, wd, f), np.result_type(x, w))
    y2 = y.reshape(-1, f)
    lows = []
    for rows, cols in _im2col_blocks(x, k):
        yb = np.matmul(cols, wm, out=y2[rows])
        yb += b
        if margins is not None:
            lows.append(np.abs(yb).min())
        if relu:
            np.maximum(yb, 0.0, out=yb)
    if margins is not None:
        margins.append(float(np.min(lows)))
    return y


def _conv_backward(
    x: np.ndarray, w: np.ndarray, g: np.ndarray, need_dx: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of a same-padded convolution: (d_input, d_weight, d_bias).

    d_weight sums the blocks' cols.T @ g.  d_input is itself a same-padded
    convolution of the output gradient with the spatially flipped,
    in/out-swapped kernel — one more blocked im2col GEMM instead of a
    scatter-add.  Without ``need_dx`` it is skipped (None).
    """
    f, c, k, _ = w.shape
    n, h, wd, _ = x.shape
    g2 = g.reshape(-1, f)
    blocks = _im2col_blocks(x, k)
    rows, cols = next(blocks)
    dw = cols.T @ g2[rows]
    for rows, cols in blocks:
        dw += cols.T @ g2[rows]
    dw = dw.reshape(k, k, c, f).transpose(3, 2, 0, 1)
    db = g2.sum(axis=0)
    if not need_dx:
        return None, dw, db
    wflip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * f, c)
    dx = np.empty((n, h, wd, c), np.result_type(g, w))
    dx2 = dx.reshape(-1, c)
    for rows, cols in _im2col_blocks(g, k):
        np.matmul(cols, wflip, out=dx2[rows])
    return dx, dw, db


def _pool_windows(x: np.ndarray) -> np.ndarray:
    """The 2x2 pooling windows of (N,H,W,C) ``x`` as (N, H/2, W/2, C, 4)."""
    n, h, w, c = x.shape
    return (
        x.reshape(n, h // 2, 2, w // 2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(n, h // 2, w // 2, c, 4)
    )


def _pool_forward(
    x: np.ndarray, want_index: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """2x2 max pooling as the max of the four strided views of each window.

    With ``want_index`` also returns, for backprop, each window's argmax in
    row-major window order, ties going to the first maximum; else None.
    """
    views = (x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2])
    y = np.maximum(views[0], views[1])
    np.maximum(y, views[2], out=y)
    np.maximum(y, views[3], out=y)
    if not want_index:
        return y, None
    idx = np.full(y.shape, 3, np.intp)
    for pos in (2, 1, 0):  # the first maximum overwrites later ones
        idx[views[pos] == y] = pos
    return y, idx


def _pool_backward(g: np.ndarray, idx: np.ndarray, in_shape: tuple) -> np.ndarray:
    n, h, w, c = in_shape
    z = np.zeros((n, h // 2, w // 2, c, 4), g.dtype)
    np.put_along_axis(z, idx[..., None], g[..., None], axis=-1)
    return (
        z.reshape(n, h // 2, w // 2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(n, h, w, c)
    )


def _up_forward(x: np.ndarray) -> np.ndarray:
    """Nearest-neighbor 2x upsampling."""
    n, h, w, c = x.shape
    return (
        np.broadcast_to(x[:, :, None, :, None, :], (n, h, 2, w, 2, c))
        .reshape(n, 2 * h, 2 * w, c)
    )


def _up_backward(g: np.ndarray) -> np.ndarray:
    n, h2, w2, c = g.shape
    return g.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


# ---------------------------------------------------------------------------
# forward / backward


def _pad_amounts(size: int, multiple: int) -> tuple[int, int]:
    total = (-size) % multiple
    return total // 2, total - total // 2


def _forward(
    params: UNetParams,
    x: np.ndarray,
    want_margins: bool = False,
    keep_cache: bool = False,
):
    """Channel-last forward pass; returns (output, cache).

    The cache is None unless ``keep_cache`` asks for it, as backprop does.
    Without it every activation is released once it is dead, and only the
    skip outputs and the bottleneck live until the last head has used them.
    The kept cache holds references to every layer input and post-ReLU
    output and the pooling argmax, so the backward pass can gate ReLUs and
    rebuild im2col blocks without storing them.  With ``want_margins`` the
    kept cache also records how far the batch sits from every ReLU kink and
    pooling tie — used to pick well-conditioned probe points for finite
    differencing.  Either way each convolution adds its bias and applies its
    ReLU block by block, and the outputs are the same bytes.  ``x`` is cast
    to the parameters' dtype, so callers pass their tiles as gathered.
    """
    spec = params.spec
    arrays = params.arrays
    if x.ndim != 4 or x.shape[-1] != spec.input_channels:
        raise ShapeError(
            f"expected inputs (N, H, W, {spec.input_channels}), got {x.shape}"
        )
    x = np.ascontiguousarray(x, dtype=params.dtype)
    n, h, w, _ = x.shape
    mult = 1 << spec.depth
    pt, pb = _pad_amounts(h, mult)
    pl, pr = _pad_amounts(w, mult)
    if pt or pb or pl or pr:
        x = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))

    margins: list[float] = []

    def conv_relu(name: str, a: np.ndarray) -> np.ndarray:
        return _conv_forward(a, arrays[f"{name}.w"], arrays[f"{name}.b"], relu=True,
                             margins=margins if want_margins else None)

    enc: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pools: list[tuple[np.ndarray, tuple]] = []
    skips: list[np.ndarray] = []  # every level's output; the last is the bottleneck
    for lvl in range(spec.depth + 1):
        y1 = conv_relu(f"enc{lvl}.conv1", x)
        y2 = conv_relu(f"enc{lvl}.conv2", y1)
        if keep_cache:
            enc.append((x, y1, y2))
        del x, y1
        skips.append(y2)
        if lvl < spec.depth:
            if want_margins:
                top2 = np.sort(_pool_windows(y2), axis=-1)[..., -2:]
                gap = top2[..., 1] - top2[..., 0]
                # Ties among dead units (runner-up exactly 0) cannot flip
                # under a small perturbation; only contested windows matter.
                risky = top2[..., 0] > 0
                margins.append(float(gap[risky].min()) if risky.any() else np.inf)
            x, idx = _pool_forward(y2, want_index=keep_cache)
            if keep_cache:
                pools.append((idx, y2.shape))

    head_outs: list[np.ndarray] = []
    heads_cache: dict[str, tuple[list[dict], np.ndarray]] = {}
    for head, _ in spec.heads:
        d = skips[-1]  # the bottleneck feeds every decoder
        stages: list[dict] = []
        for lvl in range(spec.depth - 1, -1, -1):
            xu = _up_forward(d)
            del d
            yu = conv_relu(f"dec.{head}.{lvl}.up", xu)
            xc = np.concatenate([yu, skips[lvl]], axis=-1)
            if keep_cache:
                stages.append({"lvl": lvl, "xu": xu, "yu": yu, "xc": xc})
            del xu, yu
            y1 = conv_relu(f"dec.{head}.{lvl}.conv1", xc)
            del xc
            d = conv_relu(f"dec.{head}.{lvl}.conv2", y1)
            if keep_cache:
                stages[-1].update(y1=y1, y2=d)
            del y1
        out = _conv_forward(d, arrays[f"head.{head}.w"], arrays[f"head.{head}.b"])
        head_outs.append(out)
        if keep_cache:
            heads_cache[head] = (stages, d)
        del d

    y = head_outs[0] if len(head_outs) == 1 else np.concatenate(head_outs, axis=-1)
    if pt or pb or pl or pr:
        y = y[:, pt : pt + h, pl : pl + w, :]
    if not keep_cache:
        return y, None
    return y, {
        "pads": (pt, pb, pl, pr),
        "in_shape": (n, h, w),
        "enc": enc,
        "pools": pools,
        "bottleneck": enc[-1][2],
        "heads": heads_cache,
        "margins": margins,
    }


def _backward(
    params: UNetParams,
    cache: dict,
    g_out: np.ndarray,
    trainable: set[str] | None = None,
) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(output) through the cached forward pass.

    Returns gradients for ``trainable`` names (all parameters when None).
    Heads whose output gradient is identically zero and whose parameters are
    all non-trainable are skipped outright; likewise the encoder sweep when
    nothing in it is trainable — the results for the remaining parameters
    are bitwise-identical either way.
    """
    spec = params.spec
    arrays = params.arrays
    wanted = set(expected_shapes(spec)) if trainable is None else set(trainable)
    grads: dict[str, np.ndarray] = {}

    def store(name: str, dw: np.ndarray, db: np.ndarray) -> None:
        if f"{name}.w" in wanted:
            if not (np.isfinite(dw).all() and np.isfinite(db).all()):
                raise NumericError(f"non-finite gradient in layer {name!r}")
            grads[f"{name}.w"] = dw
            grads[f"{name}.b"] = db

    pt, pb, pl, pr = cache["pads"]
    n, h, w = cache["in_shape"]
    if pt or pb or pl or pr:
        g = np.zeros((n, h + pt + pb, w + pl + pr, g_out.shape[-1]), g_out.dtype)
        g[:, pt : pt + h, pl : pl + w, :] = g_out
    else:
        g = g_out

    enc = cache["enc"]
    g_bott = np.zeros_like(cache["bottleneck"])
    g_skip = [np.zeros_like(enc[lvl][2]) for lvl in range(spec.depth)]

    encoder_wanted = any(name in wanted for name in encoder_names(spec))
    offset = 0
    for head, out_ch in spec.heads:
        gh = g[..., offset : offset + out_ch]
        offset += out_ch
        head_params = set(head_names(spec, head))
        # A head's branch can be skipped only when none of its own parameters
        # are trainable AND it cannot feed gradient anywhere trainable (the
        # encoder is frozen too, or this head's loss weight made gh zero).
        if not (head_params & wanted) and (not encoder_wanted or not gh.any()):
            continue
        stages, head_in = cache["heads"][head]
        gd, dw, db = _conv_backward(head_in, arrays[f"head.{head}.w"], gh)
        store(f"head.{head}", dw, db)
        for stage in reversed(stages):
            lvl = stage["lvl"]
            width = spec.base_features << lvl
            gp = gd * (stage["y2"] > 0)
            gd, dw, db = _conv_backward(stage["y1"], arrays[f"dec.{head}.{lvl}.conv2.w"], gp)
            store(f"dec.{head}.{lvl}.conv2", dw, db)
            gp = gd * (stage["y1"] > 0)
            gd, dw, db = _conv_backward(stage["xc"], arrays[f"dec.{head}.{lvl}.conv1.w"], gp)
            store(f"dec.{head}.{lvl}.conv1", dw, db)
            g_skip[lvl] += gd[..., width:]
            gp = gd[..., :width] * (stage["yu"] > 0)
            # the deepest up-conv's input gradient only feeds the encoder
            gd, dw, db = _conv_backward(stage["xu"], arrays[f"dec.{head}.{lvl}.up.w"], gp,
                                        need_dx=encoder_wanted or lvl < spec.depth - 1)
            store(f"dec.{head}.{lvl}.up", dw, db)
            if gd is not None:
                gd = _up_backward(gd)
        if encoder_wanted:
            g_bott += gd

    if not encoder_wanted:
        return grads

    gd = g_bott
    for lvl in range(spec.depth, -1, -1):
        x1, y1, y2 = enc[lvl]
        if lvl < spec.depth:
            idx, shape = cache["pools"][lvl]
            gd = _pool_backward(gd, idx, shape) + g_skip[lvl]
        gp = gd * (y2 > 0)
        gd, dw, db = _conv_backward(y1, arrays[f"enc{lvl}.conv2.w"], gp)
        store(f"enc{lvl}.conv2", dw, db)
        gp = gd * (y1 > 0)
        # the gradient with respect to the input data is never used
        gd, dw, db = _conv_backward(x1, arrays[f"enc{lvl}.conv1.w"], gp,
                                    need_dx=lvl > 0)
        store(f"enc{lvl}.conv1", dw, db)
    return grads


# ---------------------------------------------------------------------------
# masked loss


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
        wts = np.asarray(channel_weights, dtype=np.float64)
        if wts.shape != (c,):
            raise ShapeError(f"channel_weights must have shape ({c},), got {wts.shape}")
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
    """Fused forward + masked loss + backward on channel-last arrays."""
    pred, cache = _forward(params, x, keep_cache=True)
    loss, g = _masked_loss_grad(pred, y, m, channel_weights)
    if not math.isfinite(loss):
        raise NumericError(f"masked loss is non-finite ({loss})")
    grads = _backward(params, cache, g.astype(params.dtype, copy=False), trainable)
    return loss, grads


# ---------------------------------------------------------------------------
# gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    n_checked: int
    tolerance: float
    per_array: dict[str, float]
    attempts: int

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {verdict}: max rel err {self.max_rel_err:.3e} "
            f"(worst {self.worst_param}, {self.n_checked} coordinates, "
            f"tolerance {self.tolerance:.1e})"
        )


_CHECK_SPEC = UNetSpec(input_channels=9, base_features=4, depth=1)

# A probe batch is accepted only when every pre-activation and every
# contested pooling gap clears this margin, so no epsilon-perturbation can
# cross a ReLU kink or flip an argmax during finite differencing.
_KINK_MARGIN = 5e-4


def _well_conditioned_batch(
    params: UNetParams, rng: np.random.Generator, n: int, size: int, max_attempts: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    spec = params.spec
    for attempt in range(1, max_attempts + 1):
        m = (rng.random((n, size, size)) < 0.8).astype(np.float64)
        for k in range(n):  # the loss needs at least one land pixel per sample
            if not m[k].any():
                m[k, size // 2, size // 2] = 1.0
        x = rng.normal(size=(n, size, size, spec.input_channels))
        y = rng.normal(size=(n, size, size, spec.out_channels))
        _, cache = _forward(params, x, want_margins=True, keep_cache=True)
        if min(cache["margins"]) > _KINK_MARGIN:
            return x, y, m, attempt
    raise NumericError(
        f"could not find a finite-difference probe batch clear of ReLU kinks "
        f"in {max_attempts} attempts"
    )


def grad_check(
    spec: UNetSpec | None = None,
    seed: int = 0,
    tolerance: float = 1e-4,
    *,
    epsilon: float = 1e-5,
    batch_size: int = 2,
    tile_size: int = 8,
    max_coords: int | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Runs entirely in float64.  All coordinates are checked when the model is
    small; otherwise a stratified sample of at least 500 coordinates (and at
    least one per parameter array) is drawn.  The probe batch is re-sampled
    until it sits away from every ReLU kink and pooling tie, which keeps the
    quadratic finite-difference error model valid at ``epsilon`` = 1e-5.
    """
    spec = _CHECK_SPEC if spec is None else spec
    params = init_params(spec, seed, dtype=np.float64)
    rng = np.random.default_rng([seed, 0x5EED])
    for name, arr in params.arrays.items():
        # Zero biases would leave structurally-zero pre-activations sitting
        # exactly on the ReLU kink; probe at a generic point instead.
        if name.endswith(".b"):
            params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape)
    x, y, m, attempts = _well_conditioned_batch(
        params, rng, batch_size, tile_size, max_attempts=500
    )

    _, analytic = loss_and_grads(params, x, y, m)

    def loss_only() -> float:
        pred, _ = _forward(params, x)
        loss, _ = _masked_loss_grad(pred, y, m, None)
        return loss

    names = list(expected_shapes(spec))
    sizes = {n: params.arrays[n].size for n in names}
    total = sum(sizes.values())
    budget = total if max_coords is None and total <= 4000 else (max_coords or 500)
    coords: list[tuple[str, int]] = []
    if budget >= total:
        for name in names:
            coords += [(name, i) for i in range(sizes[name])]
    else:
        for name in names:  # at least one coordinate from every array
            coords.append((name, int(rng.integers(sizes[name]))))
        while len(coords) < max(budget, 500):
            name = names[int(rng.integers(len(names)))]
            coords.append((name, int(rng.integers(sizes[name]))))

    max_rel, worst = 0.0, names[0]
    per_array: dict[str, float] = {n: 0.0 for n in names}
    for name, flat in coords:
        arr = params.arrays[name]
        orig = arr.flat[flat]
        arr.flat[flat] = orig + epsilon
        lp = loss_only()
        arr.flat[flat] = orig - epsilon
        lm = loss_only()
        arr.flat[flat] = orig
        fd = (lp - lm) / (2.0 * epsilon)
        an = float(analytic[name].flat[flat])
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-6)
        per_array[name] = max(per_array[name], rel)
        if rel > max_rel:
            max_rel, worst = rel, name
    return GradCheckReport(
        max_rel_err=max_rel,
        worst_param=worst,
        n_checked=len(coords),
        tolerance=tolerance,
        per_array=per_array,
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_params(params: UNetParams, path: str | Path) -> None:
    """Write a UNPK checkpoint: spec block, then named float32 arrays."""
    validate_params(params)
    spec = params.spec
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<H", CHECKPOINT_VERSION)
    buf += struct.pack(
        "<HHHHH", spec.input_channels, spec.base_features, spec.depth,
        spec.kernel_size, len(spec.heads),
    )
    for name, out_ch in spec.heads:
        raw = name.encode("ascii")
        buf += struct.pack("<B", len(raw)) + raw + struct.pack("<H", out_ch)
    for name in expected_shapes(spec):  # canonical array order
        arr = params.arrays[name]
        raw = name.encode("ascii")
        buf += struct.pack("<B", len(raw))
        buf += raw
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    Path(path).write_bytes(buf)


def load_params(path: str | Path) -> UNetParams:
    """Read a UNPK checkpoint, validating shapes against its spec block and
    refusing non-finite values."""
    data = Path(path).read_bytes()
    if len(data) < 6 or data[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a UNPK checkpoint")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    off = 6

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise IntegrityError(f"{path}: file ends inside {what}")
        chunk = data[off : off + n]
        off += n
        return chunk

    cin, base, depth, k, n_heads = struct.unpack("<HHHHH", take(10, "spec block"))
    heads = []
    for _ in range(n_heads):
        (ln,) = struct.unpack("<B", take(1, "head name"))
        name = take(ln, "head name").decode("ascii")
        (out_ch,) = struct.unpack("<H", take(2, "head channels"))
        heads.append((name, out_ch))
    spec = UNetSpec(
        input_channels=cin, base_features=base, depth=depth,
        kernel_size=k, heads=tuple(heads),
    )
    shapes = expected_shapes(spec)

    arrays: dict[str, np.ndarray] = {}
    while off < len(data):
        (ln,) = struct.unpack("<B", take(1, "array name"))
        name = take(ln, "array name").decode("ascii")
        if name in arrays:
            raise IntegrityError(f"{path}: duplicate array {name!r}")
        if name not in shapes:
            raise IntegrityError(f"{path}: array {name!r} not part of the spec")
        (rank,) = struct.unpack("<B", take(1, "array rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "array dims"))
        if dims != shapes[name]:
            raise IntegrityError(
                f"{path}: array {name!r} has shape {dims}, spec requires {shapes[name]}"
            )
        count = int(np.prod(dims, dtype=np.int64))
        raw = take(4 * count, f"array {name!r} values")
        arrays[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(dims)
    missing = sorted(set(shapes) - set(arrays))
    if missing:
        raise IntegrityError(f"{path}: checkpoint is missing arrays {missing}")
    params = UNetParams(spec=spec, arrays={name: arrays[name] for name in shapes})
    try:
        validate_params(params)
    except IntegrityError as err:
        raise IntegrityError(f"{path}: {err}") from None
    return params
