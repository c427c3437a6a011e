"""Network layer: shapes, masked loss oracle, analytic gradients, checkpoints."""

from __future__ import annotations

import struct
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from urbanet import unet
from urbanet.errors import (
    DataError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    SpecError,
)
from urbanet.unet import (
    _backward,
    _conv_backward,
    _forward,
    _im2col_blocks,
    _masked_loss_grad,
    _pool_forward,
    _pool_windows,
    UNetParams,
    UNetSpec,
    encoder_names,
    expected_shapes,
    grad_check,
    head_names,
    init_params,
    load_params,
    loss_and_grads,
    save_params,
)

TINY = UNetSpec(input_channels=3, base_features=2, depth=1)


def masked_mse_oracle(pred, target, mask):
    """Deliberately slow triple-loop evaluation of the masked loss."""
    n, h, w, c = pred.shape
    total = 0.0
    for k in range(n):
        denom = float(mask[k].sum())
        chan_means = []
        for ch in range(c):
            s = 0.0
            for i in range(h):
                for j in range(w):
                    if mask[k, i, j]:
                        s += (target[k, i, j, ch] - pred[k, i, j, ch]) ** 2
            chan_means.append(s / denom)
        total += sum(chan_means) / c
    return total / n


def random_batch(rng, n=2, s=8, cin=3, ct=1, land_p=0.8):
    """Channel-last inputs (N, S, S, cin) and targets (N, S, S, ct), zero
    off the (N, S, S) land mask."""
    m = (rng.random((n, s, s)) < land_p).astype(np.uint8)
    for k in range(n):
        m[k, s // 2, s // 2] = 1
    x = rng.normal(size=(n, s, s, cin)) * m[..., None]
    y = rng.normal(size=(n, s, s, ct)) * m[..., None]
    return x, y, m


def masked_loss(pred, target, mask, channel_weights=None):
    """The loss value of _masked_loss_grad."""
    weights = None if channel_weights is None else np.asarray(channel_weights)
    return _masked_loss_grad(pred, target, mask, weights)[0]


def predict(params, x):
    """The forward output for channel-last ``x`` in the parameters' dtype."""
    y, cache = _forward(params, x)
    assert cache is None
    return y


def reference_forward(params, x):
    """The unfused forward: whole-array bias, ReLU and margins, pooling by
    argmax.  Returns (output, margins) in the order _forward records them."""
    spec, arrays = params.spec, params.arrays
    _, h, w, _ = x.shape
    pt, pb = unet._pad_amounts(h, 1 << spec.depth)
    pl, pr = unet._pad_amounts(w, 1 << spec.depth)
    a = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    margins = []

    def conv_relu(name, a):
        pre = unet._conv_forward(a, arrays[f"{name}.w"], arrays[f"{name}.b"])
        margins.append(float(np.abs(pre).min()))
        return np.maximum(pre, 0.0)

    skips = []
    for lvl in range(spec.depth + 1):
        a = conv_relu(f"enc{lvl}.conv2", conv_relu(f"enc{lvl}.conv1", a))
        skips.append(a)
        if lvl < spec.depth:
            windows = _pool_windows(a)
            top2 = np.sort(windows, axis=-1)[..., -2:]
            risky = top2[..., 0] > 0
            gap = top2[..., 1] - top2[..., 0]
            margins.append(float(gap[risky].min()) if risky.any() else np.inf)
            idx = windows.argmax(axis=-1)
            a = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    outs = []
    for head, _ in spec.heads:
        d = skips[-1]
        for lvl in range(spec.depth - 1, -1, -1):
            name = f"dec.{head}.{lvl}"
            yu = conv_relu(f"{name}.up", unet._up_forward(d))
            xc = np.concatenate([yu, skips[lvl]], axis=-1)
            d = conv_relu(f"{name}.conv2", conv_relu(f"{name}.conv1", xc))
        name = f"head.{head}"
        outs.append(unet._conv_forward(d, arrays[f"{name}.w"], arrays[f"{name}.b"]))
    y = np.concatenate(outs, axis=-1)
    return y[:, pt : pt + h, pl : pl + w], margins


class TestSpecAndInit:
    def test_init_deterministic(self):
        a = init_params(TINY, seed=7)
        b = init_params(TINY, seed=7)
        assert set(a.arrays) == set(b.arrays)
        for name in a.arrays:
            np.testing.assert_array_equal(a.arrays[name], b.arrays[name])

    def test_different_seeds_differ(self):
        a = init_params(TINY, seed=0)
        b = init_params(TINY, seed=1)
        assert any(
            not np.array_equal(a.arrays[n], b.arrays[n])
            for n in a.arrays if n.endswith(".w")
        )

    def test_weight_variance_matches_fan_in(self):
        params = init_params(UNetSpec(input_channels=9, base_features=32, depth=1), 0)
        w = params.arrays["enc1.conv1.w"]  # (64, 32, 3, 3): 18432 samples
        fan_in = 32 * 9
        assert np.var(w) == pytest.approx(2.0 / fan_in, rel=0.2)
        assert np.all(params.arrays["enc1.conv1.b"] == 0.0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(SpecError):
            expected_shapes(UNetSpec(3, 2, 1, kernel_size=4))
        with pytest.raises(SpecError):
            expected_shapes(UNetSpec(3, 2, 0))
        with pytest.raises(SpecError):
            expected_shapes(UNetSpec(3, 2, 1, heads=(("a", 1), ("a", 1))))
        with pytest.raises(SpecError):
            expected_shapes(UNetSpec(3, 2, 1, heads=()))

    def test_name_groups_partition_parameters(self):
        spec = UNetSpec(3, 2, 2, heads=(("urban", 1), ("pop", 1)))
        all_names = set(expected_shapes(spec))
        enc = set(encoder_names(spec))
        urban = set(head_names(spec, "urban"))
        pop = set(head_names(spec, "pop"))
        assert enc | urban | pop == all_names
        assert not (enc & urban) and not (enc & pop) and not (urban & pop)

    def test_parameter_count_formula(self):
        # depth-1, base-2, 3 input channels, one single-channel head
        shapes = expected_shapes(TINY)
        count = sum(int(np.prod(s)) for s in shapes.values())
        expect = (
            (2 * 3 * 9 + 2) + (2 * 2 * 9 + 2)      # enc0
            + (4 * 2 * 9 + 4) + (4 * 4 * 9 + 4)    # enc1 (bottleneck)
            + (2 * 4 * 9 + 2) + (2 * 4 * 9 + 2) + (2 * 2 * 9 + 2)  # decoder
            + (1 * 2 + 1)                            # 1x1 head
        )
        assert count == expect


class TestForward:
    def test_output_shape_28(self):
        spec = UNetSpec(input_channels=9, base_features=4, depth=2)
        params = init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(3, 28, 28, 9))
        out = predict(params, x)
        assert out.shape == (3, 28, 28, 1)

    def test_zero_params_give_zero_output(self):
        params = init_params(TINY, 0)
        for name in params.arrays:
            params.arrays[name] = np.zeros_like(params.arrays[name])
        x = np.random.default_rng(1).normal(size=(2, 8, 8, 3))
        np.testing.assert_array_equal(predict(params, x), 0.0)

    def test_head_weight_homogeneity(self):
        params = init_params(TINY, 3, dtype=np.float64)
        params.arrays["head.urban.b"] = np.array([0.7])
        x = np.random.default_rng(2).normal(size=(2, 8, 8, 3))
        out1 = predict(params, x)
        params.arrays["head.urban.w"] = params.arrays["head.urban.w"] * 2.0
        out2 = predict(params, x)
        np.testing.assert_allclose(out2 - 0.7, 2.0 * (out1 - 0.7), atol=1e-12)

    def test_internal_padding_preserves_size(self):
        # 28 is not divisible by 2^3; the net pads to 32 and crops back
        spec = UNetSpec(input_channels=2, base_features=2, depth=3)
        params = init_params(spec, 0)
        x = np.random.default_rng(3).normal(size=(1, 28, 28, 2))
        assert predict(params, x).shape == (1, 28, 28, 1)

    def test_odd_size_preserved(self):
        params = init_params(TINY, 0)
        x = np.random.default_rng(4).normal(size=(1, 7, 7, 3))
        assert predict(params, x).shape == (1, 7, 7, 1)

    def test_multi_head_output_stacks_in_order(self):
        spec = UNetSpec(3, 2, 1, heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, 0, dtype=np.float64)
        x = np.random.default_rng(5).normal(size=(2, 8, 8, 3))
        out = predict(params, x)
        assert out.shape == (2, 8, 8, 2)
        # zeroing one head's 1x1 conv must zero exactly that output slice
        params.arrays["head.pop.w"] = np.zeros_like(params.arrays["head.pop.w"])
        out2 = predict(params, x)
        np.testing.assert_array_equal(out2[..., 1], 0.0)
        np.testing.assert_array_equal(out2[..., 0], out[..., 0])

    @pytest.mark.parametrize("keep_cache", [False, True])
    def test_input_cast_to_param_dtype(self, keep_cache):
        params = init_params(TINY, 0)
        x = np.random.default_rng(4).normal(size=(2, 8, 8, 3))
        y64, _ = _forward(params, x, keep_cache=keep_cache)
        y32, _ = _forward(params, x.astype(np.float32), keep_cache=keep_cache)
        assert y64.dtype == np.float32
        assert y64.tobytes() == y32.tobytes()

    def test_wrong_channel_count_rejected(self):
        params = init_params(TINY, 0)
        with pytest.raises(ShapeError):
            _forward(params, np.zeros((1, 8, 8, 5), np.float32))
        with pytest.raises(ShapeError):
            _forward(params, np.zeros((8, 8, 3), np.float32))

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("size", [12, 16, 22, 28])
    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cache_free_matches_cached(self, monkeypatch, depth, size, heads, dtype):
        # bias and ReLU per GEMM block (one image per block here), pooling by
        # the max of four views, and no cache: the same bytes as the cached
        # and the unfused pass
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 1)
        spec = UNetSpec(9, 4, depth, heads=(("urban", 1), ("pop", 1))[:heads])
        params = init_params(spec, depth, dtype=dtype)
        rng = np.random.default_rng(size)
        for name, arr in params.arrays.items():
            if name.endswith(".b"):
                params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape).astype(dtype)
        x = rng.normal(size=(3, size, size, 9)).astype(dtype)
        free, cache = _forward(params, x)
        assert cache is None
        kept, cache = _forward(params, x, want_margins=True, keep_cache=True)
        ref, ref_margins = reference_forward(params, x)
        assert free.dtype == dtype and free.shape == (3, size, size, heads)
        assert free.tobytes() == kept.tobytes() == ref.tobytes()
        assert cache["margins"] == ref_margins
        assert len(ref_margins) == 3 * depth + 2 + 3 * depth * heads

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_index_matches_argmax(self, dtype):
        # post-ReLU values from {0, 1, 2}: most windows tie, and the top-left
        # windows of every image are all zero
        rng = np.random.default_rng(7)
        x = np.maximum(rng.integers(-2, 3, size=(3, 8, 10, 5)), 0).astype(dtype)
        x[:, :4, :4] = 0.0
        windows = _pool_windows(x)
        y, idx = _pool_forward(x, want_index=True)
        np.testing.assert_array_equal(idx, windows.argmax(axis=-1))
        assert y.tobytes() == windows.max(axis=-1).tobytes()
        y_only, none = _pool_forward(x)
        assert none is None and y_only.tobytes() == y.tobytes()

    def test_inference_memory_is_bounded(self):
        # desk spec, batch 256, S = 28: a forward that built the backprop
        # cache peaked at 106 MB and returned 98 MB of it
        params = init_params(UNetSpec.desk(), 0)
        x = np.random.default_rng(0).normal(size=(256, 28, 28, 9)).astype(np.float32)
        tracemalloc.start()
        try:
            y, cache = _forward(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache is None and y.shape == (256, 28, 28, 1)
        assert peak < 70e6, peak


class TestMaskedLoss:
    def test_hand_case(self):
        target = np.array([[1.0, 2.0], [3.0, 0.0]]).reshape(1, 2, 2, 1)
        pred = np.array([[1.0, 1.0], [1.0, 0.0]]).reshape(1, 2, 2, 1)
        mask = np.array([[[1, 1], [1, 0]]], dtype=np.uint8)
        assert masked_loss(pred, target, mask) == 5.0 / 3.0

    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        x, y, m = random_batch(rng)
        assert masked_loss(y, y, m) == 0.0

    def test_masked_pixels_ignored_exactly(self):
        rng = np.random.default_rng(1)
        _, y, m = random_batch(rng, n=3)
        pred = rng.normal(size=y.shape)
        base = masked_loss(pred, y, m)
        # arbitrary garbage outside the mask must not move the loss at all
        y2 = np.where((m == 0)[..., None], 1e6, y)
        assert masked_loss(pred, y2, m) == base

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, c, s = int(rng.integers(1, 4)), int(rng.integers(1, 3)), 5
            _, y, m = random_batch(rng, n=n, s=s, ct=c)
            pred = rng.normal(size=y.shape)
            assert masked_loss(pred, y, m) == pytest.approx(
                masked_mse_oracle(pred, y, m), abs=1e-12
            )

    def test_channel_weights_select_task(self):
        rng = np.random.default_rng(3)
        _, y, m = random_batch(rng, ct=2)
        pred = rng.normal(size=y.shape)
        only_second = masked_loss(pred, y, m, channel_weights=(0.0, 1.0))
        second_alone = masked_loss(pred[..., 1:], y[..., 1:], m)
        assert only_second == pytest.approx(second_alone, abs=1e-15)
        both = masked_loss(pred, y, m, channel_weights=(1.0, 1.0))
        assert both == pytest.approx(masked_loss(pred, y, m), abs=1e-15)

    def test_all_water_sample_rejected(self):
        rng = np.random.default_rng(4)
        _, y, m = random_batch(rng, n=2)
        m[1] = 0
        with pytest.raises(DataError, match="all-water"):
            masked_loss(y, y, m)

    def test_batch_loss_is_mean_of_sample_losses(self):
        rng = np.random.default_rng(5)
        _, y, m = random_batch(rng, n=4)
        pred = rng.normal(size=y.shape)
        whole = masked_loss(pred, y, m)
        per = [
            masked_loss(pred[k : k + 1], y[k : k + 1], m[k : k + 1]) for k in range(4)
        ]
        assert whole == pytest.approx(float(np.mean(per)), abs=1e-12)


def whole_im2col(x, k):
    """Patch matrix straight from a (k, k) sliding window, (du, dv, c) rows."""
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(1, 2))  # (N,H,W,C,k,k)
    n, h, w, c = x.shape
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w, k * k * c)


def whole_conv(x, w, b, g):
    """Forward output, d_input and d_weight from single whole-batch GEMMs."""
    f, c, k, _ = w.shape
    y = whole_im2col(x, k) @ w.transpose(2, 3, 1, 0).reshape(k * k * c, f) + b
    wflip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1).reshape(k * k * f, c)
    dx = whole_im2col(g, k) @ wflip
    dw = whole_im2col(x, k).T @ g.reshape(-1, f)
    return (y.reshape(*x.shape[:3], f), dx.reshape(x.shape),
            dw.reshape(k, k, c, f).transpose(3, 2, 0, 1))


def image_bytes(x, k):
    """Bytes of one image's patch rows."""
    _, h, w, c = x.shape
    return h * w * k * k * c * x.itemsize


class TestIm2col:
    @staticmethod
    def check_blocks(monkeypatch, x, k):
        """For 1-image blocks, 2-image blocks (an uneven remainder when N is
        odd) and a single block, the blocks tile the rows in order and their
        concatenation is byte-equal to the sliding-window patch matrix."""
        want = whole_im2col(x, k).tobytes()
        per = image_bytes(x, k)
        for block_bytes in (1, 2 * per, 1 << 40):
            monkeypatch.setattr(unet, "_BLOCK_BYTES", block_bytes)
            parts, end = [], 0
            for rows, cols in _im2col_blocks(x, k):
                assert rows.start == end and cols.shape[0] == rows.stop - rows.start
                assert cols.dtype == x.dtype
                if k > 1:
                    assert cols.nbytes <= max(block_bytes, per)
                parts.append(cols.copy())  # the buffer is reused
                end = rows.stop
            assert end == x.shape[0] * x.shape[1] * x.shape[2]
            assert np.concatenate(parts).tobytes() == want, block_bytes

    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize(
        "shape", [(2, 7, 5, 1), (3, 8, 8, 9), (1, 4, 6, 16), (5, 6, 7, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_sliding_window_layout(self, monkeypatch, k, shape, dtype):
        x = np.random.default_rng(k).normal(size=shape).astype(dtype)
        self.check_blocks(monkeypatch, x, k)

    def test_non_contiguous_input(self, monkeypatch):
        x = np.random.default_rng(0).normal(size=(2, 6, 6, 8))[..., ::2]
        self.check_blocks(monkeypatch, x, 3)


class TestBlockedConv:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_whole_matrix_reference(self, monkeypatch, k, dtype, rtol):
        # 2-image blocks over 5 images: three blocks, the last one uneven.
        # Row blocks and the per-block d_weight sum change rounding only,
        # so the tolerance is relative to each array's largest magnitude.
        rng = np.random.default_rng(k)
        x = rng.normal(size=(5, 9, 8, 6)).astype(dtype)
        w = rng.normal(size=(4, 6, k, k)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        g = rng.normal(size=(5, 9, 8, 4)).astype(dtype)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * max(image_bytes(x, k), image_bytes(g, k)))
        assert len(list(_im2col_blocks(x, k))) == (1 if k == 1 else 3)
        y = unet._conv_forward(x, w, b)
        dx, dw, db = _conv_backward(x, w, g)
        ry, rdx, rdw = whole_conv(x, w, b, g)
        for got, ref in ((y, ry), (dx, rdx), (dw, rdw)):
            assert got.dtype == dtype and got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())
        np.testing.assert_array_equal(db, g.reshape(-1, 4).sum(axis=0))

    def test_patch_matrix_is_never_whole(self):
        # one 16 -> 8 conv at batch 256, S = 28: the whole patch matrix
        # alone would take 116 MB, the padded input and output 21 MB
        rng = np.random.default_rng(0)
        x = rng.normal(size=(256, 28, 28, 16)).astype(np.float32)
        w = rng.normal(size=(8, 16, 3, 3)).astype(np.float32)
        b = np.zeros(8, np.float32)
        g = rng.normal(size=(256, 28, 28, 8)).astype(np.float32)
        tracemalloc.start()
        try:
            unet._conv_forward(x, w, b)
            _, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _conv_backward(x, w, g)
            _, bwd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fwd_peak < 40e6, fwd_peak
        assert bwd_peak < 40e6, bwd_peak


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        params = init_params(TINY, 0, dtype=np.float64)
        rng = np.random.default_rng(0)
        x, _, m = random_batch(rng)
        target = predict(params, x)  # residuals vanish identically
        loss, grads = loss_and_grads(params, x, target, m)
        assert loss == 0.0
        for name, g in grads.items():
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_mask_annihilates_target_changes(self):
        params = init_params(TINY, 1, dtype=np.float64)
        rng = np.random.default_rng(1)
        x, y, m = random_batch(rng)
        l1, g1 = loss_and_grads(params, x, y, m)
        y2 = y + np.where((m == 0)[..., None], 100.0, 0.0)
        l2, g2 = loss_and_grads(params, x, y2, m)
        assert l1 == l2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_backward_deterministic(self):
        params = init_params(TINY, 2)
        rng = np.random.default_rng(2)
        x, y, m = random_batch(rng)
        l1, g1 = loss_and_grads(params, x, y, m)
        l2, g2 = loss_and_grads(params, x, y, m)
        assert l1 == l2
        for name in g1:
            np.testing.assert_array_equal(g1[name], g2[name])

    def test_trainable_filter_matches_full_run(self):
        spec = UNetSpec(3, 2, 1, heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, 3, dtype=np.float64)
        rng = np.random.default_rng(3)
        x, y, m = random_batch(rng, ct=2)
        _, full = loss_and_grads(params, x, y, m)
        subset = set(head_names(spec, "pop"))
        _, part = loss_and_grads(params, x, y, m, trainable=subset)
        assert set(part) == subset
        for name in subset:
            np.testing.assert_array_equal(part[name], full[name])

    def test_frozen_phase_shortcut_is_exact(self):
        # encoder + task-1 decoder frozen, task-2 loss only: the skipped
        # branches must not change the gradients that are still computed
        spec = UNetSpec(3, 2, 1, heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, 4, dtype=np.float64)
        rng = np.random.default_rng(4)
        x, y, m = random_batch(rng, ct=2)
        w = np.array([0.0, 1.0])
        _, full = loss_and_grads(params, x, y, m, channel_weights=w)
        subset = set(head_names(spec, "pop"))
        _, part = loss_and_grads(params, x, y, m, channel_weights=w, trainable=subset)
        for name in subset:
            np.testing.assert_array_equal(part[name], full[name])

    def test_conv_backward_without_input_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        g = rng.normal(size=(2, 6, 6, 4)).astype(np.float32)
        dx, dw, db = _conv_backward(x, w, g)
        none, dw2, db2 = _conv_backward(x, w, g, need_dx=False)
        assert dx is not None and none is None
        assert dw2.tobytes() == dw.tobytes() and db2.tobytes() == db.tobytes()

    @pytest.mark.parametrize("frozen_encoder", [False, True])
    def test_skipped_input_gradients_change_nothing(self, monkeypatch, frozen_encoder):
        # the data gradient of enc0.conv1, and with a frozen encoder the
        # deepest up-conv's input gradient, are never computed: every
        # parameter gradient must equal the run that computes them all
        spec = UNetSpec(9, 4, 2, heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, 9)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 12, 12, 9)).astype(np.float32)
        g = rng.normal(size=(3, 12, 12, 2)).astype(np.float32)
        trainable = set(head_names(spec, "pop")) if frozen_encoder else None
        _, cache = _forward(params, x, keep_cache=True)
        got = _backward(params, cache, g, trainable)

        def always_dx(x, w, g, need_dx=True):
            return _conv_backward(x, w, g)

        monkeypatch.setattr(unet, "_conv_backward", always_dx)
        _, cache = _forward(params, x, keep_cache=True)
        want = _backward(params, cache, g, trainable)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_non_finite_loss_raises(self):
        params = init_params(TINY, 5, dtype=np.float64)
        params.arrays["head.urban.b"] = np.array([np.inf])
        rng = np.random.default_rng(5)
        x, y, m = random_batch(rng)
        with pytest.raises(NumericError):
            loss_and_grads(params, x, y, m)

    def test_batch_validation(self):
        # one tile's target or mask must not broadcast over the batch, and a
        # mask value other than 0 or 1 is corrupt data
        params = init_params(TINY, 6, dtype=np.float64)
        rng = np.random.default_rng(6)
        x, y, m = random_batch(rng)
        with pytest.raises(ShapeError):
            loss_and_grads(params, x, y[:1], m)
        with pytest.raises(ShapeError):
            loss_and_grads(params, x, y, m[:1])
        with pytest.raises(IntegrityError):
            loss_and_grads(params, x, y, m + 1)


class TestGradCheck:
    def test_tiny_net_matches_finite_differences(self):
        report = grad_check(TINY, seed=0)
        assert report.passed, str(report)
        assert report.max_rel_err < 1e-4

    def test_default_spec_passes(self):
        report = grad_check(seed=1)
        assert report.passed, str(report)
        assert report.n_checked >= 500

    def test_multi_head_gradients_check_out(self):
        spec = UNetSpec(3, 2, 1, heads=(("urban", 1), ("pop", 1)))
        report = grad_check(spec, seed=2)
        assert report.passed, str(report)

    def test_corrupted_gradient_detected(self, monkeypatch):
        honest = unet.loss_and_grads

        def corrupted(params, x, y, m):
            loss, grads = honest(params, x, y, m)
            grads["enc0.conv1.w"] = grads["enc0.conv1.w"] + 1e-2
            return loss, grads

        monkeypatch.setattr(unet, "loss_and_grads", corrupted)
        report = grad_check(TINY, seed=3)
        assert not report.passed
        assert report.max_rel_err > 1e-4
        assert report.per_array["enc0.conv1.w"] > 1e-4


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        spec = UNetSpec(3, 2, 2, heads=(("urban", 1), ("pop", 1)))
        params = init_params(spec, 9)
        path = tmp_path / "model.unpk"
        save_params(params, path)
        back = load_params(path)
        assert back.spec == spec
        assert list(back.arrays) == list(params.arrays)
        for name in params.arrays:
            np.testing.assert_array_equal(back.arrays[name], params.arrays[name])

    def test_forward_identical_after_round_trip(self, tmp_path):
        params = init_params(TINY, 10)
        path = tmp_path / "model.unpk"
        save_params(params, path)
        back = load_params(path)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 3))
        np.testing.assert_array_equal(predict(params, x), predict(back, x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.unpk"
        path.write_bytes(b"JUNKxxxxxx")
        with pytest.raises(FormatError):
            load_params(path)

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(TINY, 11)
        path = tmp_path / "model.unpk"
        save_params(params, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(IntegrityError):
            load_params(path)

    def test_missing_array_rejected(self, tmp_path):
        params = init_params(TINY, 12)
        path = tmp_path / "model.unpk"
        save_params(params, path)
        raw = path.read_bytes()
        # head bias is the last array: strip its record entirely
        marker = b"head.urban.b"
        path.write_bytes(raw[: raw.rfind(marker) - 1])
        with pytest.raises(IntegrityError, match="missing"):
            load_params(path)

    def test_non_finite_value_rejected_on_load(self, tmp_path):
        params = init_params(TINY, 14)
        path = tmp_path / "model.unpk"
        save_params(params, path)
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", float("nan"))  # last value of head.urban.b
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="non-finite"):
            load_params(path)

    def test_wrong_shape_refused_on_save(self, tmp_path):
        params = init_params(TINY, 13)
        params.arrays["head.urban.w"] = np.zeros((2, 2, 1, 1), np.float32)
        with pytest.raises(IntegrityError):
            save_params(params, tmp_path / "model.unpk")
