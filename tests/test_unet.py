"""Network layer: shapes, masked loss oracle, analytic gradients, checkpoints."""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from urbanet import files, trainer, unet
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
    _pool_backward,
    _pool_forward,
    UNetParams,
    UNetSpec,
    expected_shapes,
    grad_check,
    head_names,
    init_params,
    load_params,
    loss_and_grads,
    save_params,
    validate_spec,
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


def upsample(x):
    """Nearest-neighbor 2x upsampling of (N,H,W,C) ``x``."""
    return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2)


def pool_windows(x):
    """The 2x2 pooling windows of (N,H,W,C) ``x`` as (N, H/2, W/2, C, 4),
    in row-major window order."""
    return np.stack([x[:, a::2, b::2] for a in (0, 1) for b in (0, 1)], axis=-1)


def upconv(x, w, b, relu=False):
    """The (N, 2H, 2W, F) up-conv output of (N,H,W,C) ``x``: its phases
    (``_upconv_phases``) interleaved by ``_depth_to_space``."""
    n, h, wd, _ = x.shape
    y4 = unet._upconv_phases(x, w, b, relu)
    return unet._depth_to_space(y4, np.empty((n, 2 * h, 2 * wd, w.shape[0]), y4.dtype))


def reference_forward(params, x):
    """The unfused forward: whole-array bias, ReLU and margins, pooling by
    argmax, each up-conv run on the upsampled array and each decoder conv1
    on the concatenated one.  Returns (output, margins, pattern), with one
    entry per ReLU layer and pooling in tape order.  A margin is the
    smallest |pre-activation|, or the smallest gap between a contested
    window's top two values.  A pattern entry pairs what ``_pattern``
    reads, the open units or each window's argmax, with each element's
    own margin."""
    spec, arrays = params.spec, params.arrays
    _, h, w, _ = x.shape
    pt, pb = unet._pad_amounts(h, 1 << spec.depth)
    pl, pr = unet._pad_amounts(w, 1 << spec.depth)
    a = np.pad(x, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    margins, pattern = [], []

    def conv_relu(name, a):
        w = arrays[f"{name}.w"]
        pre = unet._conv_forward(a, w, arrays[f"{name}.b"], w.shape[-1] // 2, relu=False)
        margins.append(float(np.abs(pre).min()))
        pattern.append((pre > 0, np.abs(pre)))
        return np.maximum(pre, 0.0)

    skips = []
    for lvl in range(spec.depth + 1):
        a = conv_relu(f"enc{lvl}.conv2", conv_relu(f"enc{lvl}.conv1", a))
        skips.append(a)
        if lvl < spec.depth:
            windows = pool_windows(a)
            top2 = np.sort(windows, axis=-1)[..., -2:]
            risky = top2[..., 0] > 0
            gap = top2[..., 1] - top2[..., 0]
            margins.append(float(gap[risky].min()) if risky.any() else np.inf)
            idx = windows.argmax(axis=-1)
            pattern.append((idx, gap))
            a = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    outs = []
    for head in spec.heads:
        d = skips[-1]
        for lvl in range(spec.depth - 1, -1, -1):
            name = f"dec.{head}.{lvl}"
            yu = conv_relu(f"{name}.up", upsample(d))
            xc = np.concatenate([yu, skips[lvl]], axis=-1)
            d = conv_relu(f"{name}.conv2", conv_relu(f"{name}.conv1", xc))
        name = f"head.{head}"
        outs.append(unet._conv_forward(d, arrays[f"{name}.w"], arrays[f"{name}.b"], 0,
                                       relu=False))
    y = np.concatenate(outs, axis=-1)
    return y[:, pt : pt + h, pl : pl + w], margins, pattern


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
            expected_shapes(UNetSpec(3, 2, 0))
        with pytest.raises(SpecError):
            expected_shapes(UNetSpec(3, 2, 1, heads=("a", "a")))
        with pytest.raises(SpecError):
            expected_shapes(UNetSpec(3, 2, 1, heads=()))

    def test_head_name_length_bounded(self, tmp_path):
        # parameter names, which embed the head name, are bounded to 255
        # bytes; the longest is "dec.<head>.0.conv1.w"
        longest = 255 - len("dec..0.conv1.w")
        with pytest.raises(SpecError, match="255"):
            init_params(UNetSpec(3, 2, 1, heads=("a" * (longest + 1),)), 0)
        with pytest.raises(SpecError, match="255"):
            init_params(UNetSpec(3, 2, 1, heads=("a" * 256,)), 0)
        spec = UNetSpec(3, 2, 1, heads=("a" * longest,))
        save_params(init_params(spec, 0), tmp_path / "model.unpk")
        assert load_params(tmp_path / "model.unpk").spec == spec

    @pytest.mark.parametrize("field", ["input_channels", "base_features", "depth"])
    def test_checkpoint_u16_fields_bounded(self, field):
        # 65535 is the largest value a spec may hold.  Only the spec is
        # validated here, so no array of that size is ever drawn.
        with pytest.raises(SpecError, match="65535"):
            validate_spec(dataclasses.replace(TINY, **{field: 70001}))
        validate_spec(dataclasses.replace(TINY, **{field: 0xFFFF}))

    def test_head_count_and_channels_bounded(self, tmp_path, reseal):
        # a head is one plane: version 2 stores each head as a [name, planes]
        # pair, and any other plane count is refused on load, naming the
        # file and the head
        path = tmp_path / "model.unpk"
        for planes in (0, 2, 70000):
            save_params(init_params(UNetSpec(3, 2, 1, heads=("urban", "pop")), 0), path)

            def claim(header, arrays):
                header["meta"]["spec"]["heads"][1][1] = planes

            reseal(path, claim)
            with pytest.raises(IntegrityError) as exc:
                load_params(path)
            assert str(exc.value) == (f"{path}: head 'pop' has {planes} output planes; "
                                      "every head has one")
        heads = tuple(f"h{i}" for i in range(0x10000))
        with pytest.raises(SpecError, match="65535"):
            validate_spec(UNetSpec(3, 2, 1, heads=heads))

    def test_name_groups_partition_parameters(self):
        spec = UNetSpec(3, 2, 2, heads=("urban", "pop"))
        all_names = set(expected_shapes(spec))
        enc = {n for n in all_names if n.startswith("enc")}
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

    def test_full_scale_spec_builds(self):
        # nothing in the package builds this spec yet; the benchmark will
        from urbanet import cli

        spec = UNetSpec.full_scale()
        validate_spec(spec)
        params = init_params(spec, 0)
        assert sum(a.size for a in params.arrays.values()) == 2_142_369
        assert cli.WINDOW_CHOICES == (16, 22, 28)
        for window in cli.WINDOW_CHOICES:  # 2**depth fits every window
            cli._check_spec(spec, window, "--window")


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
        spec = UNetSpec(3, 2, 1, heads=("urban", "pop"))
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
        # pass.  The unfused pass upsamples before each up-conv, which sums
        # the taps in another order: it agrees to rounding.
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 1)
        spec = UNetSpec(9, 4, depth, heads=("urban", "pop")[:heads])
        params = init_params(spec, depth, dtype=dtype)
        rng = np.random.default_rng(size)
        for name, arr in params.arrays.items():
            if name.endswith(".b"):
                params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape).astype(dtype)
        x = rng.normal(size=(3, size, size, 9)).astype(dtype)
        free, cache = _forward(params, x)
        assert cache is None
        kept, cache = _forward(params, x, keep_cache=True)
        ref, ref_margins, ref_pattern = reference_forward(params, x)
        assert free.dtype == dtype and free.shape == (3, size, size, heads)
        assert free.tobytes() == kept.tobytes()
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(free, ref, rtol=tol, atol=tol * np.abs(ref).max())
        # the tape's kink sides and pooling slots are the reference's
        # wherever rounding cannot move them
        pattern = unet._pattern(cache)
        assert len(pattern) == len(ref_margins) == 3 * depth + 2 + 3 * depth * heads
        for got, (want, margin) in zip(pattern, ref_pattern):
            assert got.shape == want.shape
            clear = margin > tol
            np.testing.assert_array_equal(got[clear], want[clear])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pool_index_matches_argmax(self, dtype):
        # post-ReLU values from {0, 1, 2}: most windows tie, and the top-left
        # windows of every image are all zero.  The pool keeps no index; its
        # backward routes each window's gradient to the argmax.
        rng = np.random.default_rng(7)
        x = np.maximum(rng.integers(-2, 3, size=(3, 8, 10, 5)), 0).astype(dtype)
        x[:, :4, :4] = 0.0
        windows = pool_windows(x)
        y = _pool_forward(x)
        assert y.tobytes() == windows.max(axis=-1).tobytes()
        g = rng.uniform(1.0, 2.0, size=y.shape).astype(dtype)
        routed = pool_windows(_pool_backward(g, x, y))
        np.testing.assert_array_equal((routed != 0).argmax(axis=-1), windows.argmax(axis=-1))
        assert (routed != 0).sum(axis=-1).max() == 1
        assert routed.sum(axis=-1).tobytes() == g.tobytes()

    @pytest.mark.parametrize("size", [16, 22, 28])
    @pytest.mark.parametrize("spec", [UNetSpec.desk(), UNetSpec.full_scale()],
                             ids=["desk", "full_scale"])
    def test_tile_bytes_do_not_depend_on_its_batch(self, spec, size):
        # at the standard specs no layer, the 1x1 head included, rounds a
        # tile's rows by the batch size: its output bytes in a batch of 1,
        # 7 or 60 are those it gets in a batch of 64
        params = init_params(spec, size)
        rng = np.random.default_rng(size)
        for name, arr in params.arrays.items():
            if name.endswith(".b"):
                params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape).astype(arr.dtype)
        x = rng.normal(size=(64, size, size, 9)).astype(np.float32)
        whole, _ = _forward(params, x)
        for start, n in ((5, 1), (2, 7), (4, 60)):
            part, _ = _forward(params, x[start : start + n])
            assert part.tobytes() == whole[start : start + n].tobytes(), (start, n)

    def test_inference_memory_is_bounded(self):
        # desk spec, batch 256, S = 28: a forward that built the backprop
        # cache peaked at 106 MB and returned 98 MB of it; the cache-free
        # one peaked at 45.7 MB while it upsampled and concatenated whole
        # decoder inputs, at 39.3 MB without them, and at 28.5 MB since
        # the up-conv writes into conv1's padded input and each skip goes
        # after its last reader.  The pin leaves 5 % over that.
        params = init_params(UNetSpec.desk(), 0)
        x = np.random.default_rng(0).normal(size=(256, 28, 28, 9)).astype(np.float32)
        tracemalloc.start()
        try:
            y, cache = _forward(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache is None and y.shape == (256, 28, 28, 1)
        assert peak < 30e6, peak

    @pytest.mark.parametrize("size", [16, 22, 28])
    @pytest.mark.parametrize("spec", [UNetSpec.desk(), UNetSpec.full_scale(),
                                      UNetSpec(9, 2, 1)],
                             ids=["desk", "full_scale", "input-wider-than-features"])
    def test_predict_batch_stays_within_budget(self, spec, size):
        # world prediction's micro-batch: the forward's arrays, its input
        # tiles included, stay within the byte budget, and the rule uses
        # most of it (measured: 0.94-0.97 of it at desk, 0.90-1.00 at
        # full_scale, 0.83-0.86 where the wide input makes the first
        # encoder conv the peak)
        params = init_params(spec, 0)
        n = unet._predict_tiles(spec, size, 4)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            x = rng.normal(size=(n, size, size, 9)).astype(np.float32)
            _forward(params, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert unet._PREDICT_BYTES / 2 < peak <= unet._PREDICT_BYTES, (n, peak)

    @staticmethod
    def watch_skips(monkeypatch, params, hold):
        """Spy on every forward convolution.  Each encoder level's output (a
        skip; the last is the bottleneck) is watched by a weak reference,
        and with ``hold`` also kept alive.  Returns the (held, reference)
        pairs and, per decoder conv1 name, which skips are alive and the
        traced bytes as it starts."""
        names = {id(a): n for n, a in params.arrays.items()}
        skips, seen = [], {}
        honest = unet._conv_forward

        def spy(x, w, b, pad, relu):
            name = names.get(id(w), "")  # a phase kernel has no name
            if name.startswith("dec.") and name.endswith(".conv1.w"):
                seen[name[: -len(".w")]] = ([ref() is not None for _, ref in skips],
                                            tracemalloc.get_traced_memory()[0])
            y = honest(x, w, b, pad, relu)
            if name.startswith("enc") and name.endswith(".conv2.w"):
                skips.append((y if hold else None, weakref.ref(y)))
            return y

        monkeypatch.setattr(unet, "_conv_forward", spy)
        return skips, seen

    @pytest.mark.parametrize("live", [("pop",), ("urban",), ("urban", "pop")],
                             ids=["dead-head-first", "dead-head-last", "both-live"])
    def test_skips_go_after_their_last_reader(self, live):
        # a tape-free forward drops each skip, and the bottleneck, once the
        # last live decoder has copied it into conv1's padded input.  Its
        # bytes are the taped forward's; that decoder's conv1 at level l
        # starts with the skips of levels l and up gone; and the forward
        # holds less than one that keeps every skip to its end, by all the
        # skips at the last level-0 conv1 and, with one live decoder, by the
        # coarser skips at its peak
        spec = UNetSpec(9, 8, 2, heads=("urban", "pop"))
        params = init_params(spec, 0)
        x = np.random.default_rng(0).normal(size=(16, 28, 28, 9)).astype(np.float32)
        heads = frozenset(live)
        taped, _ = _forward(params, x, keep_cache=True, heads=heads)
        runs = {}
        for hold in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                skips, seen = self.watch_skips(mp, params, hold)
                tracemalloc.start()
                try:
                    y, _ = _forward(params, x, heads=heads)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert y.tobytes() == taped.tobytes()
            runs[hold] = skips, seen, peak
        (_, seen, peak), (held, held_seen, held_peak) = runs[False], runs[True]
        levels = range(spec.depth + 1)
        assert sorted(seen) == sorted(f"dec.{h}.{lvl}.conv1" for h in live
                                      for lvl in range(spec.depth))
        for name, (alive, _) in seen.items():
            _, head, lvl, _ = name.split(".")
            assert alive == [head != live[-1] or i < int(lvl) for i in levels], name
        last = f"dec.{live[-1]}.0.conv1"  # the traced bytes differ by the skips,
        # give or take a few small Python objects
        assert held_seen[last][1] - seen[last][1] > sum(a.nbytes for a, _ in held) - 1024
        if len(live) == 1:
            assert peak + sum(a.nbytes for a, _ in held[1:]) <= held_peak
        else:  # the first decoder, which reads every skip, sets both peaks
            assert peak <= held_peak


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


def image_bytes(x, k, px=1):
    """Bytes of one image's patch rows of a same-padded lowering with ``px``
    pixels per row."""
    _, h, w, c = x.shape
    return h * w // px * k * (k + px - 1) * c * x.itemsize


def zero_border(x, r):
    """(N,H,W,C) ``x`` zero-padded by ``r`` on every side."""
    return np.pad(x, ((0, 0), (r, r), (r, r), (0, 0)))


def spy_blocks(monkeypatch):
    """Record, per ``_im2col_blocks`` call, the number of blocks it yields."""
    counts = []
    honest = unet._im2col_blocks

    def spy(*args, **kwargs):
        counts.append(0)
        for block in honest(*args, **kwargs):
            counts[-1] += 1
            yield block

    monkeypatch.setattr(unet, "_im2col_blocks", spy)
    return counts


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
            for rows, cols in _im2col_blocks(x, k, k // 2, 1):
                assert rows.start == end and cols.shape[0] == rows.stop - rows.start
                assert cols.dtype == x.dtype
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
        # 2-image blocks over 5 images in the forward and in the backward:
        # three blocks each, the last one uneven.  At width 8, F = 4 and
        # C = 6 pair pixels in both lowerings, so each block size is
        # that of the lowering it sizes.  Row blocks, the per-block d_weight
        # sum and the d_bias GEMV change rounding only, so the tolerance is
        # relative to each array's largest magnitude.
        rng = np.random.default_rng(k)
        x = rng.normal(size=(5, 9, 8, 6)).astype(dtype)
        w = rng.normal(size=(4, 6, k, k)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        g = rng.normal(size=(5, 9, 8, 4)).astype(dtype)
        blocks = spy_blocks(monkeypatch)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(x, k, 2))
        y = unet._conv_forward(x, w, b, k // 2, relu=False)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(g, k, 2))
        dx, dw, db = _conv_backward(x, w, g, k // 2, True)
        assert blocks == [3] * 2
        ry, rdx, rdw = whole_conv(x, w, b, g)
        for got, ref in ((y, ry), (dx, rdx), (dw, rdw), (db, g.reshape(-1, 4).sum(axis=0))):
            assert got.dtype == dtype and got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())

    @pytest.mark.parametrize("valid", [False, True], ids=["plain", "valid"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_bias_folded_into_the_gemm(self, monkeypatch, k, valid, dtype, rtol):
        # the bias is the weight matrix's last row, against a
        # column of ones that the block copies never overwrite: 2-image
        # blocks over 5 images, the last one partial, all keep the column,
        # in the one-pixel lowering and in the paired one that the forward
        # runs (F = 4 at width 8).  "valid" lowers the zero-bordered input
        # with no padding, as a decoder conv1 runs on _join's buffer.
        rng = np.random.default_rng(k)
        x = rng.normal(size=(5, 9, 8, 6)).astype(dtype)
        w = rng.normal(size=(4, 6, k, k)).astype(dtype)
        b = (10 * rng.normal(size=4)).astype(dtype)
        xin, pad = (zero_border(x, k // 2), 0) if valid else (x, k // 2)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(x, k))
        want = whole_im2col(x, k)
        blocks = 0
        for rows, cols in _im2col_blocks(xin, k, pad, 1, ones=True):
            assert cols.shape[1] == want.shape[1] + 1 and (cols[:, -1] == 1).all()
            assert cols[:, :-1].tobytes() == want[rows].tobytes()
            blocks += 1
        assert blocks == 3
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(x, k, 2))
        counts = spy_blocks(monkeypatch)
        y = unet._conv_forward(xin, w, b, pad, relu=False)
        assert counts == [blocks]
        ref = want @ w.transpose(2, 3, 1, 0).reshape(-1, 4) + b
        assert y.dtype == dtype
        np.testing.assert_allclose(y.reshape(-1, 4), ref, rtol=rtol, atol=rtol * np.abs(ref).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_gradient_matches_exact_sum(self, dtype):
        # d_bias is one GEMV over the gradient's R rows.  Against each
        # channel's correctly rounded sum (math.fsum of the float64 values)
        # its error is bounded by eps * sqrt(R) times the channel's sum of
        # magnitudes, the scale of random rounding in a running sum
        # (measured: up to 0.19 of the bound; numpy's row-wise sum reaches
        # 0.32, both dtypes, gradients of mean 0 to 3)
        eps = np.finfo(dtype).eps
        for shape in [(5, 9, 8, 4), (64, 28, 28, 8)]:
            rng = np.random.default_rng(shape[0])
            x = rng.normal(size=shape[:3] + (3,)).astype(dtype)
            w = rng.normal(size=(shape[-1], 3, 3, 3)).astype(dtype)
            g = (rng.normal(size=shape) + 1.0).astype(dtype)
            _, _, db = _conv_backward(x, w, g, 1, need_dx=False)
            assert db.dtype == dtype and db.shape == (shape[-1],)
            cols = g.reshape(-1, shape[-1]).astype(np.float64).T
            bound = eps * math.sqrt(cols.shape[1])
            for got, col in zip(db, cols):
                assert abs(float(got) - math.fsum(col)) <= bound * math.fsum(np.abs(col))

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
            unet._conv_forward(x, w, b, 1, relu=False)
            _, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            _conv_backward(x, w, g, 1, True)
            _, bwd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fwd_peak < 40e6, fwd_peak
        assert bwd_peak < 40e6, bwd_peak


class TestSubpixelUpconv:
    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_matches_upsample_then_conv(self, monkeypatch, dtype, rtol):
        # the oracle upsamples by np.repeat and runs the plain convolution;
        # its input gradient sums each 2x2 block back.  8 input channels and
        # 4 * 2 phase channels: 2-image blocks over 5 images, the last
        # uneven, at the phase conv's (H+1) x (W+1) positions, with the
        # pixels per row of its lowering (two, as W+1 is even)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4, 3, 8)).astype(dtype)
        w = rng.normal(size=(2, 8, 3, 3)).astype(dtype)
        b = rng.normal(size=2).astype(dtype)
        g = rng.normal(size=(5, 8, 6, 2)).astype(dtype)
        assert unet._phase_weight(w).shape == (8, 8, 2, 2)
        positions = np.zeros((1, 5, 4, 8), dtype)
        px = unet._pixels_per_row(4, 8)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(positions, 2, px))
        blocks = spy_blocks(monkeypatch)
        y = upconv(x, w, b)
        assert blocks == [3]
        dx, dw, db = unet._upconv_backward(x, w, g, True)
        ry = unet._conv_forward(upsample(x), w, b, 1, relu=False)
        rdx, rdw, rdb = _conv_backward(upsample(x), w, g, 1, True)
        rdx = rdx.reshape(5, 4, 2, 3, 2, 8).sum(axis=(2, 4))
        for got, ref in ((y, ry), (dx, rdx), (dw, rdw), (db, rdb)):
            assert got.dtype == dtype and got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())
        relu = upconv(x, w, b, relu=True)
        assert relu.tobytes() == np.maximum(y, 0.0).tobytes()
        none, dw2, _ = unet._upconv_backward(x, w, g, need_dx=False)
        assert none is None and dw2.tobytes() == dw.tobytes()

    @pytest.mark.parametrize("du, dv", [(du, dv) for du in range(3) for dv in range(3)])
    def test_unit_kernels_shift_the_upsampled_input(self, du, dv):
        # built without the tap map: a kernel with one unit tap per feature
        # copies its channel of the upsampled input, zero-padded by one,
        # shifted by (du - 1, dv - 1)
        x = np.random.default_rng(3 * du + dv).normal(size=(2, 3, 4, 2))
        w = np.zeros((2, 2, 3, 3))
        w[[0, 1], [0, 1], du, dv] = 1.0
        up = np.pad(upsample(x), ((0, 0), (1, 1), (1, 1), (0, 0)))
        np.testing.assert_array_equal(upconv(x, w, np.zeros(2)), up[:, du : du + 6, dv : dv + 8])


class TestTwoPartConv:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_byte_equal_to_concatenation(self, monkeypatch, k, dtype):
        # the backward of an input taped in parts of 3 and 5 channels: one
        # d_weight product per part and d_input in per-part views, the bytes
        # of the concatenation's backward
        rng = np.random.default_rng(k)
        a = rng.normal(size=(5, 6, 7, 3)).astype(dtype)
        s = rng.normal(size=(5, 6, 7, 5)).astype(dtype)
        w = rng.normal(size=(4, 8, k, k)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        g = rng.normal(size=(5, 6, 7, 4)).astype(dtype)
        xc = np.concatenate([a, s], axis=-1)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(g, k))
        (da, ds), dw, db = _conv_backward((a, s), w, g, k // 2, True)
        rdx, rdw, rdb = _conv_backward(xc, w, g, k // 2, True)
        assert da.shape == a.shape and ds.shape == s.shape
        assert da.tobytes() == rdx[..., :3].tobytes()
        assert ds.tobytes() == rdx[..., 3:].tobytes()
        assert dw.tobytes() == rdw.tobytes() and db.tobytes() == rdb.tobytes()


class TestJoin:
    @pytest.mark.parametrize("f, wl", [(4, 4), (4, 3), (16, 3)],
                             ids=["paired", "paired-odd-phases", "unpaired"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_valid_conv_is_the_concatenations_same_conv(self, monkeypatch, f, wl, dtype):
        # a decoder conv1's input: the up path interleaved from the up-conv
        # phases and the skip, written into one zero-bordered buffer.  A
        # valid conv of it gives the bytes of the same-padded conv of the
        # two parts' concatenation, both over 2-image blocks of 5 images,
        # the last partial.  The joined width 2 * wl is even, so with 4
        # features both lowerings pair pixels; with 16 they do not.
        rng = np.random.default_rng(3 + f + wl)
        x = rng.normal(size=(5, 3, wl, 6)).astype(dtype)  # the up-conv's input
        wu = rng.normal(size=(f, 6, 3, 3)).astype(dtype)
        y4 = unet._upconv_phases(x, wu, rng.normal(size=f).astype(dtype), True)
        skip = rng.normal(size=(5, 6, 2 * wl, f)).astype(dtype)
        w1 = rng.normal(size=(f, 2 * f, 3, 3)).astype(dtype)
        b1 = rng.normal(size=f).astype(dtype)
        up = unet._depth_to_space(y4, np.empty(skip.shape, dtype))
        xc = np.concatenate([up, skip], axis=-1)
        px = 2 if f < 16 else 1
        assert unet._pixels_per_row(2 * wl, f) == px
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(xc, 3, px))
        xp, yu = unet._join(y4, skip)
        assert yu.tobytes() == up.tobytes() and np.shares_memory(yu, xp)
        blocks = spy_blocks(monkeypatch)
        y = unet._conv_forward(xp, w1, b1, 0, relu=True)
        ref = unet._conv_forward(xc, w1, b1, 1, relu=True)
        assert blocks == [3] * 2
        assert y.dtype == dtype and y.tobytes() == ref.tobytes()


class TestOnePatchMatrix:
    """A convolution backward lowers only its output gradient to patches."""

    @staticmethod
    def spy_lowerings(monkeypatch):
        lowered = []
        honest = unet._im2col_blocks

        def spy(x, k, pad, *args, **kwargs):
            lowered.append(x)
            return honest(x, k, pad, *args, **kwargs)

        monkeypatch.setattr(unet, "_im2col_blocks", spy)
        return lowered

    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("two_parts", [False, True], ids=["plain", "two-part"])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_conv_backward_lowers_the_gradient_once(self, monkeypatch, k, two_parts, need_dx):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(3, 6, 5, 3))
        s = rng.normal(size=(3, 6, 5, 4))
        x = (a, s) if two_parts else np.concatenate([a, s], axis=-1)
        w = rng.normal(size=(2, 7, k, k))
        g = rng.normal(size=(3, 6, 5, 2))
        lowered = self.spy_lowerings(monkeypatch)
        _conv_backward(x, w, g, k // 2, need_dx)
        assert len(lowered) == 1 and lowered[0] is g

    @pytest.mark.parametrize("need_dx", [True, False])
    def test_upconv_backward_lowers_the_phase_gradient_once(self, monkeypatch, need_dx):
        # the phase layout of the gradient, at the (H+1) x (W+1) positions
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 4, 3, 6))
        w = rng.normal(size=(3, 6, 3, 3))
        g = rng.normal(size=(2, 8, 6, 3))
        lowered = self.spy_lowerings(monkeypatch)
        unet._upconv_backward(x, w, g, need_dx)
        assert len(lowered) == 1 and lowered[0].shape == (2, 5, 4, 12)


def pair_im2col(x, k):
    """Patch rows of two horizontally adjacent output pixels each, straight
    from a (k, k+1) sliding window at every other column: (du, dv, c) rows
    over the k x (k+1) window of a same-padded conv."""
    pad = k // 2
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (k, k + 1), axis=(1, 2))[:, :, ::2]  # (N,H,W/2,C,k,k+1)
    n, h, w2, c = win.shape[:4]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n * h * w2, k * (k + 1) * c)


class TestPixelPairs:
    """A convolution whose GEMM would be narrower than 16 columns lowers two
    adjacent pixels per patch row when the width is even."""

    @pytest.mark.parametrize("valid", [False, True], ids=["plain", "valid"])
    @pytest.mark.parametrize("k", [3, 5, 7])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_sliding_window_pair_layout(self, monkeypatch, k, valid, dtype):
        # 2-image blocks over 5 images, the last one partial; every block
        # keeps its column of ones after the window rows.  "valid" lowers
        # the zero-bordered input with no padding, as a decoder conv1 runs
        # on _join's buffer.
        x = np.random.default_rng(k).normal(size=(5, 6, 8, 7)).astype(dtype)
        want = pair_im2col(x, k)
        monkeypatch.setattr(unet, "_BLOCK_BYTES", 2 * image_bytes(x, k, 2))
        xin, pad = (zero_border(x, k // 2), 0) if valid else (x, k // 2)
        blocks, end = [], 0
        for rows, cols in _im2col_blocks(xin, k, pad, 2, ones=True):
            assert rows.start == end and cols.shape == (rows.stop - end, want.shape[1] + 1)
            assert (cols[:, -1] == 1).all()
            assert cols[:, :-1].tobytes() == want[rows].tobytes()
            blocks.append(cols.shape[0])
            end = rows.stop
        assert blocks == [48, 48, 24] and end == len(want)

    @pytest.mark.parametrize("shape, c, f, k, split, need_dx, pxs", [
        ((3, 6, 8), 6, 4, 3, 0, True, (2, 2)),
        ((3, 5, 6), 6, 4, 5, 0, True, (2, 2)),
        ((2, 7, 8), 5, 3, 7, 0, True, (2, 2)),
        ((3, 6, 8), 7, 4, 3, 3, True, (2, 2)),
        ((3, 6, 8), 6, 4, 3, 0, False, (2, 2)),
        ((3, 6, 8), 18, 8, 3, 8, True, (2, 1)),
        ((3, 6, 8), 9, 20, 3, 0, False, (1, 2)),
        ((3, 6, 7), 6, 4, 3, 0, True, (1, 1)),
        ((3, 6, 8), 16, 16, 3, 0, True, (1, 1)),
    ], ids=["k3", "k5", "k7", "two-part", "no-dx", "wide-input", "wide-features",
            "odd-width", "wide-both"])
    def test_matches_whole_matrix_reference(self, monkeypatch, shape, c, f, k, split,
                                            need_dx, pxs):
        # float64 at 1e-12 of each array's largest value against single
        # whole-batch GEMMs; pxs is the pixels per row of the forward's
        # lowering (of x, F columns) and the backward's (of g, C columns).
        # With a split the backward takes x in two parts, as a decoder
        # conv1's are taped.
        rng = np.random.default_rng(k + c)
        x = rng.normal(size=shape + (c,))
        w = rng.normal(size=(f, c, k, k))
        b = rng.normal(size=f)
        g = rng.normal(size=shape + (f,))
        xin = (x[..., :split].copy(), x[..., split:].copy()) if split else x
        seen = []
        honest = unet._im2col_blocks

        def spy(x, k, pad, px, ones=False):
            seen.append(px)
            return honest(x, k, pad, px, ones)

        monkeypatch.setattr(unet, "_im2col_blocks", spy)
        y = unet._conv_forward(x, w, b, k // 2, relu=False)
        dx, dw, db = _conv_backward(xin, w, g, k // 2, need_dx)
        assert tuple(seen) == pxs
        ry, rdx, rdw = whole_conv(x, w, b, g)
        got = [(y, ry), (dw, rdw), (db, g.sum(axis=(0, 1, 2)))]
        if need_dx:
            got.append((np.concatenate(dx, axis=-1) if split else dx, rdx))
        else:
            assert dx is None
        for a, ref in got:
            assert a.shape == ref.shape
            np.testing.assert_allclose(a, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @staticmethod
    def by_layer(mp, params, outer, inner, record):
        """Spy on ``outer`` (a conv forward or backward) to learn which
        layer runs, by its weights' name ("phase" for an up-conv's phase
        kernel), and on ``inner``, whose calls within it ``record(args,
        kwargs)`` describes.  Returns layer name -> set of descriptions."""
        names = {id(a): n[: -len(".w")] for n, a in params.arrays.items()}
        seen, current = {}, []
        honest_outer, honest_inner = getattr(unet, outer), getattr(*inner)

        def outer_spy(x, w, *args, **kwargs):
            current.append(names.get(id(w), "phase"))
            try:
                return honest_outer(x, w, *args, **kwargs)
            finally:
                current.pop()

        def inner_spy(*args, **kwargs):
            if current:
                seen.setdefault(current[-1], set()).add(record(args, kwargs))
            return honest_inner(*args, **kwargs)

        mp.setattr(unet, outer, outer_spy)
        mp.setattr(*inner, inner_spy)
        return seen

    def test_desk_level0_runs_16_wide_and_full_scale_keeps_its_gemms(self):
        # the columns of every forward GEMM: 2F at desk's four 8-feature
        # convolutions and at the one-plane head of both specs, F
        # elsewhere; no up-conv's 4F phase GEMM pairs
        x = np.random.default_rng(0).normal(size=(2, 28, 28, 9)).astype(np.float32)
        head = {"head.urban"}
        level0 = {"enc0.conv1", "enc0.conv2", "dec.urban.0.conv1", "dec.urban.0.conv2"}
        for spec, paired in ((UNetSpec.desk(), level0 | head), (UNetSpec.full_scale(), head)):
            params = init_params(spec, 0)
            shapes = expected_shapes(spec)
            with pytest.MonkeyPatch.context() as mp:
                widths = self.by_layer(mp, params, "_conv_forward", (np, "matmul"),
                                       lambda args, kwargs: args[1].shape[1])
                _forward(params, x)
            phase = widths.pop("phase")
            assert widths == {n[:-2]: {(1 + (n[:-2] in paired)) * shape[0]}
                              for n, shape in shapes.items()
                              if n.endswith(".w") and ".up." not in n}
            assert min(phase) == 4 * spec.base_features

    def test_desk_backward_pairs_the_narrow_inputs(self):
        # the output gradient's lowering pairs where the input gradient's
        # GEMM has fewer than 16 columns: level 0 but dec0.conv1, whose
        # input is 16 wide, enc1.conv1 and the head
        params = init_params(UNetSpec.desk(), 0)
        with pytest.MonkeyPatch.context() as mp:
            pixels = self.by_layer(mp, params, "_conv_backward", (unet, "_im2col_blocks"),
                                   lambda args, kwargs: args[3])
            loss_and_grads(params, *random_batch(np.random.default_rng(0), s=28, cin=9))
        assert {n for n, px in pixels.items() if px == {2}} == {
            "enc0.conv1", "enc0.conv2", "dec.urban.0.conv2", "enc1.conv1", "head.urban"}
        assert set().union(*pixels.values()) == {1, 2}


class TestTapSums:
    def test_no_phase_tap_is_a_structural_zero(self):
        m = unet._TAP_SUMS
        assert m.shape == (2, 2, 2, 2, 3, 3) and m.dtype == np.float64
        # every stored tap lands on exactly one tap of each phase
        np.testing.assert_array_equal(m.sum(axis=(2, 3)), np.ones((2, 2, 3, 3)))
        # and every phase tap sums at least one stored tap
        assert m.reshape(16, 9).any(axis=1).all()

    def test_read_only(self):
        with pytest.raises(ValueError):
            unet._TAP_SUMS[0, 0, 0, 0, 0, 0] = 2.0


class TestRandomShapes:
    @given(
        st.tuples(st.integers(1, 4), st.integers(1, 7), st.integers(1, 7)),
        st.integers(1, 6),
        st.integers(0, 6),
        st.integers(1, 4),
        st.sampled_from([1, 3, 5, 7]),
        st.integers(1, 1 << 14),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_blocked_matches_whole_matrix(self, nhw, c, split, f, k, block_bytes, seed):
        # float64 at 1e-12 of each array's largest value, for random block
        # sizes; the backward takes the input split in two parts where
        # 0 < split < c.  The 3x3 up-conv of the same input matches
        # upsample-then-conv.
        n, h, w = nhw
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, h, w, c))
        wt = rng.normal(size=(f, c, k, k))
        wu = rng.normal(size=(f, c, 3, 3))
        b = rng.normal(size=f)
        g = rng.normal(size=(n, h, w, f))
        gu = rng.normal(size=(n, 2 * h, 2 * w, f))
        xin = (x[..., :split].copy(), x[..., split:].copy()) if 0 < split < c else x
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unet, "_BLOCK_BYTES", block_bytes)
            y = unet._conv_forward(x, wt, b, k // 2, relu=False)
            dx, dw, db = _conv_backward(xin, wt, g, k // 2, True)
            yu = upconv(x, wu, b)
            dxu, dwu, dbu = unet._upconv_backward(x, wu, gu, True)
        if isinstance(dx, tuple):
            dx = np.concatenate(dx, axis=-1)
        ry, rdx, rdw = whole_conv(x, wt, b, g)
        ryu, rdxu, rdwu = whole_conv(upsample(x), wu, b, gu)
        rdxu = rdxu.reshape(n, h, 2, w, 2, c).sum(axis=(2, 4))
        for got, ref in ((y, ry), (dx, rdx), (dw, rdw), (db, g.sum(axis=(0, 1, 2))),
                         (yu, ryu), (dxu, rdxu), (dwu, rdwu), (dbu, gu.sum(axis=(0, 1, 2)))):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class TestFloat32Tolerance:
    @pytest.mark.parametrize("depth", [1, 2, 3], ids=["1-3", "2-3", "3-3"])  # depth-kernel
    def test_float32_step_tracks_float64(self, depth):
        # the tolerance that bounds any change of float32 summation order:
        # on a batch clear of every ReLU kink and pooling tie, a float32
        # step's loss and gradients match the float64 step from the same
        # rounded parameters and inputs (measured: <= 1.4e-8 and 2.1e-6)
        spec = UNetSpec(3, 2, depth, heads=("urban", "pop"))
        p64 = init_params(spec, 1, dtype=np.float64)
        rng = np.random.default_rng(1)
        for name, arr in p64.arrays.items():
            if name.endswith(".b"):
                p64.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape)
        while True:  # the first batch 5e-4 clear of every kink and contested tie
            m = (rng.random((2, 8, 8)) < 0.8).astype(np.float64)
            for k in range(2):
                if not m[k].any():
                    m[k, 4, 4] = 1.0
            x = rng.normal(size=(2, 8, 8, 3))
            y = rng.normal(size=(2, 8, 8, 2))
            if min(reference_forward(p64, x)[1]) > 5e-4:
                break
        p32 = UNetParams(spec, {n: a.astype(np.float32) for n, a in p64.arrays.items()})
        p64 = UNetParams(spec, {n: a.astype(np.float64) for n, a in p32.arrays.items()})
        x = x.astype(np.float32)
        l32, g32 = loss_and_grads(p32, x, y, m)
        l64, g64 = loss_and_grads(p64, x.astype(np.float64), y, m)
        assert l32 == pytest.approx(l64, rel=1e-7)
        for name, ref in g64.items():
            assert g32[name].dtype == np.float32
            np.testing.assert_allclose(g32[name], ref, rtol=0, atol=1e-5 * np.abs(ref).max(),
                                       err_msg=name)

    @pytest.mark.parametrize("size", [16, 22, 28])
    def test_block_size_keeps_loss_and_bounds_gradients(self, monkeypatch, size):
        # a desk training step's loss keeps its bytes when _BLOCK_BYTES is
        # halved, doubled or quadrupled; the gradients, summed block by
        # block, stay within the tolerance above (measured: <= 1.4e-6)
        params = init_params(UNetSpec.desk(), size)
        rng = np.random.default_rng(size)
        for name, arr in params.arrays.items():
            if name.endswith(".b"):
                params.arrays[name] = rng.normal(0.0, 0.2, size=arr.shape).astype(arr.dtype)
        x = rng.normal(size=(64, size, size, 9)).astype(np.float32)
        y = rng.normal(size=(64, size, size, 1))
        m = (rng.random((64, size, size)) < 0.8).astype(np.float64)
        loss, grads = loss_and_grads(params, x, y, m)
        for scale in (0.5, 2, 4):
            monkeypatch.setattr(unet, "_BLOCK_BYTES", int(unet._BLOCK_BYTES * scale))
            got, got_grads = loss_and_grads(params, x, y, m)
            monkeypatch.undo()
            assert got == loss, scale
            for name, ref in grads.items():
                np.testing.assert_allclose(got_grads[name], ref, rtol=0,
                                           atol=1e-5 * np.abs(ref).max(),
                                           err_msg=f"{name} at x{scale}")


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

    @pytest.mark.parametrize("subset, weights", [
        (lambda spec: set(head_names(spec, "pop")), None),
        (lambda spec: {n for n in expected_shapes(spec) if n.startswith("enc")}, None),
        (lambda spec: {n for n in expected_shapes(spec) if n.startswith("dec.pop.1.")},
         None),
        # the urban loss weight is zero and nothing of the urban branch is
        # trainable, but the encoder under it is
        (lambda spec: set(expected_shapes(spec)) - set(head_names(spec, "urban")),
         (0.0, 1.0)),
    ], ids=["pop-head", "encoder", "one-decoder-level", "all-but-urban-zero-weight"])
    def test_trainable_filter_matches_full_run(self, subset, weights):
        # every gradient a subset asks for is the byte-for-byte gradient of
        # the run that differentiates every layer
        spec = UNetSpec(3, 2, 2, heads=("urban", "pop"))
        params = init_params(spec, 3, dtype=np.float64)
        rng = np.random.default_rng(3)
        x, y, m = random_batch(rng, ct=2)
        w = None if weights is None else np.array(weights)
        _, full = loss_and_grads(params, x, y, m, channel_weights=w)
        subset = subset(spec)
        _, part = loss_and_grads(params, x, y, m, channel_weights=w, trainable=subset)
        assert set(part) == subset
        for name in subset:
            assert part[name].tobytes() == full[name].tobytes(), name

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_frozen_phase_runs_only_the_new_decoder(self, monkeypatch, depth):
        # phase 1 of multi-task training: only the task-2 decoder and head
        # are trainable, so no encoder or task-1 layer is differentiated
        spec = UNetSpec(3, 2, depth, heads=("urban", "pop"))
        params = init_params(spec, 5)
        names = {id(a): n for n, a in params.arrays.items()}
        seen = []
        honest = unet._conv_backward
        honest_phase = unet._phase_weight

        def phase_spy(w):
            # an up-conv differentiates its derived phase kernel: name it
            # after the parameter it came from
            wp = honest_phase(w)
            names[id(wp)] = names[id(w)]
            return wp

        def spy(x, w, g, pad, need_dx=True):
            seen.append(names[id(w)])
            return honest(x, w, g, pad, need_dx=need_dx)

        monkeypatch.setattr(unet, "_phase_weight", phase_spy)
        monkeypatch.setattr(unet, "_conv_backward", spy)
        x, y, m = random_batch(np.random.default_rng(5), ct=2)
        trainable = set(head_names(spec, "pop"))
        _, grads = loss_and_grads(params, x, y, m, channel_weights=np.array([0.0, 1.0]),
                                  trainable=trainable)
        assert set(grads) == trainable
        assert len(seen) == 1 + 3 * depth
        assert sorted(seen) == sorted(n for n in trainable if n.endswith(".w"))
        assert not [n for n in seen if n.startswith(("enc", "dec.urban."))]

    def test_frozen_phase_shortcut_is_exact(self):
        # encoder + task-1 decoder frozen, task-2 loss only: the skipped
        # branches must not change the gradients that are still computed
        spec = UNetSpec(3, 2, 1, heads=("urban", "pop"))
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
        dx, dw, db = _conv_backward(x, w, g, 1, True)
        none, dw2, db2 = _conv_backward(x, w, g, 1, need_dx=False)
        assert dx is not None and none is None
        assert dw2.tobytes() == dw.tobytes() and db2.tobytes() == db.tobytes()

    @pytest.mark.parametrize("frozen_encoder", [False, True])
    def test_skipped_input_gradients_change_nothing(self, monkeypatch, frozen_encoder):
        # the data gradient of enc0.conv1, and with a frozen encoder the
        # deepest up-conv's input gradient, are never computed: every
        # parameter gradient must equal the run that computes them all
        spec = UNetSpec(9, 4, 2, heads=("urban", "pop"))
        params = init_params(spec, 9)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 12, 12, 9)).astype(np.float32)
        g = rng.normal(size=(3, 12, 12, 2)).astype(np.float32)
        trainable = set(head_names(spec, "pop")) if frozen_encoder else None
        _, cache = _forward(params, x, keep_cache=True)
        got = _backward(params, cache, g, trainable)

        def always_dx(x, w, g, pad, need_dx=True):
            return _conv_backward(x, w, g, pad, True)

        monkeypatch.setattr(unet, "_conv_backward", always_dx)
        _, cache = _forward(params, x, keep_cache=True)
        want = _backward(params, cache, g, trainable)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("heads, size", [
        (("urban",), 12),
        (("urban",), 10),
        (("urban", "pop"), 12),
    ], ids=["one-head", "cropped", "two-heads"])
    def test_relu_gate_in_place_matches_out_of_place(self, heads, size):
        # the ReLU gate writes into gradients the backward owns; the
        # caller's g_out, read-only here, reaches only un-gated layers (the
        # head and the concatenation), through the crop's padding or not
        spec = UNetSpec(3, 2, 2, heads=heads)
        params = init_params(spec, 7)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, size, size, 3)).astype(np.float32)
        g = rng.normal(size=(3, size, size, len(spec.heads))).astype(np.float32)
        g.setflags(write=False)
        _, cache = _forward(params, x, keep_cache=True)
        got = _backward(params, cache, g, None)
        _, cache = _forward(params, x, keep_cache=True)
        want = out_of_place_backward(params, cache, g)
        assert sorted(got) == sorted(want) == sorted(params.arrays)
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


def out_of_place_backward(params, cache, g_out):
    """Every parameter's gradient by replaying the tape as ``_backward``
    does, except that each ReLU gate allocates ``g * (out > 0)`` and every
    input gradient is computed."""
    tape = cache["tape"]
    pt, pb, pl, pr = cache["pads"]
    pending = {id(tape[-1][3]): np.pad(g_out, ((0, 0), (pt, pb), (pl, pr), (0, 0)))}
    grads = {}
    for kind, name, inputs, out, relu in reversed(tape):
        g = pending.pop(id(out))
        if kind == "pool":
            g_in = [_pool_backward(g, inputs[0], out)]
        elif kind == "cat":
            g_in = np.split(g, np.cumsum([a.shape[-1] for a in inputs[:-1]]), axis=-1)
        else:
            if relu:
                g = g * (out > 0)
            w = params.arrays[f"{name}.w"]
            if kind == "conv":
                g_in, dw, db = _conv_backward(inputs, w, g, w.shape[-1] // 2, True)
            else:
                dx, dw, db = unet._upconv_backward(inputs[0], w, g, True)
                g_in = (dx,)
            grads[f"{name}.w"], grads[f"{name}.b"] = dw, db
        for a, ga in zip(inputs, g_in):
            pending[id(a)] = pending[id(a)] + ga if id(a) in pending else ga
    return grads


def first_max_routing(g, x):
    """Per-window reference of the pool backward: each window's gradient
    goes to the first pixel, in row-major order, equal to the window's
    maximum; every other pixel holds +0.0."""
    dx = np.zeros(x.shape, g.dtype)
    n, h, w, c = g.shape
    for k, i, j, ch in np.ndindex(n, h, w, c):
        pixels = [(2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)]
        values = [x[k, r, s, ch] for r, s in pixels]
        top = max(values)
        r, s = pixels[next(p for p, v in enumerate(values) if v == top)]
        dx[k, r, s, ch] = g[k, i, j, ch]
    return dx


class TestPoolBackward:
    @given(
        st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        st.sampled_from([np.float32, np.float64]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_first_max_reference(self, shape, dtype, data):
        # few distinct values: most windows tie, and +0.0 ties with -0.0
        n, h, w, c = shape
        values = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
        x = np.array(data.draw(st.lists(values, min_size=n * 4 * h * w * c,
                                        max_size=n * 4 * h * w * c)),
                     dtype).reshape(n, 2 * h, 2 * w, c)
        g = np.array(data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 3.0]),
                                        min_size=n * h * w * c, max_size=n * h * w * c)),
                     dtype).reshape(n, h, w, c)
        y = _pool_forward(x)
        np.testing.assert_array_equal(y, pool_windows(x).max(axis=-1))
        got = _pool_backward(g, x, y)
        assert got.dtype == dtype and got.shape == x.shape
        assert got.tobytes() == first_max_routing(g, x).tobytes()

    def test_gradient_is_a_fresh_array(self):
        # dx is never a view of g, x or y, so the ReLU gate of the layer
        # below may write it in place
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 6, 4, 3)).astype(np.float32)
        y = _pool_forward(x)
        g = rng.normal(size=y.shape).astype(np.float32)
        dx = _pool_backward(g, x, y)
        for a in (g, x, y):
            assert not np.shares_memory(dx, a)
        assert dx.flags.writeable and dx.flags.c_contiguous

    def test_backward_reads_only_the_tape(self):
        # the routing comes from the taped input and output: nothing else
        # of the pool is kept
        params = init_params(UNetSpec(3, 2, 2), 0)
        x = np.random.default_rng(0).normal(size=(2, 8, 8, 3)).astype(np.float32)
        _, cache = _forward(params, x, keep_cache=True)
        pools = [e for e in cache["tape"] if e[0] == "pool"]
        assert len(pools) == 2
        for _, name, inputs, out, extra in pools:
            assert name is None and extra is None and len(inputs) == 1
            assert out.tobytes() == _pool_forward(inputs[0]).tobytes()


def full_loss_and_grads(params, x, y, m, weights, trainable):
    """loss_and_grads with every head computed: the oracle of the skip."""
    pred, cache = _forward(params, x, keep_cache=True)
    loss, g = _masked_loss_grad(pred, y, m, weights)
    return loss, _backward(params, cache, g.astype(params.dtype), trainable)


def full_validation_loss(params, x, y, m, weights, batch_size):
    """trainer.evaluate_loss with every head computed."""
    total = 0.0
    for start in range(0, len(x), batch_size):
        sl = slice(start, start + batch_size)
        pred, _ = _forward(params, x[sl])
        total += _masked_loss_grad(pred, y[sl], m[sl], weights)[0] * len(x[sl])
    return total / len(x)


class ArrayTiles:
    """A tile stream over in-memory channel-last arrays."""

    def __init__(self, x, y, m):
        self.x, self.y, self.m = x, y, m

    def __len__(self):
        return len(self.x)

    def batch(self, idx):
        return self.x[idx], self.y[idx], self.m[idx]


class TestDeadHeads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("heads, live", [
        (("urban", "pop"), ("pop",)),
        (("urban", "pop", "third"), ("third",)),
        (("urban", "extra", "pop"), ("pop",)),
        (("urban", "pop", "extra"), ("pop", "extra")),
    ], ids=["two-heads", "three-heads", "two-channel-first", "two-channel-last"])
    def test_phase1_bytes_equal_full_forward(self, heads, live, depth, dtype):
        # the frozen phase skips every dead head: its loss, its gradients
        # and the validation loss are the bytes of the run that computes
        # every head.  Phase 1 trains and weights the live heads only; the
        # two-channel cases put a pair of dead planes first or a pair of
        # live planes last.
        spec = UNetSpec(9, 4, depth, heads=heads)
        params = init_params(spec, 11, dtype=dtype)
        rng = np.random.default_rng(depth)
        x, y, m = random_batch(rng, n=5, s=14, cin=9, ct=len(spec.heads))
        w = np.array([float(head in live) for head in heads])
        trainable = set().union(*(head_names(spec, head) for head in live))
        if live == heads[-1:]:
            assert trainable == trainer.phase1_trainable(spec)
        loss, grads = loss_and_grads(params, x, y, m, w, trainable)
        ref_loss, ref_grads = full_loss_and_grads(params, x, y, m, w, trainable)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert sorted(grads) == sorted(ref_grads) == sorted(trainable)
        for name in trainable:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        val = trainer.evaluate_loss(params, ArrayTiles(x, y, m), 2, w)
        ref_val = full_validation_loss(params, x, y, m, w, 2)
        assert np.float64(val).tobytes() == np.float64(ref_val).tobytes()

    def test_phase1_never_touches_the_dead_head(self, monkeypatch):
        # a spy on every forward convolution: the phase-1 step and the
        # phase-1 validation loss run no urban decoder or head layer
        spec = UNetSpec(3, 2, 2, heads=("urban", "pop"))
        params = init_params(spec, 5)
        names = {id(a): n for n, a in params.arrays.items()}
        seen = []
        honest = unet._conv_forward
        honest_phase = unet._phase_weight

        def phase_spy(w):
            seen.append(names[id(w)])
            wp = honest_phase(w)
            names[id(wp)] = names[id(w)]
            return wp

        def spy(x, w, b, pad, relu):
            seen.append(names[id(w)])
            return honest(x, w, b, pad, relu)

        monkeypatch.setattr(unet, "_phase_weight", phase_spy)
        monkeypatch.setattr(unet, "_conv_forward", spy)
        x, y, m = random_batch(np.random.default_rng(5), n=3, ct=2)
        w = np.array([0.0, 1.0])
        trainable = set(head_names(spec, "pop"))
        _, grads = loss_and_grads(params, x, y, m, w, trainable)
        assert set(grads) == trainable
        step = set(seen)
        seen.clear()
        trainer.evaluate_loss(params, ArrayTiles(x, y, m), 2, w)
        for run in (step, set(seen)):
            assert run, "the spy saw no layer"
            assert not [n for n in run if n.startswith(("dec.urban.", "head.urban."))]
            assert {n for n in run if n.startswith(("dec.pop.", "head.pop."))} == {
                n for n in trainable if n.endswith(".w")}
        # with every head weighted, both heads run again
        seen.clear()
        trainer.evaluate_loss(params, ArrayTiles(x, y, m), 2, None)
        assert "head.urban.w" in seen and "head.pop.w" in seen

    def test_dead_head_stays_when_its_gradient_is_asked(self):
        # a trainable parameter that feeds the zero-weighted head (an
        # encoder one, or its own) keeps it live, so those gradients are
        # the bytes of the full run
        spec = UNetSpec(3, 2, 2, heads=("urban", "pop"))
        w = np.array([0.0, 1.0])
        every = set(expected_shapes(spec))
        assert unet._live_heads(spec, w) == frozenset({"pop"})
        assert unet._live_heads(spec, w, set(head_names(spec, "pop"))) == frozenset({"pop"})
        assert unet._live_heads(spec, w, {"enc0.conv1.w"}) is None
        assert unet._live_heads(spec, w, {"head.urban.b"}) is None
        assert unet._live_heads(spec, None, set()) is None
        assert unet._live_heads(spec, w, None) is None  # every parameter trainable
        assert unet._live_heads(spec, np.zeros(2), set()) is None  # the loss refuses it
        params = init_params(spec, 6, dtype=np.float64)
        x, y, m = random_batch(np.random.default_rng(6), ct=2)
        for trainable in ({"enc1.conv2.w", "enc1.conv2.b"}, {"head.urban.w"}, every):
            _, got = loss_and_grads(params, x, y, m, w, trainable)
            _, ref = full_loss_and_grads(params, x, y, m, w, trainable)
            assert sorted(got) == sorted(ref)
            for name in ref:
                assert got[name].tobytes() == ref[name].tobytes(), name

    def test_weight_shape_checked_before_head_mapping(self):
        # a wrong-length weight vector is a shape error, not a silent map
        spec = UNetSpec(3, 2, 1, heads=("urban", "extra", "pop"))
        params = init_params(spec, 7, dtype=np.float64)
        x, y, m = random_batch(np.random.default_rng(7), ct=3)
        trainable = set(head_names(spec, "pop"))
        for bad in ([0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [[0.0, 0.0, 1.0]]):
            with pytest.raises(ShapeError, match=r"shape \(3,\)"):
                loss_and_grads(params, x, y, m, np.array(bad), trainable)
            with pytest.raises(ShapeError, match=r"shape \(3,\)"):
                trainer.evaluate_loss(params, ArrayTiles(x, y, m), 2, np.array(bad))
        with pytest.raises(DataError):  # all zero: every head dead
            loss_and_grads(params, x, y, m, np.zeros(3), trainable)

    def test_dead_head_reads_as_zeros(self):
        spec = UNetSpec(3, 2, 2, heads=("urban", "extra", "pop"))
        params = init_params(spec, 8)
        x = np.random.default_rng(8).normal(size=(2, 10, 10, 3)).astype(np.float32)
        full, _ = _forward(params, x)
        part, _ = _forward(params, x, heads=frozenset({"pop"}))
        assert part.shape == full.shape and part.dtype == full.dtype
        assert part[..., 2].tobytes() == full[..., 2].tobytes()
        assert not part[..., :2].any() and not np.signbit(part[..., :2]).any()


class TestGradCheck:
    # the verdict is the caller's; this is the CLI's default tolerance
    TOLERANCE = 1e-4

    def test_tiny_net_matches_finite_differences(self):
        report = grad_check(TINY, seed=0, tile_size=8)
        assert report.max_rel_err < self.TOLERANCE, report

    def test_default_spec_passes(self):
        # the depth-1, base-4 network on the nine standard input channels
        report = grad_check(UNetSpec(input_channels=9, base_features=4, depth=1), seed=1,
                            tile_size=8)
        assert report.max_rel_err < self.TOLERANCE, report
        assert report.n_checked >= 500

    def test_multi_head_gradients_check_out(self):
        spec = UNetSpec(3, 2, 1, heads=("urban", "pop"))
        report = grad_check(spec, seed=2, tile_size=8)
        assert report.max_rel_err < self.TOLERANCE, report

    def test_corrupted_gradient_detected(self, monkeypatch):
        honest = unet.loss_and_grads

        def corrupted(params, x, y, m):
            loss, grads = honest(params, x, y, m)
            grads["enc0.conv1.w"] = grads["enc0.conv1.w"] + 1e-2
            return loss, grads

        monkeypatch.setattr(unet, "loss_and_grads", corrupted)
        report = grad_check(TINY, seed=3, tile_size=8)
        assert report.max_rel_err > self.TOLERANCE
        assert report.worst_param == "enc0.conv1.w"

    @pytest.mark.parametrize("size", [12, 16, 28])
    def test_desk_network_checks_at_any_tile_size(self, size):
        # the network README trains: at 12 pixels no probe batch drawn for
        # it cleared every kink by 5e-4, so it could not be checked there
        report = grad_check(UNetSpec.desk(), seed=0, tile_size=size)
        assert report.max_rel_err < self.TOLERANCE, report
        assert report.n_checked == 500

    def test_probes_across_a_kink_are_refused(self, monkeypatch):
        # probes whose forwards run on different pieces prove nothing, and
        # a check left with no coordinate is a numeric failure
        flips = itertools.count()
        monkeypatch.setattr(unet, "_pattern", lambda cache: [np.array(next(flips))])
        with pytest.raises(NumericError, match="straddles"):
            grad_check(TINY, seed=0, tile_size=8)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        spec = UNetSpec(3, 2, 2, heads=("urban", "pop"))
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

    def test_missing_array_rejected(self, tmp_path, reseal):
        params = init_params(TINY, 12)
        path = tmp_path / "model.unpk"
        save_params(params, path)

        def drop_last(header, arrays):
            # the head bias is the last array: strip its entry and its bytes
            assert header["arrays"].pop()[0] == "head.urban.b"
            arrays.pop()

        reseal(path, drop_last)
        with pytest.raises(IntegrityError, match="missing"):
            load_params(path)

    def test_non_finite_value_rejected_on_load(self, tmp_path, reseal):
        params = init_params(TINY, 14)
        path = tmp_path / "model.unpk"
        save_params(params, path)

        def poke(header, arrays):
            arrays[-1][-1] = np.nan  # last value of head.urban.b

        reseal(path, poke)
        with pytest.raises(IntegrityError, match="non-finite"):
            load_params(path)

    def test_huge_depth_refused_before_names_are_built(self, tmp_path, reseal, monkeypatch):
        # a valid header CRC is easy to forge; the parameter map of a depth
        # 65,535 spec would take far longer to build than the file to read
        path = tmp_path / "model.unpk"
        save_params(init_params(TINY, 17), path)
        reseal(path, lambda header, arrays: header["meta"]["spec"].update(depth=0xFFFF))

        def no_names(spec):
            raise AssertionError("built the parameter names of a forged spec")

        monkeypatch.setattr(unet, "expected_shapes", no_names)
        with pytest.raises(IntegrityError, match="missing arrays: the spec needs") as exc:
            load_params(path)
        assert str(path) in str(exc.value)

    def test_extra_array_refused_before_any_read(self, tmp_path, reseal, monkeypatch):
        # the header's array count is checked before any array is read
        path = tmp_path / "model.unpk"
        save_params(init_params(TINY, 18), path)

        def add_one(header, arrays):
            header["arrays"].append(["extra.w", "<f4", [3], 0])
            arrays.append(np.zeros(3, "<f4"))

        reseal(path, add_one)
        reads = []
        honest = files.Container.read

        def spy(self, name):
            reads.append(name)
            return honest(self, name)

        monkeypatch.setattr(files.Container, "read", spy)
        with pytest.raises(IntegrityError, match="extra arrays: the spec needs"):
            load_params(path)
        assert reads == []

    def test_flipped_value_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "model.unpk"
        save_params(init_params(TINY, 14), path)
        raw = bytearray(path.read_bytes())
        raw[-64] ^= 0x80  # inside head.urban.b, the last array
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError, match="'head.urban.b' fails its checksum"):
            load_params(path)

    def test_version_1_file_refused(self, tmp_path):
        path = tmp_path / "model.unpk"
        path.write_bytes(b"UNPK" + struct.pack("<HHHHHH", 1, 3, 2, 1, 3, 1)
                         + b"\x05urban" + struct.pack("<H", 1))
        with pytest.raises(FormatError, match="unsupported version 1, expected 2"):
            load_params(path)

    def test_wrong_shape_refused_on_save(self, tmp_path):
        params = init_params(TINY, 13)
        params.arrays["head.urban.w"] = np.zeros((2, 2, 1, 1), np.float32)
        with pytest.raises(IntegrityError):
            save_params(params, tmp_path / "model.unpk")

    @pytest.mark.parametrize("where", ["head-name", "array-name"])
    def test_non_ascii_name_is_format_error(self, tmp_path, reseal, where):
        path = tmp_path / "model.unpk"
        save_params(init_params(TINY, 15), path)

        def rename(header, arrays):
            if where == "head-name":
                header["meta"]["spec"]["heads"][0][0] = "\u00e9rban"
            else:
                header["arrays"][0][0] = "\u00e9nc0.conv1.w"

        reseal(path, rename)
        with pytest.raises(FormatError, match="not ASCII") as exc:
            load_params(path)
        assert str(path) in str(exc.value)

    def test_heads_written_as_one_plane_pairs(self, tmp_path):
        # the bytes of every checkpoint written before heads lost their width
        path = tmp_path / "model.unpk"
        save_params(init_params(TINY, 0), path)
        assert b'"heads":[["urban",1]]' in path.read_bytes()
        assert b'"depth":1,"kernel_size":3,"heads"' in path.read_bytes()  # the v2 spec block
        save_params(init_params(UNetSpec(3, 2, 1, heads=("urban", "pop")), 0), path)
        assert b'"heads":[["urban",1],["pop",1]]' in path.read_bytes()

    @pytest.mark.parametrize("field, value", [("depth", 0), ("kernel_size", 2)],
                             ids=["depth-0", "even-kernel"])
    def test_corrupt_spec_block_is_integrity_error(self, tmp_path, reseal, field, value):
        path = tmp_path / "model.unpk"
        save_params(init_params(TINY, 16), path)
        reseal(path, lambda header, arrays: header["meta"]["spec"].update({field: value}))
        with pytest.raises(IntegrityError, match="spec block") as exc:
            load_params(path)
        assert str(path) in str(exc.value)