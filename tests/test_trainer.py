"""Training loop: convergence, early stopping, determinism, multi-task freeze."""

import math

import numpy as np
import pytest

from urbanet.augment import AugmentedTiles
from urbanet.errors import ConfigError, DataError, DivergenceError, SpecError
from urbanet.grid import assign_split, normalize_channels, pad_grid
from urbanet.synth import INPUT_CHANNELS, TARGET_POP, TARGET_URBAN, SynthConfig, gen_world
from urbanet.tiler import TileDataset, WindowSpec
from urbanet.trainer import (
    MultiTaskSchedule,
    Subset,
    TrainConfig,
    build_multitask,
    build_streams,
    choose_validation_regions,
    config_from_pairs,
    epoch_size,
    evaluate_loss,
    load_config,
    phase1_trainable,
    save_config,
    save_history,
    train,
    train_multitask,
)
from urbanet.unet import UNetSpec, _forward, expected_shapes, init_params, loss_and_grads

TINY = UNetSpec(input_channels=9, base_features=4, depth=1)
PAD = 8


def phase1_frozen(spec):
    """Every parameter that phase 1 must leave alone."""
    return set(expected_shapes(spec)) - phase1_trainable(spec)


def n_parameters(params):
    return sum(a.size for a in params.arrays.values())


@pytest.fixture(scope="module")
def world_setup():
    world = gen_world(SynthConfig(seed=3, height=32, width=32, land_fraction=0.7,
                                  n_regions=9, noise_std=0.005))
    padded = pad_grid(world, PAD)
    split = assign_split(padded, ["R03"])
    norm, _ = normalize_channels(padded, fit_mask=split.train_mask,
                                 channels=INPUT_CHANNELS)
    return world, norm, split


@pytest.fixture(scope="module")
def streams(world_setup):
    _, norm, split = world_setup
    return build_streams(
        norm, WindowSpec(8), pad=PAD, input_names=INPUT_CHANNELS,
        target_names=(TARGET_URBAN,), split=split, seed=0,
    )


@pytest.fixture(scope="module")
def mt_streams(world_setup):
    _, norm, split = world_setup
    return build_streams(
        norm, WindowSpec(8), pad=PAD, input_names=INPUT_CHANNELS,
        target_names=(TARGET_URBAN, TARGET_POP), split=split, seed=0,
    )


def quick_config(**over):
    base = dict(max_epochs=2, batch_size=32, seed=0)
    base.update(over)
    return TrainConfig(**base)


class TestConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(learning_rate=-1e-3),
            dict(max_epochs=0),
            dict(patience=0),
            dict(min_delta=-1.0),
            dict(samples_per_epoch=0),
            dict(seed=-1),  # numpy's generators refuse it, but only mid-run
            # NaN fails every comparison, so a "< 0" test lets it through;
            # a NaN min_delta would early-stop after `patience` epochs
            dict(learning_rate=math.nan),
            dict(learning_rate=math.inf),
            dict(min_delta=math.nan),
            dict(min_delta=math.inf),
            dict(min_delta=-math.inf),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_file_round_trip(self, tmp_path):
        cfg = TrainConfig(batch_size=16, learning_rate=5e-4, max_epochs=7, patience=3,
                          min_delta=0.25, seed=9, samples_per_epoch=123)
        save_config(cfg, tmp_path / "train.cfg")
        assert load_config(tmp_path / "train.cfg") == cfg

    def test_none_samples_round_trip(self, tmp_path):
        save_config(TrainConfig(), tmp_path / "train.cfg")
        assert load_config(tmp_path / "train.cfg") == TrainConfig()

    def test_comments_and_blank_lines(self, tmp_path):
        (tmp_path / "train.cfg").write_text(
            "# training setup\n\nbatch_size=16  # small\nlearning_rate=0.01\n"
        )
        cfg = load_config(tmp_path / "train.cfg")
        assert cfg.batch_size == 16
        assert cfg.learning_rate == 0.01

    @pytest.mark.parametrize("body, line, says", [
        (b"# tuned\nbatch_size=16\nwarmup=5\n", 3, "unknown training option 'warmup'"),
        (b"seed=1\nlearning_rate=nan\n", 2, "learning_rate must be finite"),
        (b"batch_size\n", 1, "expected key=value"),
        (b"seed=1\n\xff\n", 2, "not a text config"),
    ], ids=["unknown-key", "non-finite", "no-equals", "binary"])
    def test_file_errors_name_the_file_and_line(self, tmp_path, body, line, says):
        path = tmp_path / "train.cfg"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match=says) as exc:
            load_config(path)
        assert str(exc.value).startswith(f"{path}, line {line}: ")

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            config_from_pairs([("warmup", "5")], TrainConfig())

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            config_from_pairs([("batch_size", "lots")], TrainConfig())


class TestValidationRegions:
    def test_deterministic_subset(self):
        codes = range(1, 11)
        a = choose_validation_regions(codes, seed=5)
        b = choose_validation_regions(codes, seed=5)
        assert a == b
        assert len(a) == 1
        assert a < set(codes)

    def test_seed_changes_choice(self):
        codes = range(1, 21)
        picks = {frozenset(choose_validation_regions(codes, seed=s)) for s in range(8)}
        assert len(picks) > 1

    def test_never_all_regions(self):
        assert len(choose_validation_regions([1, 2], seed=0)) == 1

    def test_single_region_rejected(self):
        with pytest.raises(DataError):
            choose_validation_regions([4], seed=0)


class TestStreams:
    def test_partition_and_augmented_size(self, world_setup, streams):
        _, norm, split = world_setup
        train_stream, val_stream, val_regions = streams
        base = TileDataset(norm, WindowSpec(8), pad=PAD, input_names=INPUT_CHANNELS,
                           target_names=(TARGET_URBAN,), split=split,
                           split_filter="train")
        n_val = int(np.isin(base.regions, sorted(val_regions)).sum())
        assert len(val_stream) == n_val
        assert len(train_stream) == 6 * (len(base) - n_val)
        assert epoch_size(train_stream) == len(base) - n_val

    def test_val_stream_is_unaugmented(self, world_setup, streams):
        _, norm, split = world_setup
        train_stream, val_stream, val_regions = streams
        base = TileDataset(norm, WindowSpec(8), pad=PAD, input_names=INPUT_CHANNELS,
                           target_names=(TARGET_URBAN,), split=split,
                           split_filter="train")
        want_idx = np.flatnonzero(np.isin(base.regions, sorted(val_regions)))
        x, y, m = val_stream.batch(np.arange(min(4, len(val_stream))))
        wx, wy, wm = base.batch(want_idx[: min(4, len(val_stream))])
        assert np.array_equal(x, wx) and np.array_equal(y, wy) and np.array_equal(m, wm)


    def test_train_stream_is_six_passes_over_the_kept_tiles(self, world_setup, streams):
        # the reference is the stored index the stream replaced: pass t of
        # the augmented base tiles at every tile outside the validation regions
        _, norm, split = world_setup
        train_stream, _, val_regions = streams
        base = TileDataset(norm, WindowSpec(8), pad=PAD, input_names=INPUT_CHANNELS,
                           target_names=(TARGET_URBAN,), split=split,
                           split_filter="train")
        keep = np.flatnonzero(~np.isin(base.regions, sorted(val_regions)))
        ks = (np.arange(6)[:, None] * len(base) + keep[None, :]).ravel()
        reference = Subset(AugmentedTiles(base, np.arange(len(base))), ks)
        idx = np.random.default_rng(0).permutation(len(ks))
        for got, want in zip(train_stream.batch(idx), reference.batch(idx)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTrain:
    def test_zero_learning_rate_leaves_params(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=1)
        model, hist = train(params, train_stream, val_stream,
                            quick_config(learning_rate=0.0))
        assert len(hist.rows) == 2
        for name, arr in params.arrays.items():
            assert np.array_equal(model.arrays[name], arr)

    def test_input_params_never_mutated(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=1)
        before = {k: v.copy() for k, v in params.arrays.items()}
        train(params, train_stream, val_stream, quick_config())
        for name, arr in params.arrays.items():
            assert np.array_equal(arr, before[name])

    def test_deterministic_history(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=1)
        _, h1 = train(params, train_stream, val_stream, quick_config(max_epochs=3))
        _, h2 = train(params, train_stream, val_stream, quick_config(max_epochs=3))
        assert [(r.epoch, r.train_loss, r.val_loss) for r in h1.rows] == [
            (r.epoch, r.train_loss, r.val_loss) for r in h2.rows
        ]
        assert h1.best_epoch == h2.best_epoch

    def test_shuffle_only_permutes_pairs(self, streams):
        # frozen model: epoch loss must not depend on the sample order
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=1)
        losses = []
        for seed in (0, 1):
            _, h = train(params, train_stream, val_stream,
                         quick_config(max_epochs=1, learning_rate=0.0, seed=seed))
            losses.append(h.rows[0].train_loss)
        assert losses[0] == pytest.approx(losses[1], rel=1e-5)

    def test_validation_loss_improves_on_zero_baseline(self, world_setup):
        _, norm, split = world_setup
        train_stream, val_stream, _ = build_streams(
            norm, WindowSpec(12), pad=PAD, input_names=INPUT_CHANNELS,
            target_names=(TARGET_URBAN,), split=split, seed=0,
        )
        spec = UNetSpec(input_channels=9, base_features=8, depth=1)
        params = init_params(spec, seed=0)
        cfg = TrainConfig(max_epochs=100, batch_size=64, seed=0,
                          samples_per_epoch=epoch_size(train_stream))
        model, hist = train(params, train_stream, val_stream, cfg)
        zero = init_params(spec, seed=0)
        for name in zero.arrays:
            zero.arrays[name] = np.zeros_like(zero.arrays[name])
        zero_loss = evaluate_loss(zero, val_stream, cfg.batch_size, None)
        assert hist.best_val_loss < 0.01 * zero_loss

    def test_best_epoch_restoration(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=2)
        model, hist = train(params, train_stream, val_stream,
                            quick_config(max_epochs=4, batch_size=64))
        assert evaluate_loss(model, val_stream, 64, None) == hist.best_val_loss
        assert hist.best_epoch == min(
            (r.val_loss, r.epoch) for r in hist.rows
        )[1]

    def test_early_stopping_on_patience(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=1)
        # a huge min_delta means only the first epoch (from +inf) counts as
        # improvement, so patience runs out exactly patience epochs later
        cfg = quick_config(max_epochs=50, patience=3, min_delta=1e9)
        _, hist = train(params, train_stream, val_stream, cfg)
        assert len(hist.rows) == 4
        assert hist.rows[-1].epoch == 4

    def test_single_sgd_step_decreases_batch_loss(self, streams):
        train_stream, _, _ = streams
        params = init_params(TINY, seed=4)
        x, y, m = train_stream.batch(np.arange(32))
        loss0, grads = loss_and_grads(params, x, y, m)
        lr = 0.1
        for _ in range(12):  # halve until the step is small enough
            trial = params.copy()
            for name, g in grads.items():
                trial.arrays[name] -= lr * g
            loss1, _ = loss_and_grads(trial, x, y, m)
            if loss1 < loss0:
                break
            lr /= 2
        else:
            pytest.fail("no learning rate in the halving sweep decreased the loss")

    def test_divergence_raises_with_epoch(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                train(params, train_stream, val_stream,
                      quick_config(max_epochs=5, learning_rate=1e30))
        assert exc.value.epoch >= 1
        assert str(exc.value).startswith(f"epoch {exc.value.epoch}: ")

    def test_empty_streams_rejected(self, streams):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=0)
        empty = Subset(train_stream, [])
        with pytest.raises(DataError):
            train(params, empty, val_stream, quick_config())
        with pytest.raises(DataError):
            train(params, train_stream, empty, quick_config())

    def test_history_csv(self, streams, tmp_path):
        train_stream, val_stream, _ = streams
        params = init_params(TINY, seed=0)
        _, hist = train(params, train_stream, val_stream, quick_config())
        save_history(hist, tmp_path / "history.csv")
        lines = (tmp_path / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,phase,train_loss,val_loss,seconds"
        assert len(lines) == 1 + len(hist.rows)
        assert lines[1].startswith("1,train,")


class TestMultiTask:
    def test_schedule_requires_smaller_phase2_rate(self):
        with pytest.raises(ConfigError):
            MultiTaskSchedule(phase1=TrainConfig(learning_rate=1e-3),
                              phase2=TrainConfig(learning_rate=1e-3))

    def test_build_copies_shared_weights(self, streams):
        train_stream, _, _ = streams
        pre = init_params(TINY, seed=7)
        multi = build_multitask(pre, head="pop", seed=1)
        x, _, _ = train_stream.batch(np.arange(8))
        out_single, _ = _forward(pre, x)
        out_multi, _ = _forward(multi, x)
        assert np.array_equal(out_multi[..., :1], out_single)

    def test_build_parameter_count(self):
        from urbanet.unet import head_names

        pre = init_params(TINY, seed=7)
        multi = build_multitask(pre, head="pop", seed=1)
        shapes = expected_shapes(multi.spec)
        added = sum(
            int(np.prod(shapes[name])) for name in head_names(multi.spec, "pop")
        )
        assert n_parameters(multi) == n_parameters(pre) + added

    def test_fresh_decoder_varies_with_seed(self):
        pre = init_params(TINY, seed=7)
        a = build_multitask(pre, head="pop", seed=1)
        b = build_multitask(pre, head="pop", seed=2)
        pop_names = phase1_trainable(a.spec)
        assert any(not np.array_equal(a.arrays[n], b.arrays[n]) for n in pop_names)
        for name in phase1_frozen(a.spec):
            assert np.array_equal(a.arrays[name], b.arrays[name])

    def test_duplicate_head_rejected(self):
        pre = init_params(TINY, seed=7)
        with pytest.raises(SpecError):
            build_multitask(pre, head="urban", seed=1)

    def test_phase1_freeze_is_bitwise(self, mt_streams):
        train_stream, val_stream, _ = mt_streams
        multi = build_multitask(init_params(TINY, seed=7), head="pop", seed=1)
        model, _ = train(
            multi, train_stream, val_stream, quick_config(batch_size=64),
            channel_weights=(0.0, 1.0), trainable=phase1_trainable(multi.spec),
            phase="phase1",
        )
        for name in phase1_frozen(multi.spec):
            assert np.array_equal(model.arrays[name], multi.arrays[name])
        assert any(
            not np.array_equal(model.arrays[n], multi.arrays[n])
            for n in phase1_trainable(multi.spec)
        )

    def test_two_phase_history(self, mt_streams):
        train_stream, val_stream, _ = mt_streams
        multi = build_multitask(init_params(TINY, seed=7), head="pop", seed=1)
        schedule = MultiTaskSchedule(
            phase1=quick_config(batch_size=64),
            phase2=quick_config(batch_size=64, learning_rate=1e-4),
        )
        model, hist = train_multitask(multi, train_stream, val_stream, schedule)
        phases = [r.phase for r in hist.rows]
        assert phases == ["phase1", "phase1", "phase2", "phase2"]
        epochs = [r.epoch for r in hist.rows]
        assert epochs == sorted(epochs) and len(set(epochs)) == len(epochs)
        # phase 2 touches the encoder
        assert any(
            not np.array_equal(model.arrays[n], multi.arrays[n])
            for n in phase1_frozen(multi.spec)
        )

    def test_needs_two_heads(self, streams):
        train_stream, val_stream, _ = streams
        single = init_params(TINY, seed=0)
        with pytest.raises(SpecError):
            train_multitask(single, train_stream, val_stream, MultiTaskSchedule())
