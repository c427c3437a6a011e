"""Minibatch training with early stopping, plus the two-phase multi-task
schedule: train the fresh task-2 decoder against a frozen encoder and
task-1 decoder, then fine-tune everything jointly at a smaller rate.

A "tile stream" here is anything with ``__len__`` and ``batch(indices)``
returning channel-last (x, y, m) arrays — TileDataset, AugmentedTiles,
or a Subset view of either.  Training walks a cursor window over the
stream each epoch, so passing an augmented stream with
``samples_per_epoch`` set to the unaugmented tile count sees every tile
once per epoch while the paired transform rotates epoch to epoch.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, get_args, get_type_hints

import numpy as np

from .augment import TRANSFORMS, AugmentedTiles
from .errors import ConfigError, DataError, DivergenceError, NumericError, SpecError
from .files import atomic_write
from .grid import WorldGrid, SplitAssignment
from .tiler import TileDataset, WindowSpec
from .unet import (
    UNetParams,
    _forward,
    _live_heads,
    _masked_loss_grad,
    head_names,
    init_params,
    loss_and_grads,
    save_params,
    validate_params,
)

OPTIMIZERS = ("adam", "sgd")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    momentum: float = 0.9  # sgd only
    max_epochs: int = 100
    patience: int = 10
    min_delta: float = 1e-7
    seed: int = 0
    shuffle: bool = True
    # None: one full pass over the stream per epoch.  Set to the base tile
    # count when passing a 6x augmented stream (see module docstring).
    samples_per_epoch: int | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # 0 is allowed so a zero step can be asserted to leave params alone
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if not 0 <= self.min_delta < math.inf:
            raise ConfigError(f"min_delta must be finite and >= 0, got {self.min_delta}")
        if self.samples_per_epoch is not None and self.samples_per_epoch < 1:
            raise ConfigError("samples_per_epoch must be >= 1 when set")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    phase: str
    train_loss: float
    val_loss: float
    seconds: float


@dataclass(frozen=True)
class TrainHistory:
    rows: tuple[EpochStats, ...]
    best_epoch: int
    best_val_loss: float


@dataclass(frozen=True)
class MultiTaskSchedule:
    """Phase 1 trains the task-2 decoder with everything else frozen;
    phase 2 fine-tunes the whole model at a strictly smaller rate."""

    phase1: TrainConfig = TrainConfig()
    phase2: TrainConfig = TrainConfig(learning_rate=1e-4)

    def __post_init__(self) -> None:
        if not self.phase2.learning_rate < self.phase1.learning_rate:
            raise ConfigError(
                "fine-tuning rate must be smaller than the phase-1 rate "
                f"({self.phase2.learning_rate} >= {self.phase1.learning_rate})"
            )


class Subset:
    """Index-remapped view of a tile stream."""

    def __init__(self, data, indices):
        self.data = data
        self.indices = np.asarray(indices, np.int64)

    def __len__(self) -> int:
        return len(self.indices)

    def batch(self, indices):
        return self.data.batch(self.indices[np.asarray(indices)])


# ---------------------------------------------------------------------------
# optimizers (state keyed by parameter name; update order is fixed)

class _Adam:
    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name in sorted(grads):
            g = grads[name]
            p = arrays[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            p -= (self.lr / c1) * m / (np.sqrt(v / c2) + ADAM_EPS)


class _SGD:
    def __init__(self, lr: float, momentum: float):
        self.lr = lr
        self.momentum = momentum
        self.vel: dict[str, np.ndarray] = {}

    def step(self, arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name in sorted(grads):
            g = grads[name]
            p = arrays[name]
            v = self.vel.setdefault(name, np.zeros_like(p))
            v *= self.momentum
            v -= self.lr * g
            p += v


def _make_optimizer(config: TrainConfig):
    if config.optimizer == "adam":
        return _Adam(config.learning_rate)
    return _SGD(config.learning_rate, config.momentum)


# ---------------------------------------------------------------------------
# evaluation and the training loop

def evaluate_loss(
    params: UNetParams,
    tiles,
    batch_size: int = 256,
    channel_weights: np.ndarray | None = None,
) -> float:
    """Sample-weighted masked MSE over a tile stream (no updates).

    A head whose channels all have weight 0 is not computed."""
    if len(tiles) == 0:
        raise DataError("cannot evaluate an empty tile stream")
    heads = _live_heads(params.spec, channel_weights)
    total, count = 0.0, 0
    for start in range(0, len(tiles), batch_size):
        idx = np.arange(start, min(start + batch_size, len(tiles)))
        x, y, m = tiles.batch(idx)
        pred, _ = _forward(params, x, heads=heads)
        loss, _ = _masked_loss_grad(pred, y, m, channel_weights)
        total += loss * len(idx)
        count += len(idx)
    return total / count


def train(
    params: UNetParams,
    train_tiles,
    val_tiles,
    config: TrainConfig,
    *,
    channel_weights: Iterable[float] | None = None,
    trainable: set[str] | None = None,
    phase: str = "train",
    start_epoch: int = 1,
    checkpoint_dir=None,
) -> tuple[UNetParams, TrainHistory]:
    """Minibatch-train a copy of ``params``; return the best-epoch weights.

    Stops at ``max_epochs`` or once the validation loss has not improved
    by ``min_delta`` for ``patience`` consecutive epochs.  A non-finite
    training or validation loss raises DivergenceError with the epoch.
    The input params are never mutated.
    """
    if len(train_tiles) == 0:
        raise DataError("training stream is empty")
    if len(val_tiles) == 0:
        raise DataError("validation stream is empty")
    params = params.copy()
    weights = (
        None if channel_weights is None
        else np.asarray(list(channel_weights), np.float64)
    )
    opt = _make_optimizer(config)
    rng = np.random.default_rng(config.seed)
    n_stream = len(train_tiles)
    spe = n_stream if config.samples_per_epoch is None else config.samples_per_epoch

    best: UNetParams | None = None
    best_val = math.inf
    best_epoch = -1
    bad = 0
    cursor = 0
    rows: list[EpochStats] = []
    for epoch in range(start_epoch, start_epoch + config.max_epochs):
        t0 = time.perf_counter()
        ks = (cursor + np.arange(spe)) % n_stream
        cursor = (cursor + spe) % n_stream
        if config.shuffle:
            rng.shuffle(ks)
        total, count = 0.0, 0
        for b0 in range(0, spe, config.batch_size):
            idx = ks[b0 : b0 + config.batch_size]
            x, y, m = train_tiles.batch(idx)
            try:
                loss, grads = loss_and_grads(params, x, y, m, weights, trainable)
            except NumericError as err:
                raise DivergenceError(str(err), epoch=epoch) from err
            opt.step(params.arrays, grads)
            total += loss * len(idx)
            count += len(idx)
        val = evaluate_loss(params, val_tiles, config.batch_size, weights)
        if not math.isfinite(val):
            raise DivergenceError(f"validation loss is non-finite ({val})", epoch=epoch)
        rows.append(EpochStats(epoch, phase, total / count, val, time.perf_counter() - t0))
        if val < best_val - config.min_delta:
            bad = 0
        else:
            bad += 1
        if val < best_val:
            best_val = val
            best_epoch = epoch
            best = params.copy()
        if bad >= config.patience:
            break

    assert best is not None  # at least one finite epoch ran
    history = TrainHistory(rows=tuple(rows), best_epoch=best_epoch, best_val_loss=best_val)
    if checkpoint_dir is not None:
        out = Path(checkpoint_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_params(best, out / f"{phase}_best.unpk")
        save_params(params, out / f"{phase}_final.unpk")
    return best, history


# ---------------------------------------------------------------------------
# validation split and stream assembly

def choose_validation_regions(codes: Iterable[int], *, seed: int = 0) -> frozenset[int]:
    """Hold out a tenth of the region codes, rounded, and at least one; of
    two or more codes that is never all.

    Validation is split by region, not by random pixels, so spatially
    correlated neighbors never straddle the train/validation boundary.
    """
    unique = sorted(set(int(c) for c in codes))
    if len(unique) < 2:
        raise DataError("need at least two regions to hold one out for validation")
    n_val = max(1, round(len(unique) * 0.1))
    order = np.random.default_rng(seed).permutation(len(unique))
    return frozenset(unique[i] for i in order[:n_val])


def build_streams(
    grid: WorldGrid,
    window: WindowSpec,
    *,
    pad: int,
    input_names: Iterable[str],
    target_names: Iterable[str],
    split: SplitAssignment | None = None,
    seed: int = 0,
) -> tuple[Subset, Subset, frozenset[int]]:
    """Augmented training stream, unaugmented validation stream, and the
    validation regions.

    ``choose_validation_regions`` draws the validation regions from
    ``seed`` among the regions of the train-split tiles, so each holds at
    least one tile and at least one region is left for training.
    Training tiles are the train-split tiles outside them, augmented 6x
    and ordered so consecutive samples rotate through the transforms.  One
    epoch of ``len(train)/6`` samples visits every base tile exactly once.
    """
    base = TileDataset(
        grid, window, pad=pad, input_names=tuple(input_names),
        target_names=tuple(target_names), split=split, split_filter="train",
    )
    if len(base) == 0:
        raise DataError("no training tiles in the grid")
    val_regions = choose_validation_regions(np.unique(base.regions), seed=seed)
    is_val = np.isin(base.regions, sorted(val_regions))
    keep = np.flatnonzero(~is_val)
    n = len(base)
    ks = (np.arange(len(TRANSFORMS))[:, None] * n + keep[None, :]).ravel()
    train_stream = Subset(AugmentedTiles(base), ks)
    val_stream = Subset(base, np.flatnonzero(is_val))
    return train_stream, val_stream, val_regions


def epoch_size(train_stream) -> int:
    """Base tile count of a 6x augmented stream (samples_per_epoch value)."""
    n, rem = divmod(len(train_stream), len(TRANSFORMS))
    if rem:
        raise DataError(f"stream length {len(train_stream)} is not a whole "
                        "number of augmentation passes")
    return n


# ---------------------------------------------------------------------------
# multi-task assembly and schedule

def build_multitask(pretrained: UNetParams, *, head: str = "pop", seed: int = 0) -> UNetParams:
    """Extend a single-task model with a freshly initialized second decoder
    and its one-channel head.

    The shared encoder and the task-1 decoder are copied bitwise; only
    the new head's decoder and output projection are drawn from ``seed``.
    """
    validate_params(pretrained)
    spec = pretrained.spec
    if any(name == head for name, _ in spec.heads):
        raise SpecError(f"model already has a head named {head!r}")
    new_spec = replace(spec, heads=spec.heads + ((head, 1),))
    fresh = init_params(new_spec, seed=seed, dtype=pretrained.dtype)
    for name, arr in pretrained.arrays.items():
        fresh.arrays[name] = arr.copy()
    validate_params(fresh)
    return fresh


def phase1_trainable(spec) -> set[str]:
    """Task-2 decoder and head parameters — everything trained in phase 1."""
    return set(head_names(spec, spec.heads[-1][0]))


def train_multitask(
    params: UNetParams,
    train_tiles,
    val_tiles,
    schedule: MultiTaskSchedule,
    *,
    checkpoint_dir=None,
) -> tuple[UNetParams, TrainHistory]:
    """Run the frozen phase then joint fine-tuning; tiles must carry one
    target channel per output channel, in head order.

    Phase 1 optimizes the last head's loss only and never touches the
    frozen parameters (bitwise).  Phase 2 minimizes the equal-weight mean
    of the output channels' masked MSEs.  Each phase early-stops
    independently.
    """
    spec = params.spec
    if len(spec.heads) < 2:
        raise SpecError("multi-task training needs at least two heads")
    last = spec.heads[-1][1]
    w1 = [0.0] * (spec.out_channels - last) + [1.0] * last
    m1, h1 = train(
        params, train_tiles, val_tiles, schedule.phase1,
        channel_weights=w1, trainable=phase1_trainable(spec),
        phase="phase1", checkpoint_dir=checkpoint_dir,
    )
    m2, h2 = train(
        m1, train_tiles, val_tiles, schedule.phase2,
        phase="phase2", start_epoch=h1.rows[-1].epoch + 1,
        checkpoint_dir=checkpoint_dir,
    )
    history = TrainHistory(
        rows=h1.rows + h2.rows, best_epoch=h2.best_epoch, best_val_loss=h2.best_val_loss
    )
    return m2, history


# ---------------------------------------------------------------------------
# config and history files

# option -> the types of its annotation: (int,), or (int, NoneType) for an
# ``int | None`` field, which also takes the literal "none"
_CONFIG_FIELDS: dict[str, tuple[type, ...]] = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(TrainConfig).items()
}


def format_config(config: TrainConfig) -> str:
    lines = []
    for name in _CONFIG_FIELDS:
        value = getattr(config, name)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{name}={text}")
    return "\n".join(lines) + "\n"


def save_config(config: TrainConfig, path) -> None:
    with atomic_write(path) as fh:
        fh.write(format_config(config))


def parse_config_line(line: str) -> tuple[str, str] | None:
    """key=value with '#' comments; returns None for blank/comment lines."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    if "=" not in text:
        raise ConfigError(f"expected key=value, got {line.rstrip()!r}")
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def config_from_pairs(pairs: Iterable[tuple[str, str]], base: TrainConfig | None = None) -> TrainConfig:
    """``base`` (default: the defaults) with each string ``value`` parsed by
    the type of its field and applied in turn."""
    config = base if base is not None else TrainConfig()
    for key, value in pairs:
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"unknown training option {key!r}")
        kinds = _CONFIG_FIELDS[key]
        if type(None) in kinds and value.lower() == "none":
            parsed = None
        elif kinds[0] is bool:
            if value.lower() not in ("true", "false"):
                raise ConfigError(f"{key} must be true or false, got {value!r}")
            parsed = value.lower() == "true"
        else:
            try:
                parsed = kinds[0](value)
            except ValueError as err:
                raise ConfigError(f"bad value for {key}: {value!r}") from err
        config = replace(config, **{key: parsed})
    return config


def load_config(path) -> TrainConfig:
    """The defaults overridden by the key=value lines of ``path``.  An
    error names the file and the line."""
    config = TrainConfig()
    raw = Path(path).read_bytes()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise ConfigError(f"{path}, line {line}: not a text config ({err.reason})") from None
    for number, line in enumerate(lines, 1):
        try:
            pair = parse_config_line(line)
            if pair is not None:
                config = config_from_pairs([pair], config)
        except ConfigError as err:
            raise ConfigError(f"{path}, line {number}: {err}") from None
    return config


def save_history(history: TrainHistory, path) -> None:
    with atomic_write(path) as fh:
        fh.write("epoch,phase,train_loss,val_loss,seconds\n")
        for row in history.rows:
            fh.write(
                f"{row.epoch},{row.phase},{row.train_loss!r},"
                f"{row.val_loss!r},{row.seconds:.3f}\n"
            )
