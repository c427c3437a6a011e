"""Command-line pipeline: generate -> split -> train -> multitask -> eval -> report.

Every subcommand reads inputs, writes outputs to files, and logs progress
to stderr only.  Exit codes: 0 success, 1 usage/config error, 2 data or
integrity error, 3 numeric divergence.

Training options have one parser.  Each ``TrainConfig`` field is both a
config-file key and a ``--flag`` of ``train``, and either value is a
string parsed by ``trainer.config_from_pairs``.  ``train``, ``multitask``
and ``eval`` check their configs and network shape before reading the grid.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

DEFAULT_TEST_REGIONS = "USA,CHN,GBR,MWI"
_TEST_REGIONS_HELP = (f"comma-separated held-out regions (default {DEFAULT_TEST_REGIONS}; "
                      "required when the grid names none of them)")
DEFAULT_PAD = 20
WINDOW_CHOICES = (16, 22, 28)
_HEAD_FOR_TARGET = {"delta_urban": "urban", "delta_population": "pop"}
# The fields of trainer.TrainConfig, in order.  Each is also a --flag whose
# value goes, as a string, through the config-file parser.  They are
# written out here because the parser is built before numpy, which
# trainer imports, may load (--threads must reach the environment first).
_TRAIN_OPTIONS = ("batch_size", "learning_rate", "max_epochs", "patience", "min_delta",
                  "seed", "samples_per_epoch")
_BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # a flag is spelled out in full: a prefix that parsed today would change
    # meaning, or stop parsing, once a new flag shares it
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits 2 on bad flags; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _split(grid, test_regions: str | None):
    """Region split of the WorldGrid ``grid``, from its mask, regions and
    region table alone.  Without --test-regions the defaults apply, and the
    grid must name one of them; a named unknown region only warns."""
    from .grid import assign_split

    known = sorted(grid.region_table.values())
    if test_regions is None and not set(known) & set(DEFAULT_TEST_REGIONS.split(",")):
        raise _UsageError(f"the grid names none of the default test regions "
                          f"{DEFAULT_TEST_REGIONS}; pick some with --test-regions "
                          f"(grid regions: {', '.join(known)})")
    text = DEFAULT_TEST_REGIONS if test_regions is None else test_regions
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise _UsageError("--test-regions needs at least one region name")
    return assign_split(grid, names)


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _require_channels(path, channels, names) -> None:
    """Fail before any work when the ``channels`` of the grid at ``path``
    lack one of ``names``."""
    from .errors import DataError

    for name in names:
        if name not in channels:
            raise DataError(f"{path}: no {name!r} channel "
                            f"(channels: {', '.join(channels)})")


def _load_split_normalize(path, src, test_regions: str | None, pad: int, targets):
    """The grid ``src``, opened by :func:`~urbanet.grid.open_grid` from
    ``path``, padded, with train-fitted normalized inputs, and its split.
    The channel list is checked first, before any plane is read, for the
    inputs and ``targets``.  Then every plane is read and checked once, the
    inputs as their statistics are fitted, and none is kept: the returned
    grid reads, pads and scales its planes again from the open file, one at
    each lookup."""
    from .grid import normalize_channels, pad_grid
    from .synth import INPUT_CHANNELS

    _require_channels(path, src.channels, INPUT_CHANNELS + tuple(targets))
    padded = pad_grid(src, pad)
    split = _split(padded, test_regions)
    norm, _ = normalize_channels(padded, fit_mask=split.train_mask, channels=INPUT_CHANNELS)
    for name in src.channels:
        if name not in INPUT_CHANNELS:
            src.channels[name]  # checked, then dropped
    return norm, split


def _check_spec(spec, size: int, flag: str, depth_from: str = "--depth") -> None:
    """Refuse an invalid spec, or one that would pad ``size``-pixel tiles
    up to ``2**depth`` pixels, before any work.  ``depth_from`` names where
    the depth came from: a flag, or a checkpoint."""
    from .unet import validate_spec

    validate_spec(spec)
    if 2 ** spec.depth > size:
        raise _UsageError(f"{depth_from} {spec.depth} needs tiles of at least "
                          f"2**{spec.depth} = {2 ** spec.depth} pixels, but {flag} is {size}")


def _load_checkpoint(args):
    """The model at ``--checkpoint``, refused before any grid is read when
    its depth does not fit ``--window`` or it reads other inputs."""
    from .errors import ShapeError
    from .synth import INPUT_CHANNELS
    from .unet import load_params

    params = load_params(args.checkpoint)
    _check_spec(params.spec, args.window, "--window", f"{args.checkpoint}: depth")
    if params.spec.input_channels != len(INPUT_CHANNELS):
        raise ShapeError(f"{args.checkpoint}: model expects {params.spec.input_channels} "
                         f"input channels, the grid gives {len(INPUT_CHANNELS)}")
    return params


def _with_epoch_default(cfg, train_stream):
    """Default one full pass over the base tiles per epoch."""
    import dataclasses

    from .trainer import epoch_size

    if cfg.samples_per_epoch is not None:
        return cfg
    return dataclasses.replace(cfg, samples_per_epoch=epoch_size(train_stream))


def _train_config(path, args, default=None):
    """The config file at ``path`` (else ``default``, else the defaults),
    overridden by each training option flag set in ``args``.  Flag values
    are strings parsed like config-file values."""
    from .trainer import TrainConfig, config_from_pairs, load_config

    cfg = load_config(path) if path else default or TrainConfig()
    flags = [(name, getattr(args, name)) for name in _TRAIN_OPTIONS
             if getattr(args, name, None) is not None]
    return config_from_pairs(flags, cfg)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--print-config", action="store_true",
                   help="print the effective training config and exit")
    for name in _TRAIN_OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), metavar="VALUE",
                       help=f"overrides {name} in --config")


def _add_data_flags(p: argparse.ArgumentParser, grid_required: bool = True) -> None:
    p.add_argument("--grid", required=grid_required, help="input WGRD world file")
    p.add_argument("--test-regions", help=_TEST_REGIONS_HELP)
    p.add_argument("--pad", type=int, default=DEFAULT_PAD,
                   help=f"zero-padding border in pixels (default {DEFAULT_PAD})")
    p.add_argument("--window", type=int, choices=WINDOW_CHOICES, default=28,
                   help="square tile size in pixels")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args) -> int:
    from .grid import save_grid
    from .synth import SynthConfig, gen_world

    cfg = SynthConfig(
        seed=args.seed, height=args.height, width=args.width,
        land_fraction=args.land_fraction, n_regions=args.regions,
        noise_std=args.noise_std,
    )
    world = gen_world(cfg)
    save_grid(world, args.out)
    _log(f"wrote {args.out}: {world.height}x{world.width}, "
         f"{int(world.mask.sum())} land px, {len(world.region_table)} regions")
    return 0


def _cmd_split(args) -> int:
    from .grid import open_grid, read_planes

    with open_grid(args.grid) as src:
        read_planes(src, ())  # every plane is checked; the split needs none
        split = _split(src, args.test_regions)
    land, train, test = (int(split.select(scope).sum()) for scope in ("all", "train", "test"))
    print(f"land={land} train={train} test={test}")
    return 0


def _streams(args, targets, seed):
    """Train and validation tile streams from ``--grid``."""
    from .grid import open_grid
    from .synth import INPUT_CHANNELS
    from .tiler import WindowSpec
    from .trainer import build_streams

    with open_grid(args.grid) as src:
        padded, split = _load_split_normalize(args.grid, src, args.test_regions, args.pad,
                                              targets)
        tr, va, val_regions = build_streams(
            padded, WindowSpec(args.window), pad=args.pad, input_names=INPUT_CHANNELS,
            target_names=targets, split=split, seed=seed,
        )
    _log(f"streams: {len(tr)} train (augmented), {len(va)} val, "
         f"val regions {sorted(val_regions)}")
    return tr, va


def _save_run(args, model, hist, tag, model_name, config=None) -> None:
    """Write the model, ``history_<tag>.csv`` and, when given,
    ``config_<tag>.cfg`` into ``--out-dir``."""
    from pathlib import Path

    from .trainer import save_config, save_history
    from .unet import save_params

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_params(model, out / model_name)
    save_history(hist, out / f"history_{tag}.csv")
    if config is not None:
        save_config(config, out / f"config_{tag}.cfg")
    _log(f"best epoch {hist.best_epoch}: val loss {hist.best_val_loss:.6e}")
    _log(f"wrote {out / model_name}")


def _cmd_train(args) -> int:
    # --print-config reads no grid, so argparse cannot require --grid
    if args.grid is None and not args.print_config:
        raise _UsageError("the following arguments are required: --grid")
    cfg = _train_config(args.config, args)
    if args.print_config:
        from .trainer import format_config

        sys.stdout.write(format_config(cfg))
        return 0

    from .synth import INPUT_CHANNELS
    from .trainer import train
    from .unet import UNetSpec, init_params

    head = _HEAD_FOR_TARGET[args.target]
    spec = UNetSpec(input_channels=len(INPUT_CHANNELS),
                    base_features=args.base_features, depth=args.depth,
                    heads=(head,))
    _check_spec(spec, args.window, "--window")
    tr, va = _streams(args, (args.target,), cfg.seed)
    cfg = _with_epoch_default(cfg, tr)
    model, hist = train(init_params(spec, seed=cfg.seed), tr, va, cfg)
    tag = f"{head}_sz{args.window}"
    _save_run(args, model, hist, tag, f"unet_{tag}.unpk", cfg)
    return 0


def _cmd_multitask(args) -> int:
    from .synth import TARGET_POP, TARGET_URBAN
    from .trainer import MultiTaskSchedule, build_multitask, train_multitask

    default = MultiTaskSchedule()
    phase1 = _train_config(args.phase1_config, args, default.phase1)
    phase2 = _train_config(args.phase2_config, args, default.phase2)
    MultiTaskSchedule(phase1, phase2)  # the rate rule, checked before any work
    pre = _load_checkpoint(args)
    # the new head and the validation regions draw from phase 1's seed,
    # which --seed overrides
    multi = build_multitask(pre, head="pop", seed=phase1.seed)
    tr, va = _streams(args, (TARGET_URBAN, TARGET_POP), phase1.seed)
    schedule = MultiTaskSchedule(_with_epoch_default(phase1, tr),
                                 _with_epoch_default(phase2, tr))
    model, hist = train_multitask(multi, tr, va, schedule)
    tag = f"multitask_sz{args.window}"
    _save_run(args, model, hist, tag, f"{tag}.unpk")
    return 0


def _cmd_eval(args) -> int:
    import numpy as np

    from .errors import DataError
    from .evaluate import (STRATUM_ALL, EvalReport, load_report, multitask_label,
                           predict_world, residual_metrics, save_report,
                           stratify, unet_label)
    from .grid import WorldGrid, open_grid, save_grid
    from .synth import INPUT_CHANNELS, TARGET_URBAN
    from .tiler import WindowSpec

    params = _load_checkpoint(args)
    # rows for a target other than delta_urban name it, as multitask rows do
    multi = len(params.spec.heads) > 1
    label = multitask_label(args.window) if multi else unet_label(args.window)
    target_for_head = {head: target for target, head in _HEAD_FOR_TARGET.items()}
    targets = {}
    for head in params.spec.heads:
        if head not in target_for_head:
            raise DataError(f"{args.checkpoint}: head {head!r} has no known target "
                            f"(known heads: {', '.join(target_for_head)})")
        target = target_for_head[head]
        targets[head] = (target, label if target == TARGET_URBAN else f"{label} on {target}")

    with open_grid(args.grid) as src:
        # the built-up stratum reads delta_urban whatever the model's heads
        padded, split = _load_split_normalize(
            args.grid, src, args.test_regions, args.pad,
            (TARGET_URBAN, *(target for target, _ in targets.values())))
        pad = args.pad
        scope_mask = split.select(args.split)[pad : padded.height - pad,
                                              pad : padded.width - pad]
        strata = stratify(src.mask, src.channels["urban_2000"] + src.channels[TARGET_URBAN],
                          select=scope_mask)

        # a rerun onto the same report fails before the world is predicted
        report = load_report(args.report) if os.path.exists(args.report) else EvalReport()
        taken = {row.key for row in report.rows}
        for _, model_label in targets.values():
            for stratum_name in strata:
                key = (model_label, args.window, args.split, stratum_name)  # MetricsRow.key
                if key in taken:
                    raise DataError(f"{args.report}: duplicate report row key {key}")

        t0 = time.perf_counter()
        pred = predict_world(
            params, padded, WindowSpec(args.window), pad=args.pad,
            input_names=INPUT_CHANNELS, split=split, split_filter=args.split,
        )
        elapsed = time.perf_counter() - t0
        cover = pred.count[strata[STRATUM_ALL]]  # the land of the evaluated split
        _log(f"predicted {pred.tiles} tiles in {elapsed:.1f} s "
             f"({pred.tiles / elapsed:.0f} tiles/s); coverage on {args.split}-split land: "
             f"min {cover.min()}, median {np.median(cover):g}; "
             f"{np.count_nonzero(cover == 0)} {args.split}-split land pixels never covered")

        if args.pred_out:  # repeatable, unlike adding report rows
            planes = {f"pred_{h}": p for h, p in pred.planes.items()}
            planes["coverage"] = pred.count.astype(np.float64)
            save_grid(
                WorldGrid(mask=src.mask, regions=src.regions, channels=planes,
                          region_table=src.region_table),
                args.pred_out,
            )
            _log(f"wrote {args.pred_out}")

        for head, (target, model_label) in targets.items():
            truth = src.channels[target]
            for stratum_name, stratum_mask in strata.items():
                row = residual_metrics(
                    pred.planes[head], truth, stratum_mask,
                    scope=args.split, stratum=stratum_name,
                    model=model_label, window=args.window,
                )
                report.add(row)
                _log(f"{model_label} [{stratum_name}] n={row.n_cells} "
                     f"mean|e|={row.mean_abs} r2={row.r2}")
        save_report(report, args.report)
        _log(f"wrote {args.report}")
    return 0


def _cmd_report(args) -> int:
    from .evaluate import EvalReport, export_report, export_scatter, load_report

    if args.scatter and not (args.pred and args.grid):
        raise _UsageError("--scatter needs --pred and --grid")
    if (args.pred or args.grid) and not args.scatter:
        raise _UsageError("--pred and --grid are read only with --scatter")
    merged = EvalReport()
    for path in args.inputs:
        for row in load_report(path).rows:
            merged.add(row)

    if args.scatter:  # every scatter input is checked before anything is written
        from .errors import DataError
        from .grid import open_grid, read_planes

        name = f"pred_{_HEAD_FOR_TARGET[args.target]}"
        with open_grid(args.pred) as pred_src, open_grid(args.grid) as world_src:
            _require_channels(args.pred, pred_src.channels, ("coverage", name))
            _require_channels(args.grid, world_src.channels, (args.target,))
            if pred_src.mask.shape != world_src.mask.shape:
                raise DataError(f"{args.pred}: planes of shape {pred_src.mask.shape} do not "
                                f"match the {world_src.mask.shape} grid {args.grid}")
            predicted = read_planes(pred_src, (name, "coverage"))
            covered = (world_src.mask == 1) & (predicted["coverage"] > 0)
            observed = read_planes(world_src, (args.target,))[args.target]

    export_report(merged, args.out)
    _log(f"wrote {args.out} ({len(merged.rows)} model rows + baseline)")
    if args.scatter:
        export_scatter(predicted[name], observed, covered, args.scatter,
                       target_name=args.target)
        _log(f"wrote {args.scatter} and {args.scatter}.csv")
    return 0


def _cmd_gradcheck(args) -> int:
    from .errors import NumericError
    from .unet import UNetSpec, grad_check

    # zero seeds would check nothing and report success
    if args.seeds < 1:
        raise _UsageError("--seeds must be >= 1")
    if args.seed < 0:
        raise _UsageError("--seed must be >= 0")
    if args.tile_size < 1:
        raise _UsageError("--tile-size must be >= 1")
    if not args.tolerance > 0:
        raise _UsageError("--tolerance must be > 0")
    spec = UNetSpec(input_channels=args.channels, base_features=args.base_features,
                    depth=args.depth)
    _check_spec(spec, args.tile_size, "--tile-size")
    worst = 0.0
    for seed in range(args.seed, args.seed + args.seeds):
        report = grad_check(spec, seed=seed, tile_size=args.tile_size)
        worst = max(worst, report.max_rel_err)
        _log(f"seed {seed}: max rel err {report.max_rel_err:.3e} "
             f"({report.n_checked} coords, worst {report.worst_param})")
    if worst >= args.tolerance:
        raise NumericError(
            f"gradient check failed: {worst:.3e} >= {args.tolerance:.1e}")
    _log(f"gradients ok: worst {worst:.3e} < {args.tolerance:.1e}")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="urbanet",
                     description="Masked U-Net pipeline for decadal "
                                 "urban-change prediction on gridded worlds.")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap BLAS worker threads (1 = bit-reproducible)")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic world")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--height", type=int, default=96)
    p.add_argument("--width", type=int, default=96)
    p.add_argument("--land-fraction", type=float, default=0.7)
    p.add_argument("--regions", type=int, default=9)
    p.add_argument("--noise-std", type=float, default=0.01)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="show train/test pixel counts")
    p.add_argument("--grid", required=True)
    p.add_argument("--test-regions", help=_TEST_REGIONS_HELP)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a single-task model")
    _add_data_flags(p, grid_required=False)
    _add_train_flags(p)
    p.add_argument("--target", choices=tuple(_HEAD_FOR_TARGET),
                   default="delta_urban")
    p.add_argument("--base-features", type=int, default=8)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("multitask",
                       help="two-phase joint training from a pretrained model")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True,
                   help="pretrained single-task UNPK file")
    p.add_argument("--phase1-config", help="frozen-phase training config file")
    p.add_argument("--phase2-config", help="fine-tuning config file")
    p.add_argument("--seed", metavar="VALUE", help="overrides seed in both phase configs")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_multitask)

    p = sub.add_parser("eval", help="predict a split and append metrics rows")
    _add_data_flags(p)
    p.add_argument("--checkpoint", required=True)
    # SplitAssignment.SCOPES, spelled out: grid.py imports numpy
    p.add_argument("--split", choices=("train", "test", "all"), default="test")
    p.add_argument("--report", required=True, help="metrics CSV to append to")
    p.add_argument("--pred-out", help="optional WGRD file of predicted planes")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="merge metrics CSVs into the final report")
    p.add_argument("inputs", nargs="+", help="metrics CSVs from eval runs")
    p.add_argument("--out", required=True)
    p.add_argument("--scatter",
                   help="write an observed-vs-predicted SVG here, and its pairs to <svg>.csv")
    p.add_argument("--pred", help="WGRD of predicted planes from eval --pred-out")
    p.add_argument("--grid", help="world WGRD with observed targets")
    p.add_argument("--target", choices=tuple(_HEAD_FOR_TARGET),
                   default="delta_urban")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--channels", type=int, default=3)
    p.add_argument("--base-features", type=int, default=4)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--tile-size", type=int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        _log(f"error: {err}")
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1

    if args.threads is not None:
        if args.threads < 1:
            _log("error: --threads must be >= 1")
            return 1
        # must land in the environment before numpy first loads
        for var in _BLAS_VARS:
            os.environ[var] = str(args.threads)
    if getattr(args, "pad", 0) < 0:
        _log("error: --pad must be >= 0")
        return 1

    from .errors import (ConfigError, DivergenceError, NumericError,
                         SpecError, UrbanetError)

    try:
        return args.func(args)
    except _UsageError as err:
        _log(f"error: {err}")
        return 1
    except (ConfigError, SpecError) as err:
        _log(f"error: {err}")
        return 1
    except (NumericError, DivergenceError) as err:
        _log(f"error: {err}")
        return 3
    except UrbanetError as err:  # format, integrity, shape, data
        _log(f"error: {err}")
        return 2
    except OSError as err:
        _log(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
