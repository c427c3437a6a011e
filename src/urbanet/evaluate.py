"""World-scale evaluation: median tile aggregation, residual metrics, reports.

A trained network predicts one value per pixel per tile; dense sampling
means every pixel is covered by up to S*S overlapping windows.  The
world-level prediction takes the median over those duplicates (even
count: mean of the two central values).  Medians are selected from the
values in the prediction dtype and the central pair is averaged in
float64.  Tiles arrive in row-major centre order, so a pixel row is
final once the tiles have moved below it: its medians are taken then and
its buffer reused, which bounds the aggregation memory by width * S^2
whatever the height of the world.  Metrics are computed over two strata
of land cells and exported as CSV rows alongside the published baseline
numbers, which are bundled as data and never recomputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .files import atomic_write
from .grid import SplitAssignment, WorldGrid
from .tiler import TileDataset, WindowSpec
from .unet import UNetParams, _forward

STRATUM_ALL = "all_cells"
STRATUM_BUILTUP = "builtup_positive"
# CSV rendering of the two strata, as they appear in the result tables
STRATUM_LABELS = {
    STRATUM_ALL: "All grid cells",
    STRATUM_BUILTUP: "observed built-up land fraction > 0",
}

REPORT_COLUMNS = ("model", "window", "scope", "stratum", "n_cells",
                  "mean_abs", "max_abs", "std", "r2")

BASELINE_FILE = "select_baseline.csv"


def unet_label(window: int) -> str:
    return f"U-Net (sz{window})"


def multitask_label(window: int) -> str:
    return f"Multi-task (sz{window})"


@dataclass(frozen=True)
class PredictionGrid:
    """Per-pixel world predictions in unpadded coordinates.

    ``planes[head]`` is valid wherever ``count > 0``; water and never-
    covered pixels hold 0 with a count of 0.
    """

    planes: dict[str, np.ndarray]  # (H, W) float64 per model head
    count: np.ndarray              # (H, W) int64 contributing-tile count
    tiles: int                     # tiles predicted


@dataclass(frozen=True)
class MetricsRow:
    scope: str
    stratum: str
    n_cells: int
    mean_abs: float | None
    max_abs: float | None
    std: float | None
    r2: float | str | None  # None when undefined; baselines carry text
    model: str = ""
    window: int | None = None

    @property
    def key(self) -> tuple:
        return (self.model, self.window, self.scope, self.stratum)


def _slot_medians(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel medians over the filled slots of one pixel row.

    ``slots`` is (heads, W, K) with NaN in every empty slot; all heads
    fill the same slots.  Returns float64 medians (heads, W), 0 where a
    pixel has no value, and the (W,) counts.  Even counts take the mean
    of the two central values.
    """
    count = slots.shape[-1] - np.count_nonzero(np.isnan(slots[0]), axis=-1)
    ordered = np.sort(slots, axis=-1)  # NaN sorts last
    cols = np.arange(slots.shape[1])
    lo = ordered[:, cols, (count - 1) // 2].astype(np.float64)
    hi = ordered[:, cols, count // 2].astype(np.float64)
    return np.where(count > 0, 0.5 * (lo + hi), 0.0), count


def predict_world(
    params: UNetParams,
    grid: WorldGrid,
    window: WindowSpec,
    *,
    pad: int,
    input_names: Iterable[str],
    split: SplitAssignment | None = None,
    split_filter: str = "all",
    batch_size: int = 256,
) -> PredictionGrid:
    """Aggregate tile predictions into world planes by per-pixel median.

    ``grid`` is the padded world; the returned planes are cropped back to
    unpadded coordinates.  Only unaugmented tiles are evaluated — every
    land pixel matching ``split_filter`` contributes exactly one tile.
    A non-finite prediction raises ``NumericError``.
    """
    input_names = tuple(input_names)
    spec = params.spec
    if len(input_names) != spec.input_channels:
        raise ShapeError(
            f"model expects {spec.input_channels} input channels, "
            f"got {len(input_names)}"
        )
    for name, out_ch in spec.heads:
        if out_ch != 1:
            raise ShapeError(f"head {name!r} has {out_ch} channels; "
                             "world prediction expects single-plane heads")
    if grid.height <= 2 * pad or grid.width <= 2 * pad:
        raise ShapeError(f"padding {pad} leaves no unpadded interior")

    ds = TileDataset(
        grid, window, pad=pad, input_names=input_names, target_names=(),
        split=split, split_filter=split_filter,
    )
    n = len(ds)
    if n == 0:
        raise DataError(f"no tiles match split filter {split_filter!r}")

    s = window.size
    hp, wp = grid.height, grid.width
    tls = ds.centers_padded - np.asarray(window.center_offset)  # row-major
    ar = np.arange(s)
    land = np.asarray(grid.mask)[:, pad : wp - pad] == 1

    # Tile (tr, tc) stores its value for pixel (q, c) in slot
    # (q - tr) * S + (c - tc) of row q.  Top rows never decrease, so before
    # the tiles with top row t are stored every row above t is final, and
    # the open rows fit a ring of S rows indexed by q % S.
    ring = np.full((s, len(spec.heads), wp, s * s), np.nan, params.dtype)
    slot = ar[:, None] * s + ar[None, :]
    planes = np.zeros((len(spec.heads), hp - 2 * pad, wp - 2 * pad))
    count = np.zeros((hp - 2 * pad, wp - 2 * pad), np.int64)
    first_open = 0   # rows above it are final
    end_written = 0  # rows from it on hold no value yet

    def close_rows(stop: int) -> None:
        nonlocal first_open
        for q in range(first_open, min(stop, end_written)):
            row = ring[q % s]
            if pad <= q < hp - pad:
                med, cnt = _slot_medians(row[:, pad : wp - pad])
                planes[:, q - pad] = med * land[q]
                count[q - pad] = cnt * land[q]
            row.fill(np.nan)
        first_open = stop

    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x, _, _ = ds.batch(idx)
        y, _ = _forward(params, x)  # (B,S,S,C)
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite prediction in batch {start // batch_size} "
                               f"(tiles {start}..{idx[-1]})")
        tr, tc = tls[idx, 0], tls[idx, 1]
        for g in np.split(np.arange(len(idx)), np.flatnonzero(np.diff(tr)) + 1):
            top = int(tr[g[0]])
            close_rows(top)
            rows = ((top + ar) % s)[None, :, None]
            cols = tc[g, None, None] + ar[None, None, :]
            ring[rows, :, cols, slot] = y[g]
            end_written = top + s
    close_rows(hp)

    return PredictionGrid(
        planes={name: planes[h] for h, (name, _) in enumerate(spec.heads)},
        count=count,
        tiles=n,
    )


def residual_metrics(
    pred: np.ndarray,
    truth: np.ndarray,
    stratum_mask: np.ndarray,
    *,
    scope: str = "global",
    stratum: str = STRATUM_ALL,
    model: str = "",
    window: int | None = None,
) -> MetricsRow:
    """The four summary metrics of `truth - pred` over one stratum.

    Empty stratum: a row with n_cells=0 and blank metrics.  R^2 is blank
    whenever the stratum truth has zero variance (the ratio is undefined);
    the other metrics are still reported.  Std uses the population (1/n)
    convention.
    """
    pred = np.asarray(pred, np.float64)
    truth = np.asarray(truth, np.float64)
    sel = np.asarray(stratum_mask, bool)
    if pred.shape != truth.shape or pred.shape != sel.shape:
        raise ShapeError(
            f"shape mismatch: pred {pred.shape}, truth {truth.shape}, "
            f"stratum {sel.shape}"
        )
    n = int(sel.sum())
    if n == 0:
        return MetricsRow(scope=scope, stratum=stratum, n_cells=0,
                          mean_abs=None, max_abs=None, std=None, r2=None,
                          model=model, window=window)
    e = truth[sel] - pred[sel]
    ss_tot = float(((truth[sel] - truth[sel].mean()) ** 2).sum())
    r2 = 1.0 - float((e**2).sum()) / ss_tot if ss_tot > 0.0 else None
    return MetricsRow(
        scope=scope,
        stratum=stratum,
        n_cells=n,
        mean_abs=float(np.abs(e).mean()),
        max_abs=float(np.abs(e).max()),
        std=float(e.std()),
        r2=r2,
        model=model,
        window=window,
    )


def stratify(
    mask: np.ndarray,
    builtup_2010: np.ndarray,
    select: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The two evaluation strata as boolean masks.

    all_cells is land intersected with ``select`` (e.g. the test-split
    mask); builtup_positive further requires observed built-up land
    fraction > 0 in 2010.
    """
    land = np.asarray(mask) == 1
    if np.asarray(builtup_2010).shape != land.shape:
        raise ShapeError("builtup plane shape does not match mask")
    all_cells = land if select is None else land & np.asarray(select, bool)
    return {
        STRATUM_ALL: all_cells,
        STRATUM_BUILTUP: all_cells & (np.asarray(builtup_2010) > 0),
    }


# ---------------------------------------------------------------------------
# report plumbing

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_float(text: str) -> float | str | None:
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text  # published values like ">50%" stay verbatim


@dataclass
class EvalReport:
    rows: list[MetricsRow] = field(default_factory=list)

    def add(self, row: MetricsRow) -> None:
        if any(r.key == row.key for r in self.rows):
            raise DataError(f"duplicate report row key {row.key}")
        self.rows.append(row)

    def extend(self, rows: Iterable[MetricsRow]) -> None:
        for row in rows:
            self.add(row)


def save_report(report: EvalReport, path) -> None:
    """One CSV line per row; strata rendered with their table labels."""
    if not report.rows:
        raise DataError("refusing to write an empty report")
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for r in report.rows:
            writer.writerow([
                r.model,
                "" if r.window is None else r.window,
                r.scope,
                STRATUM_LABELS.get(r.stratum, r.stratum),
                "" if r.n_cells is None else r.n_cells,
                _fmt(r.mean_abs),
                _fmt(r.max_abs),
                _fmt(r.std),
                _fmt(r.r2),
            ])


def load_report(path) -> EvalReport:
    """Rows of a report CSV.  A file that is not one raises DataError naming
    the file and the line."""
    label_to_key = {v: k for k, v in STRATUM_LABELS.items()}
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise DataError(f"{path}, line {line}: not a text report ({err.reason})") from None
    report = EvalReport()
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header != list(REPORT_COLUMNS):
            raise DataError(f"unrecognized report header {header}")
        for line in reader:
            if len(line) != len(REPORT_COLUMNS):
                raise DataError(f"expected {len(REPORT_COLUMNS)} fields, got {line}")
            model, window, scope, stratum, n_cells = line[:5]
            report.add(MetricsRow(
                scope=scope,
                stratum=label_to_key.get(stratum, stratum),
                n_cells=None if n_cells == "" else int(n_cells),
                mean_abs=_parse_float(line[5]),
                max_abs=_parse_float(line[6]),
                std=_parse_float(line[7]),
                r2=_parse_float(line[8]),
                model=model,
                window=None if window == "" else int(window),
            ))
    except (DataError, ValueError, csv.Error) as err:
        raise DataError(f"{path}, line {reader.line_num}: {err}") from None
    return report


def load_baseline() -> list[MetricsRow]:
    """The published baseline rows bundled with the package."""
    ref = resources.files(__package__) / "data" / BASELINE_FILE
    with resources.as_file(ref) as path:
        return load_report(path).rows


def export_report(report: EvalReport, path) -> None:
    """Write the final report, baseline rows first."""
    merged = EvalReport()
    merged.extend(load_baseline())
    merged.extend(report.rows)
    save_report(merged, path)


def export_scatter(
    pred: np.ndarray,
    truth: np.ndarray,
    stratum_mask: np.ndarray,
    path,
    *,
    svg_path=None,
    target_name: str = "delta_urban",
) -> None:
    """observed,predicted CSV (one land cell per row) plus an SVG plot."""
    sel = np.asarray(stratum_mask, bool)
    obs = np.asarray(truth, np.float64)[sel]
    est = np.asarray(pred, np.float64)[sel]
    path = Path(path)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["observed", "predicted"])
        for o, p in zip(obs, est):
            writer.writerow([repr(float(o)), repr(float(p))])
    svg = Path(svg_path) if svg_path is not None else path.with_suffix(".svg")
    with atomic_write(svg) as fh:
        fh.write(_scatter_svg(obs, est, target_name))


def _scatter_svg(obs: np.ndarray, est: np.ndarray, target_name: str) -> str:
    size, margin = 800, 70
    span = size - 2 * margin
    if len(obs):
        lo = float(min(obs.min(), est.min()))
        hi = float(max(obs.max(), est.max()))
    else:
        lo, hi = 0.0, 1.0
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def sx(v: float) -> float:
        return margin + (v - lo) / (hi - lo) * span

    def sy(v: float) -> float:
        return size - margin - (v - lo) / (hi - lo) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" '
        f'y2="{size - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" '
        f'stroke="black"/>',
        f'<line x1="{sx(lo):.1f}" y1="{sy(lo):.1f}" x2="{sx(hi):.1f}" y2="{sy(hi):.1f}" '
        f'stroke="#888" stroke-dasharray="6,4"/>',
    ]
    for o, p in zip(obs, est):
        parts.append(
            f'<circle cx="{sx(float(o)):.1f}" cy="{sy(float(p)):.1f}" r="2" '
            f'fill="steelblue" fill-opacity="0.35"/>'
        )
    parts += [
        f'<text x="{size / 2:.0f}" y="{size - 20}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">observed {target_name}</text>',
        f'<text x="22" y="{size / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 22 {size / 2:.0f})">predicted {target_name}</text>',
        f'<text x="{margin}" y="{size - margin + 20}" font-family="sans-serif" '
        f'font-size="12">{lo:.4g}</text>',
        f'<text x="{size - margin}" y="{size - margin + 20}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{hi:.4g}</text>',
        "</svg>",
    ]
    return "\n".join(parts)
