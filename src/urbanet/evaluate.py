"""World-scale evaluation: median tile aggregation, residual metrics, reports.

A trained network predicts one value per pixel per tile; dense sampling
means every pixel is covered by up to S*S overlapping windows.  The
world-level prediction takes the median over those duplicates (even
count: mean of the two central values).  Medians are selected from the
values in the prediction dtype and the central pair is averaged in
float64.  Tiles arrive in row-major centre order, so a pixel row is
final once the tiles have moved below it: its medians are taken then and
its values dropped.  The buffer holds only values that an open row still
needs, S(S+1)/2 * (width + 1) * S per head, whatever the height of the
world: one column per unpadded pixel column and one that takes, unread,
the values tiles give the padding ring.  Metrics are computed over two
strata of land cells and exported as CSV rows alongside the published
baseline numbers, which are bundled as data and never recomputed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable

import numpy as np

from .errors import DataError, NumericError, ShapeError
from .files import atomic_write, read_text
from .grid import SplitAssignment, WorldGrid
from .tiler import TileDataset, WindowSpec
from .unet import UNetParams, _forward, _predict_tiles

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
    count: np.ndarray              # (H, W) int32 contributing-tile count
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
    fill the same slots.  It is sorted in place along K.  Returns float64
    medians (heads, W), 0 where a pixel has no value, and the (W,) counts.
    Even counts take the mean of the two central values.
    """
    count = slots.shape[-1] - np.count_nonzero(np.isnan(slots[0]), axis=-1)
    slots.sort(axis=-1)  # NaN sorts last
    cols = np.arange(slots.shape[1])
    lo = slots[:, cols, (count - 1) // 2].astype(np.float64)
    hi = slots[:, cols, count // 2].astype(np.float64)
    return np.where(count > 0, 0.5 * (lo + hi), 0.0), count


def predict_world(
    params: UNetParams,
    grid: WorldGrid,
    window: WindowSpec,
    *,
    pad: int,
    input_names: Iterable[str],
    split: SplitAssignment,
    split_filter: str,
) -> PredictionGrid:
    """Aggregate tile predictions into world planes by per-pixel median,
    one plane per model head, keyed by the head's name.

    ``grid`` is the padded world; the returned planes are cropped back to
    unpadded coordinates; land within the ``pad``-pixel border raises
    ``ShapeError``.  Only unaugmented tiles are evaluated — every land
    pixel of ``split.select(split_filter)`` contributes exactly one tile.
    A non-finite prediction raises ``NumericError``.

    Tiles run through the network in micro-batches sized by bytes: as many
    tiles as keep the forward's arrays within ``unet._PREDICT_BYTES`` for
    this spec and window (``unet._predict_tiles``; 60 desk tiles at S = 28,
    10 ``full_scale`` ones), each gathered by one ``TileDataset.batch``
    call.  That count includes the gathered input tiles, which the forward
    frees after its first convolution, so it is conservative.  Beside the
    forward, the median pool holds S(S+1)/2 * (W + 1) * S values per head
    for a W-column interior.  For the standard specs a tile's forward
    bytes do not depend on its batch, so neither do the planes' bytes on
    the partition (README's numeric policy has the measured limits).
    """
    input_names = tuple(input_names)
    spec = params.spec
    if len(input_names) != spec.input_channels:
        raise ShapeError(
            f"model expects {spec.input_channels} input channels, "
            f"got {len(input_names)}"
        )
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
    batch_size = _predict_tiles(spec, s, params.dtype.itemsize)
    hp, wp = grid.height, grid.width
    w = wp - 2 * pad
    centers = ds.centers_padded  # row-major
    lo, hi = centers.min(axis=0), centers.max(axis=0)
    if (lo < pad).any() or (hi >= (hp - pad, wp - pad)).any():
        raise ShapeError(f"grid has land within its {pad}-pixel padding")
    ar = np.arange(s)
    land = np.asarray(grid.mask)[:, pad : wp - pad] == 1

    # Tile (tr, tc) gives pixel (tr + dr, c) its value in slot dr * S + dc,
    # dc = c - tc.  Top rows never decrease, so before the tiles with top row
    # t are stored every row above t is final.  Slice (t, dr), what tile row
    # t gives pixel row t + dr, is live from then until row t + dr closes, so
    # the live slices of one dr belong to at most dr + 1 consecutive tile
    # rows, distinct mod dr + 1: slice (t, dr) is pool index
    # dr(dr+1)/2 + t % (dr+1).  Pixel column c is pool column c - pad; the
    # values that tiles give the padding ring all land in pool column W,
    # which is never read.  With the axes (heads, column, slice, dc), a
    # closed row's slices gather as its (heads, W, S * S) slot rows.
    pool = np.full((len(spec.heads), w + 1, s * (s + 1) // 2, s), np.nan, params.dtype)
    first = ar * (ar + 1) // 2  # pool index of slice (0, dr)
    planes = np.zeros((len(spec.heads), hp - 2 * pad, w))
    count = np.zeros((hp - 2 * pad, w), np.int32)
    first_open = 0   # rows above it are final
    end_written = 0  # rows from it on hold no value yet

    def close_rows(stop: int) -> None:
        nonlocal first_open
        for q in range(first_open, min(stop, end_written)):
            live = first + (q - ar) % (ar + 1)  # slices (q - dr, dr)
            if pad <= q < hp - pad:
                # (heads, W, dr, dc) in C order, so the row is one copy, sorted in place
                row = np.take(pool[:, :w], live, axis=2)
                med, cnt = _slot_medians(row.reshape(len(spec.heads), w, s * s))
                planes[:, q - pad] = med * land[q]
                count[q - pad] = cnt * land[q]
            pool[:, :, live] = np.nan
        first_open = stop

    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        y, _ = _forward(params, ds.batch(idx)[0])  # (B,S,S,C); _forward frees the tiles
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite prediction in batch {start // batch_size} "
                               f"(tiles {start}..{idx[-1]})")
        tr, tc = centers[idx, 0] - s // 2, centers[idx, 1] - s // 2  # top-left pixels
        for g in np.split(np.arange(len(idx)), np.flatnonzero(np.diff(tr)) + 1):
            top = int(tr[g[0]])
            close_rows(top)
            slices = (first + top % (ar + 1))[None, :, None]
            cols = tc[g, None, None] - pad + ar[None, None, :]
            cols[(cols < 0) | (cols >= w)] = w  # the padding ring
            pool[:, cols, slices, ar] = y[g].transpose(3, 0, 1, 2)
            end_written = top + s
    close_rows(hp)

    return PredictionGrid(
        planes=dict(zip(spec.heads, planes)),
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
    select: np.ndarray,
) -> dict[str, np.ndarray]:
    """The two evaluation strata as boolean masks.

    all_cells is land intersected with ``select``, the pixels of the
    evaluated split; builtup_positive further requires observed built-up
    land fraction > 0 in 2010.  Both planes must have the mask's shape.
    """
    land = np.asarray(mask) == 1
    for what, plane in (("builtup plane", builtup_2010), ("select mask", select)):
        if np.shape(plane) != land.shape:
            raise ShapeError(f"{what} shape {np.shape(plane)} does not match "
                             f"mask shape {land.shape}")
    all_cells = land & np.asarray(select, bool)
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
    report = EvalReport()
    reader = csv.reader(io.StringIO(read_text(path, DataError, "report"), newline=""))
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
    svg_path,
    *,
    target_name: str,
) -> None:
    """An observed-vs-predicted SVG plot at ``svg_path``, and its
    observed,predicted CSV (one land cell per row) at ``<svg_path>.csv``."""
    sel = np.asarray(stratum_mask, bool)
    obs = np.asarray(truth, np.float64)[sel]
    est = np.asarray(pred, np.float64)[sel]
    with atomic_write(f"{svg_path}.csv", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["observed", "predicted"])
        for o, p in zip(obs, est):
            writer.writerow([repr(float(o)), repr(float(p))])
    with atomic_write(svg_path) as fh:
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
