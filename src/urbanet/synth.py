"""Deterministic synthetic worlds with a known urbanization dynamic.

Worlds carry the nine standard input channels plus two change targets
(``delta_urban``, ``delta_population``).  The targets are fixed smooth
functions of the inputs (documented below) plus optional Gaussian noise,
so an evaluator can compare a trained model against a closed-form
ceiling.  Everything is a pure function of the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import distance_transform_cdt, gaussian_filter

from .errors import ConfigError, DataError
from .grid import WorldGrid, validate_grid

INPUT_CHANNELS = (
    "dist_water",
    "dist_city",
    "elevation",
    "slope",
    "land_area",
    "population_2000",
    "urban_1980",
    "urban_1990",
    "urban_2000",
)
TARGET_URBAN = "delta_urban"
TARGET_POP = "delta_population"
TARGET_CHANNELS = (TARGET_URBAN, TARGET_POP)

# Target formulas (land pixels; water is zero everywhere):
#
#   m5   = mean of urban_2000 over the 5x5 land neighborhood
#   p11  = mean of population_2000 over the 11x11 land neighborhood
#   room = 1 - urban_2000
#   core = m5 * room                      # shared by both tasks
#
#   delta_urban      = 1.40*core + 0.75*exp(-dist_city/7)*room
#                      + 0.35*tanh(population_2000)*room
#   delta_population = 1.80*core + 0.35*p11 + 0.45*exp(-dist_city/9)
#
# plus N(0, noise_std) noise on land.  The shared `core` term dominates
# both targets, which is what makes joint training of the second task
# profit from features learned on the first; p11 keeps the tasks
# distinct without overwhelming the shared structure.  Scales are set so
# the signal std is an order of magnitude above the default noise std.
_G1_CORE, _G1_PROX, _G1_POP = 1.40, 0.75, 0.35
_G2_CORE, _G2_P11, _G2_PROX = 1.80, 0.35, 0.45

# urban land fractions by epoch: same footprint, growing intensity
_URBAN_LEVELS = (("urban_1980", 0.45), ("urban_1990", 0.60), ("urban_2000", 0.75))
_URBAN_FLOOR = 0.04  # below this the cell counts as not built up at all


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    height: int = 96
    width: int = 96
    land_fraction: float = 0.7
    n_regions: int = 9
    noise_std: float = 0.01

    def __post_init__(self) -> None:
        if self.height < 4 or self.width < 4:
            raise ConfigError(f"grid too small: {self.height}x{self.width}")
        if not 0.0 < self.land_fraction <= 1.0:
            raise ConfigError(f"land_fraction must be in (0, 1], got {self.land_fraction}")
        if self.n_regions < 1:
            raise ConfigError(f"n_regions must be >= 1, got {self.n_regions}")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.height * self.width * self.land_fraction < 100:
            raise ConfigError(
                "config yields fewer than 100 land pixels; "
                "splits would be unusable"
            )


def _smooth_unit(rng: np.random.Generator, shape: tuple[int, int], sigma: float) -> np.ndarray:
    """Gaussian-smoothed white noise rescaled to [0, 1]."""
    f = gaussian_filter(rng.standard_normal(shape), sigma=sigma, mode="reflect")
    lo, hi = f.min(), f.max()
    if hi == lo:  # conceivable only on degenerate tiny grids
        raise DataError("smoothed noise field collapsed to a constant")
    return (f - lo) / (hi - lo)


def _top_k_mask(field: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask selecting the k largest entries (stable order tie-break)."""
    order = np.argsort(field, axis=None, kind="stable")
    out = np.zeros(field.size, dtype=bool)
    out[order[field.size - k :]] = True
    return out.reshape(field.shape)


def _region_plane(h: int, w: int, n_regions: int) -> np.ndarray:
    """Near-square block partition; codes 1..n_regions row-major."""
    rows = max(1, round(math.sqrt(n_regions)))
    cols = -(-n_regions // rows)  # ceil
    r = np.minimum(np.arange(h) * rows // h, rows - 1)
    c = np.minimum(np.arange(w) * cols // w, cols - 1)
    idx = r[:, None] * cols + c[None, :]
    return (np.minimum(idx, n_regions - 1) + 1).astype(np.uint16)


def _site_cities(land: np.ndarray, regions: np.ndarray, field: np.ndarray, n_land: int) -> np.ndarray:
    """City mask: every region's best-scoring land pixel, plus extras.

    One city per land-bearing region keeps urbanization signal in every
    region (held-out test regions included); extras on the globally
    best remaining pixels bring density to ~one city per 220 land pixels.
    """
    score = np.where(land, field, -np.inf)
    cities = np.zeros(land.shape, dtype=bool)
    for code in np.unique(regions[regions > 0]):
        rr, cc = np.nonzero(regions == code)
        k = int(np.argmax(score[rr, cc]))  # first max wins: deterministic
        cities[rr[k], cc[k]] = True
    extra = n_land // 220 - int(cities.sum())
    if extra > 0:
        cities |= _top_k_mask(np.where(cities, -np.inf, score), extra)
    return cities


def _taxicab_to(targets: np.ndarray) -> np.ndarray:
    """4-connected hop count to the nearest True pixel, as float64."""
    if not targets.any():
        raise DataError("distance transform needs at least one target pixel")
    return distance_transform_cdt(~targets, metric="taxicab").astype(np.float64)


def masked_box_mean(plane: np.ndarray, land: np.ndarray, size: int) -> np.ndarray:
    """Mean of `plane` over the size x size land neighborhood of each pixel.

    Pixels outside the grid contribute nothing; water neighbors are
    excluded from both numerator and denominator.  Water output is 0.
    """
    pad = size // 2
    landf = land.astype(np.float64)
    vp = np.pad(plane * landf, pad)
    lp = np.pad(landf, pad)
    num = sliding_window_view(vp, (size, size)).sum(axis=(-2, -1))
    den = sliding_window_view(lp, (size, size)).sum(axis=(-2, -1))
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0)
    return out * landf


def clean_targets(grid: WorldGrid) -> dict[str, np.ndarray]:
    """Noise-free target planes recomputed from a world's input channels."""
    land = grid.mask.astype(np.float64)
    ch = grid.channels
    u2000 = ch["urban_2000"]
    dcity = ch["dist_city"]
    pop = ch["population_2000"]

    m5 = masked_box_mean(u2000, grid.mask, 5)
    p11 = masked_box_mean(pop, grid.mask, 11)
    room = (1.0 - u2000) * land
    core = m5 * room

    g1 = _G1_CORE * core + _G1_PROX * np.exp(-dcity / 7.0) * room
    g1 += _G1_POP * np.tanh(pop) * room
    g2 = _G2_CORE * core + _G2_P11 * p11 + _G2_PROX * np.exp(-dcity / 9.0) * land
    return {TARGET_URBAN: g1 * land, TARGET_POP: g2 * land}


def gen_world(config: SynthConfig) -> WorldGrid:
    """Generate a fully deterministic synthetic world.

    Draw order is fixed: land field, city field, elevation field,
    population field, urban field, then the two target noise planes.
    """
    h, w = config.height, config.width
    rng = np.random.default_rng(config.seed)

    n_land = max(1, round(h * w * config.land_fraction))
    n_land = min(n_land, h * w)
    land_field = gaussian_filter(
        rng.standard_normal((h, w)), sigma=max(1.0, min(h, w) / 12), mode="reflect"
    )
    land = _top_k_mask(land_field, n_land)
    if not land.any():
        raise DataError("generated world has no land")
    mask = land.astype(np.uint8)
    landf = land.astype(np.float64)

    regions = _region_plane(h, w, config.n_regions) * mask  # water carries no region

    # cities sit on the best-scoring land pixels of their own smooth field
    city_field = gaussian_filter(
        rng.standard_normal((h, w)), sigma=max(1.0, min(h, w) / 16), mode="reflect"
    )
    cities = _site_cities(land, regions, city_field, n_land)

    dist_city = _taxicab_to(cities) * landf
    if land.all():
        dist_water = np.full((h, w), float(h + w))  # no water anywhere
    else:
        # adjacency convention: a land pixel touching water has distance 0
        dist_water = np.maximum(_taxicab_to(~land) - 1.0, 0.0)
    dist_water *= landf

    elevation = (0.1 + 0.9 * _smooth_unit(rng, (h, w), max(1.0, min(h, w) / 10))) * landf
    gy, gx = np.gradient(elevation)
    slope = np.hypot(gy, gx)
    peak = slope.max()
    if peak > 0:
        slope = slope / peak
    slope *= landf

    # interior cells are pure land; coastal cells lose area to water
    area = sliding_window_view(np.pad(landf, 1), (3, 3)).sum(axis=(-2, -1)) / 9.0
    land_area = area * landf

    pop_field = _smooth_unit(rng, (h, w), max(1.0, min(h, w) / 8))
    population = (0.4 + 0.6 * pop_field) * np.exp(-dist_city / 6.0) * landf

    urb_field = 0.55 + 0.45 * _smooth_unit(rng, (h, w), max(1.0, min(h, w) / 16))
    proximity = np.exp(-dist_city / 5.0)
    channels: dict[str, np.ndarray] = {
        "dist_water": dist_water,
        "dist_city": dist_city,
        "elevation": elevation,
        "slope": slope,
        "land_area": land_area,
        "population_2000": population,
    }
    for name, level in _URBAN_LEVELS:
        channels[name] = np.clip(level * proximity * urb_field - _URBAN_FLOOR, 0.0, 1.0) * landf

    region_table = {code: f"R{code:02d}" for code in range(1, config.n_regions + 1)}

    grid = WorldGrid(mask=mask, regions=regions, channels=channels, region_table=region_table)
    clean = clean_targets(grid)
    for name in TARGET_CHANNELS:
        noise = rng.normal(0.0, config.noise_std, size=(h, w)) if config.noise_std > 0 else 0.0
        channels[name] = clean[name] + noise * landf

    world = WorldGrid(mask=mask, regions=regions, channels=channels, region_table=region_table)
    validate_grid(world)
    return world
