"""Synthetic multipath environments and their space/frequency responses.

A propagation environment is a set of discrete paths, each with an arrival
direction (elevation, azimuth), a delay, and a mean amplitude.  The receive
array, a uniform linear array on the x axis, maps directions to steering
vectors; its element spacing is given in wavelengths, so the phases need no
carrier frequency.  The pulse-shaped delay taps map delays to per-subcarrier
frequency responses on the full grid.  The strongest few paths, by index,
play the role of the twin's prior knowledge: their columns of the steering
and frequency responses span its subspaces.  The sweeps turn a path set
into responses once, in :func:`~chest.experiments.build_environment`; every
later step works on the responses.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig


@dataclass(frozen=True, eq=False)
class PathSet:
    """Per-path geometry: elevation/azimuth of arrival, delay, mean amplitude."""

    elevation: np.ndarray
    azimuth: np.ndarray
    delay: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("elevation", "azimuth", "delay", "amplitude"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"PathSet.{name} must be a non-empty 1-D array")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"PathSet.{name} must be finite")
            arrays[name] = arr
        sizes = {a.size for a in arrays.values()}
        if len(sizes) != 1:
            raise ValueError("PathSet arrays must have equal lengths")
        if np.any(arrays["delay"] < 0):
            raise ValueError("path delays must be non-negative")
        if np.any(arrays["amplitude"] < 0):
            raise ValueError("path amplitudes must be non-negative")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.delay.size)


def generate_paths(scenario: ScenarioConfig, rng: np.random.Generator) -> PathSet:
    """Draw a random environment from the scenario's distributions.

    Delays are i.i.d. uniform on [0, delay_spread]; angles are uniform in the
    configured ranges; mean powers follow the exponential profile
    exp(-pdp_decay * delay / delay_spread), normalized so they sum to one.
    """
    n = scenario.n_paths
    delay = rng.uniform(0.0, scenario.delay_spread, n)
    elevation = rng.uniform(scenario.elevation_range[0], scenario.elevation_range[1], n)
    azimuth = rng.uniform(scenario.azimuth_range[0], scenario.azimuth_range[1], n)
    power = np.exp(-scenario.pdp_decay * delay / scenario.delay_spread)
    power = power / power.sum()
    return PathSet(elevation=elevation, azimuth=azimuth, delay=delay,
                   amplitude=np.sqrt(power))


def dt_truncate(paths: PathSet, n_keep: int) -> np.ndarray:
    """Indices of the ``n_keep`` strongest paths (the twin's partial
    knowledge), in ascending order.

    Ties in amplitude break toward the smaller delay, then the smaller index.
    """
    if not 1 <= n_keep <= len(paths):
        raise ValueError(f"n_keep must lie in [1, {len(paths)}], got {n_keep}")
    order = np.lexsort((np.arange(len(paths)), paths.delay, -paths.amplitude))
    return np.sort(order[:n_keep])


def steering_matrix(paths: PathSet, n_rx: int, spacing: float) -> np.ndarray:
    """Steering vectors of all paths, (n_rx, L), of a uniform linear array on
    the x axis with element 0 at the origin and ``spacing`` wavelengths
    between elements: element n sees path l at phase
    2 pi spacing n cos(azimuth_l) cos(elevation_l)."""
    cosine = np.cos(paths.azimuth) * np.cos(paths.elevation)         # (L,)
    return np.exp(2j * np.pi * spacing * np.outer(np.arange(n_rx), cosine))


def pulse_response(nu, delay_norm, rolloff: float) -> np.ndarray:
    """Raised-cosine pulse g(nu - delay_norm); rolloff 0 gives the plain sinc.

    ``delay_norm`` is the delay in units of the sample interval.  Inputs
    broadcast; the removable singularities (argument 0 and the rolloff edge
    |2*rolloff*x| = 1) are handled exactly.
    """
    if not 0.0 <= rolloff < 1.0:
        raise ValueError(f"rolloff must lie in [0, 1), got {rolloff}")
    x = np.asarray(nu, dtype=float) - np.asarray(delay_norm, dtype=float)
    core = np.sinc(x)
    if rolloff == 0.0:
        return core
    t = 2.0 * rolloff * x
    den = 1.0 - t * t
    safe = np.abs(den) > 1e-8
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(safe, np.cos(np.pi * rolloff * x) / np.where(safe, den, 1.0),
                          np.pi / 4.0)
    return core * factor


def frequency_response(paths: PathSet, n_subcarriers: int, sample_interval: float,
                       rolloff: float) -> np.ndarray:
    """Per-subcarrier response K = F G of the pulse-shaped delay taps, (N, L).

    F is the unnormalized N-point DFT (negative exponent); column l of G holds
    g(nu - delay_l / T_s) for nu = 0..N-1.  The pilot-grid response is the
    rows ``K[pilots.indices]``.
    """
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be >= 1")
    if sample_interval <= 0:
        raise ValueError("sample_interval must be positive")
    nu = np.arange(n_subcarriers, dtype=float)[:, None]
    g = pulse_response(nu, paths.delay[None, :] / sample_interval, rolloff)
    return np.fft.fft(g, axis=0)


# --- PathSet CSV interchange ------------------------------------------------

_CSV_COLUMNS = ("theta_rad", "phi_rad", "tau_s", "alpha")


def save_paths_csv(paths: PathSet, path: str | Path) -> None:
    """Write a path set as CSV with columns theta_rad, phi_rad, tau_s, alpha."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for row in zip(paths.elevation, paths.azimuth, paths.delay, paths.amplitude):
            writer.writerow([f"{v:.17g}" for v in row])


def load_paths_csv(path: str | Path) -> PathSet:
    """Read a path set written by :func:`save_paths_csv` (or any external tool)."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read path CSV {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != _CSV_COLUMNS:
            raise ConfigError(f"path CSV must have columns {','.join(_CSV_COLUMNS)}, "
                              f"got {reader.fieldnames}")
        try:
            rows = [[float(rec[c]) for c in _CSV_COLUMNS] for rec in reader]
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"malformed row in path CSV {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"path CSV {path} has no data rows")
    cols = np.array(rows).T
    try:
        paths = PathSet(elevation=cols[0], azimuth=cols[1], delay=cols[2],
                        amplitude=cols[3])
    except ValueError as exc:
        raise ConfigError(f"invalid path CSV {path}: {exc}") from exc
    if not np.any(paths.amplitude > 0):
        raise ConfigError(f"path CSV {path} has no path with positive amplitude")
    return paths
