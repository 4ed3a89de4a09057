"""Configuration model: system/scenario/estimator sections, strict validation,
pilot patterns, and the SNR-to-noise-variance mapping.

A JSON config file mirrors the three sections::

    {"system": {...}, "scenario": {...}, "estimator": {...}}

Unknown sections or keys are rejected so a typo cannot silently fall back to a
default.  ``validate_config`` checks every invariant and returns an immutable
bundle of the three sections.

The rules of the two sweep axes, and of the delays they run on, are stated
once here, each as one function that every boundary applying it calls with
its own field's name, so a value is accepted or refused alike wherever it
enters:

* :func:`check_pilot_count`: a pilot count is >= 1 and divides N, so lies in
  [1, N] (``n_pilots``, :func:`build_pilot_pattern`, a plan's pilot counts);
* :func:`check_snr_points`: an SNR list is non-empty, finite, within
  +-``SNR_LIMIT_DB`` and repeats no point (``snr_grid_db``, a plan's SNR
  points); its repeat check, :func:`check_distinct`, also serves a plan's
  methods and pilot counts;
* :func:`check_within_cp`: delays stay below the CP duration
  (``delay_spread``, a supplied path set).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

# SNR points beyond this many dB leave no room in float64: 10**(snr/10) and
# the noise variances, Gram sums and combining gains built from it overflow
# or underflow well before +-3000 dB.
SNR_LIMIT_DB = 1000.0

# 4-phase unit-modulus pilot alphabet.
_PILOT_CONSTELLATION = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


class ConfigError(ValueError):
    """Raised when a configuration value violates an invariant."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class SystemConfig:
    """OFDM dimensioning, array size, and Monte Carlo controls."""

    n_subcarriers: int = 64        # N, power of two
    cp_length: int = 32            # cyclic prefix length in samples
    n_rx: int = 64                 # receive antennas
    n_pilots: int = 32             # pilot subcarriers, divides N
    subcarrier_spacing: float = 480e3   # Hz
    snr_grid_db: tuple[float, ...] = (-20.0, -15.0, -10.0, -5.0, 0.0,
                                      5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_trials: int = 500
    seed: int = 5

    @property
    def bandwidth(self) -> float:
        """Overall bandwidth B = N * subcarrier spacing."""
        return self.n_subcarriers * self.subcarrier_spacing

    @property
    def sample_interval(self) -> float:
        """T_s = 1 / B."""
        return 1.0 / self.bandwidth


@dataclass(frozen=True)
class ScenarioConfig:
    """Synthetic propagation environment knobs.

    ``pdp_decay`` is the exponential power-delay-profile rate: mean path power
    is proportional to exp(-pdp_decay * delay / delay_spread).  Negative values
    concentrate power at late delays (blocked line of sight with dominant far
    reflectors), which is the default geometry here.
    """

    n_paths: int = 25              # L, physical paths
    n_dt_paths: int = 5            # paths known to the twin prior
    delay_spread: float = 0.9e-6   # seconds; must stay below CP duration
    pdp_decay: float = -22.0
    azimuth_range: tuple[float, float] = (-math.pi / 2, math.pi / 2)
    elevation_range: tuple[float, float] = (-math.pi / 4, math.pi / 4)
    array_spacing: float = 0.5     # element spacing in wavelengths
    pulse_rolloff: float = 0.25    # raised-cosine rolloff, 0 gives a sinc


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the estimator family."""

    tau_max: float = 0.5e-6        # CIR pruning window of the denoiser
    n_batch: int = 64              # warm-up snapshots per batch-ML block
    bml_rank_spatial: int | str = "auto"   # "auto": the twin's path count
    bml_rank_temporal: int | str = "auto"
    svd_rank_tolerance: float = 1e-8       # relative to largest singular value


@dataclass(frozen=True)
class ConfigBundle:
    """Validated configuration; derived quantities (bandwidth, sample
    interval) are properties of ``system``."""

    system: SystemConfig
    scenario: ScenarioConfig
    estimator: EstimatorConfig


@dataclass(frozen=True, eq=False)
class PilotPattern:
    """Uniform comb of pilot subcarriers with unit-modulus symbols.

    Pilot power is 1: the noise variance is set from the SNR and the channel
    gain alone (:func:`noise_variance_for_snr`), so a pilot power would
    cancel from every output.
    """

    indices: np.ndarray   # int, strictly increasing, uniform spacing from 0
    symbols: np.ndarray   # complex, |x_k| == 1

    def __post_init__(self):
        idx = np.asarray(self.indices)
        sym = np.asarray(self.symbols)
        if idx.ndim != 1 or sym.shape != idx.shape or idx.size == 0:
            raise ConfigError("pilot indices/symbols must be equal-length 1-D arrays")
        if idx[0] != 0:
            raise ConfigError("pilot comb must start at subcarrier 0")
        if idx.size > 1:
            steps = np.diff(idx)
            if np.any(steps != steps[0]) or steps[0] <= 0:
                raise ConfigError("pilot indices must be uniformly spaced and increasing")

    def __len__(self) -> int:
        return int(self.indices.size)


def validate_config(system: SystemConfig,
                    scenario: ScenarioConfig,
                    estimator: EstimatorConfig) -> ConfigBundle:
    """Check every cross-field invariant; return the validated bundle."""
    n = system.n_subcarriers
    _require(n >= 2 and (n & (n - 1)) == 0,
             f"n_subcarriers must be a power of two >= 2, got {n}")
    check_pilot_count("n_pilots", system.n_pilots, n)
    _require(system.n_rx >= 1, "n_rx must be >= 1")
    _require(system.cp_length >= 0, "cp_length must be >= 0")
    _require(system.subcarrier_spacing > 0, "subcarrier_spacing must be positive")
    _require(math.isfinite(system.bandwidth) and math.isfinite(system.sample_interval),
             "subcarrier_spacing must give a finite bandwidth and sample interval, "
             f"got {system.subcarrier_spacing!r}")
    check_snr_points("snr_grid_db entries", system.snr_grid_db)
    _require(system.n_trials >= 1, "n_trials must be >= 1")
    _require(0 <= system.seed < 2 ** 63, "seed must be a non-negative 64-bit integer")

    _require(scenario.n_paths >= 1, "n_paths must be >= 1")
    _require(1 <= scenario.n_dt_paths <= scenario.n_paths,
             f"n_dt_paths must lie in [1, n_paths], got {scenario.n_dt_paths}")
    _require(scenario.delay_spread > 0, "delay_spread must be positive")
    check_within_cp("delay_spread", scenario.delay_spread, system)
    for name, rng_ in (("azimuth_range", scenario.azimuth_range),
                       ("elevation_range", scenario.elevation_range)):
        _require(len(rng_) == 2 and all(math.isfinite(v) for v in rng_) and rng_[0] <= rng_[1],
                 f"{name} must be a finite (low, high) pair")
    _require(scenario.array_spacing > 0, "array_spacing must be positive")
    _require(math.isfinite(2 * math.pi * scenario.array_spacing * system.n_rx),
             "array_spacing must give finite steering phases 2 pi spacing n_rx, "
             f"got {scenario.array_spacing!r}")
    _require(0.0 <= scenario.pulse_rolloff < 1.0,
             f"pulse_rolloff must lie in [0, 1), got {scenario.pulse_rolloff}")
    _require(math.isfinite(scenario.pdp_decay), "pdp_decay must be finite")

    _require(0 < estimator.tau_max < math.inf, "tau_max must be positive and finite")
    _require(estimator.n_batch >= 1, "n_batch must be >= 1")
    for name, rank, cap in (("bml_rank_spatial", estimator.bml_rank_spatial, system.n_rx),
                            ("bml_rank_temporal", estimator.bml_rank_temporal, system.n_pilots)):
        if rank != "auto":
            _require(isinstance(rank, int) and 1 <= rank <= cap,
                     f"{name} must be 'auto' or an integer in [1, {cap}], got {rank!r}")
    _require(0 < estimator.svd_rank_tolerance < 1,
             "svd_rank_tolerance must lie in (0, 1)")

    return ConfigBundle(system=system, scenario=scenario, estimator=estimator)


def check_pilot_count(name: str, count: int, n_subcarriers: int) -> None:
    """The pilot-count rule: ConfigError naming ``name`` unless ``count`` is
    at least 1 and divides ``n_subcarriers``, which puts it in [1, N]."""
    _require(count >= 1 and n_subcarriers % count == 0,
             f"{name} must be >= 1 and divide n_subcarriers ({n_subcarriers}), "
             f"got {count!r}")


def check_snr_points(name: str, snrs) -> None:
    """The SNR-list rule: ConfigError naming ``name`` if the list is empty,
    at its first point that is not finite or lies beyond +-SNR_LIMIT_DB, or
    if a point repeats."""
    _require(len(snrs) > 0, f"{name} must be non-empty")
    for s in snrs:
        _require(math.isfinite(s) and abs(s) <= SNR_LIMIT_DB,
                 f"{name} must be finite and within +-{SNR_LIMIT_DB:g} dB, got {s!r}")
    check_distinct(name, snrs)


def check_distinct(name: str, values) -> None:
    """ConfigError naming ``name`` if ``values`` repeat an entry.  Each SNR
    point, method or pilot count is one row group of a sweep's output, so a
    repeat would write its rows twice, or, for ECDF tables keyed by SNR, drop
    a table."""
    _require(len(set(values)) == len(values), f"{name} repeat an entry: {list(values)}")


def check_within_cp(name: str, delays, system: SystemConfig) -> None:
    """The CP rule: ConfigError naming ``name`` unless every delay stays
    strictly below the CP duration, so no symbol spills into the next."""
    cp_duration = system.cp_length * system.sample_interval
    _require(np.all(np.asarray(delays) < cp_duration),
             f"{name} must stay below the CP duration {cp_duration:.3e} s "
             f"(no inter-symbol interference), got {np.max(delays):.3e} s")


def build_pilot_pattern(n_subcarriers: int, n_pilots: int,
                        rng: np.random.Generator) -> PilotPattern:
    """Uniform pilot comb {0, N/N_p, 2N/N_p, ...} with random 4-phase symbols.

    ``n_pilots`` obeys the pilot-count rule (:func:`check_pilot_count`), as
    a config's ``n_pilots`` and a plan's pilot counts do."""
    check_pilot_count("n_pilots", n_pilots, n_subcarriers)
    step = n_subcarriers // n_pilots
    indices = np.arange(0, n_subcarriers, step)
    symbols = _PILOT_CONSTELLATION[rng.integers(0, 4, n_pilots)]
    return PilotPattern(indices=indices, symbols=symbols)


def noise_variance_for_snr(snr_db: float, beta: float) -> float:
    """Noise variance realizing a target SNR = beta / sigma_w^2 with
    unit-power pilots."""
    _require(beta > 0, "beta (average channel gain) must be positive")
    _require(math.isfinite(snr_db), "snr_db must be finite")
    return beta / (10.0 ** (snr_db / 10.0))


# --- JSON loading ---------------------------------------------------------

_SECTIONS = {"system": SystemConfig, "scenario": ScenarioConfig, "estimator": EstimatorConfig}

# Keys a config file may still name, though no output depends on them: the
# pilot power cancels from the noise calibration, and the carrier frequency
# from steering phases whose element spacing is in wavelengths.  Each must
# still be a positive number; the loader then drops it.  The table goes once
# bench/c8.json stops spelling them.
_RETIRED = {"system": ("carrier_freq", "symbol_power")}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _checked_value(section: str, key: str, value, default):
    """``value`` if it has the JSON type of the field's default, else ConfigError.

    Integer fields take JSON integers only, float fields any number, tuple
    fields a list of numbers, and the batch-ML ranks an integer or "auto".
    """
    if isinstance(default, tuple):
        ok = isinstance(value, list) and all(_is_number(v) for v in value)
        expected = "a list of numbers"
    elif isinstance(default, int):
        ok = _is_int(value)
        expected = "an integer"
    elif isinstance(default, float):
        ok = _is_number(value)
        expected = "a number"
    else:
        ok = value == default or _is_int(value)
        expected = f"an integer or {default!r}"
    if not ok:
        raise ConfigError(f"'{section}.{key}' must be {expected}, got {json.dumps(value)}")
    return tuple(value) if isinstance(default, tuple) else value


def _parse_section(cls, payload: dict, section: str):
    if not isinstance(payload, dict):
        raise ConfigError(f"'{section}' section must be a JSON object")
    payload = dict(payload)
    for key in _RETIRED.get(section, ()):
        if key in payload:
            value = payload.pop(key)
            _require(_is_number(value) and value > 0,
                     f"'{section}.{key}' must be a positive number, got {json.dumps(value)}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(payload) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}' section: {sorted(unknown)}")
    return cls(**{key: _checked_value(section, key, value, defaults[key])
                  for key, value in payload.items()})


def load_config(path: str | Path) -> ConfigBundle:
    """Load and validate a three-section JSON config file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config {path} must be a JSON object with three sections")
    unknown = set(payload) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    parsed = {name: _parse_section(cls, payload.get(name, {}), name)
              for name, cls in _SECTIONS.items()}
    return validate_config(parsed["system"], parsed["scenario"], parsed["estimator"])


# --- Presets --------------------------------------------------------------

def desk_config(**system_overrides) -> ConfigBundle:
    """Small-array defaults sized for quick desk runs and CI."""
    system_overrides.setdefault("n_rx", 16)
    system = SystemConfig(**system_overrides)
    return validate_config(system, ScenarioConfig(), EstimatorConfig())
