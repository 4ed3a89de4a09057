"""Experiment harness: Monte Carlo sweeps over SNR and pilot count, ECDF
collection, and deterministic CSV emission.

Randomness is organized as per-purpose substreams keyed by (seed, purpose,
trial), so a trial draws identical fading/noise regardless of chunking,
worker count, or which SNR point is being evaluated (noise is drawn at unit
variance and scaled).  Chunks are fixed-size contiguous trial ranges; partial
results are reduced in chunk order, which makes output byte-identical for any
parallelism degree.  The batch-ML baseline re-estimates its projectors once
per chunk from its own warm-up snapshots.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (apply_uplink, assemble_channel, average_gain_from_responses,
                      channel_covariance, draw_fading)
from .config import (ConfigBundle, ConfigError, PilotPattern, build_pilot_pattern,
                     noise_variance_for_snr, validate_config)
from .estimators import (ChannelEstimate, denoise_estimate, interpolate_full,
                         ls_estimate, project_estimate)
from .metrics import MetricsRecord, analytic_nmse, ecdf, Ecdf, \
    genie_spectral_efficiency, post_combining_snr_samples
from .propagation import (ArrayGeometry, PathSet, dt_truncate, frequency_response,
                          generate_paths, steering_matrix)
from .streams import (FADING, NOISE, PATHS, PILOTS, WARM_FADING, WARM_NOISE,
                      complex_normal, substream)
from .subspaces import ProjectorPair, bml_subspace, dt_subspace, make_projectors

EXPERIMENT_KINDS = ("nmse-sweep", "se-sweep", "ecdf", "pilot-sweep")
NMSE_METHODS = ("ls", "denoise", "bml", "emdt")
SE_METHODS = ("ideal", "ls", "denoise", "bml", "emdt")
PILOT_SWEEP_METHODS = ("ls", "emdt")
DEFAULT_PILOT_SNRS = (-15.0, 0.0, 15.0)
DEFAULT_ECDF_SNRS = (-10.0, 5.0)


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: experiment kind, configuration, methods, and overrides."""

    kind: str
    bundle: ConfigBundle
    methods: tuple[str, ...] = ()
    snr_points: tuple[float, ...] = ()      # ecdf only
    pilot_counts: tuple[int, ...] = ()      # pilot-sweep only
    pilot_snrs: tuple[float, ...] = DEFAULT_PILOT_SNRS
    block_size: int = 50
    workers: int = 1
    environment: PathSet | None = None      # externally supplied path set


def validate_plan(plan: ExperimentPlan) -> ExperimentPlan:
    """Fill method defaults and reject inconsistent plans."""
    if plan.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {plan.kind!r}; "
                          f"choose from {EXPERIMENT_KINDS}")
    if plan.block_size < 1:
        raise ConfigError("block_size must be >= 1")
    if plan.workers < 1:
        raise ConfigError("workers must be >= 1")
    allowed = {"nmse-sweep": NMSE_METHODS, "se-sweep": SE_METHODS,
               "ecdf": SE_METHODS, "pilot-sweep": PILOT_SWEEP_METHODS}[plan.kind]
    methods = plan.methods or allowed
    bad = set(methods) - set(allowed)
    if bad:
        raise ConfigError(f"methods {sorted(bad)} not valid for {plan.kind} "
                          f"(allowed: {allowed})")
    plan = replace(plan, methods=tuple(methods))
    if plan.kind == "ecdf":
        snrs = plan.snr_points or DEFAULT_ECDF_SNRS
        if not snrs:
            raise ConfigError("ecdf needs at least one SNR point")
        plan = replace(plan, snr_points=tuple(float(s) for s in snrs))
    if plan.kind == "pilot-sweep":
        counts = plan.pilot_counts or _default_pilot_counts(plan.bundle.system.n_subcarriers)
        n = plan.bundle.system.n_subcarriers
        for c in counts:
            if not 1 <= c <= n or n % c != 0:
                raise ConfigError(f"pilot count {c} must divide n_subcarriers {n}")
        if not plan.pilot_snrs:
            raise ConfigError("pilot-sweep needs at least one SNR point")
        plan = replace(plan, pilot_counts=tuple(sorted(set(int(c) for c in counts))))
    return plan


def _default_pilot_counts(n_subcarriers: int) -> tuple[int, ...]:
    counts = []
    c = 2
    while c <= n_subcarriers:
        counts.append(c)
        c *= 2
    return tuple(counts)


# --- Environment (everything fixed across trials) --------------------------

@dataclass(frozen=True, eq=False)
class Environment:
    """Deterministic per-seed context shared by every trial."""

    bundle: ConfigBundle
    paths: PathSet
    twin_paths: PathSet
    geometry: ArrayGeometry
    pilots: PilotPattern
    steering: np.ndarray       # (n_rx, L)
    freq_full: np.ndarray      # (N, L)
    freq_pilot: np.ndarray     # (N_p, L)
    projectors: ProjectorPair
    beta: float

    @property
    def seed(self) -> int:
        return self.bundle.system.seed


def bml_ranks(env: Environment) -> tuple[int, int]:
    """Configured batch-ML ranks; 'auto' tracks the twin path count."""
    est = env.bundle.estimator
    auto = env.bundle.scenario.n_dt_paths
    r_s = auto if est.bml_rank_spatial == "auto" else est.bml_rank_spatial
    r_t = auto if est.bml_rank_temporal == "auto" else est.bml_rank_temporal
    return min(r_s, env.bundle.system.n_rx), min(r_t, len(env.pilots))


def build_environment(bundle: ConfigBundle, paths: PathSet | None = None) -> Environment:
    """Draw (or adopt) the path set and precompute responses and priors."""
    sysc, scen, estc = bundle.system, bundle.scenario, bundle.estimator
    if paths is None:
        paths = generate_paths(scen, substream(sysc.seed, PATHS))
    else:
        cp_duration = sysc.cp_length * sysc.sample_interval
        if np.any(paths.delay >= cp_duration):
            raise ConfigError("supplied path delays exceed the CP duration")
    twin = dt_truncate(paths, min(scen.n_dt_paths, len(paths)))
    geometry = ArrayGeometry.uniform_linear(sysc.n_rx, bundle.wavelength,
                                            scen.array_spacing)
    pilots = build_pilot_pattern(sysc.n_subcarriers, sysc.n_pilots,
                                 sysc.symbol_power, substream(sysc.seed, PILOTS))
    steering = steering_matrix(paths, geometry)
    freq_full = frequency_response(paths, sysc.n_subcarriers, bundle.sample_interval,
                                   scen.pulse_rolloff)
    freq_pilot = freq_full[pilots.indices]
    prior = dt_subspace(twin, geometry, sysc.n_subcarriers, bundle.sample_interval,
                        scen.pulse_rolloff, pilots.indices,
                        tol=estc.svd_rank_tolerance)
    projectors = make_projectors(prior)
    beta = average_gain_from_responses(paths.amplitude, freq_pilot)
    return Environment(bundle=bundle, paths=paths, twin_paths=twin,
                       geometry=geometry, pilots=pilots, steering=steering,
                       freq_full=freq_full, freq_pilot=freq_pilot,
                       projectors=projectors, beta=beta)


def pilot_covariance(env: Environment) -> np.ndarray:
    """Structural covariance of the vectorized pilot-grid channel.

    Dense (n_rx * n_pilots)-square; the sweeps never build it.  It is the
    reference that the per-path traces of :func:`analytic_nmse` are checked
    against.
    """
    return channel_covariance(env.paths, env.geometry,
                              env.bundle.system.n_subcarriers,
                              env.bundle.sample_interval,
                              env.bundle.scenario.pulse_rolloff,
                              env.pilots.indices)


# --- Per-chunk simulation ---------------------------------------------------

def _chunk_fading(env: Environment, t0: int, t1: int) -> np.ndarray:
    return np.stack([draw_fading(env.paths.amplitude, substream(env.seed, FADING, t))
                     for t in range(t0, t1)])


def _chunk_unit_noise(env: Environment, t0: int, t1: int) -> np.ndarray:
    shape = (env.bundle.system.n_rx, len(env.pilots))
    return np.stack([complex_normal(substream(env.seed, NOISE, t), shape)
                     for t in range(t0, t1)])


def _chunk_bml_projectors(env: Environment, noise_variance: float,
                          block: int) -> ProjectorPair:
    """Warm-up LS snapshots for one trial block, then sample-covariance bases."""
    n_batch = env.bundle.estimator.n_batch
    amp = env.paths.amplitude
    fading = np.stack([draw_fading(amp, substream(env.seed, WARM_FADING, block, j))
                       for j in range(n_batch)])
    shape = (env.bundle.system.n_rx, len(env.pilots))
    noise = np.stack([complex_normal(substream(env.seed, WARM_NOISE, block, j), shape)
                      for j in range(n_batch)])
    h = assemble_channel(env.steering, fading, env.freq_pilot)
    rx = apply_uplink(h, env.pilots, noise_variance, noise)
    r_s, r_t = bml_ranks(env)
    return bml_subspace(ls_estimate(rx).h, r_s, r_t)


def _chunk_estimates(env: Environment, noise_variance: float, t0: int, t1: int,
                     methods: tuple[str, ...], with_full: bool):
    """Simulate trials [t0, t1) and estimate with every requested method.

    Returns (truth_pilot, truth_full or None, {method: pilot-grid estimate}).
    """
    fading = _chunk_fading(env, t0, t1)
    if with_full:
        truth_full = assemble_channel(env.steering, fading, env.freq_full)
        truth_pilot = truth_full[..., env.pilots.indices]
    else:
        truth_full = None
        truth_pilot = assemble_channel(env.steering, fading, env.freq_pilot)
    rx = apply_uplink(truth_pilot, env.pilots, noise_variance,
                      _chunk_unit_noise(env, t0, t1))
    ls = ls_estimate(rx)
    estimates: dict[str, ChannelEstimate] = {}
    for method in methods:
        if method == "ls":
            estimates[method] = ls
        elif method == "emdt":
            estimates[method] = project_estimate(ls, env.projectors, "emdt")
        elif method == "denoise":
            estimates[method] = denoise_estimate(ls, env.bundle.estimator.tau_max,
                                                 env.bundle.system)
        else:
            raise ConfigError(f"unknown method {method!r}")
    return truth_pilot, truth_full, estimates


def _simulate_chunk(env: Environment, noise_variance: float, t0: int, t1: int,
                    methods: tuple[str, ...], with_full: bool, block_size: int):
    """Like :func:`_chunk_estimates` but with the batch-ML method included."""
    wants_bml = "bml" in methods
    base_methods = tuple(m for m in methods if m not in ("bml", "ideal"))
    need_ls = wants_bml and "ls" not in base_methods
    sim_methods = base_methods + (("ls",) if need_ls else ())
    truth_pilot, truth_full, estimates = _chunk_estimates(
        env, noise_variance, t0, t1, sim_methods, with_full)
    if wants_bml:
        proj = _chunk_bml_projectors(env, noise_variance, t0 // block_size)
        estimates["bml"] = project_estimate(estimates["ls"], proj, "bml")
        if need_ls:
            del estimates["ls"]
    return truth_pilot, truth_full, estimates


def _chunk_ranges(n_trials: int, block_size: int) -> list[tuple[int, int]]:
    return [(t0, min(t0 + block_size, n_trials))
            for t0 in range(0, n_trials, block_size)]


def _map_chunks(fn, args_list, workers: int):
    """Apply ``fn`` over chunk argument tuples, preserving chunk order."""
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [f.result() for f in futures]


# --- NMSE sweep -------------------------------------------------------------

def _nmse_chunk(env: Environment, noise_variance: float, t0: int, t1: int,
                methods: tuple[str, ...], block_size: int):
    truth, _, estimates = _simulate_chunk(env, noise_variance, t0, t1, methods,
                                          with_full=False, block_size=block_size)
    err = {m: float(np.sum(np.abs(est.h - truth) ** 2))
           for m, est in estimates.items()}
    return err, float(np.sum(np.abs(truth) ** 2))


def run_nmse_sweep(plan: ExperimentPlan) -> list[MetricsRecord]:
    """Empirical NMSE per (method, SNR); analytic breakdown for the twin prior."""
    plan = validate_plan(plan)
    env = build_environment(plan.bundle, plan.environment)
    sysc = plan.bundle.system
    records = []
    for snr_db in sysc.snr_grid_db:
        noise_variance = noise_variance_for_snr(snr_db, sysc.symbol_power, env.beta)
        args = [(env, noise_variance, t0, t1, plan.methods, plan.block_size)
                for t0, t1 in _chunk_ranges(sysc.n_trials, plan.block_size)]
        partials = _map_chunks(_nmse_chunk, args, plan.workers)
        chan_energy = sum(p[1] for p in partials)
        for method in plan.methods:
            err_energy = sum(p[0][method] for p in partials)
            nmse = err_energy / chan_energy
            analytic = None
            if method == "emdt":
                analytic = analytic_nmse(env.projectors, env.steering,
                                         env.freq_pilot, env.paths.amplitude,
                                         snr_db, sysc.symbol_power, noise_variance)
            records.append(MetricsRecord(method=method, snr_db=float(snr_db),
                                         n_pilots=sysc.n_pilots,
                                         trials=sysc.n_trials, nmse_emp=nmse,
                                         nmse_analytic=analytic))
    _check_finite(records)
    return records


def measure_projection_floor(env: Environment, n_trials: int,
                             block_size: int = 50) -> float:
    """Noiseless twin-projection NMSE over the same fading streams the noisy
    sweeps use; this is the measured subspace floor."""
    num = 0.0
    den = 0.0
    for t0, t1 in _chunk_ranges(n_trials, block_size):
        truth, _, est = _simulate_chunk(env, 0.0, t0, t1, ("emdt",),
                                        with_full=False, block_size=block_size)
        num += float(np.sum(np.abs(est["emdt"].h - truth) ** 2))
        den += float(np.sum(np.abs(truth) ** 2))
    return num / den


# --- Spectral-efficiency sweep ----------------------------------------------

def _se_chunk(env: Environment, noise_variance: float, t0: int, t1: int,
              methods: tuple[str, ...], block_size: int):
    _, truth_full, estimates = _simulate_chunk(
        env, noise_variance, t0, t1, methods, with_full=True,
        block_size=block_size)
    sysc = env.bundle.system
    out = {}
    for method in methods:
        if method == "ideal":
            est_full = truth_full
        else:
            est_full = interpolate_full(estimates[method], env.pilots,
                                        sysc.n_subcarriers).h
        se = genie_spectral_efficiency(est_full, truth_full, sysc.symbol_power,
                                       noise_variance)
        out[method] = se * (t1 - t0)
    return out, t1 - t0


def run_se_sweep(plan: ExperimentPlan) -> list[MetricsRecord]:
    """Genie-aided spectral efficiency per (method, SNR) on the full grid."""
    plan = validate_plan(plan)
    env = build_environment(plan.bundle, plan.environment)
    sysc = plan.bundle.system
    records = []
    for snr_db in sysc.snr_grid_db:
        noise_variance = noise_variance_for_snr(snr_db, sysc.symbol_power, env.beta)
        args = [(env, noise_variance, t0, t1, plan.methods, plan.block_size)
                for t0, t1 in _chunk_ranges(sysc.n_trials, plan.block_size)]
        partials = _map_chunks(_se_chunk, args, plan.workers)
        total = sum(p[1] for p in partials)
        for method in plan.methods:
            se = sum(p[0][method] for p in partials) / total
            records.append(MetricsRecord(method=method, snr_db=float(snr_db),
                                         n_pilots=sysc.n_pilots, trials=sysc.n_trials,
                                         spectral_efficiency=se))
    _check_finite(records)
    return records


# --- ECDF of post-combining SNR ----------------------------------------------

def _ecdf_chunk(env: Environment, noise_variance: float, t0: int, t1: int,
                methods: tuple[str, ...], block_size: int):
    _, truth_full, estimates = _simulate_chunk(
        env, noise_variance, t0, t1, methods, with_full=True,
        block_size=block_size)
    sysc = env.bundle.system
    out = {}
    for method in methods:
        if method == "ideal":
            est_full = truth_full
        else:
            est_full = interpolate_full(estimates[method], env.pilots,
                                        sysc.n_subcarriers).h
        out[method] = post_combining_snr_samples(est_full, truth_full,
                                                 sysc.symbol_power, noise_variance)
    return out


def run_ecdf(plan: ExperimentPlan) -> dict[tuple[str, float], Ecdf]:
    """ECDF of per-subcarrier post-combining SNR at the requested SNR points."""
    plan = validate_plan(plan)
    env = build_environment(plan.bundle, plan.environment)
    sysc = plan.bundle.system
    tables: dict[tuple[str, float], Ecdf] = {}
    for snr_db in plan.snr_points:
        noise_variance = noise_variance_for_snr(snr_db, sysc.symbol_power, env.beta)
        args = [(env, noise_variance, t0, t1, plan.methods, plan.block_size)
                for t0, t1 in _chunk_ranges(sysc.n_trials, plan.block_size)]
        partials = _map_chunks(_ecdf_chunk, args, plan.workers)
        for method in plan.methods:
            samples = np.concatenate([p[method] for p in partials])
            tables[(method, float(snr_db))] = ecdf(samples)
    return tables


# --- Pilot-count sweep --------------------------------------------------------

def _pilot_chunk(env: Environment, noise_variance: float, t0: int, t1: int,
                 methods: tuple[str, ...], block_size: int):
    truth, _, estimates = _simulate_chunk(env, noise_variance, t0, t1, methods,
                                          with_full=False, block_size=block_size)
    sysc = env.bundle.system
    out = {}
    for method, est in estimates.items():
        err = float(np.sum(np.abs(est.h - truth) ** 2))
        se = genie_spectral_efficiency(est.h, truth, sysc.symbol_power,
                                       noise_variance)
        out[method] = (err, se * (t1 - t0))
    return out, float(np.sum(np.abs(truth) ** 2)), t1 - t0


def run_pilot_sweep(plan: ExperimentPlan) -> list[MetricsRecord]:
    """NMSE and overhead-adjusted SE versus pilot count.

    Estimation quality is evaluated on the pilot subcarriers themselves; the
    spectral efficiency is scaled by the data fraction (1 - N_p/N).
    """
    plan = validate_plan(plan)
    base = plan.bundle
    records = []
    for n_p in plan.pilot_counts:
        system = replace(base.system, n_pilots=n_p)
        bundle = validate_config(system, base.scenario, base.estimator)
        env = build_environment(bundle, plan.environment)
        overhead = 1.0 - n_p / system.n_subcarriers
        for snr_db in plan.pilot_snrs:
            noise_variance = noise_variance_for_snr(snr_db, system.symbol_power,
                                                    env.beta)
            args = [(env, noise_variance, t0, t1, plan.methods, plan.block_size)
                    for t0, t1 in _chunk_ranges(system.n_trials, plan.block_size)]
            partials = _map_chunks(_pilot_chunk, args, plan.workers)
            chan_energy = sum(p[1] for p in partials)
            total = sum(p[2] for p in partials)
            for method in plan.methods:
                err = sum(p[0][method][0] for p in partials)
                se = sum(p[0][method][1] for p in partials) / total
                records.append(MetricsRecord(
                    method=method, snr_db=float(snr_db), n_pilots=n_p,
                    trials=system.n_trials, nmse_emp=err / chan_energy,
                    spectral_efficiency=se * overhead))
    _check_finite(records)
    return records


def _check_finite(records: list[MetricsRecord]) -> None:
    for rec in records:
        for v in (rec.nmse_emp, rec.spectral_efficiency):
            if v is not None and not math.isfinite(v):
                raise RuntimeError(f"non-finite metric in record {rec}")


# --- CSV emission -------------------------------------------------------------

CSV_HEADER = ("method", "snr_db", "n_pilots", "nmse_emp", "nmse_floor",
              "nmse_noise", "se_bps_hz", "trials")


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


def emit_csv(records: list[MetricsRecord], path: str | Path) -> None:
    """Write records sorted by (method, snr, n_pilots); floats at 9 significant
    digits; empty fields where a metric does not apply."""
    if not records:
        raise ValueError("no records to write")
    rows = sorted(records, key=lambda r: (r.method, r.snr_db, r.n_pilots))
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in rows:
                floor = r.nmse_analytic.subspace_floor if r.nmse_analytic else None
                noise = r.nmse_analytic.noise_term if r.nmse_analytic else None
                writer.writerow([r.method, _fmt(r.snr_db), str(r.n_pilots),
                                 _fmt(r.nmse_emp), _fmt(floor), _fmt(noise),
                                 _fmt(r.spectral_efficiency), str(r.trials)])
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc


def emit_ecdf_csv(tables: dict[tuple[str, float], Ecdf], path: str | Path) -> None:
    """One row per sample: method, snr_db, sample SNR in dB, cumulative fraction."""
    if not tables:
        raise ValueError("no ECDF tables to write")
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("method", "snr_db", "sample_snr_db", "cum_frac"))
            for (method, snr_db) in sorted(tables):
                table = tables[(method, snr_db)]
                with np.errstate(divide="ignore"):
                    snr_samples_db = 10.0 * np.log10(table.thresholds)
                for q, f in zip(snr_samples_db, table.fractions):
                    writer.writerow([method, _fmt(snr_db), _fmt(q), _fmt(f)])
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc
