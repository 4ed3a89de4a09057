"""Named invariant checks runnable from the CLI.

Each check is independent, fast, and reports one pass/fail line.  Together
they pin the algebra the estimators rely on: projector structure, the
vectorization convention, the channel synthesis, noise calibration, and
deterministic output.
"""
from __future__ import annotations

import filecmp
import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import (apply_uplink, assemble_channel, channel_covariance,
                      draw_fading)
from .config import ConfigBundle, desk_config, noise_variance_for_snr
from .estimators import interpolate_full, ls_estimate
from .experiments import ExperimentPlan, build_environment, emit_csv, run_nmse_sweep
from .metrics import analytic_nmse
from .propagation import ArrayGeometry, PathSet, frequency_response, pulse_response, \
    steering_matrix
from .streams import complex_normal, substream
from .subspaces import ProjectorPair, bml_subspace, denoise_subspace, dt_subspace


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _vec(h: np.ndarray) -> np.ndarray:
    """Pilot-major vectorization: index = pilot * n_rx + rx."""
    return h.T.reshape(-1)


def _dense(proj: ProjectorPair) -> tuple[np.ndarray, np.ndarray]:
    """The dense projectors P_s = U_s U_s^H and P_t = conj(U_t) U_t^T that a
    pair's bases stand for; the checks below hold them against the algebra."""
    u_s, u_t = proj.basis_spatial, proj.basis_temporal
    return u_s @ u_s.conj().T, u_t.conj() @ u_t.T


def _small_paths(rng: np.random.Generator, n: int, delay_spread: float) -> PathSet:
    power = rng.uniform(0.2, 1.0, n)
    power /= power.sum()
    return PathSet(elevation=rng.uniform(-0.7, 0.7, n),
                   azimuth=rng.uniform(-1.5, 1.5, n),
                   delay=rng.uniform(0.0, delay_spread, n),
                   amplitude=np.sqrt(power))


def check_projectors(bundle: ConfigBundle) -> CheckResult:
    """Idempotency and Hermitianity of the twin and batch-ML projectors."""
    env = build_environment(bundle)
    worst = 0.0
    pairs = [("dt", env.projectors)]
    rng_f = substream(bundle.system.seed, 900)
    rng_n = substream(bundle.system.seed, 901)
    fading = np.stack([draw_fading(env.paths.amplitude, rng_f) for _ in range(32)])
    h = assemble_channel(env.steering, fading, env.freq_pilot)
    nv = noise_variance_for_snr(10.0, bundle.system.symbol_power, env.beta)
    rx = apply_uplink(h, env.pilots, nv, complex_normal(rng_n, h.shape))
    pairs.append(("bml", bml_subspace(ls_estimate(rx, env.pilots), 5, 5)))
    for _, proj in pairs:
        for p in _dense(proj):
            worst = max(worst, float(np.abs(p @ p - p).max()),
                        float(np.abs(p - p.conj().T).max()))
    ok = worst < 1e-10
    return CheckResult("projector-idempotent-hermitian", ok,
                       f"max deviation {worst:.2e} (tol 1e-10)")


def check_vec_kron(bundle: ConfigBundle) -> CheckResult:
    """vec(P_s H P_t) must equal (P_t^T kron P_s) vec(H)."""
    env = build_environment(bundle)
    p_s, p_t = _dense(env.projectors)
    rng = substream(bundle.system.seed, 902)
    h = complex_normal(rng, (p_s.shape[0], p_t.shape[0]))
    lhs = _vec(p_s @ h @ p_t)
    rhs = np.kron(p_t.T, p_s) @ _vec(h)
    err = float(np.abs(lhs - rhs).max())
    return CheckResult("vec-kronecker-identity", err < 1e-10,
                       f"max deviation {err:.2e} (tol 1e-10)")


def check_q_trace(bundle: ConfigBundle) -> CheckResult:
    """Tr{Q Q^H} = Tr{Q} = rank_s * rank_t for Q = P_t^T kron P_s."""
    env = build_environment(bundle)
    p_s, p_t = _dense(env.projectors)
    q = np.kron(p_t.T, p_s)
    tr_q = float(np.trace(q).real)
    tr_qq = float(np.trace(q @ q.conj().T).real)
    expect = env.projectors.rank_spatial * env.projectors.rank_temporal
    err = max(abs(tr_q - expect), abs(tr_qq - expect))
    return CheckResult("projected-noise-trace", err < 1e-8,
                       f"Tr{{Q}}={tr_q:.6f}, Tr{{QQ^H}}={tr_qq:.6f}, "
                       f"expected {expect} (tol 1e-8)")


def check_assemble(bundle: ConfigBundle) -> CheckResult:
    """Vectorized channel synthesis equals the per-entry triple sum (4x8x3)."""
    rng = substream(bundle.system.seed, 903)
    paths = _small_paths(rng, 3, 0.4e-6)
    geom = ArrayGeometry.uniform_linear(4, bundle.system.wavelength)
    a = steering_matrix(paths, geom)
    k = frequency_response(paths, 8, 1e-7, 0.25)
    c = draw_fading(paths.amplitude, rng)
    h = assemble_channel(a, c, k)
    brute = np.zeros((4, 8), dtype=complex)
    for i in range(4):
        for kk in range(8):
            for l in range(3):
                brute[i, kk] += a[i, l] * c[l] * k[kk, l]
    err = float(np.abs(h - brute).max())
    return CheckResult("channel-synthesis-brute-force", err < 1e-12,
                       f"max deviation {err:.2e} on 4x8x3 (tol 1e-12)")


def check_covariance_mc(bundle: ConfigBundle) -> CheckResult:
    """Sample covariance over 1e5 fading draws matches the structural form."""
    rng = substream(bundle.system.seed, 904)
    paths = _small_paths(rng, 6, 0.4e-6)
    geom = ArrayGeometry.uniform_linear(4, bundle.system.wavelength)
    pilot_idx = np.arange(0, 8, 1)
    cov = channel_covariance(paths, geom, 8, 1e-7, 0.25, pilot_idx)
    a = steering_matrix(paths, geom)
    k = frequency_response(paths, 8, 1e-7, 0.25, pilot_idx)
    n_draws, chunk = 100_000, 10_000
    acc = np.zeros_like(cov)
    for _ in range(n_draws // chunk):
        c = paths.amplitude * complex_normal(rng, (chunk, len(paths)))
        h = assemble_channel(a, c, k)
        v = h.transpose(0, 2, 1).reshape(chunk, -1)
        acc += v.T.conj() @ v
    sample_cov = acc.conj() / n_draws    # E[v v^H] with v = vec(H)
    rel = float(np.linalg.norm(sample_cov - cov) / np.linalg.norm(cov))
    return CheckResult("covariance-monte-carlo", rel < 0.02,
                       f"relative error {rel:.4f} over {n_draws} draws (tol 0.02)")


def check_fading_moments(bundle: ConfigBundle) -> CheckResult:
    """Fading is circular with per-path variance amplitude^2."""
    rng = substream(bundle.system.seed, 905)
    amp = np.array([1.0, 0.5, 0.1])
    # one draw of 200 000 fading vectors: the bits of 200 000 draw_fading calls
    draws = amp * complex_normal(rng, (200_000, amp.size))
    mean_err = float(np.abs(draws.mean(axis=0)).max())
    var_rel = float(np.abs((np.abs(draws) ** 2).mean(axis=0) / amp ** 2 - 1).max())
    # circularity, normalized per path so weak paths are not held to the
    # strong paths' absolute Monte Carlo noise
    pseudo = float((np.abs((draws ** 2).mean(axis=0)) / amp ** 2).max())
    ok = mean_err < 0.02 and var_rel < 0.02 and pseudo < 0.05
    return CheckResult("fading-moments", ok,
                       f"|mean|<={mean_err:.4f}, var rel err<={var_rel:.4f}, "
                       f"pseudo-var<={pseudo:.4f}")


def check_denoiser(bundle: ConfigBundle) -> CheckResult:
    """The delay-window pair projects idempotently, never increases the norm,
    and passes in-window taps through exactly."""
    env = build_environment(bundle)
    sysc = bundle.system
    window = denoise_subspace(sysc, bundle.estimator.tau_max)
    rng = substream(sysc.seed, 906)
    h = assemble_channel(env.steering, draw_fading(env.paths.amplitude, rng),
                         env.freq_pilot)
    noisy = ls_estimate(apply_uplink(h, env.pilots, 0.1, complex_normal(rng, h.shape)),
                        env.pilots)
    once = window.project(window.core(noisy))
    twice = window.project(window.core(once))
    idem = float(np.abs(twice - once).max())
    shrinks = np.linalg.norm(once) <= np.linalg.norm(noisy) + 1e-12
    # a pure in-window tap is untouched; a pure out-of-window tap is removed
    n_p = len(env.pilots)
    cir = np.zeros((sysc.n_rx, n_p), dtype=complex)
    cir[:, 1] = 1.0
    inside = np.fft.fft(cir, axis=-1)
    keep_err = float(np.abs(window.project(window.core(inside)) - inside).max())
    cir[:, 1] = 0.0
    cir[:, n_p - 2] = 1.0
    outside = np.fft.fft(cir, axis=-1)
    kill = float(np.abs(window.project(window.core(outside))).max())
    ok = idem < 1e-10 and shrinks and keep_err < 1e-10 and kill < 1e-10
    return CheckResult("denoiser-projection", ok,
                       f"idempotency {idem:.2e}, norm non-increasing {shrinks}, "
                       f"in-window passthrough {keep_err:.2e}, out-window {kill:.2e}")


def check_csv_determinism(bundle: ConfigBundle) -> CheckResult:
    """Identical seeds give byte-identical CSV, for 1 worker and for 2."""
    system = replace(bundle.system, n_trials=8, snr_grid_db=(0.0, 10.0))
    small = replace(bundle, system=system)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, workers in enumerate((1, 1, 2)):
            plan = ExperimentPlan(kind="nmse-sweep", bundle=small,
                                  methods=("ls", "emdt"), block_size=4,
                                  workers=workers)
            path = Path(tmp) / f"run{i}.csv"
            emit_csv(run_nmse_sweep(plan), path)
            outputs.append(path)
        same_seed = filecmp.cmp(outputs[0], outputs[1], shallow=False)
        same_par = filecmp.cmp(outputs[0], outputs[2], shallow=False)
    return CheckResult("csv-determinism", same_seed and same_par,
                       f"rerun identical: {same_seed}, worker-count invariant: {same_par}")


def check_noise_calibration(bundle: ConfigBundle) -> CheckResult:
    """Trace and rank forms of the projected-noise term agree; a full prior
    has zero floor; identity projectors reduce to the 1/SNR law."""
    env = build_environment(bundle)
    responses = (env.steering, env.freq_pilot, env.paths.amplitude)
    try:
        bk = analytic_nmse(env.projectors, *responses, 7.0, bundle.system.symbol_power,
                           noise_variance_for_snr(7.0, bundle.system.symbol_power,
                                                  env.beta))
    except ValueError as exc:
        return CheckResult("noise-term-calibration", False, str(exc))
    full_prior = dt_subspace(env.paths, env.geometry, bundle.system.n_subcarriers,
                             bundle.system.sample_interval, bundle.scenario.pulse_rolloff,
                             env.pilots.indices)
    full_floor = analytic_nmse(full_prior, *responses, 0.0,
                               bundle.system.symbol_power,
                               noise_variance_for_snr(0.0, bundle.system.symbol_power,
                                                      env.beta)).subspace_floor
    ls_bk = analytic_nmse(ProjectorPair(None, None), *responses, 10.0,
                          bundle.system.symbol_power,
                          noise_variance_for_snr(10.0, bundle.system.symbol_power,
                                                 env.beta))
    ls_ok = (abs(ls_bk.noise_term - 0.1) < 1e-9 and ls_bk.subspace_floor < 1e-10)
    ok = full_floor < 1e-10 and ls_ok
    return CheckResult("noise-term-calibration", ok,
                       f"dual forms agree, full-prior floor {full_floor:.2e}, "
                       f"identity-projector noise {ls_bk.noise_term:.6f} (expect 0.1)")


def check_pulse(bundle: ConfigBundle) -> CheckResult:
    """Raised-cosine peak, zero crossings, and the removable singularity."""
    beta = 0.25
    peak = float(pulse_response(0.0, 0.0, beta))
    zero = float(np.abs(pulse_response(np.array([1.0, 2.0, 3.0]), 0.0, beta)).max())
    sing = float(pulse_response(1.0 / (2 * beta), 0.0, beta))
    expect_sing = (math.pi / 4) * math.sin(math.pi / (2 * beta)) / (math.pi / (2 * beta))
    err = max(abs(peak - 1.0), zero, abs(sing - expect_sing))
    return CheckResult("pulse-shape-points", err < 1e-12,
                       f"peak {peak:.12f}, integer zeros {zero:.2e}, "
                       f"singularity deviation {abs(sing - expect_sing):.2e}")


def check_error_decomposition(bundle: ConfigBundle) -> CheckResult:
    """Projection error splits exactly into floor and noise parts per trial."""
    env = build_environment(bundle)
    p_s, p_t = _dense(env.projectors)
    rng = substream(bundle.system.seed, 907)
    worst = 0.0
    for _ in range(16):
        h = assemble_channel(env.steering, draw_fading(env.paths.amplitude, rng),
                             env.freq_pilot)
        n = complex_normal(rng, h.shape)
        est = p_s @ (h + n) @ p_t
        lhs = np.linalg.norm(est - h) ** 2
        rhs = (np.linalg.norm(h - p_s @ h @ p_t) ** 2
               + np.linalg.norm(p_s @ n @ p_t) ** 2)
        worst = max(worst, abs(lhs - rhs) / rhs)
    return CheckResult("error-orthogonal-split", worst < 1e-10,
                       f"max relative deviation {worst:.2e} over 16 draws (tol 1e-10)")


def check_interpolation(bundle: ConfigBundle) -> CheckResult:
    """Full-grid interpolation reproduces pilot values exactly."""
    env = build_environment(bundle)
    rng = substream(bundle.system.seed, 908)
    h = assemble_channel(env.steering, draw_fading(env.paths.amplitude, rng),
                         env.freq_pilot)
    est = ls_estimate(apply_uplink(h, env.pilots, 0.05, complex_normal(rng, h.shape)),
                      env.pilots)
    full = interpolate_full(est, env.pilots, bundle.system.n_subcarriers)
    err = float(np.abs(full[..., env.pilots.indices] - est).max())
    return CheckResult("interpolation-pilot-exact", err < 1e-12,
                       f"max pilot-position deviation {err:.2e}")


ALL_CHECKS = (
    check_projectors,
    check_vec_kron,
    check_q_trace,
    check_assemble,
    check_covariance_mc,
    check_fading_moments,
    check_denoiser,
    check_csv_determinism,
    check_noise_calibration,
    check_pulse,
    check_error_decomposition,
    check_interpolation,
)


def run_validation(bundle: ConfigBundle | None = None) -> list[CheckResult]:
    """Run every named check against the given (default: desk) configuration."""
    if bundle is None:
        bundle = desk_config()
    return [check(bundle) for check in ALL_CHECKS]
