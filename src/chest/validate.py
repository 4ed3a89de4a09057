"""Named invariant checks runnable from the CLI.

Each check is independent, fast, and reports one pass/fail line.  Together
they pin the algebra the estimators rely on: projector structure, the
vectorization convention, the channel synthesis, noise calibration, and
deterministic output.  The projection checks run the sweeps' own pairs
(``experiments._method_bases``) and trials (``experiments._draw``) of trial
block 0 against each side's dense projector, n_rx^2 or n_pilots^2, and
never form the Kronecker product of the two:

* projector-idempotent-hermitian: each side of the twin, delay-window and
  batch-ML pairs (from block 0's warm-up Grams) is a projector.
* projected-noise-trace: Tr{Q} = Tr{Q Q^H} = r_s r_t for Q = P_t^T kron P_s
  of the same pairs, from per-side traces: tr(A kron B) = tr(A) tr(B).
* error-orthogonal-split: the per-trial errors the sweeps' one reducer,
  ``experiments._reduce_slice``, takes for the ``"error"`` output, split as
  ||PH - H||^2 + sigma^2 ||core(W')||^2, equal ||P_s (H + sigma W') P_t - H||^2
  for every NMSE method's pair at each SNR point in its entry's range.
* interpolation-pilot-exact: M and each pair's synthesis rows U_t^T M keep
  the pilot columns.
* vec-kronecker-identity: vec(P_s H P_t) = (P_t^T kron P_s) vec(H), vec
  pilot-major, on a fixed 4 x 8 twin pair, as the convention is size-free.

That check, channel-synthesis-brute-force and covariance-monte-carlo take
the responses of a few random paths on 4 antennas and 8 subcarriers, every
subcarrier a pilot, from :func:`_small_responses`.
"""
from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import assemble_channel, channel_covariance
from .config import ConfigBundle, desk_config
from .experiments import (SWEEPS, ExperimentPlan, build_environment, emit_csv,
                          run_nmse_sweep, _draw, _method_bases, _noise_variances,
                          _reduce_slice)
from .metrics import analytic_nmse, _energy
from .propagation import PathSet, frequency_response, pulse_response, steering_matrix
from .streams import FADING, NOISE, complex_normal, substream
from .subspaces import ProjectorPair, dt_subspace, interpolation_matrix

PAIR_METHODS = ("emdt", "denoise", "bml")     # the sweeps' pairs besides LS
CHECK_SNR = 10.0    # dB; the point at which a single-point check takes batch-ML
SPACING = 0.5       # wavelengths; element spacing of the fixed 4-antenna instances


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dense(pair: ProjectorPair) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The dense P_s = U_s U_s^H and P_t = conj(U_t) U_t^T; None: identity."""
    u_s, u_t = pair.basis_spatial, pair.basis_temporal
    return (None if u_s is None else u_s @ u_s.conj().T,
            None if u_t is None else u_t.conj() @ u_t.T)


def _chunk_bases(bundle: ConfigBundle, methods: tuple[str, ...], snrs):
    """Environment, noise variances and trial block 0's ``_method_bases``."""
    env = build_environment(bundle)
    variances = np.asarray(_noise_variances(env, snrs))
    return env, variances, _method_bases(env, methods, variances, 0)


def _draw_trials(env, n_trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fading, pilot-grid H and unit LS noise W' of trials [0, n_trials)."""
    trials = range(n_trials)
    fading, noise = _draw(env, [(FADING, t) for t in trials], [(NOISE, t) for t in trials])
    return fading, assemble_channel(env.steering, fading, env.freq_pilot), noise


def _small_responses(rng: np.random.Generator, n: int):
    """Steering matrix (4, n), frequency response (8, n) and amplitudes of
    ``n`` random paths with delays under 0.4 us, at T_s = 0.1 us."""
    power = rng.uniform(0.2, 1.0, n)
    power /= power.sum()
    paths = PathSet(elevation=rng.uniform(-0.7, 0.7, n),
                    azimuth=rng.uniform(-1.5, 1.5, n),
                    delay=rng.uniform(0.0, 0.4e-6, n),
                    amplitude=np.sqrt(power))
    return (steering_matrix(paths, 4, SPACING), frequency_response(paths, 8, 1e-7, 0.25),
            paths.amplitude)


def check_projectors(bundle: ConfigBundle) -> CheckResult:
    """Idempotency and Hermitianity of each side of a chunk's pairs."""
    _, _, bases = _chunk_bases(bundle, PAIR_METHODS, (CHECK_SNR,))
    sides = [p for _, _, pair in bases for p in _dense(pair) if p is not None]
    worst = max(max(float(np.abs(p @ p - p).max()), float(np.abs(p - p.conj().T).max()))
                for p in sides)
    return CheckResult("projector-idempotent-hermitian", worst < 1e-10,
                       f"max deviation {worst:.2e} over {len(sides)} sides (tol 1e-10)")


def check_vec_kron(bundle: ConfigBundle) -> CheckResult:
    """vec(P_s H P_t) must equal (P_t^T kron P_s) vec(H) (4x8 twin pair)."""
    rng = substream(bundle.system.seed, 902)
    a, k, _ = _small_responses(rng, 3)
    p_s, p_t = _dense(dt_subspace(a, k))
    h = complex_normal(rng, (4, 8))
    lhs = (p_s @ h @ p_t).T.reshape(-1)     # pilot-major vec
    rhs = np.kron(p_t.T, p_s) @ h.T.reshape(-1)
    err = float(np.abs(lhs - rhs).max())
    return CheckResult("vec-kronecker-identity", err < 1e-10,
                       f"max deviation {err:.2e} on 4x8 (tol 1e-10)")


def check_q_trace(bundle: ConfigBundle) -> CheckResult:
    """Tr{Q Q^H} = Tr{Q} = rank_s * rank_t for Q = P_t^T kron P_s of a
    chunk's pairs, as Tr{Q} = Tr{P_t} Tr{P_s} and Tr{Q Q^H} = Tr{P_t P_t^H}
    Tr{P_s P_s^H}; an identity side I_n contributes n to both."""
    env, _, bases = _chunk_bases(bundle, PAIR_METHODS, (CHECK_SNR,))
    dims = (bundle.system.n_rx, len(env.pilots))
    worst, ranks = 0.0, []
    for method, _, pair in bases:
        tr_q, tr_qq = np.prod([(n, n) if p is None else
                               (np.trace(p).real, np.trace(p @ p.conj().T).real)
                               for p, n in zip(_dense(pair), dims)], axis=0)
        expect = (pair.rank_spatial or dims[0]) * (pair.rank_temporal or dims[1])
        worst = max(worst, abs(tr_q - expect), abs(tr_qq - expect))
        ranks.append(f"{method} {expect}")
    return CheckResult("projected-noise-trace", worst < 1e-8,
                       f"max deviation {worst:.2e} from r_s r_t ({', '.join(ranks)}) "
                       f"(tol 1e-8)")


def check_assemble(bundle: ConfigBundle) -> CheckResult:
    """Vectorized channel synthesis equals the per-entry triple sum (4x8x3)."""
    rng = substream(bundle.system.seed, 903)
    a, k, amplitude = _small_responses(rng, 3)
    c = amplitude * complex_normal(rng, amplitude.shape)
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
    a, k, amplitude = _small_responses(rng, 6)
    cov = channel_covariance(a, k, amplitude)
    n_draws, chunk = 100_000, 1_000
    acc = np.zeros_like(cov)
    for _ in range(n_draws // chunk):
        c = amplitude * complex_normal(rng, (chunk, amplitude.size))
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
    # 200 000 fading vectors, the bits of 200 000 one-vector draws, in blocks
    # whose sums of d, |d|^2 and d^2 are added up
    n_draws, chunk = 200_000, 10_000
    sums = np.zeros((3, amp.size), dtype=complex)
    for _ in range(n_draws // chunk):
        draws = amp * complex_normal(rng, (chunk, amp.size))
        sums += [draws.sum(axis=0), (np.abs(draws) ** 2).sum(axis=0),
                 (draws ** 2).sum(axis=0)]
    mean, power, pseudo_var = sums / n_draws
    mean_err = float(np.abs(mean).max())
    var_rel = float(np.abs(power.real / amp ** 2 - 1).max())
    # circularity, normalized per path so weak paths are not held to the
    # strong paths' absolute Monte Carlo noise
    pseudo = float((np.abs(pseudo_var) / amp ** 2).max())
    ok = mean_err < 0.02 and var_rel < 0.02 and pseudo < 0.05
    return CheckResult("fading-moments", ok,
                       f"|mean|<={mean_err:.4f}, var rel err<={var_rel:.4f}, "
                       f"pseudo-var<={pseudo:.4f}")


def check_denoiser(bundle: ConfigBundle) -> CheckResult:
    """A chunk's delay-window pair projects idempotently, never increases the
    norm, passes the first and last tap of the configured window through
    exactly, and removes the first tap past it and the wrapped negative-delay
    tap N_p - 1, when the window leaves them out."""
    env, variances, [(_, _, window)] = _chunk_bases(bundle, ("denoise",), (CHECK_SNR,))
    _, truth, noise = _draw_trials(env, 1)
    noisy = truth + math.sqrt(variances[0]) * noise
    once = window.project(window.core(noisy))
    twice = window.project(window.core(once))
    idem = float(np.abs(twice - once).max())
    shrinks = np.linalg.norm(once) <= np.linalg.norm(noisy) + 1e-12
    # the window the config asks for: k_tau taps at spacing T_s N / N_p
    sysc, n_p = bundle.system, len(env.pilots)
    tap = sysc.sample_interval * sysc.n_subcarriers / n_p
    k_tau = max(1, math.ceil(min(n_p, bundle.estimator.tau_max / tap)))

    def response(taps):
        """Pure delay taps on every antenna, and their projection."""
        cir = np.zeros((sysc.n_rx, n_p), dtype=complex)
        cir[:, list(taps)] = 1.0
        h = np.fft.fft(cir, axis=-1)
        return h, window.project(window.core(h))

    inside, kept = response({0, k_tau - 1})
    keep_err = float(np.abs(kept - inside).max())
    kill = float(np.abs(response({k_tau, n_p - 1})[1]).max()) if k_tau < n_p else 0.0
    ok = idem < 1e-10 and shrinks and keep_err < 1e-10 and kill < 1e-10
    return CheckResult("denoiser-projection", ok,
                       f"idempotency {idem:.2e}, norm non-increasing {shrinks}, "
                       f"{k_tau}-tap window passthrough {keep_err:.2e}, "
                       f"out-window {kill:.2e}")


def check_csv_determinism(bundle: ConfigBundle) -> CheckResult:
    """Identical seeds give byte-identical CSV, for 1 worker and for 2, on
    60 trials: two chunks, so that two workers each run one."""
    small = replace(bundle, system=replace(bundle.system, n_trials=60))
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, workers in enumerate((1, 1, 2)):
            plan = ExperimentPlan(bundle=small, methods=("ls", "emdt"),
                                  snrs=(0.0, 10.0), workers=workers)
            path = Path(tmp) / f"run{i}.csv"
            emit_csv(run_nmse_sweep(plan), path)
            outputs.append(path.read_bytes())
    same_seed, same_par = outputs[0] == outputs[1], outputs[0] == outputs[2]
    return CheckResult("csv-determinism", same_seed and same_par,
                       f"rerun identical: {same_seed}, worker-count invariant: {same_par}")


def check_noise_calibration(bundle: ConfigBundle) -> CheckResult:
    """Trace and rank forms of the projected-noise term agree; a full prior
    has zero floor; identity projectors reduce to the 1/SNR law."""
    env = build_environment(bundle)
    responses = (env.steering, env.freq_pilot, env.amplitude)
    nv_7, nv_0, nv_10 = _noise_variances(env, (7.0, 0.0, 10.0))
    try:
        analytic_nmse(env.projectors, *responses, 7.0, nv_7)
    except ValueError as exc:
        return CheckResult("noise-term-calibration", False, str(exc))
    full_prior = dt_subspace(env.steering, env.freq_pilot)
    full_floor = analytic_nmse(full_prior, *responses, 0.0, nv_0).subspace_floor
    ls_bk = analytic_nmse(ProjectorPair(None, None), *responses, 10.0, nv_10)
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
    """The NMSE sweep's split per-trial errors against the direct ones."""
    env, variances, bases = _chunk_bases(bundle, SWEEPS["nmse-sweep"].methods,
                                         bundle.system.snr_grid_db)
    fading, truth, noise = _draw_trials(env, 16)
    split = _reduce_slice(env, fading, noise, bases, variances, frozenset({"error"}),
                          full_grid=False)
    worst = 0.0
    for method, points, pair in bases:
        p_s, p_t = _dense(pair)
        for i in points:
            est = truth + math.sqrt(variances[i]) * noise
            est = est if p_s is None else p_s @ est
            est = est if p_t is None else est @ p_t
            direct = _energy(est - truth)
            # relative to the error, or to the channel energy where the error
            # is smaller: forming H + sigma W' rounds away all of sigma W'
            # below eps |H|, so there the direct error is rounding itself
            scale = np.maximum(direct, _energy(truth))
            deviation = np.abs(split[("error", method, i)] - direct) / scale
            worst = max(worst, float(deviation.max()))
    return CheckResult("error-orthogonal-split", worst < 1e-10,
                       f"max relative deviation {worst:.2e} over 16 trials at "
                       f"{len(variances)} SNR points (tol 1e-10)")


def check_interpolation(bundle: ConfigBundle) -> CheckResult:
    """Interpolation, by M and folded into each pair's synthesis, keeps pilots."""
    env, variances, bases = _chunk_bases(bundle, SWEEPS["nmse-sweep"].methods,
                                         (CHECK_SNR,))
    _, truth, noise = _draw_trials(env, 1)
    est = truth + math.sqrt(variances[0]) * noise
    grid = interpolation_matrix(env.pilots, bundle.system.n_subcarriers)
    idx = env.pilots.indices
    err = float(np.abs((est @ grid)[..., idx] - est).max())
    for method, _, pair in bases:
        core = pair.core(est)
        full, pilot = (core if rows is None else core @ rows
                       for rows in (pair.synthesis(grid), pair.synthesis(None)))
        if full.shape[-1] != grid.shape[1]:
            return CheckResult("interpolation-pilot-exact", False,
                               f"{method} synthesis misses the full grid")
        err = max(err, float(np.abs(full[..., idx] - pilot).max()))
    return CheckResult("interpolation-pilot-exact", err < 1e-12,
                       f"max pilot-position deviation {err:.2e} over M and "
                       f"{len(bases)} methods")


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
