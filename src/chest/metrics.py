"""Estimation quality metrics: analytic NMSE, post-combining SNR from
per-column statistics, and ECDF tables and their quantiles.

The analytic NMSE splits into a subspace floor (energy outside the projector
pair) and a noise term (noise passed by the projectors), evaluated path by
path from the channel's steering and frequency responses.

The post-combining SNR of a linear estimate a + sigma b needs only five sums
per subcarrier, :class:`CombiningStats`, so one set of sums serves every
noise level sigma, and the sums may be taken in any orthonormal coordinates
that hold a and b (the sweeps take them in a projector's subspace).  Each
sum is one ``np.vecdot`` over the column axis, which conjugates as it
multiplies, so the sums read their inputs and never copy or write them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .subspaces import ProjectorPair


@dataclass(frozen=True)
class NmseBreakdown:
    """total = subspace_floor + noise_term, all normalized by trace(R)."""

    total: float
    subspace_floor: float
    noise_term: float


@dataclass(frozen=True)
class MetricsRecord:
    """One experiment result row (see the CSV schema in the harness)."""

    method: str
    snr_db: float
    n_pilots: int
    trials: int
    nmse_emp: float | None = None
    nmse_analytic: NmseBreakdown | None = None
    spectral_efficiency: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for v in (self.nmse_emp, self.spectral_efficiency):
            if v is not None and (not math.isfinite(v) or v < 0):
                raise ValueError("metrics must be finite and non-negative")


def covariance_traces(projectors: ProjectorPair, steering: np.ndarray,
                      freq_pilot: np.ndarray, amplitude: np.ndarray
                      ) -> tuple[float, float]:
    """trace(R) and trace(R Q) of the pilot-grid channel, path by path.

    R = sum_l alpha_l^2 phi_l phi_l^H with phi_l = kron(k_l, a_l) and
    Q = P_t^T kron P_s, with P_s = U_s U_s^H and P_t^T = U_t U_t^H, so

        trace(R)   = sum_l alpha_l^2 ||a_l||^2 ||k_l||^2
        trace(R Q) = sum_l alpha_l^2 ||U_s^H a_l||^2 ||U_t^H k_l||^2

    without forming the (n_rx * n_pilots)-square R or either projector; an
    identity side keeps the full energy.  ``steering`` is (n_rx, L),
    ``freq_pilot`` is (n_pilots, L); steering entries need not be unit
    modulus.
    """
    a = np.asarray(steering)
    k = np.asarray(freq_pilot)
    power = np.asarray(amplitude, dtype=float) ** 2
    u_s = projectors.basis_spatial
    u_t = projectors.basis_temporal
    if a.ndim != 2 or k.ndim != 2 or power.shape != (a.shape[1],) \
            or k.shape[1] != a.shape[1]:
        raise ValueError("steering/freq_pilot/amplitude path counts disagree")
    if (u_s is not None and a.shape[0] != u_s.shape[0]) \
            or (u_t is not None and k.shape[0] != u_t.shape[0]):
        raise ValueError("path responses do not match the projector dimensions")
    energy_s = np.sum(np.abs(a) ** 2, axis=0)
    energy_t = np.sum(np.abs(k) ** 2, axis=0)
    kept_s = energy_s if u_s is None else np.sum(np.abs(u_s.conj().T @ a) ** 2, axis=0)
    kept_t = energy_t if u_t is None else np.sum(np.abs(u_t.conj().T @ k) ** 2, axis=0)
    return (float(np.sum(power * energy_s * energy_t)),
            float(np.sum(power * kept_s * kept_t)))


def _side(basis: np.ndarray | None, dim: int) -> tuple[int, float]:
    """Rank and ||U^H U||_F^2 of one side of a pair; the identity on ``dim``
    coordinates has both equal to ``dim``."""
    if basis is None:
        return dim, dim
    return basis.shape[1], np.sum(np.abs(basis.conj().T @ basis) ** 2)


def analytic_nmse(projectors: ProjectorPair, steering: np.ndarray,
                  freq_pilot: np.ndarray, amplitude: np.ndarray, snr_db: float,
                  noise_variance: float) -> NmseBreakdown:
    """Closed-form NMSE of the projection estimator for a known path set.

    The channel statistics enter only through trace(R) and trace(R Q), which
    :func:`covariance_traces` evaluates per path.  The noise term is computed
    both from tr(Q Q^H) = ||U_s^H U_s||_F^2 ||U_t^H U_t||_F^2 and from the
    rank shortcut ranks/(n_rx * n_pilots * SNR); the two must agree to 1e-9,
    which guards the SNR bookkeeping end to end.  An identity side has the
    rank and the tr(Q Q^H) factor of the response dimension it meets.
    Pilots have unit power.
    """
    if noise_variance < 0:
        raise ValueError("need noise_variance >= 0")
    tr_r, tr_rq = covariance_traces(projectors, steering, freq_pilot, amplitude)
    if tr_r <= 0:
        raise ValueError("covariance trace must be positive")
    floor = max((tr_r - tr_rq) / tr_r, 0.0)

    n_rx, n_p = np.shape(steering)[0], np.shape(freq_pilot)[0]
    rank_s, gram_s = _side(projectors.basis_spatial, n_rx)
    rank_t, gram_t = _side(projectors.basis_temporal, n_p)
    tr_qqh = float(gram_s * gram_t)
    noise_trace_form = noise_variance * tr_qqh / tr_r
    snr = 10.0 ** (snr_db / 10.0)
    noise_simplified = rank_s * rank_t / (n_rx * n_p * snr)
    if not np.isclose(noise_trace_form, noise_simplified, rtol=1e-9, atol=1e-9):
        raise ValueError(
            f"noise-term forms disagree: trace {noise_trace_form:.12e} vs "
            f"simplified {noise_simplified:.12e}; snr_db/noise_variance inconsistent?")
    return NmseBreakdown(total=floor + noise_trace_form, subspace_floor=floor,
                         noise_term=noise_trace_form)


class CombiningStats(NamedTuple):
    """Per-column sums of a linear estimate ``a + sigma b`` against the
    channel ``h``; each is an array over the batch and subcarrier axes."""

    ah: np.ndarray   # a^H h
    bh: np.ndarray   # b^H h
    aa: np.ndarray   # ||a||^2
    ab: np.ndarray   # Re a^H b
    bb: np.ndarray   # ||b||^2

    @classmethod
    def of(cls, a: np.ndarray, b: np.ndarray | None, h: np.ndarray) -> "CombiningStats":
        """Sums over the column axis (-2) of (..., dim, n_sc) arrays given in
        one orthonormal coordinate system; ``b`` None is a noiseless estimate.

        Each sum is one ``np.vecdot``, which conjugates its first factor as it
        multiplies: no input is copied or written, and nothing is held but
        the sums themselves."""
        if a.shape != h.shape or (b is not None and b.shape != h.shape):
            raise ValueError("estimate/truth shapes disagree")
        ah = np.vecdot(a, h, axis=-2)
        aa = np.vecdot(a, a, axis=-2).real
        if b is None:
            zero = np.zeros_like(aa)
            return cls(ah, zero, aa, zero, zero)
        bh = np.vecdot(b, h, axis=-2)
        ab = np.vecdot(a, b, axis=-2).real
        bb = np.vecdot(b, b, axis=-2).real
        return cls(ah, bh, aa, ab, bb)


def _energy(x: np.ndarray) -> np.ndarray:
    """Sum of |x|^2 over the last two axes, squared in place: one real
    temporary."""
    e = np.abs(x)
    return np.sum(np.square(e, out=e), axis=(-2, -1))


def post_combining_snr(stats: CombiningStats, sigmas, noise_variances) -> np.ndarray:
    """Per-subcarrier SNR after matched combining on the estimate
    ``a + sigma b``, at every ``(sigma, noise variance)`` pair.

    The combiner is the normalized conjugate of the estimated per-subcarrier
    channel and the decision-stage channel knowledge is exact, so the gain is
    |a^H h + sigma b^H h|^2 / (||a||^2 + 2 sigma Re a^H b + sigma^2 ||b||^2).
    Zero estimates yield zero SNR, and pilots and data have unit power.  The
    result has a leading axis over the pairs, then the axes of ``stats``.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    noise_variances = np.asarray(noise_variances, dtype=float)
    if np.any(noise_variances <= 0):
        raise ValueError("need noise_variance > 0")
    shape = (-1,) + (1,) * stats.aa.ndim
    s, nv = sigmas.reshape(shape), noise_variances.reshape(shape)
    num = np.abs(stats.ah + s * stats.bh) ** 2
    den = stats.aa + 2.0 * s * stats.ab + s * s * stats.bb
    gain = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return gain / nv


def ecdf(samples) -> np.ndarray:
    """Empirical CDF table of ``samples``: the samples flattened and sorted
    into a new array.  The CDF is right-continuous, and the k-th smallest of
    n samples sits at cumulative fraction k / n."""
    arr = np.sort(np.asarray(samples, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("ecdf needs at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ecdf samples must be finite")
    return arr


def quantile(table: np.ndarray, p):
    """Smallest sample x of the sorted ``table`` with F(x) >= p, for each p
    in (0, 1]; ``p`` may be a number or an array."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0) & (p <= 1)):
        raise ValueError("p must lie in (0, 1]")
    return table[np.maximum(np.ceil(p * table.size).astype(int) - 1, 0)]
