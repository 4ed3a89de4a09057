"""Pilot-grid channel estimators and full-grid interpolation.

All estimators accept batched inputs: arrays shaped (..., n_rx, n_pilots)
with an optional leading trial axis.  The estimate carries a grid tag
('pilot' or 'full') and a method tag used downstream for bookkeeping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import RxBlock
from .config import PilotPattern, SystemConfig
from .subspaces import ProjectorPair


@dataclass(frozen=True, eq=False)
class ChannelEstimate:
    """A channel estimate plus where it lives and how it was obtained."""

    h: np.ndarray
    grid: str      # 'pilot' | 'full'
    method: str    # 'ls' | 'denoise' | 'bml' | 'emdt' | 'ideal'

    def __post_init__(self):
        if self.grid not in ("pilot", "full"):
            raise ValueError(f"grid must be 'pilot' or 'full', got {self.grid!r}")
        if not np.all(np.isfinite(self.h.real)) or not np.all(np.isfinite(self.h.imag)):
            raise ValueError("estimate contains non-finite entries")


def ls_estimate(rx: RxBlock) -> ChannelEstimate:
    """Least squares per pilot subcarrier: divide out the known pilot symbols."""
    return ChannelEstimate(h=rx.y / rx.pilots.symbols, grid="pilot", method="ls")


def project_estimate(estimate: ChannelEstimate, projectors: ProjectorPair,
                     method_tag: str = "emdt") -> ChannelEstimate:
    """Left/right subspace projection of a pilot-grid estimate,
    U_s ((U_s^H H) conj(U_t)) U_t^T, without forming either dense projector."""
    if estimate.grid != "pilot":
        raise ValueError("projection expects a pilot-grid estimate")
    h = estimate.h
    u_s, u_t = projectors.basis_spatial, projectors.basis_temporal
    if u_s.shape[0] != h.shape[-2] or u_t.shape[0] != h.shape[-1]:
        raise ValueError("projector dimensions do not match the estimate")
    core = (u_s.conj().T @ h) @ u_t.conj()
    return ChannelEstimate(h=u_s @ core @ u_t.T, grid="pilot", method=method_tag)


def retained_tap_count(tau_max: float, sample_interval: float, n_subcarriers: int,
                       n_pilots: int) -> int:
    """Number of leading pilot-grid CIR taps inside the delay window.

    Pilot-grid taps are spaced T_s * N / N_p apart; taps whose delay exceeds
    tau_max are zeroed, and no negative-delay (wrapped) taps are retained.
    """
    spacing = sample_interval * n_subcarriers / n_pilots
    return min(n_pilots, math.ceil(tau_max / spacing))


def denoise_estimate(estimate: ChannelEstimate, tau_max: float,
                     system: SystemConfig) -> ChannelEstimate:
    """Prune the pilot-grid impulse response beyond a maximum delay.

    Per antenna row: N_p-point IDFT, zero every tap past the window, DFT back.
    """
    if estimate.grid != "pilot":
        raise ValueError("denoising expects a pilot-grid estimate")
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    n_p = estimate.h.shape[-1]
    k_tau = retained_tap_count(tau_max, system.sample_interval,
                               system.n_subcarriers, n_p)
    cir = np.fft.ifft(estimate.h, axis=-1)
    cir[..., k_tau:] = 0.0
    return ChannelEstimate(h=np.fft.fft(cir, axis=-1), grid="pilot", method="denoise")


def interpolate_full(estimate: ChannelEstimate, pilots: PilotPattern,
                     n_subcarriers: int) -> ChannelEstimate:
    """Linear interpolation (per real/imaginary part) onto the full grid.

    Values beyond the last pilot hold that pilot's value; with a single pilot
    the estimate extends as a constant.
    """
    if estimate.grid != "pilot":
        raise ValueError("interpolation expects a pilot-grid estimate")
    if estimate.h.shape[-1] != len(pilots):
        raise ValueError("estimate width must match the pilot count")
    idx = pilots.indices
    if idx.size == 1:
        full = np.repeat(estimate.h, n_subcarriers, axis=-1)
        return ChannelEstimate(h=full, grid="full", method=estimate.method)
    grid = np.arange(n_subcarriers)
    left = np.clip(np.searchsorted(idx, grid, side="right") - 1, 0, idx.size - 2)
    weight = (grid - idx[left]) / (idx[left + 1] - idx[left])
    weight = np.clip(weight, 0.0, 1.0)      # hold beyond the last pilot
    full = estimate.h[..., left] * (1.0 - weight) + estimate.h[..., left + 1] * weight
    return ChannelEstimate(h=full, grid="full", method=estimate.method)
