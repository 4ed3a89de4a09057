"""Pilot-grid channel estimators and full-grid interpolation.

Every estimator is a linear map on plain complex arrays: it takes a
pilot-grid array shaped (..., n_rx, n_pilots), with any leading trial axes,
and returns an array of the same leading shape.  LS divides out the pilots;
every other pilot-grid estimator (twin, batch-ML, delay-domain denoising)
is :func:`project_estimate` with that prior's
:class:`~chest.subspaces.ProjectorPair`.  Only :func:`interpolate_full`
changes the grid, to (..., n_rx, n_subcarriers).
"""
from __future__ import annotations

import numpy as np

from .config import PilotPattern
from .subspaces import ProjectorPair


def ls_estimate(y: np.ndarray, pilots: PilotPattern) -> np.ndarray:
    """Least squares per pilot subcarrier: divide out the known pilot symbols
    of the received block ``y`` (..., n_rx, n_pilots)."""
    if y.shape[-1] != len(pilots):
        raise ValueError("received block width must match the pilot count")
    return y / pilots.symbols


def project_estimate(h: np.ndarray, projectors: ProjectorPair) -> np.ndarray:
    """Left/right subspace projection of a pilot-grid estimate,
    U_s ((U_s^H H) conj(U_t)) U_t^T, without forming either dense projector."""
    u_s, u_t = projectors.basis_spatial, projectors.basis_temporal
    if u_s.shape[0] != h.shape[-2] or u_t.shape[0] != h.shape[-1]:
        raise ValueError("projector dimensions do not match the estimate")
    core = (u_s.conj().T @ h) @ u_t.conj()
    return u_s @ core @ u_t.T


def interpolate_full(h: np.ndarray, pilots: PilotPattern,
                     n_subcarriers: int) -> np.ndarray:
    """Linear interpolation (per real/imaginary part) onto the full grid.

    Values beyond the last pilot hold that pilot's value; with a single pilot
    the estimate extends as a constant.
    """
    if h.shape[-1] != len(pilots):
        raise ValueError("estimate width must match the pilot count")
    idx = pilots.indices
    if idx.size == 1:
        return np.repeat(h, n_subcarriers, axis=-1)
    grid = np.arange(n_subcarriers)
    left = np.clip(np.searchsorted(idx, grid, side="right") - 1, 0, idx.size - 2)
    weight = (grid - idx[left]) / (idx[left + 1] - idx[left])
    weight = np.clip(weight, 0.0, 1.0)      # hold beyond the last pilot
    return h[..., left] * (1.0 - weight) + h[..., left + 1] * weight
