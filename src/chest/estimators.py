"""Pilot-grid channel estimators and full-grid interpolation.

Every estimator is a linear map on plain complex arrays: it takes a
pilot-grid array shaped (..., n_rx, n_pilots), with any leading trial axes,
and returns an array of the same leading shape.  LS divides out the pilots;
every other pilot-grid estimator (twin, batch-ML, delay-domain denoising)
projects the LS estimate by that prior's
:class:`~chest.subspaces.ProjectorPair`, ``pair.project(pair.core(h))``.
Full-grid interpolation is the right-product ``h @ M`` by the real
:func:`interpolation_matrix` M, which the sweeps fold into a method's
temporal basis (:meth:`~chest.subspaces.ProjectorPair.synthesis`).
"""
from __future__ import annotations

import numpy as np

from .config import PilotPattern


def ls_estimate(y: np.ndarray, pilots: PilotPattern) -> np.ndarray:
    """Least squares per pilot subcarrier: divide out the known pilot symbols
    of the received block ``y`` (..., n_rx, n_pilots)."""
    if y.shape[-1] != len(pilots):
        raise ValueError("received block width must match the pilot count")
    return y / pilots.symbols


def interpolation_matrix(pilots: PilotPattern, n_subcarriers: int) -> np.ndarray:
    """Real (n_pilots, n_subcarriers) matrix M of linear interpolation onto
    the full grid, so that ``h @ M`` interpolates every row of ``h``.

    Column j weights the two pilots around subcarrier j; beyond the last
    pilot it holds that pilot's value, and with a single pilot every column
    is that pilot.
    """
    idx = pilots.indices
    m = np.zeros((idx.size, n_subcarriers))
    if idx.size == 1:
        m[0] = 1.0
        return m
    grid = np.arange(n_subcarriers)
    left = np.clip(np.searchsorted(idx, grid, side="right") - 1, 0, idx.size - 2)
    weight = np.clip((grid - idx[left]) / (idx[left + 1] - idx[left]), 0.0, 1.0)
    m[left, grid] = 1.0 - weight
    m[left + 1, grid] = weight
    return m

