"""Shared fixtures. Session-scoped environments are reused across test modules
because building the desk covariance is the slowest setup step."""
from dataclasses import replace

import numpy as np
import pytest

from chest import (build_environment, channel_covariance, desk_config,
                   validate_config)
from chest.propagation import PathSet


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def desk():
    return desk_config()


@pytest.fixture(scope="session")
def desk_env(desk):
    return build_environment(desk)


@pytest.fixture(scope="session")
def desk_cov(desk_env):
    return channel_covariance(desk_env.steering, desk_env.freq_pilot, desk_env.amplitude)


@pytest.fixture(scope="session")
def tiny():
    """Small bundle for harness-level tests: cheap but structurally complete."""
    base = desk_config(n_rx=4, n_subcarriers=16, cp_length=8, n_pilots=8,
                       n_trials=12, snr_grid_db=(-10.0, 0.0, 10.0))
    scenario = replace(base.scenario, n_paths=6, n_dt_paths=3)
    estimator = replace(base.estimator, n_batch=8)
    return validate_config(base.system, scenario, estimator)


@pytest.fixture
def make_paths():
    """Factory for hand-placed path sets with normalized power."""

    def _make(delays_us, elevations=None, azimuths=None, powers=None):
        delays = np.asarray(delays_us, dtype=float) * 1e-6
        n = delays.size
        if powers is None:
            powers = np.full(n, 1.0 / n)
        powers = np.asarray(powers, dtype=float)
        powers = powers / powers.sum()
        if elevations is None:
            elevations = np.linspace(-0.8, 0.8, n)
        if azimuths is None:
            azimuths = np.linspace(-1.2, 1.2, n)
        return PathSet(elevation=np.asarray(elevations, dtype=float),
                       azimuth=np.asarray(azimuths, dtype=float),
                       delay=delays, amplitude=np.sqrt(powers))

    return _make


def _gather_interpolate(h, pilots, n_subcarriers):
    """Linear interpolation onto the full grid by gathering the two pilots
    around each subcarrier; beyond the last pilot its value is held, and a
    single pilot extends as a constant."""
    idx = pilots.indices
    if idx.size == 1:
        return np.repeat(h, n_subcarriers, axis=-1)
    grid = np.arange(n_subcarriers)
    left = np.clip(np.searchsorted(idx, grid, side="right") - 1, 0, idx.size - 2)
    weight = np.clip((grid - idx[left]) / (idx[left + 1] - idx[left]), 0.0, 1.0)
    return h[..., left] * (1.0 - weight) + h[..., left + 1] * weight


@pytest.fixture(scope="session")
def gather_interpolate():
    """The gather form of full-grid interpolation, an oracle for the
    interpolation matrix."""
    return _gather_interpolate


def _dense_projectors(pair, n_rx=None, n_pilots=None):
    """The dense projectors P_s = U_s U_s^H and P_t = conj(U_t) U_t^T that a
    pair's bases stand for; an identity side (None) is the identity of the
    given size."""
    u_s, u_t = pair.basis_spatial, pair.basis_temporal
    p_s = np.eye(n_rx) if u_s is None else u_s @ u_s.conj().T
    p_t = np.eye(n_pilots) if u_t is None else u_t.conj() @ u_t.T
    return p_s, p_t


@pytest.fixture(scope="session")
def dense_projectors():
    """The dense form of a projector pair, an oracle for its low-rank
    products."""
    return _dense_projectors
