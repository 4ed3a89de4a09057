"""Shared fixtures. Session-scoped environments are reused across test modules
because building the desk covariance is the slowest setup step."""
from dataclasses import replace

import numpy as np
import pytest

from chest import (build_environment, channel_covariance, complex_normal, desk_config,
                   validate_config)
from chest.propagation import PathSet
from chest.subspaces import SampleCovariances


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


def _draw_fading(amplitude, rng):
    """One symbol's per-path complex gains c_l = alpha_l (g1 + j g2)/sqrt(2):
    zero mean, E|c_l|^2 = alpha_l^2, uncorrelated across paths."""
    amplitude = np.asarray(amplitude, dtype=float)
    return amplitude * complex_normal(rng, amplitude.shape)


@pytest.fixture(scope="session")
def draw_fading():
    """Fading drawn one symbol at a time, an oracle for the sweeps' batched
    draws: from a key's substream it gives the key's bits."""
    return _draw_fading


def _apply_uplink(h_pilot, pilots, noise_variance, unit_noise):
    """The received pilot block Y = H diag(x) + W, with
    W = sqrt(noise_variance) * unit_noise."""
    if noise_variance < 0:
        raise ValueError("noise_variance must be non-negative")
    return h_pilot * pilots.symbols + np.sqrt(noise_variance) * unit_noise


def _ls_estimate(y, pilots):
    """Least squares per pilot subcarrier: divide out the known pilot symbols
    of the received block ``y`` (..., n_rx, n_pilots)."""
    if y.shape[-1] != len(pilots):
        raise ValueError("received block width must match the pilot count")
    return y / pilots.symbols


@pytest.fixture(scope="session")
def apply_uplink():
    """The physical uplink Y = H x + W.  With ``ls_estimate`` it is the
    oracle for the sweeps' LS estimate H + sigma W', which draw W' = W / x
    and never form Y."""
    return _apply_uplink


@pytest.fixture(scope="session")
def ls_estimate():
    """LS of a received block, the other half of the uplink oracle."""
    return _ls_estimate


def _sample_covariances(h):
    """Spatial R_s = mean_m H_m H_m^H and temporal R_t = mean_m H_m^T conj(H_m)
    of a (n_snapshots, n_rx, n_pilots) batch, one matmul each."""
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[0] < 1:
        raise ValueError("snapshots must be (n_snapshots, n_rx, n_pilots)")
    x = h.transpose(1, 0, 2).reshape(h.shape[1], -1)
    y = h.reshape(-1, h.shape[2])
    return SampleCovariances(x @ x.conj().T / len(h), y.T @ y.conj() / len(h))


@pytest.fixture(scope="session")
def sample_covariances():
    """Sample covariances formed from the snapshots themselves, what
    ``bml_subspace`` takes, an oracle for the sweeps' Gram sums."""
    return _sample_covariances


def _ecdf_at(table, q):
    """P(X <= q) under the ECDF ``table``."""
    return float(np.searchsorted(table, q, side="right") / table.size)


@pytest.fixture(scope="session")
def ecdf_at():
    """An ECDF's cumulative fraction at a point."""
    return _ecdf_at
