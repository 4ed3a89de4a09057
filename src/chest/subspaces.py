"""Subspace priors and low-rank projection.

The twin prior takes the twin paths' columns of the channel's steering
matrix and pilot-grid frequency response, and extracts orthonormal bases of
their spans by SVD; how paths become responses is
:func:`~chest.experiments.build_environment`'s concern alone.  The batch-ML
alternative estimates the same bases from sample covariances of LS
snapshots, and the delay-domain denoiser keeps every antenna and the leading
DFT columns.  Each prior is a :class:`ProjectorPair` holding the two bases, a
spatial U_s (n_rx x r_s) and a temporal U_t (n_pilots x r_t).  They stand for
the projectors

    P_s = U_s U_s^H  (applied from the left),   P_t = conj(U_t) U_t^T  (right),

where the conjugation on the temporal side makes right-multiplication project
rows onto span(U_t).  Either basis may be None, the identity: the delay
window keeps every antenna, and LS is the pair with no basis at all.  No
dense n x n matrix, identity or projector, is formed: a pilot-grid array H is
projected as U_s ((U_s^H H) conj(U_t)) U_t^T, an identity side skipped, which
costs O(n_rx n_pilots r) instead of O(n_rx n_pilots (n_rx + n_pilots)).  A
side's rank is its basis width (``rank_spatial``, ``rank_temporal``), or, for
the identity (rank None), the dimension of the array it meets.  A pair checks
on construction that each basis it holds is orthonormal, so every pair,
whatever built it, is checked once, where it is built.

Every estimator the sweeps run is such a projection of the LS estimate, and
full-grid interpolation is the right-product by the real
:func:`interpolation_matrix` M, which a pair folds into its temporal basis
as U_t^T M (:meth:`ProjectorPair.synthesis`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .config import PilotPattern, SystemConfig


@dataclass(frozen=True, eq=False)
class ProjectorPair:
    """Orthonormal bases of the left (spatial) and right (temporal)
    projections, checked on construction; None is the identity.  See the
    module docstring for how they are applied."""

    basis_spatial: np.ndarray | None    # U_s, (n_rx, rank_spatial)
    basis_temporal: np.ndarray | None   # U_t, (n_pilots, rank_temporal)

    def __post_init__(self):
        if self.basis_spatial is not None:
            _check_orthonormal(self.basis_spatial, "spatial")
        if self.basis_temporal is not None:
            _check_orthonormal(self.basis_temporal, "temporal")

    @property
    def rank_spatial(self) -> int | None:
        return None if self.basis_spatial is None else self.basis_spatial.shape[1]

    @property
    def rank_temporal(self) -> int | None:
        return None if self.basis_temporal is None else self.basis_temporal.shape[1]

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Spatial coordinates U_s^H X of (..., n_rx, n) arrays."""
        return x if self.basis_spatial is None else self.basis_spatial.conj().T @ x

    def core(self, x: np.ndarray) -> np.ndarray:
        """Subspace coordinates (U_s^H X) conj(U_t) of pilot-grid arrays.  An
        identity side passes its input through: ``core`` of the all-identity
        pair is ``x`` itself, not a copy."""
        c = self.coords(x)
        return c if self.basis_temporal is None else c @ self.basis_temporal.conj()

    def synthesis(self, grid: np.ndarray | None) -> np.ndarray | None:
        """Rows that take core coordinates onto a grid: U_t^T M, with M the
        interpolation matrix, or None on the pilot grid (``grid`` None)
        without a temporal basis."""
        if self.basis_temporal is None:
            return grid
        return self.basis_temporal.T if grid is None else self.basis_temporal.T @ grid

    def project(self, core: np.ndarray) -> np.ndarray:
        """The projection U_s core U_t^T of a pilot-grid array, from its core:
        ``pair.project(pair.core(h))`` is the estimate P_s H P_t."""
        px = core if self.basis_spatial is None else self.basis_spatial @ core
        return px if self.basis_temporal is None else px @ self.basis_temporal.T


def interpolation_matrix(pilots: PilotPattern, n_subcarriers: int) -> np.ndarray:
    """Real (n_pilots, n_subcarriers) matrix M of linear interpolation onto
    the full grid, so that ``h @ M`` interpolates every row of ``h``; the
    ``grid`` of :meth:`ProjectorPair.synthesis`.

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


def _check_orthonormal(basis: np.ndarray, name: str, tol: float = 1e-10) -> None:
    gram = basis.conj().T @ basis
    if not np.allclose(gram, np.eye(basis.shape[1]), atol=tol):
        raise ValueError(f"{name} basis is not orthonormal within {tol}")


def _span_basis(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span at a relative singular-value cut."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("matrix has no non-trivial column span")
    return u[:, :int(np.sum(s > tol * s[0]))]


def dt_subspace(steering: np.ndarray, freq_pilot: np.ndarray,
                tol: float = 1e-8) -> ProjectorPair:
    """Projector pair spanned by the twin's known paths: the column spans of
    their steering vectors, (n_rx, L), and pilot-grid frequency responses,
    (n_pilots, L), each cut at singular values below ``tol`` times the
    largest."""
    return ProjectorPair(basis_spatial=_span_basis(steering, tol),
                         basis_temporal=_span_basis(freq_pilot, tol))


def denoise_subspace(system: SystemConfig, tau_max: float) -> ProjectorPair:
    """Delay-window pair on the system's pilot grid: the identity on the
    antennas, and the first k_tau = min(N_p, ceil(tau_max / spacing)) taps at
    spacing T_s N / N_p.

    U_t is the first k_tau columns of the N_p-point DFT matrix,
    F[n, k] = exp(-2 pi i n k / N_p), over sqrt(N_p): projecting a pilot-grid
    row takes its IDFT, zeroes every tap past the window, negative-delay
    (wrapped) taps included, and takes the DFT back.
    """
    if tau_max <= 0:
        raise ValueError("tau_max must be positive")
    n_p = system.n_pilots
    spacing = system.sample_interval * system.n_subcarriers / n_p
    # a wider window keeps every tap; one narrower than a float can count, tap 0
    k_tau = max(1, math.ceil(min(n_p, tau_max / spacing)))
    phase = np.outer(np.arange(n_p), np.arange(k_tau)) % n_p
    return ProjectorPair(basis_spatial=None,
                         basis_temporal=np.exp(-2j * np.pi / n_p * phase) / math.sqrt(n_p))


class SampleCovariances(NamedTuple):
    """Spatial R_s = mean_m H_m H_m^H and temporal R_t = mean_m H_m^T conj(H_m)
    of a batch of snapshots."""

    spatial: np.ndarray     # (n_rx, n_rx)
    temporal: np.ndarray    # (n_pilots, n_pilots)


def bml_subspace(cov: SampleCovariances, rank_spatial: int,
                 rank_temporal: int) -> ProjectorPair:
    """Projectors learned from the sample covariances ``cov`` of a batch of
    LS snapshots (the sweeps take them from :class:`SnapshotGrams`): the
    leading eigenvectors of the spatial and of the temporal covariance."""
    n_rx, n_p = cov.spatial.shape[0], cov.temporal.shape[0]
    if not 1 <= rank_spatial <= n_rx:
        raise ValueError(f"rank_spatial must lie in [1, {n_rx}]")
    if not 1 <= rank_temporal <= n_p:
        raise ValueError(f"rank_temporal must lie in [1, {n_p}]")
    return ProjectorPair(basis_spatial=_top_eigvecs(cov.spatial, rank_spatial),
                         basis_temporal=_top_eigvecs(cov.temporal, rank_temporal))


def _spatial_rows(h: np.ndarray) -> np.ndarray:
    """Snapshots laid side by side, (n_rx, n_snapshots * n_pilots)."""
    return h.transpose(1, 0, 2).reshape(h.shape[1], -1)


def _temporal_rows(h: np.ndarray) -> np.ndarray:
    """Snapshots stacked, (n_snapshots * n_rx, n_pilots)."""
    return h.reshape(-1, h.shape[2])


def _grams(t: np.ndarray, n: np.ndarray):
    """(T T^H, T N^H + N T^H, N N^H) of two equal row sets, one conjugate
    copy held at a time."""
    cross = t @ n.conj().T
    return t @ t.conj().T, cross + cross.conj().T, n @ n.conj().T


@dataclass(frozen=True, eq=False)
class SnapshotGrams:
    """Gram matrices of snapshot batches T + sigma N, grouped by power of sigma.

    With X the spatial rows of a batch, (X_T + sigma X_N)(X_T + sigma X_N)^H
    = G_TT + sigma (G_TN + G_TN^H) + sigma^2 G_NN, and likewise on the
    temporal side, so the sample covariances at every noise level follow from
    six Gram products taken once.  ``spatial`` and ``temporal`` each hold
    (G_TT, G_TN + G_TN^H, G_NN).  Grams of batches laid end to end are the
    sums of their Grams, so a long batch can be taken in slices.
    """

    spatial: tuple[np.ndarray, np.ndarray, np.ndarray]
    temporal: tuple[np.ndarray, np.ndarray, np.ndarray]
    n_snapshots: int

    @classmethod
    def summed(cls, batches: Iterable[tuple[np.ndarray, np.ndarray]]) -> "SnapshotGrams":
        """Grams of the ``(truth, noise)`` batches laid end to end, taken batch
        by batch and summed in order.

        The temporal rows are views of a batch and the spatial rows copies;
        each copy replaces the batch it is taken from, and a batch's Grams are
        added into the sums at once.  A batch that nothing else holds, as one
        a generator makes afresh, is therefore held with at most one
        batch-sized copy: three batch-sized arrays, plus two sets of Grams.
        """
        sums, count = None, 0
        for truth, noise in batches:
            if truth.ndim != 3 or truth.shape != noise.shape:
                raise ValueError("truth and noise must be equal (n_snapshots, n_rx, "
                                 "n_pilots) batches")
            count += len(truth)
            temporal = _grams(_temporal_rows(truth).T, _temporal_rows(noise).T)
            rows_t = _spatial_rows(truth)
            del truth
            rows_n = _spatial_rows(noise)
            del noise
            grams = _grams(rows_t, rows_n) + temporal
            del rows_t, rows_n, temporal
            if sums is None:
                sums = grams
            else:
                for total, part in zip(sums, grams):
                    total += part
            del grams
        if sums is None:
            raise ValueError("no snapshot batches")
        return cls(sums[:3], sums[3:], count)

    def covariances(self, sigma: float) -> SampleCovariances:
        """Sample covariances of the batch T + sigma N."""
        def at(g):
            return (g[0] + sigma * g[1] + sigma * sigma * g[2]) / self.n_snapshots
        return SampleCovariances(at(self.spatial), at(self.temporal))


def _top_eigvecs(cov: np.ndarray, rank: int) -> np.ndarray:
    w, v = np.linalg.eigh(cov)
    # a copy: a view of the kept columns would keep all n x n of v alive
    return v[:, ::-1][:, :rank].copy()
