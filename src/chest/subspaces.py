"""Subspace priors and projection operators.

The twin prior takes the truncated path set, forms its steering matrix and
pilot-grid frequency response, and extracts orthonormal bases by SVD.  The
batch-ML alternative estimates the same bases from sample covariances of LS
snapshots.  Either way the result is a pair of projectors: a spatial one
applied from the left and a temporal one applied from the right,

    spatial  = U_s U_s^H,      temporal = conj(U_t) U_t^T,

where the conjugation on the temporal side makes right-multiplication project
rows onto span(U_t).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import ArrayGeometry, PathSet, frequency_response, steering_matrix


@dataclass(frozen=True, eq=False)
class SubspacePrior:
    """Orthonormal spatial/temporal bases with their ranks."""

    basis_spatial: np.ndarray    # (n_rx, rank_spatial)
    basis_temporal: np.ndarray   # (n_pilots, rank_temporal)
    rank_spatial: int
    rank_temporal: int


@dataclass(frozen=True, eq=False)
class ProjectorPair:
    """Left (spatial) and right (temporal) projection matrices."""

    spatial: np.ndarray
    temporal: np.ndarray

    @property
    def rank_spatial(self) -> int:
        return int(round(float(np.trace(self.spatial).real)))

    @property
    def rank_temporal(self) -> int:
        return int(round(float(np.trace(self.temporal).real)))


def _span_basis(matrix: np.ndarray, tol: float) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column span at a relative singular-value cut."""
    u, s, _ = np.linalg.svd(matrix, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("matrix has no non-trivial column span")
    rank = int(np.sum(s > tol * s[0]))
    return u[:, :rank], rank


def dt_subspace(twin_paths: PathSet, geometry: ArrayGeometry, n_subcarriers: int,
                sample_interval: float, rolloff: float, pilot_indices: np.ndarray,
                tol: float = 1e-8) -> SubspacePrior:
    """Spatial/temporal bases spanned by the twin's known paths."""
    a = steering_matrix(twin_paths, geometry)
    k = frequency_response(twin_paths, n_subcarriers, sample_interval, rolloff,
                           pilot_indices)
    basis_s, rank_s = _span_basis(a, tol)
    basis_t, rank_t = _span_basis(k, tol)
    return SubspacePrior(basis_spatial=basis_s, basis_temporal=basis_t,
                         rank_spatial=rank_s, rank_temporal=rank_t)


def _check_orthonormal(basis: np.ndarray, name: str, tol: float = 1e-10) -> None:
    gram = basis.conj().T @ basis
    if not np.allclose(gram, np.eye(basis.shape[1]), atol=tol):
        raise ValueError(f"{name} basis is not orthonormal within {tol}")


def make_projectors(prior: SubspacePrior) -> ProjectorPair:
    """Projector pair from an orthonormal prior; rejects non-orthonormal bases."""
    _check_orthonormal(prior.basis_spatial, "spatial")
    _check_orthonormal(prior.basis_temporal, "temporal")
    spatial = prior.basis_spatial @ prior.basis_spatial.conj().T
    temporal = prior.basis_temporal.conj() @ prior.basis_temporal.T
    return ProjectorPair(spatial=spatial, temporal=temporal)


def bml_subspace(ls_batch: np.ndarray, rank_spatial: int, rank_temporal: int
                 ) -> ProjectorPair:
    """Projectors learned from a batch of LS snapshots.

    Sample covariances R_s = mean(H H^H) and R_t = mean(H^T conj(H)); the
    bases are the leading eigenvectors of each.
    """
    h = np.asarray(ls_batch)
    if h.ndim != 3 or h.shape[0] < 1:
        raise ValueError("ls_batch must be (n_snapshots, n_rx, n_pilots)")
    n_rx, n_p = h.shape[1], h.shape[2]
    if not 1 <= rank_spatial <= n_rx:
        raise ValueError(f"rank_spatial must lie in [1, {n_rx}]")
    if not 1 <= rank_temporal <= n_p:
        raise ValueError(f"rank_temporal must lie in [1, {n_p}]")
    cov_s, cov_t = _sample_covariances(h)
    basis_s = _top_eigvecs(cov_s, rank_spatial)
    basis_t = _top_eigvecs(cov_t, rank_temporal)
    return make_projectors(SubspacePrior(basis_spatial=basis_s, basis_temporal=basis_t,
                                         rank_spatial=rank_spatial,
                                         rank_temporal=rank_temporal))


def _sample_covariances(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_s = mean_m H_m H_m^H and R_t = mean_m H_m^T conj(H_m), each one matmul
    over the snapshots laid side by side (spatial) or stacked (temporal)."""
    n_snap, n_rx, n_p = h.shape
    x = h.transpose(1, 0, 2).reshape(n_rx, -1)
    y = h.reshape(-1, n_p)
    return x @ x.conj().T / n_snap, y.T @ y.conj() / n_snap


def _top_eigvecs(cov: np.ndarray, rank: int) -> np.ndarray:
    w, v = np.linalg.eigh(cov)
    return v[:, ::-1][:, :rank]
