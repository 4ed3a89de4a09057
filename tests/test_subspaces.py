"""Twin subspace priors, projector algebra, and the batch-ML subspace baseline."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chest import (ProjectorPair, assemble_channel, bml_subspace, dt_subspace,
                   frequency_response, steering_matrix)
from chest.config import desk_config, load_config
from chest.experiments import (_draw, _method_bases, _noise_variances, bml_ranks,
                               build_environment)
from chest.propagation import PathSet
from chest.streams import WARM_FADING, WARM_NOISE
from chest.subspaces import SnapshotGrams


def _paths(delays_us, elev, azim, power=None):
    delays = np.asarray(delays_us, dtype=float) * 1e-6
    n = delays.size
    p = np.full(n, 1.0 / n) if power is None else np.asarray(power, float)
    return PathSet(elevation=np.asarray(elev, float), azimuth=np.asarray(azim, float),
                   delay=delays, amplitude=np.sqrt(p))


@pytest.fixture
def setup(desk):
    def _build(paths, n_rx=8, n_sc=64, n_p=32):
        ula = (n_rx, 0.5)
        idx = np.arange(0, n_sc, n_sc // n_p)
        k = frequency_response(paths, n_sc, desk.system.sample_interval, 0.25)
        prior = dt_subspace(steering_matrix(paths, *ula), k[idx])
        return ula, idx, prior
    return _build


class TestDtSubspace:
    def test_single_path_rank_one(self, desk, setup):
        p = _paths([0.1], [0.3], [0.4])
        ula, idx, prior = setup(p)
        assert prior.rank_spatial == 1 and prior.rank_temporal == 1
        a = steering_matrix(p, *ula)[:, 0]
        # basis equals the normalized steering vector up to a global phase
        inner = np.vdot(prior.basis_spatial[:, 0], a / np.linalg.norm(a))
        assert abs(inner) == pytest.approx(1.0, abs=1e-10)

    def test_duplicate_angles_distinct_delays(self, setup):
        p = _paths([0.05, 0.3], [0.2, 0.2], [0.7, 0.7])
        _, _, prior = setup(p)
        assert prior.rank_spatial == 1
        assert prior.rank_temporal == 2

    def test_well_separated_full_rank(self, desk):
        # a linear array resolves only cos(az)cos(el): keep those distinct
        p = _paths([0.02, 0.12, 0.22, 0.32, 0.42],
                   [-0.7, -0.3, 0.1, 0.45, 0.9],
                   [-1.1, -0.5, 0.2, 0.7, 1.3])
        idx = np.arange(0, 64, 2)
        k = frequency_response(p, 64, desk.system.sample_interval, 0.25)
        prior = dt_subspace(steering_matrix(p, 64, 0.5), k[idx])
        assert prior.rank_spatial == 5 and prior.rank_temporal == 5

    def test_orthonormal_bases(self, setup):
        p = _paths([0.05, 0.15, 0.3], [-0.5, 0.1, 0.6], [-1.0, 0.3, 1.1])
        _, _, prior = setup(p)
        for basis in (prior.basis_spatial, prior.basis_temporal):
            gram = basis.conj().T @ basis
            np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)

    def test_desk_twin_ranks(self, desk_env):
        assert desk_env.projectors.rank_spatial == 5
        assert desk_env.projectors.rank_temporal == 5


class TestMakeProjectors:
    def _prior(self, setup):
        p = _paths([0.05, 0.18, 0.33], [-0.5, 0.1, 0.6], [-1.0, 0.3, 1.1])
        return setup(p)

    def test_idempotent_and_hermitian(self, dense_projectors, setup):
        _, _, prior = self._prior(setup)
        for m in dense_projectors(prior):
            np.testing.assert_allclose(m @ m, m, atol=1e-10)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-10)

    def test_trace_equals_rank(self, dense_projectors, setup):
        _, _, prior = self._prior(setup)
        p_s, p_t = dense_projectors(prior)
        assert np.trace(p_s).real == pytest.approx(prior.rank_spatial, abs=1e-8)
        assert np.trace(p_t).real == pytest.approx(prior.rank_temporal, abs=1e-8)

    def test_full_rank_basis_gives_identity(self, dense_projectors):
        prior = ProjectorPair(basis_spatial=np.eye(4, dtype=complex),
                              basis_temporal=np.eye(6, dtype=complex))
        p_s, p_t = dense_projectors(prior)
        np.testing.assert_allclose(p_s, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(p_t, np.eye(6), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            ProjectorPair(basis_spatial=np.ones((4, 2), dtype=complex),
                          basis_temporal=np.eye(6, dtype=complex))

    def test_rejects_non_orthonormal_beside_identity(self):
        """A bad basis is rejected on either side when the other side is the
        identity (None)."""
        bad = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError, match="spatial"):
            ProjectorPair(basis_spatial=bad, basis_temporal=None)
        with pytest.raises(ValueError, match="temporal"):
            ProjectorPair(basis_spatial=None, basis_temporal=bad)

    def test_basis_rotation_invariance(self, dense_projectors, rng, setup):
        _, _, prior = self._prior(setup)
        q, _ = np.linalg.qr(rng.normal(size=(prior.rank_spatial,) * 2)
                            + 1j * rng.normal(size=(prior.rank_spatial,) * 2))
        rotated = ProjectorPair(basis_spatial=prior.basis_spatial @ q,
                                basis_temporal=prior.basis_temporal)
        np.testing.assert_allclose(dense_projectors(rotated)[0],
                                   dense_projectors(prior)[0], atol=1e-10)

    def test_twin_channel_invariant(self, dense_projectors, draw_fading, rng, desk,
                                    setup):
        """A channel built from only the twin paths lies inside both subspaces."""
        p = _paths([0.05, 0.18, 0.33], [-0.5, 0.1, 0.6], [-1.0, 0.3, 1.1])
        ula, idx, prior = setup(p)
        p_s, p_t = dense_projectors(prior)
        a = steering_matrix(p, *ula)
        k = frequency_response(p, 64, desk.system.sample_interval, 0.25)[idx]
        h = assemble_channel(a, draw_fading(p.amplitude, rng), k)
        np.testing.assert_allclose(p_s @ h @ p_t, h, atol=1e-8)

    def test_subspace_nesting(self, dense_projectors, desk, setup):
        small = _paths([0.05, 0.18], [-0.5, 0.1], [-1.0, 0.3])
        big = _paths([0.05, 0.18, 0.33], [-0.5, 0.1, 0.6], [-1.0, 0.3, 1.1])
        _, _, prior_small = setup(small)
        _, _, prior_big = setup(big)
        s_small, t_small = dense_projectors(prior_small)
        s_big, t_big = dense_projectors(prior_big)
        np.testing.assert_allclose(s_big @ s_small, s_small, atol=1e-8)
        np.testing.assert_allclose(t_big @ t_small, t_small, atol=1e-8)


class TestKroneckerTrace:
    def test_q_trace_property(self, dense_projectors, setup):
        p = _paths([0.05, 0.18, 0.33], [-0.5, 0.1, 0.6], [-1.0, 0.3, 1.1])
        _, _, prior = setup(p)
        p_s, p_t = dense_projectors(prior)
        q = np.kron(p_t.T, p_s)
        r = prior.rank_spatial * prior.rank_temporal
        assert np.trace(q).real == pytest.approx(r, abs=1e-6)
        assert np.trace(q @ q.conj().T).real == pytest.approx(r, abs=1e-6)


class TestBmlSubspace:
    """Batch-ML pairs from the sample covariances of snapshot batches."""

    def _batch(self, draw_fading, rng, desk, n_batch, noise=0.0, n_rx=8, n_sc=64,
               n_p=32):
        p = _paths([0.05, 0.18, 0.33], [-0.5, 0.1, 0.6], [-1.0, 0.3, 1.1])
        idx = np.arange(0, n_sc, n_sc // n_p)
        a = steering_matrix(p, n_rx, 0.5)
        k = frequency_response(p, n_sc, desk.system.sample_interval, 0.25)[idx]
        batch = np.stack([
            assemble_channel(a, draw_fading(p.amplitude, rng), k)
            + noise * (rng.normal(size=(n_rx, n_p)) + 1j * rng.normal(size=(n_rx, n_p)))
            for _ in range(n_batch)
        ])
        return batch

    def test_noiseless_batch_preserved(self, dense_projectors, draw_fading,
                                       sample_covariances, rng, desk):
        batch = self._batch(draw_fading, rng, desk, n_batch=12)
        p_s, p_t = dense_projectors(bml_subspace(sample_covariances(batch), 3, 3))
        for h in batch:
            np.testing.assert_allclose(p_s @ h @ p_t, h, atol=1e-8)

    def test_single_snapshot_rank_one(self, dense_projectors, sample_covariances, rng,
                                      desk):
        p = _paths([0.1], [0.3], [0.4])
        idx = np.arange(0, 64, 2)
        a = steering_matrix(p, 6, 0.5)
        k = frequency_response(p, 64, desk.system.sample_interval, 0.25)[idx]
        h = assemble_channel(a, np.array([1.2 - 0.4j]), k)
        proj = bml_subspace(sample_covariances(h[None]), 1, 1)
        u = a[:, 0] / np.linalg.norm(a[:, 0])
        np.testing.assert_allclose(dense_projectors(proj)[0], np.outer(u, u.conj()),
                                   atol=1e-10)

    def test_pure_noise_energy_ratio(self, dense_projectors, sample_covariances, rng):
        n_rx, n_p, r = 16, 32, 5
        batch = (rng.normal(size=(64, n_rx, n_p)) + 1j * rng.normal(size=(64, n_rx, n_p)))
        p_s, p_t = dense_projectors(bml_subspace(sample_covariances(batch), r, r))
        probe = (rng.normal(size=(400, n_rx, n_p)) + 1j * rng.normal(size=(400, n_rx, n_p)))
        out = np.einsum("ij,tjk,kl->til", p_s, probe, p_t)
        ratio = np.sum(np.abs(out) ** 2) / np.sum(np.abs(probe) ** 2)
        assert ratio == pytest.approx(r * r / (n_rx * n_p), rel=0.15)

    def test_sample_covariances_match_einsum_reference(self, draw_fading,
                                                       sample_covariances, rng, desk):
        """Both one-matmul sample covariances equal the einsums they replaced."""
        batch = self._batch(draw_fading, rng, desk, n_batch=16, noise=0.1)
        cov_s, cov_t = sample_covariances(batch)
        m = batch.shape[0]
        np.testing.assert_allclose(
            cov_s, np.einsum("mik,mjk->ij", batch, batch.conj()) / m,
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            cov_t, np.einsum("mia,mib->ab", batch, batch.conj()) / m,
            rtol=1e-12, atol=1e-12)

    def test_rank_exceeding_dimension_rejected(self, draw_fading, sample_covariances,
                                               rng, desk):
        cov = sample_covariances(self._batch(draw_fading, rng, desk, n_batch=4))
        with pytest.raises(ValueError):
            bml_subspace(cov, 9, 3)
        with pytest.raises(ValueError):
            bml_subspace(cov, 3, 33)

    def test_projector_properties_from_noisy_batch(self, dense_projectors, draw_fading,
                                                   sample_covariances, rng, desk):
        batch = self._batch(draw_fading, rng, desk, n_batch=32, noise=0.1)
        proj = bml_subspace(sample_covariances(batch), 3, 3)
        for m in dense_projectors(proj):
            np.testing.assert_allclose(m @ m, m, atol=1e-10)
            np.testing.assert_allclose(m, m.conj().T, atol=1e-10)


    def test_bases_own_their_memory(self, sample_covariances, rng):
        """Each basis is a copy of its kept eigenvector columns, not a view
        that keeps the whole eigenvector matrix alive."""
        batch = rng.normal(size=(8, 16, 32)) + 1j * rng.normal(size=(8, 16, 32))
        pair = bml_subspace(sample_covariances(batch), 3, 4)
        for basis in (pair.basis_spatial, pair.basis_temporal):
            assert basis.flags.owndata

    def test_sweep_pairs_hold_only_their_kept_columns(self):
        """The reference config's batch-ML pairs, one per SNR point, hold
        within 1.25 x the bytes of their kept columns (traced), not the
        n x n eigenvector matrices they were cut from."""
        env = build_environment(load_config(
            Path(__file__).resolve().parents[1] / "configs" / "reference.json"))
        nv = np.asarray(_noise_variances(env, env.bundle.system.snr_grid_db))
        _method_bases(env, ("bml",), nv, 0)    # first-call allocations untraced
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            bases = _method_bases(env, ("bml",), nv, 0)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(bases) == nv.size == 11
        r_s, r_t = bml_ranks(env)
        n_rx, n_p = env.bundle.system.n_rx, len(env.pilots)
        kept = 11 * (n_rx * r_s + n_p * r_t) * np.dtype(complex).itemsize
        assert kept == sum(b.basis_spatial.nbytes + b.basis_temporal.nbytes
                           for _, _, b in bases)
        assert held <= 1.25 * kept


class TestSnapshotGrams:
    """Batch-ML covariances from per-block Gram matrices, as the sweeps learn
    them, against rebuilding the warm-up snapshots at every noise level."""

    def test_matches_direct_snapshots_on_reference_grid(self, dense_projectors,
                                                        sample_covariances):
        env = build_environment(desk_config(n_rx=64))
        warm = range(env.bundle.estimator.n_batch)
        fading_w, noise_w = _draw(env, [(WARM_FADING, 0, j) for j in warm],
                                  [(WARM_NOISE, 0, j) for j in warm])
        truth_w = assemble_channel(env.steering, fading_w, env.freq_pilot)
        grams = SnapshotGrams.summed([(truth_w, noise_w)])
        sigmas = np.sqrt(_noise_variances(env, env.bundle.system.snr_grid_db))
        for sigma in (0.0, *sigmas):
            fast = dense_projectors(bml_subspace(grams.covariances(sigma),
                                                 *bml_ranks(env)))
            direct = dense_projectors(bml_subspace(
                sample_covariances(truth_w + sigma * noise_w), *bml_ranks(env)))
            for f, d in zip(fast, direct):
                np.testing.assert_allclose(f, d, rtol=0, atol=1e-10)

    def test_covariances_match_sample_covariances(self, sample_covariances, rng):
        truth, noise = (rng.normal(size=(7, 5, 9)) + 1j * rng.normal(size=(7, 5, 9))
                        for _ in range(2))
        cov = SnapshotGrams.summed([(truth, noise)]).covariances(0.3)
        ref = sample_covariances(truth + 0.3 * noise)
        np.testing.assert_allclose(cov.spatial, ref.spatial, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(cov.temporal, ref.temporal, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SnapshotGrams.summed([(np.zeros((4, 3, 2)), np.zeros((4, 3, 3)))])
