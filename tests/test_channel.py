"""Fading draws, channel assembly, covariance structure, and the uplink model."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest import (assemble_channel, average_gain_from_responses, build_pilot_pattern,
                   channel_covariance, complex_normal, desk_config, frequency_response,
                   generate_paths, pulse_response, steering_matrix)
from chest.config import PilotPattern
from chest.propagation import PathSet


def _vec(h):
    """Column-stacked vectorization, the convention the covariance uses."""
    return h.T.reshape(-1)


def _small_setup(rng, n_rx=4, n_sc=8, n_paths=3, rolloff=0.25):
    desk = desk_config()
    paths = PathSet(
        elevation=rng.uniform(-0.8, 0.8, n_paths),
        azimuth=rng.uniform(-1.5, 1.5, n_paths),
        delay=rng.uniform(0, 0.2e-6, n_paths),
        amplitude=np.full(n_paths, np.sqrt(1 / n_paths)),
    )
    ula = (n_rx, 0.5)
    a = steering_matrix(paths, *ula)
    k = frequency_response(paths, n_sc, desk.system.sample_interval, rolloff)
    return desk, paths, ula, a, k


class TestDrawFading:
    """The fading oracle the tests draw one symbol at a time."""

    def test_zero_amplitude_exact_zero(self, rng, draw_fading):
        c = draw_fading(np.array([0.0, 1.0, 0.0]), rng)
        assert c[0] == 0 and c[2] == 0 and c[1] != 0

    def test_second_moments(self, draw_fading):
        rng = np.random.default_rng(7)
        alpha = np.array([0.5, 1.0, 2.0])
        n = 100_000
        draws = np.stack([draw_fading(alpha, rng) for _ in range(n)])
        power = np.mean(np.abs(draws) ** 2, axis=0)
        # |c|^2 is alpha^2 * Exp(1): std of the mean is alpha^2 / sqrt(n)
        se = alpha ** 2 / np.sqrt(n)
        np.testing.assert_array_less(np.abs(power - alpha ** 2), 3 * se)

    def test_mean_and_cross_moments(self, draw_fading):
        rng = np.random.default_rng(8)
        alpha = np.array([1.0, 1.0])
        n = 100_000
        draws = np.stack([draw_fading(alpha, rng) for _ in range(n)])
        assert np.abs(draws.mean(axis=0)).max() < 3 / np.sqrt(n)
        cross = np.mean(draws[:, 0] * np.conj(draws[:, 1]))
        assert abs(cross) < 3 / np.sqrt(n)

    def test_circularity(self, draw_fading):
        """Pseudo-variance E[c^2] of a circular complex Gaussian vanishes."""
        rng = np.random.default_rng(9)
        draws = np.stack([draw_fading(np.array([1.0]), rng) for _ in range(100_000)])
        assert abs(np.mean(draws ** 2)) < 3 / np.sqrt(draws.size)


class TestAssembleChannel:
    def test_single_flat_path_rank_one(self, rng, desk):
        paths = PathSet(elevation=np.array([0.3]), azimuth=np.array([0.5]),
                        delay=np.array([0.0]), amplitude=np.array([1.0]))
        a = steering_matrix(paths, 6, 0.5)
        k = frequency_response(paths, 16, desk.system.sample_interval, 0.0)
        h = assemble_channel(a, np.array([1.0 + 0j]), k)
        np.testing.assert_allclose(h, np.tile(a, (1, 16)), atol=1e-12)

    def test_zero_fading(self, rng):
        _, _, _, a, k = _small_setup(rng)
        h = assemble_channel(a, np.zeros(3, dtype=complex), k)
        assert not h.any()

    def test_brute_force_small_instance(self, rng, draw_fading):
        """Entry-wise triple sum with an explicit DFT must match the fast path."""
        desk, paths, ula, a, k = _small_setup(rng)
        c = draw_fading(paths.amplitude, rng)
        h = assemble_channel(a, c, k)
        assert h.shape == (4, 8)
        ts = desk.system.sample_interval
        for i in range(4):
            for f in range(8):
                acc = 0j
                for l in range(3):
                    kfl = sum(
                        np.exp(-2j * np.pi * f * nu / 8)
                        * pulse_response(np.array([nu - paths.delay[l] / ts]), 0.0, 0.25)[0]
                        for nu in range(8)
                    )
                    acc += c[l] * a[i, l] * kfl
                assert h[i, f] == pytest.approx(acc, abs=1e-12)

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_matches_einsum_reference(self, rng, lead):
        """The broadcast matmul equals the three-operand einsum it replaced for
        a single symbol and for 1-D and 2-D batches of fading draws."""
        _, paths, _, a, k = _small_setup(rng)
        c = paths.amplitude * (rng.normal(size=lead + (3,))
                               + 1j * rng.normal(size=lead + (3,)))
        h = assemble_channel(a, c, k)
        reference = np.einsum("il,...l,kl->...ik", a, c, k)
        assert h.shape == lead + (4, 8)
        np.testing.assert_allclose(h, reference, rtol=1e-12, atol=1e-12)

    def test_linear_in_fading(self, rng, draw_fading):
        _, paths, _, a, k = _small_setup(rng)
        c1 = draw_fading(paths.amplitude, rng)
        c2 = draw_fading(paths.amplitude, rng)
        h = assemble_channel(a, c1 + c2, k)
        np.testing.assert_allclose(
            h, assemble_channel(a, c1, k) + assemble_channel(a, c2, k), atol=1e-14)


class TestVecIdentity:
    @given(m=st.integers(2, 5), n=st.integers(2, 5), p=st.integers(2, 5),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_vec_of_product(self, m, n, p, seed):
        """vec(A B C) = (C^T kron A) vec(B) under column stacking."""
        r = np.random.default_rng(seed)
        a = r.normal(size=(m, n)) + 1j * r.normal(size=(m, n))
        b = r.normal(size=(n, n)) + 1j * r.normal(size=(n, n))
        c = r.normal(size=(n, p)) + 1j * r.normal(size=(n, p))
        lhs = _vec(a @ b @ c)
        rhs = np.kron(c.T, a) @ _vec(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestChannelCovariance:
    def _cov_small(self, rng):
        desk, paths, ula, a, k = _small_setup(rng)
        idx = np.arange(0, 8, 2)
        cov = channel_covariance(a, k[idx], paths.amplitude)
        return desk, paths, ula, idx, cov

    def test_hermitian(self, rng):
        *_, cov = self._cov_small(rng)
        np.testing.assert_allclose(cov, cov.conj().T, atol=1e-12)

    def test_psd_and_rank(self, rng):
        *_, cov = self._cov_small(rng)
        eig = np.linalg.eigvalsh(cov)
        assert eig.min() > -1e-10
        assert np.sum(eig > 1e-10 * eig.max()) <= 3

    def test_single_path_trace(self, desk):
        paths = PathSet(elevation=np.array([0.2]), azimuth=np.array([-0.4]),
                        delay=np.array([0.0]), amplitude=np.array([1.0]))
        idx = np.arange(0, 16, 2)
        k = frequency_response(paths, 16, desk.system.sample_interval, 0.0)
        cov = channel_covariance(steering_matrix(paths, 4, 0.5), k[idx], paths.amplitude)
        assert np.linalg.matrix_rank(cov) == 1
        assert np.trace(cov).real == pytest.approx(8 * 4, rel=1e-12)

    def test_monte_carlo_match(self, rng):
        desk, paths, ula, idx, cov = self._cov_small(rng)
        a = steering_matrix(paths, *ula)
        k = frequency_response(paths, 8, desk.system.sample_interval, 0.25)[idx]
        gen = np.random.default_rng(123)
        acc = np.zeros_like(cov)
        n = 100_000
        chunk = 10_000
        for _ in range(n // chunk):
            c = (gen.standard_normal((chunk, 3)) + 1j * gen.standard_normal((chunk, 3)))
            c *= paths.amplitude / np.sqrt(2)
            h = np.einsum("il,tl,fl->tif", a, c, k)
            v = h.transpose(0, 2, 1).reshape(chunk, -1)
            acc += v.T @ v.conj()
        sample = acc / n
        rel = np.linalg.norm(sample - cov) / np.linalg.norm(cov)
        assert rel < 0.02

    def test_energy_matches_trace(self, rng):
        desk, paths, ula, idx, cov = self._cov_small(rng)
        a = steering_matrix(paths, *ula)
        k = frequency_response(paths, 8, desk.system.sample_interval, 0.25)[idx]
        gen = np.random.default_rng(321)
        total = 0.0
        n = 100_000
        for _ in range(n // 10_000):
            c = (gen.standard_normal((10_000, 3)) + 1j * gen.standard_normal((10_000, 3)))
            c *= paths.amplitude / np.sqrt(2)
            h = np.einsum("il,tl,fl->tif", a, c, k)
            total += np.sum(np.abs(h) ** 2)
        assert total / n == pytest.approx(np.trace(cov).real, rel=0.02)


class TestSimulateUplink:
    """The uplink oracle of the tests, Y = H x + W."""

    def test_noiseless(self, rng, apply_uplink):
        pat = build_pilot_pattern(16, 8, rng)
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        rx = apply_uplink(h, pat, 0.0, complex_normal(rng, h.shape))
        np.testing.assert_allclose(rx, h @ np.diag(pat.symbols), atol=1e-15)

    def test_noise_variance(self, rng, apply_uplink):
        pat = build_pilot_pattern(16, 8, rng)
        h = np.zeros((64, 8), dtype=complex)
        rx = apply_uplink(h, pat, 0.25, complex_normal(rng, h.shape))
        assert np.mean(np.abs(rx) ** 2) == pytest.approx(0.25, rel=0.1)

    def test_identity_pilots_additive(self, rng, apply_uplink):
        pat = PilotPattern(indices=np.arange(8), symbols=np.ones(8, dtype=complex))
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        rx = apply_uplink(h, pat, 0.0, complex_normal(rng, h.shape))
        np.testing.assert_allclose(rx, h, atol=1e-15)

    def test_apply_uplink_consistency(self, rng, apply_uplink):
        pat = build_pilot_pattern(16, 8, rng)
        h = rng.normal(size=(2, 4, 8)) + 1j * rng.normal(size=(2, 4, 8))
        unit = rng.normal(size=(2, 4, 8)) + 1j * rng.normal(size=(2, 4, 8))
        rx = apply_uplink(h, pat, 0.09, unit)
        expected = h @ np.diag(pat.symbols) + 0.3 * unit
        np.testing.assert_allclose(rx, expected, atol=1e-14)


def _gain(paths, n_subcarriers, sample_interval, rolloff, idx, ula=None):
    """beta from the path responses; with ``ula`` it is also checked against
    trace(R) / dim(R) of the dense covariance."""
    k = frequency_response(paths, n_subcarriers, sample_interval, rolloff)[idx]
    beta = average_gain_from_responses(paths.amplitude, k)
    if ula is not None:
        cov = channel_covariance(steering_matrix(paths, *ula), k, paths.amplitude)
        assert beta == pytest.approx(np.trace(cov).real / cov.shape[0], rel=1e-12)
    return beta


class TestAverageGain:
    def test_trace_linearity(self, rng):
        desk, paths, ula, idx, _ = TestChannelCovariance()._cov_small(rng)
        doubled = PathSet(elevation=paths.elevation, azimuth=paths.azimuth,
                          delay=paths.delay, amplitude=2 * paths.amplitude)
        args = (8, desk.system.sample_interval, 0.25, idx, ula)
        assert _gain(doubled, *args) == pytest.approx(4 * _gain(paths, *args))

    def test_unit_gain_single_path(self, desk):
        paths = PathSet(elevation=np.array([0.2]), azimuth=np.array([-0.4]),
                        delay=np.array([0.0]), amplitude=np.array([1.0]))
        ula = (4, 0.5)
        idx = np.arange(0, 16, 2)
        beta = _gain(paths, 16, desk.system.sample_interval, 0.0, idx, ula)
        assert beta == pytest.approx(1.0, abs=1e-9)

    def test_unit_gain_zero_rolloff_interior_delays(self, desk, make_paths):
        """With a sinc pulse and delays far from the window edges, the average
        per-antenna per-subcarrier gain of a normalized path set is 1."""
        ts = 1 / (1024 * 480e3)
        delays_us = np.linspace(440, 580, 5) * ts * 1e6
        paths = make_paths(delays_us)
        ula = (4, 0.5)
        idx = np.arange(0, 1024, 32)
        beta = _gain(paths, 1024, ts, 0.0, idx, ula)
        assert beta == pytest.approx(1.0, abs=1e-3)

    def test_rolloff_ripple_model(self, desk):
        """Fractional-delay raised-cosine sampling modulates the gain by
        1 - b/4 + (b/4) cos(2 pi frac): the desk beta must follow it."""
        rng = np.random.default_rng(desk.system.seed)
        paths = generate_paths(desk.scenario, rng)
        ula = (8, 0.5)
        idx = np.arange(0, 64, 2)
        beta = _gain(paths, 64, desk.system.sample_interval, 0.25, idx, ula)
        frac = paths.delay / desk.system.sample_interval
        model = np.sum(paths.amplitude ** 2
                       * (1 - 0.25 / 4 + 0.25 / 4 * np.cos(2 * np.pi * frac)))
        assert beta == pytest.approx(model, abs=2e-3)
