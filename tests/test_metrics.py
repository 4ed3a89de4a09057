"""NMSE accounting, genie-aided spectral efficiency, and ECDFs."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest import (analytic_nmse, channel_covariance, dt_subspace, ecdf,
                   noise_variance_for_snr, desk_config)
from chest.propagation import PathSet, frequency_response, steering_matrix
from chest.subspaces import ProjectorPair
from chest.channel import average_gain_from_responses
from chest.experiments import build_environment
from chest.metrics import (CombiningStats, MetricsRecord, covariance_traces,
                           post_combining_snr, quantile, _energy)


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn`` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _est(h):
    return np.asarray(h, dtype=complex)


def error_energy(truth, signal, noise, sigmas):
    """Per-trial ||signal + sigma * noise - truth||_F^2 at every sigma from
    three per-trial sums, ||D||^2 + 2 sigma Re<D, noise> + sigma^2 ||noise||^2
    with D = signal - truth; (len(sigmas), ...).  This general form holds for
    any linear estimator; the sweeps use the orthogonal-projector form, whose
    cross term is zero, and are held to this one in test_experiments.py."""
    truth, signal, noise = (np.asarray(x) for x in (truth, signal, noise))
    if not truth.shape == signal.shape == noise.shape:
        raise ValueError("truth/signal/noise shapes disagree")
    d = signal - truth
    axes = (-2, -1)
    bias = np.sum(np.abs(d) ** 2, axis=axes)
    cross = np.sum(d.real * noise.real + d.imag * noise.imag, axis=axes)
    spread = np.sum(np.abs(noise) ** 2, axis=axes)
    s = np.asarray(sigmas, dtype=float).reshape(-1, *([1] * bias.ndim))
    return bias + 2.0 * s * cross + s * s * spread


def post_combining_snr_samples(estimate, truth, noise_variance):
    """Flattened post-combining SNRs of a formed estimate, through the
    per-column sums with no noise part."""
    return post_combining_snr(CombiningStats.of(estimate, None, truth), [0.0],
                              [noise_variance]).ravel()


def genie_spectral_efficiency(estimate, truth, noise_variance):
    """Mean over subcarriers of log2(1 + post-combining SNR)."""
    return float(np.mean(np.log2(1.0 + post_combining_snr_samples(
        estimate, truth, noise_variance))))


class TestEmpiricalNmse:
    """Per-trial error energy, the numerator of the pooled empirical NMSE."""

    def test_perfect_estimate(self, rng):
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        assert np.all(error_energy(h, h.copy(), np.zeros_like(h), [0.0, 1.0]) == 0.0)

    def test_null_estimator(self, rng):
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        zero = np.zeros_like(h)
        err = error_energy(h, zero, zero, [0.5])
        assert err.sum() / np.sum(np.abs(h) ** 2) == pytest.approx(1.0)

    def test_doubled_estimate(self, rng):
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        err = error_energy(h, 2 * h, np.zeros_like(h), [0.0])
        assert err.sum() / np.sum(np.abs(h) ** 2) == pytest.approx(1.0)

    def test_pools_energy_across_pairs(self):
        h = np.stack([np.ones((2, 2)), 3 * np.ones((2, 2))]).astype(complex)
        est = np.stack([2 * h[0], h[1]])
        # errors 4 and 0, channel energies 4 and 36: pooled ratio 0.1
        err = error_energy(h, est, np.zeros_like(h), [0.0])
        np.testing.assert_allclose(err, [[4.0, 0.0]])
        assert err.sum() / np.sum(np.abs(h) ** 2) == pytest.approx(0.1)

    def test_matches_direct_error(self, rng):
        """The three-sum form equals ||signal + sigma * noise - truth||^2 per
        trial at every sigma."""
        shape = (5, 4, 8)
        truth, signal, noise = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                                for _ in range(3))
        sigmas = np.array([0.0, 0.1, 1.0, 30.0])
        direct = np.array([np.sum(np.abs(signal + s * noise - truth) ** 2, axis=(1, 2))
                           for s in sigmas])
        np.testing.assert_allclose(error_energy(truth, signal, noise, sigmas), direct,
                                   rtol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        h = np.zeros((2, 4, 8), dtype=complex)
        with pytest.raises(ValueError):
            error_energy(h, h[0], h, [1.0])

    def test_zero_channel_energy_rejected(self):
        """The pooled NMSE divides by the channel energy; a path set without
        any is rejected when its average gain is computed."""
        k = np.ones((8, 2), dtype=complex)
        with pytest.raises(ValueError):
            average_gain_from_responses(np.zeros(2), k)


def _identity_paths(n_rx, n_p):
    """Unit paths, one per channel entry, whose covariance is exactly the
    (n_rx * n_p)-square identity: steering, pilot-grid response, amplitude."""
    return (np.tile(np.eye(n_rx), (1, n_p)), np.repeat(np.eye(n_p), n_rx, axis=1),
            np.ones(n_rx * n_p))


class TestAnalyticNmse:
    def _projectors(self, r_s, r_t, n_rx, n_p, rng):
        qs, _ = np.linalg.qr(rng.normal(size=(n_rx, r_s)) + 1j * rng.normal(size=(n_rx, r_s)))
        qt, _ = np.linalg.qr(rng.normal(size=(n_p, r_t)) + 1j * rng.normal(size=(n_p, r_t)))
        return ProjectorPair(basis_spatial=qs, basis_temporal=qt)

    def test_reference_noise_term(self, rng):
        """rank-5 priors at the reference dimensions: noise term 25/2048 at 0 dB."""
        proj = self._projectors(5, 5, 64, 32, rng)
        bk = analytic_nmse(proj, *_identity_paths(64, 32), 0.0,
                           noise_variance_for_snr(0.0, 1.0))
        assert bk.noise_term == pytest.approx(25 / 2048, rel=1e-9)
        assert 10 * np.log10(bk.noise_term) == pytest.approx(-19.13, abs=0.01)

    def test_identity_projectors_ls_limit(self, rng):
        n_rx, n_p = 8, 16
        proj = ProjectorPair(basis_spatial=np.eye(n_rx, dtype=complex),
                             basis_temporal=np.eye(n_p, dtype=complex))
        bk = analytic_nmse(proj, *_identity_paths(n_rx, n_p), 10.0,
                           noise_variance_for_snr(10.0, 1.0))
        assert bk.subspace_floor < 1e-10
        assert bk.noise_term == pytest.approx(0.1, rel=1e-9)

    def test_full_prior_zero_floor(self, desk, rng):
        """When the twin knows every path the floor vanishes."""
        paths = PathSet(elevation=rng.uniform(-0.5, 0.5, 4),
                        azimuth=rng.uniform(-1.0, 1.0, 4),
                        delay=rng.uniform(0, 0.3e-6, 4),
                        amplitude=np.full(4, 0.5))
        ula = (8, 0.5)
        idx = np.arange(0, 64, 2)
        a = steering_matrix(paths, *ula)
        k = frequency_response(paths, 64, desk.system.sample_interval, 0.25)[idx]
        proj = dt_subspace(a, k)
        beta = average_gain_from_responses(paths.amplitude, k)
        bk = analytic_nmse(proj, a, k, paths.amplitude, 0.0,
                           noise_variance_for_snr(0.0, beta))
        assert bk.subspace_floor < 1e-10

    def test_total_is_sum(self, rng):
        proj = self._projectors(3, 4, 8, 16, rng)
        bk = analytic_nmse(proj, *_identity_paths(8, 16), -5.0,
                           noise_variance_for_snr(-5.0, 1.0))
        assert bk.total == pytest.approx(bk.subspace_floor + bk.noise_term, rel=1e-12)
        assert bk.subspace_floor >= 0 and bk.noise_term >= 0

    def test_desk_floor_positive(self, desk_env):
        bk = analytic_nmse(desk_env.projectors, desk_env.steering, desk_env.freq_pilot,
                           desk_env.amplitude, 0.0,
                           noise_variance_for_snr(0.0, desk_env.beta))
        assert 0 < bk.subspace_floor < 1e-2


def _dense_traces(dense, cov):
    """trace(R) and trace(R (P_t^T kron P_s)) from the dense covariance and the
    dense projectors ``(P_s, P_t)``, as the analytic NMSE computed them before
    the per-path form."""
    p_s, p_t = dense
    n_rx, n_p = p_s.shape[0], p_t.shape[0]
    r4 = cov.reshape(n_p, n_rx, n_p, n_rx)
    tr_rq = np.einsum("aibj,ab,ji->", r4, p_t, p_s)
    return float(np.trace(cov).real), float(tr_rq.real)


class TestCovarianceTraces:
    """The per-path traces against the dense covariance they replace."""

    def _check(self, env, cov, dense_projectors):
        fast = covariance_traces(env.projectors, env.steering, env.freq_pilot,
                                 env.amplitude)
        dense = _dense_traces(dense_projectors(env.projectors), cov)
        assert fast == pytest.approx(dense, rel=1e-12)
        bk = analytic_nmse(env.projectors, env.steering, env.freq_pilot,
                           env.amplitude, 0.0,
                           noise_variance_for_snr(0.0, env.beta))
        assert bk.subspace_floor == pytest.approx(
            (dense[0] - dense[1]) / dense[0], rel=1e-6, abs=1e-12)

    def test_desk(self, desk_env, desk_cov, dense_projectors):
        self._check(desk_env, desk_cov, dense_projectors)

    def test_reference(self, dense_projectors):
        env = build_environment(desk_config(n_rx=64))
        self._check(env, channel_covariance(env.steering, env.freq_pilot, env.amplitude),
                    dense_projectors)

    def test_non_unit_modulus_steering(self, desk_env, desk_cov, rng, dense_projectors):
        """Per-element gains on the array scale R; the traces follow them."""
        n_rx, n_p = desk_env.steering.shape[0], desk_env.freq_pilot.shape[0]
        gain = rng.uniform(0.2, 2.0, n_rx)
        steering = gain[:, None] * desk_env.steering
        scale = np.tile(gain, n_p)
        cov = scale[:, None] * desk_cov * scale[None, :]
        fast = covariance_traces(desk_env.projectors, steering, desk_env.freq_pilot,
                                 desk_env.amplitude)
        assert fast == pytest.approx(
            _dense_traces(dense_projectors(desk_env.projectors), cov), rel=1e-12)

    @pytest.mark.parametrize("spatial, temporal", [(False, False), (False, True),
                                                   (True, False)])
    def test_identity_sides(self, desk_env, desk_cov, dense_projectors, spatial,
                            temporal):
        """A None side keeps the full energy and has the rank of the response
        it meets: traces and analytic NMSE equal those of the pair with that
        side spelled out as np.eye, and the dense traces."""
        n_rx, n_p = desk_env.steering.shape[0], desk_env.freq_pilot.shape[0]
        twin = desk_env.projectors
        pair = ProjectorPair(twin.basis_spatial if spatial else None,
                             twin.basis_temporal if temporal else None)
        eye = ProjectorPair(twin.basis_spatial if spatial else np.eye(n_rx, dtype=complex),
                            twin.basis_temporal if temporal else np.eye(n_p, dtype=complex))
        responses = (desk_env.steering, desk_env.freq_pilot, desk_env.amplitude)
        fast = covariance_traces(pair, *responses)
        assert fast == pytest.approx(covariance_traces(eye, *responses), rel=1e-12)
        assert fast == pytest.approx(
            _dense_traces(dense_projectors(pair, n_rx, n_p), desk_cov), rel=1e-12)
        nv = noise_variance_for_snr(3.0, desk_env.beta)
        bk = analytic_nmse(pair, *responses, 3.0, nv)
        ref = analytic_nmse(eye, *responses, 3.0, nv)
        assert bk.noise_term == pytest.approx(ref.noise_term, rel=1e-12)
        assert bk.subspace_floor == pytest.approx(ref.subspace_floor, rel=1e-9,
                                                  abs=1e-12)

    def test_path_count_mismatch_rejected(self, desk_env):
        with pytest.raises(ValueError, match="path counts"):
            covariance_traces(desk_env.projectors, desk_env.steering,
                              desk_env.freq_pilot[:, :-1], desk_env.amplitude)


class TestGenieSpectralEfficiency:
    def test_single_antenna_unit_channel(self):
        h = np.ones((1, 4), dtype=complex)
        se = genie_spectral_efficiency(_est(h), h, 1.0)
        assert se == pytest.approx(1.0)

    def test_perfect_estimate_full_mrc_gain(self, rng):
        h = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        nv = 0.5
        se = genie_spectral_efficiency(_est(h), h, nv)
        snr_k = np.sum(np.abs(h) ** 2, axis=0) / nv
        assert se == pytest.approx(np.mean(np.log2(1 + snr_k)), rel=1e-12)

    def test_orthogonal_estimate_zero(self):
        h = np.zeros((2, 3), dtype=complex)
        h[0] = 1.0
        hat = np.zeros((2, 3), dtype=complex)
        hat[1] = 1.0
        assert genie_spectral_efficiency(_est(hat), h, 1.0) == 0.0

    def test_zero_estimate_column_is_skipped(self, rng):
        h = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        hat = h.copy()
        hat[:, 2] = 0.0
        se = genie_spectral_efficiency(_est(hat), h, 1.0)
        assert np.isfinite(se) and se > 0

    def test_combiner_scale_invariance(self, rng):
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        hat = h + 0.1 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
        a = genie_spectral_efficiency(_est(hat), h, 0.3)
        b = genie_spectral_efficiency(_est(5.0 * hat), h, 0.3)
        assert a == pytest.approx(b, rel=1e-12)

    @given(snrs=st.lists(st.floats(min_value=-30, max_value=30), min_size=2,
                         max_size=6, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_snr(self, snrs):
        r = np.random.default_rng(5)
        h = r.normal(size=(4, 8)) + 1j * r.normal(size=(4, 8))
        hat = h + 0.2 * (r.normal(size=h.shape) + 1j * r.normal(size=h.shape))
        vals = [genie_spectral_efficiency(_est(hat), h, 10 ** (-s / 10))
                for s in sorted(snrs)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestPostCombiningSnr:
    def test_matches_manual_computation(self, rng):
        h = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        hat = h + 0.1 * rng.normal(size=h.shape)
        samples = post_combining_snr_samples(_est(hat), h, 0.7)
        assert samples.shape == (5,)
        for k in range(5):
            s = hat[:, k] / np.linalg.norm(hat[:, k])
            expected = np.abs(s.conj() @ h[:, k]) ** 2 / 0.7
            assert samples[k] == pytest.approx(expected, rel=1e-12)


class TestCombiningStats:
    def _parts(self, rng, shape=(3, 6, 10)):
        return [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3)]

    def test_every_sigma_matches_formed_estimate(self, rng):
        a, b, h = self._parts(rng)
        sigmas, nvs = np.array([0.0, 0.3, 2.0]), np.array([0.5, 1.0, 4.0])
        snr = post_combining_snr(CombiningStats.of(a, b, h), sigmas, nvs)
        assert snr.shape == (3, 3, 10)
        for i, (sigma, nv) in enumerate(zip(sigmas, nvs)):
            est = a + sigma * b
            num = np.abs(np.sum(est.conj() * h, axis=-2)) ** 2
            den = np.sum(np.abs(est) ** 2, axis=-2)
            np.testing.assert_allclose(snr[i], num / den / nv, rtol=1e-12)

    def test_invariant_under_orthonormal_coordinates(self, rng):
        """For a and b in span(U), the sums of U^H a, U^H b, U^H h are those of
        a, b, h: the sweeps take them in r_s coordinates."""
        u, _ = np.linalg.qr(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)))
        c_a, c_b, _ = self._parts(rng, (3, 2, 10))
        _, _, h = self._parts(rng)
        full = CombiningStats.of(u @ c_a, u @ c_b, h)
        sub = CombiningStats.of(c_a, c_b, u.conj().T @ h)
        for x, y in zip(full, sub):
            np.testing.assert_allclose(x, y, rtol=1e-12)

    def test_zero_estimate_gives_zero_snr(self, rng):
        a, b, h = self._parts(rng)
        a[:, :, 4] = 0.0
        b[:, :, 4] = 0.0
        snr = post_combining_snr(CombiningStats.of(a, b, h), [0.0, 1.0], [1.0, 1.0])
        assert np.all(snr[:, :, 4] == 0.0) and np.all(snr[:, :, :4] > 0)

    def test_energy_squares_in_place(self, rng):
        """|x|^2 is summed from one real temporary: on a desk SE slice in
        batch-ML coordinates, (40, 5, 64), too small for numpy to reuse a
        temporary by itself, the traced peak stays under 1.25 real copies."""
        x = self._parts(rng, (40, 5, 64))[0]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            energy = _energy(x)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(energy, np.sum(np.abs(x) ** 2, axis=(-2, -1)))
        real_copy = x.nbytes // 2
        assert peak <= 1.25 * real_copy

    def test_of_writes_none_of_its_inputs(self, rng):
        """The sums leave ``a``, ``b`` and ``h`` bit for bit as they were, and
        so does the ``ideal`` call, whose estimate is the channel itself."""
        a, b, h = self._parts(rng, (40, 16, 64))
        kept = a.copy(), b.copy(), h.copy()
        CombiningStats.of(a, b, h)
        CombiningStats.of(h, None, h)
        for x, y in zip((a, b, h), kept):
            np.testing.assert_array_equal(x, y)

    def test_of_holds_only_its_sums(self, rng):
        """On a desk full-grid ``ls`` slice, (40, 16, 64), the traced peak
        holds the five sums and no copy of an estimate or of its real or
        imaginary part: it stays within half an estimate's bytes."""
        a, b, h = self._parts(rng, (40, 16, 64))
        CombiningStats.of(a, b, h)   # first-call allocations untraced
        assert _traced_peak(lambda: CombiningStats.of(a, b, h)) <= 0.5 * a.nbytes

    def test_rejects_bad_input(self, rng):
        a, b, h = self._parts(rng)
        with pytest.raises(ValueError, match="shapes"):
            CombiningStats.of(a, b[..., :-1], h)
        stats = CombiningStats.of(a, b, h)
        with pytest.raises(ValueError):
            post_combining_snr(stats, [1.0], [0.0])


class TestEcdf:
    def test_counting(self, ecdf_at):
        e = ecdf([1.0, 2.0, 3.0])
        assert ecdf_at(e, 2.0) == pytest.approx(2 / 3)

    def test_boundaries(self, ecdf_at):
        e = ecdf([1.0, 2.0, 3.0])
        assert ecdf_at(e, 0.5) == 0.0
        assert ecdf_at(e, 3.0) == pytest.approx(1.0)
        assert ecdf_at(e, 99.0) == pytest.approx(1.0)

    def test_right_continuous_steps(self, ecdf_at):
        e = ecdf([1.0, 1.0, 2.0])
        assert ecdf_at(e, 1.0) == pytest.approx(2 / 3)
        assert ecdf_at(e, 1.0 - 1e-12) == 0.0

    def test_quantile(self):
        e = ecdf([1.0, 2.0, 3.0])
        assert quantile(e, 0.5) == 2.0
        assert quantile(e, 0.99) == 3.0

    def test_quantile_vectorised_over_p(self):
        """One call over an array of probabilities gives what a call per
        probability gives."""
        e = ecdf(np.arange(7.0)[::-1])
        probs = np.linspace(0.005, 1.0, 200)
        np.testing.assert_array_equal(quantile(e, probs),
                                      [quantile(e, p) for p in probs])
        np.testing.assert_array_equal(quantile(e, [1e-9, 1 / 7, 0.5, 1.0]), [0, 0, 3, 6])

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, np.nan])
    def test_quantile_rejects_p_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match="p must lie"):
            quantile(ecdf([1.0, 2.0]), [0.5, bad])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            ecdf([1.0, bad])

    def test_sorts_a_copy(self):
        samples = np.array([[3.0, 1.0], [2.0, 0.0]])
        e = ecdf(samples)
        np.testing.assert_array_equal(e, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(samples, [[3.0, 1.0], [2.0, 0.0]])

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_terminal_value_and_monotonicity(self, ecdf_at, xs):
        e = ecdf(xs)
        assert e.size == len(xs)
        assert ecdf_at(e, e[-1]) == 1.0
        assert np.all(np.diff(e) >= 0)


class TestMetricsRecord:
    """Every sweep result row is built here, so this is the output guard on
    the NMSE and spectral-efficiency values the CSVs carry."""

    def _record(self, **fields):
        return MetricsRecord(**{"method": "ls", "snr_db": 0.0, "n_pilots": 8,
                                "trials": 4, **fields})

    def test_valid_record(self):
        rec = self._record(nmse_emp=0.5, spectral_efficiency=0.0)
        assert rec.nmse_emp == 0.5 and rec.spectral_efficiency == 0.0

    @pytest.mark.parametrize("field", ["nmse_emp", "spectral_efficiency"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12])
    def test_non_finite_or_negative_rejected(self, field, bad):
        with pytest.raises(ValueError):
            self._record(**{field: bad})

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            self._record(trials=0, nmse_emp=0.5)
