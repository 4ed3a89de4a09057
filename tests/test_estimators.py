"""LS, projection, delay-domain denoising, and full-grid interpolation."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest import build_pilot_pattern, complex_normal, denoise_subspace, desk_config
from chest.config import PilotPattern
from chest.subspaces import ProjectorPair, interpolation_matrix


def _vec(h):
    return h.T.reshape(-1)


def _random_projectors(rng, n_rx, n_p, r_s, r_t):
    qs, _ = np.linalg.qr(rng.normal(size=(n_rx, r_s)) + 1j * rng.normal(size=(n_rx, r_s)))
    qt, _ = np.linalg.qr(rng.normal(size=(n_p, r_t)) + 1j * rng.normal(size=(n_p, r_t)))
    return ProjectorPair(basis_spatial=qs, basis_temporal=qt)


class TestLsEstimate:
    """LS of the received block, the uplink oracle of the tests."""

    def test_noiseless_exact(self, rng, apply_uplink, ls_estimate):
        pat = build_pilot_pattern(16, 8, rng)
        h = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        rx = apply_uplink(h, pat, 0.0, complex_normal(rng, h.shape))
        est = ls_estimate(rx, pat)
        np.testing.assert_allclose(est, h, atol=1e-13)

    def test_identity_pilots_pass_through(self, rng, ls_estimate):
        pat = PilotPattern(indices=np.arange(8), symbols=np.ones(8, dtype=complex))
        y = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        est = ls_estimate(y, pat)
        np.testing.assert_array_equal(est, y)

    @pytest.mark.parametrize("width", [1, 7])
    def test_width_mismatch_rejected(self, rng, ls_estimate, width):
        """The received block must have one column per pilot; a single column
        would otherwise broadcast against the pilot symbols."""
        pat = build_pilot_pattern(16, 8, rng)
        with pytest.raises(ValueError):
            ls_estimate(np.zeros((4, width), dtype=complex), pat)

    def test_white_error_law(self, rng, apply_uplink, ls_estimate):
        """LS error is diag(x)^-1 W: per-entry variance noise/power, here
        with pilots of power 2."""
        unit = build_pilot_pattern(64, 32, rng)
        pat = PilotPattern(indices=unit.indices, symbols=np.sqrt(2.0) * unit.symbols)
        h = np.zeros((16, 32), dtype=complex)
        errs = []
        for _ in range(200):
            rx = apply_uplink(h, pat, 0.5, complex_normal(rng, h.shape))
            errs.append(np.mean(np.abs(ls_estimate(rx, pat)) ** 2))
        assert np.mean(errs) == pytest.approx(0.25, rel=0.05)


class TestProjectEstimate:
    """Projection of an estimate by a pair, ``pair.project(pair.core(h))``."""

    def test_idempotent(self, rng):
        proj = _random_projectors(rng, 8, 16, 3, 4)
        est = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        once = proj.project(proj.core(est))
        twice = proj.project(proj.core(once))
        np.testing.assert_allclose(twice, once, atol=1e-10)

    def test_identity_projectors_no_op(self, rng):
        proj = ProjectorPair(basis_spatial=np.eye(8, dtype=complex),
                             basis_temporal=np.eye(16, dtype=complex))
        h = rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))
        np.testing.assert_allclose(proj.project(proj.core(h)), h, atol=1e-13)

    def test_pure_noise_energy_ratio(self, rng):
        n_rx, n_p, r = 64, 32, 5
        proj = _random_projectors(rng, n_rx, n_p, r, r)
        total_in = total_out = 0.0
        for _ in range(50):
            h = rng.normal(size=(n_rx, n_p)) + 1j * rng.normal(size=(n_rx, n_p))
            total_in += np.sum(np.abs(h) ** 2)
            total_out += np.sum(np.abs(proj.project(proj.core(h))) ** 2)
        assert total_out / total_in == pytest.approx(r * r / (n_rx * n_p), rel=0.1)

    @pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
    def test_matches_einsum_reference(self, rng, dense_projectors, lead):
        """The low-rank product equals the dense three-operand einsum
        P_s H P_t it replaced on 2-D, 3-D and 4-D batches."""
        n_rx, n_p = 8, 16
        proj = _random_projectors(rng, n_rx, n_p, 3, 4)
        shape = lead + (n_rx, n_p)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = proj.project(proj.core(h))
        p_s, p_t = dense_projectors(proj)
        reference = np.einsum("ij,...jk,kl->...il", p_s, h, p_t)
        assert out.shape == shape
        np.testing.assert_allclose(out, reference, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("spatial, temporal", [(False, False), (False, True),
                                                   (True, False)])
    @pytest.mark.parametrize("lead", [(), (2, 3)])
    def test_identity_sides_match_dense(self, rng, dense_projectors, spatial, temporal,
                                        lead):
        """A None side is the identity: core and projection equal those of
        the pair with that side spelled out as np.eye, and the projection
        equals the dense product."""
        n_rx, n_p = 6, 10
        full = _random_projectors(rng, n_rx, n_p, 2, 3)
        pair = ProjectorPair(full.basis_spatial if spatial else None,
                             full.basis_temporal if temporal else None)
        eye = ProjectorPair(pair.basis_spatial if spatial else np.eye(n_rx, dtype=complex),
                            pair.basis_temporal if temporal else np.eye(n_p, dtype=complex))
        shape = lead + (n_rx, n_p)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        core = pair.core(h)
        np.testing.assert_allclose(core, eye.core(h), rtol=1e-12, atol=1e-12)
        p_s, p_t = dense_projectors(pair, n_rx, n_p)
        reference = np.einsum("ij,...jk,kl->...il", p_s, h, p_t)
        np.testing.assert_allclose(pair.project(core), reference, rtol=1e-12, atol=1e-12)
        if not spatial and not temporal:
            assert core is h and pair.project(core) is h

    def test_error_vector_identity(self, rng, dense_projectors, ls_estimate):
        """The estimation error splits as Qperp h - Q vec(scaled noise)."""
        n_rx, n_p = 6, 8
        proj = _random_projectors(rng, n_rx, n_p, 2, 3)
        pat = build_pilot_pattern(16, n_p, rng)
        h = rng.normal(size=(n_rx, n_p)) + 1j * rng.normal(size=(n_rx, n_p))
        w = rng.normal(size=(n_rx, n_p)) + 1j * rng.normal(size=(n_rx, n_p))
        y = h @ np.diag(pat.symbols) + w
        ls = ls_estimate(y, pat)
        out = proj.project(proj.core(ls))
        p_s, p_t = dense_projectors(proj)
        q = np.kron(p_t.T, p_s)
        scaled_noise = w @ np.diag(1 / pat.symbols)
        expected = (np.eye(q.shape[0]) - q) @ _vec(h) - q @ _vec(scaled_noise)
        np.testing.assert_allclose(_vec(h - out), expected, atol=1e-10)


def _fft_denoise(h, tau_max, system):
    """Reference delay-window denoiser: per antenna row, N_p-point IDFT, zero
    every tap past the window (k_tau = min(N_p, ceil(tau_max / spacing)) at
    pilot-grid tap spacing T_s N / N_p, no wrapped taps kept), DFT back."""
    n_p = h.shape[-1]
    spacing = system.sample_interval * system.n_subcarriers / n_p
    k_tau = min(n_p, math.ceil(tau_max / spacing))
    cir = np.fft.ifft(h, axis=-1)
    cir[..., k_tau:] = 0.0
    return np.fft.fft(cir, axis=-1)


def _window(h, tau_max, system):
    """The delay-window pair sized for the pilot-grid array ``h``."""
    return denoise_subspace(replace(system, n_rx=h.shape[-2], n_pilots=h.shape[-1]),
                            tau_max)


def _denoise(h, tau_max, system):
    window = _window(h, tau_max, system)
    return window.project(window.core(h))


class TestDenoise:
    def _estimate(self, rng, n_rx=4, n_p=32):
        return rng.normal(size=(n_rx, n_p)) + 1j * rng.normal(size=(n_rx, n_p))

    def test_retained_tap_count_defaults(self, desk):
        assert denoise_subspace(desk.system, desk.estimator.tau_max).rank_temporal == 8

    def test_every_antenna_kept_without_a_basis(self, desk):
        """The spatial side is the identity, never formed."""
        assert denoise_subspace(desk.system, desk.estimator.tau_max).basis_spatial is None

    def test_retained_tap_count_saturates(self, desk):
        window = denoise_subspace(replace(desk.system, n_rx=4, n_subcarriers=64,
                                          n_pilots=32), 1.0)
        assert window.rank_temporal == 32

    def test_full_window_is_identity(self, rng, desk):
        est = self._estimate(rng)
        out = _denoise(est, 2.1e-6, desk.system)
        np.testing.assert_allclose(out, est, atol=1e-10)

    def test_in_window_taps_preserved(self, rng, desk):
        """A channel whose pilot-grid CIR lives on early integer taps passes through."""
        taps = np.zeros((4, 32), dtype=complex)
        taps[:, :6] = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        h = np.fft.fft(taps, axis=1)
        out = _denoise(h, desk.estimator.tau_max, desk.system)
        np.testing.assert_allclose(out, h, atol=1e-8)

    def test_out_of_window_taps_removed(self, rng, desk):
        taps = np.zeros((4, 32), dtype=complex)
        taps[:, 20] = 1.0
        h = np.fft.fft(taps, axis=1)
        out = _denoise(h, desk.estimator.tau_max, desk.system)
        np.testing.assert_allclose(out, 0.0, atol=1e-10)

    def test_idempotent(self, rng, desk):
        est = self._estimate(rng)
        once = _denoise(est, 0.5e-6, desk.system)
        twice = _denoise(once, 0.5e-6, desk.system)
        np.testing.assert_allclose(twice, once, atol=1e-10)

    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_energy_non_increasing(self, seed):
        desk = desk_config()
        r = np.random.default_rng(seed)
        h = r.normal(size=(4, 32)) + 1j * r.normal(size=(4, 32))
        out = _denoise(h, desk.estimator.tau_max, desk.system)
        assert np.sum(np.abs(out) ** 2) <= np.sum(np.abs(h) ** 2) + 1e-9

    def test_pure_noise_energy_fraction(self, desk):
        r = np.random.default_rng(42)
        total_in = total_out = 0.0
        for _ in range(300):
            h = r.normal(size=(4, 32)) + 1j * r.normal(size=(4, 32))
            total_in += np.sum(np.abs(h) ** 2)
            total_out += np.sum(np.abs(_denoise(h, desk.estimator.tau_max,
                                                desk.system)) ** 2)
        assert total_out / total_in == pytest.approx(8 / 32, rel=0.05)

    def test_rejects_nonpositive_tau(self, rng, desk):
        with pytest.raises(ValueError):
            _denoise(self._estimate(rng), 0.0, desk.system)

    # (n_rx, n_subcarriers, n_pilots) of configs/desk.json,
    # configs/reference.json and bench/c8.json
    @pytest.mark.parametrize("n_rx, n_sc, n_p", [(16, 64, 32), (64, 64, 32),
                                                 (16, 256, 32)])
    @pytest.mark.parametrize("lead", [(), (2, 3)])
    @pytest.mark.parametrize("tau_max, k_tau", [(0.5e-6, 8), (1e-12, 1),
                                                (1.0, None)])  # None: all N_p taps
    def test_matches_fft_oracle(self, rng, desk, n_rx, n_sc, n_p, lead, tau_max, k_tau):
        """Projecting by the delay-window pair is the IDFT-prune-DFT denoiser."""
        system = replace(desk.system, n_rx=n_rx, n_subcarriers=n_sc, n_pilots=n_p)
        shape = lead + (n_rx, n_p)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert _window(h, tau_max, system).rank_temporal == (k_tau or n_p)
        out = _denoise(h, tau_max, system)
        reference = _fft_denoise(h, tau_max, system)
        assert out.shape == shape
        assert np.linalg.norm(out - reference) <= 1e-12 * np.linalg.norm(reference)


class TestInterpolateFull:
    """Full-grid interpolation as the sweeps fold it, ``h @ interpolation_matrix``."""

    def test_constant_channel_exact(self, rng):
        pat = build_pilot_pattern(64, 16, rng)
        out = np.full((4, 16), 2.0 - 1.0j) @ interpolation_matrix(pat, 64)
        assert out.shape == (4, 64)
        np.testing.assert_allclose(out, 2.0 - 1.0j, atol=1e-12)

    def test_affine_exact_between_pilots(self, rng):
        pat = build_pilot_pattern(64, 16, rng)
        slope = 0.3 - 0.1j
        full = slope * np.arange(64)[None, :] + (1 + 1j)
        out = full[:, pat.indices].copy() @ interpolation_matrix(pat, 64)
        np.testing.assert_allclose(out[:, :pat.indices[-1] + 1],
                                   full[:1, :pat.indices[-1] + 1], atol=1e-12)

    def test_exact_at_pilot_positions(self, rng):
        pat = build_pilot_pattern(64, 8, rng)
        h = rng.normal(size=(3, 8)) + 1j * rng.normal(size=(3, 8))
        out = h @ interpolation_matrix(pat, 64)
        np.testing.assert_allclose(out[:, pat.indices], h, atol=1e-13)

    def test_hold_beyond_last_pilot(self, rng):
        pat = build_pilot_pattern(64, 8, rng)
        h = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
        out = h @ interpolation_matrix(pat, 64)
        for col in range(pat.indices[-1], 64):
            np.testing.assert_allclose(out[:, col], h[:, -1], atol=1e-13)

    def test_full_piloting_identity(self, rng):
        pat = build_pilot_pattern(32, 32, rng)
        h = rng.normal(size=(2, 32)) + 1j * rng.normal(size=(2, 32))
        out = h @ interpolation_matrix(pat, 32)
        np.testing.assert_allclose(out, h, atol=1e-14)


class TestInterpolationMatrix:
    @pytest.mark.parametrize("n_sc,n_p", [(64, 16), (64, 32), (64, 64), (32, 2), (64, 1)])
    def test_matches_gather_formula(self, rng, gather_interpolate, n_sc, n_p):
        pat = build_pilot_pattern(n_sc, n_p, rng)
        h = rng.normal(size=(3, 2, n_p)) + 1j * rng.normal(size=(3, 2, n_p))
        m = interpolation_matrix(pat, n_sc)
        assert m.shape == (n_p, n_sc) and m.dtype == float
        np.testing.assert_allclose(h @ m, gather_interpolate(h, pat, n_sc),
                                   rtol=0, atol=1e-14)

    def test_single_pilot_is_constant(self, rng):
        pat = build_pilot_pattern(16, 1, rng)
        np.testing.assert_array_equal(interpolation_matrix(pat, 16), np.ones((1, 16)))

    def test_holds_beyond_last_pilot(self, rng):
        pat = build_pilot_pattern(64, 8, rng)
        m = interpolation_matrix(pat, 64)
        hold = np.zeros(8)
        hold[-1] = 1.0
        for col in range(pat.indices[-1], 64):
            np.testing.assert_array_equal(m[:, col], hold)
        assert np.all(m >= 0)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, rtol=0, atol=1e-15)


class TestLinearity:
    @given(seed=st.integers(0, 2 ** 16))
    @settings(max_examples=20, deadline=None)
    def test_estimators_linear_in_observation(self, ls_estimate, seed):
        """All pilot-grid estimators commute with linear combinations of Y."""
        r = np.random.default_rng(seed)
        desk = desk_config()
        pat = build_pilot_pattern(64, 32, r)
        proj = _random_projectors(r, 4, 32, 2, 3)
        y1 = r.normal(size=(4, 32)) + 1j * r.normal(size=(4, 32))
        y2 = r.normal(size=(4, 32)) + 1j * r.normal(size=(4, 32))
        alpha = complex(r.normal(), r.normal())

        def run(y):
            ls = ls_estimate(y, pat)
            return (ls,
                    proj.project(proj.core(ls)),
                    _denoise(ls, desk.estimator.tau_max, desk.system))

        outs1, outs2 = run(y1), run(y2)
        combo = run(y1 + alpha * y2)
        for a, b, c in zip(outs1, outs2, combo):
            np.testing.assert_allclose(c, a + alpha * b, atol=1e-10)
