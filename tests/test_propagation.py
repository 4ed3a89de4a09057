"""Path generation, steering vectors, pulse shaping, and frequency responses."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest import (ConfigError, dt_truncate, frequency_response, generate_paths,
                   load_paths_csv, pulse_response, save_paths_csv, steering_matrix)
from chest.propagation import PathSet


def _paths(delays, amps, elev=None, azim=None):
    delays = np.asarray(delays, dtype=float)
    n = delays.size
    return PathSet(
        elevation=np.zeros(n) if elev is None else np.asarray(elev, float),
        azimuth=np.zeros(n) if azim is None else np.asarray(azim, float),
        delay=delays,
        amplitude=np.asarray(amps, dtype=float),
    )


class TestGeneratePaths:
    def test_flat_profile(self, rng, desk):
        scen = replace(desk.scenario, n_paths=4, pdp_decay=0.0)
        paths = generate_paths(scen, rng)
        np.testing.assert_allclose(paths.amplitude ** 2, 0.25, atol=1e-12)

    def test_deterministic(self, desk):
        a = generate_paths(desk.scenario, np.random.default_rng(99))
        b = generate_paths(desk.scenario, np.random.default_rng(99))
        np.testing.assert_array_equal(a.delay, b.delay)
        np.testing.assert_array_equal(a.amplitude, b.amplitude)
        np.testing.assert_array_equal(a.azimuth, b.azimuth)

    def test_delays_within_spread(self, rng, desk):
        paths = generate_paths(desk.scenario, rng)
        assert paths.delay.min() >= 0
        assert paths.delay.max() <= desk.scenario.delay_spread

    def test_angles_within_ranges(self, rng, desk):
        paths = generate_paths(desk.scenario, rng)
        lo, hi = desk.scenario.azimuth_range
        assert np.all((paths.azimuth >= lo) & (paths.azimuth <= hi))
        lo, hi = desk.scenario.elevation_range
        assert np.all((paths.elevation >= lo) & (paths.elevation <= hi))

    @given(decay=st.floats(min_value=-40, max_value=40),
           n=st.integers(min_value=1, max_value=40),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_power_normalized(self, decay, n, seed, desk):
        scen = replace(desk.scenario, n_paths=n, n_dt_paths=1, pdp_decay=decay)
        paths = generate_paths(scen, np.random.default_rng(seed))
        assert paths.amplitude.dot(paths.amplitude) == pytest.approx(1.0, abs=1e-12)

    def test_decay_orders_power_with_delay(self, rng, desk):
        scen = replace(desk.scenario, n_paths=12, pdp_decay=25.0)
        paths = generate_paths(scen, rng)
        order = np.argsort(paths.delay)
        powers = paths.amplitude[order] ** 2
        assert np.all(np.diff(powers) < 0)


class TestDtTruncate:
    def test_identity_when_keeping_all(self):
        p = _paths([0.3, 0.1, 0.2], [0.5, 0.6, 0.7])
        assert dt_truncate(p, 3).tolist() == [0, 1, 2]

    def test_keeps_strongest(self):
        p = _paths([0.2, 0.1, 0.05, 0.3], [0.5, 0.5, 0.3, 0.6])
        t = dt_truncate(p, 2)
        assert set(np.round(p.amplitude[t], 12)) == {0.5, 0.6}

    def test_amplitude_tie_prefers_shorter_delay(self):
        p = _paths([0.2, 0.1], [0.5, 0.5])
        assert dt_truncate(p, 1).tolist() == [1]

    def test_survivors_keep_relative_order(self):
        p = _paths([0.4, 0.1, 0.3, 0.2], [0.4, 0.3, 0.2, 0.1])
        assert dt_truncate(p, 3).tolist() == [0, 1, 2]

    def test_rejects_bad_count(self):
        p = _paths([0.1], [1.0])
        with pytest.raises(ValueError):
            dt_truncate(p, 0)
        with pytest.raises(ValueError):
            dt_truncate(p, 2)


def _steering(elevation, azimuth, n_rx, spacing=0.5):
    """Steering vector of one arrival direction, through the path-set route."""
    path = _paths([0.0], [1.0], elev=[elevation], azim=[azimuth])
    return steering_matrix(path, n_rx, spacing)[:, 0]


class TestSteering:
    def test_endfire_alternation(self):
        """Half-spaced x-axis array seen from along the axis: phases step by pi."""
        a = _steering(0.0, 0.0, 4)
        np.testing.assert_allclose(a, [1, -1, 1, -1], atol=1e-12)

    def test_orthogonal_direction_all_ones(self):
        a = _steering(0.0, np.pi / 2, 6)
        np.testing.assert_allclose(a, np.ones(6), atol=1e-12)

    def test_zenith_all_ones(self):
        """An arrival from straight overhead reaches every element in phase,
        whatever the azimuth."""
        np.testing.assert_allclose(_steering(np.pi / 2, 0.3, 6), np.ones(6), atol=1e-12)

    def test_phase_step_follows_spacing(self):
        """Along the axis, phases step by 2 pi spacing: pi / 2 at spacing
        0.25."""
        np.testing.assert_allclose(_steering(0.0, 0.0, 4, spacing=0.25),
                                   [1, 1j, -1, -1j], atol=1e-12)

    @given(el=st.floats(min_value=-1.4, max_value=1.4),
           az=st.floats(min_value=-3.0, max_value=3.0),
           n=st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_unit_modulus_and_norm(self, el, az, n):
        a = _steering(el, az, n)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert np.linalg.norm(a) ** 2 == pytest.approx(n)

    def test_first_element_reference(self):
        a = _steering(0.4, -1.0, 8)
        assert a[0] == pytest.approx(1.0)

    def test_duplicate_angles_rank_one(self):
        p = _paths([0.1e-6, 0.4e-6], [0.7, 0.7], elev=[0.3, 0.3], azim=[0.2, 0.2])
        a = steering_matrix(p, 8, 0.5)
        assert a.shape == (8, 2)
        assert np.linalg.matrix_rank(a) == 1


class TestPulse:
    def test_peak(self):
        assert pulse_response(np.array([0.0]), 0.0, 0.25)[0] == pytest.approx(1.0)

    def test_integer_zeros(self):
        nu = np.arange(-8, 9)
        vals = pulse_response(nu, 0.0, 0.25)
        assert vals[8] == pytest.approx(1.0)
        np.testing.assert_allclose(np.delete(vals, 8), 0.0, atol=1e-12)

    def test_half_sample_sinc(self):
        assert pulse_response(np.array([0.5]), 0.0, 0.0)[0] == pytest.approx(2 / np.pi)

    def test_even_symmetry(self):
        x = np.linspace(0.05, 5.0, 40)
        np.testing.assert_allclose(pulse_response(x, 0.0, 0.3),
                                   pulse_response(-x, 0.0, 0.3), atol=1e-14)

    @pytest.mark.parametrize("rolloff", [0.25, 0.35, 0.5])
    def test_singularity_value(self, rolloff):
        x0 = 1 / (2 * rolloff)
        val = pulse_response(np.array([x0]), 0.0, rolloff)[0]
        assert val == pytest.approx((np.pi / 4) * np.sinc(x0), abs=1e-12)
        # continuous across the removable singularity
        near = pulse_response(np.array([x0 - 1e-7, x0 + 1e-7]), 0.0, rolloff)
        np.testing.assert_allclose(near, val, atol=1e-5)

    def test_energy_integer_delay(self):
        nu = np.arange(-64, 65)
        e = np.sum(pulse_response(nu, 7.0, 0.25) ** 2)
        assert e == pytest.approx(1.0, abs=1e-12)

    def test_energy_zero_rolloff_wide_window(self):
        nu = np.arange(-300000, 300001)
        e = np.sum(pulse_response(nu, 0.5, 0.0) ** 2)
        assert e == pytest.approx(1.0, abs=1e-6)

    @given(x=st.floats(min_value=0.0, max_value=1.0),
           rolloff=st.sampled_from([0.1, 0.25, 0.4]))
    @settings(max_examples=30, deadline=None)
    def test_sampled_energy_ripple(self, x, rolloff):
        """Sampled pulse energy follows 1 - b/4 + (b/4)cos(2 pi x) exactly."""
        nu = np.arange(-2000, 2001)
        e = np.sum(pulse_response(nu, x, rolloff) ** 2)
        model = 1 - rolloff / 4 + rolloff / 4 * np.cos(2 * np.pi * x)
        assert e == pytest.approx(model, abs=1e-6)


class TestFrequencyResponse:
    def test_zero_delay_is_flat(self, desk):
        p = _paths([0.0], [1.0])
        k = frequency_response(p, 64, desk.system.sample_interval, 0.25)
        np.testing.assert_allclose(k[:, 0], 1.0, atol=1e-12)

    def test_integer_delay_shift_theorem(self, desk):
        ts = desk.system.sample_interval
        p = _paths([5 * ts], [1.0])
        k = frequency_response(p, 64, ts, 0.0)
        expected = np.exp(-2j * np.pi * np.arange(64) * 5 / 64)
        np.testing.assert_allclose(k[:, 0], expected, atol=1e-9)

    def test_shape(self, desk, make_paths):
        p = make_paths([0.1, 0.2, 0.3, 0.4])
        k = frequency_response(p, 64, desk.system.sample_interval, 0.25)
        assert k.shape == (64, 4)


class TestPathsCsv:
    def test_round_trip(self, tmp_path, rng, desk):
        paths = generate_paths(desk.scenario, rng)
        f = tmp_path / "paths.csv"
        save_paths_csv(paths, f)
        back = load_paths_csv(f)
        np.testing.assert_allclose(back.delay, paths.delay, rtol=1e-12)
        np.testing.assert_allclose(back.amplitude, paths.amplitude, rtol=1e-12)
        np.testing.assert_allclose(back.elevation, paths.elevation, rtol=1e-12)
        np.testing.assert_allclose(back.azimuth, paths.azimuth, rtol=1e-12)

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            load_paths_csv(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_paths_csv(tmp_path / "none.csv")
