"""The invariant suite: its checks in their order, faults in the sweeps'
own code that its projection checks report, and the memory its Monte Carlo
checks take."""
import tracemalloc
from dataclasses import replace

import pytest

from chest import desk_config, experiments, validate_config
from chest.subspaces import ProjectorPair
from chest.validate import (check_covariance_mc, check_denoiser, check_error_decomposition,
                            check_fading_moments, check_interpolation, run_validation)

CHECK_NAMES = [
    "projector-idempotent-hermitian", "vec-kronecker-identity", "projected-noise-trace",
    "channel-synthesis-brute-force", "covariance-monte-carlo", "fading-moments",
    "denoiser-projection", "csv-determinism", "noise-term-calibration",
    "pulse-shape-points", "error-orthogonal-split", "interpolation-pilot-exact",
]


def test_every_check_passes_in_order(tiny):
    results = run_validation(tiny)
    assert [r.name for r in results] == CHECK_NAMES
    assert [r.name for r in results if not r.passed] == []


def _with_tau_max(bundle, tau_max):
    return validate_config(bundle.system, bundle.scenario,
                           replace(bundle.estimator, tau_max=tau_max))


@pytest.mark.parametrize("bundle", [
    desk_config(n_pilots=1),
    _with_tau_max(desk_config(), 1e-12),
    _with_tau_max(desk_config(), 1.0),
    _with_tau_max(desk_config(n_subcarriers=4, n_pilots=4), 1e-7),
    desk_config(snr_grid_db=(0.0, 1000.0)),
], ids=["one-pilot", "one-tap-window", "every-tap-window", "four-subcarriers",
        "grid-at-1000-dB"])
def test_every_check_passes_on_edge_configs(bundle):
    """The denoiser check probes the window the config asks for, whatever
    its width: one pilot, one tap, every tap, or a window of N_p - 1 taps.
    The error split holds where the direct error is rounding: at 1000 dB,
    H + sigma W' is H to the last bit."""
    results = run_validation(bundle)
    assert [r.name for r in results] == CHECK_NAMES
    assert [r.detail for r in results if not r.passed] == []


@pytest.mark.parametrize("taps", [1, -1], ids=["wider", "narrower"])
def test_denoiser_fails_on_a_window_one_tap_off(tiny, monkeypatch, taps):
    """The sweeps' delay window is checked against the one ``tau_max``
    allows: one tap more keeps a tap that must go, one tap less drops one
    that must stay."""
    system = tiny.system
    tap = system.sample_interval * system.n_subcarriers / system.n_pilots
    denoise_subspace = experiments.denoise_subspace
    monkeypatch.setattr(experiments, "denoise_subspace",
                        lambda system, tau_max: denoise_subspace(system, tau_max + taps * tap))
    result = check_denoiser(tiny)
    assert not result.passed, result.detail


def test_error_split_fails_without_the_noise_term(tiny, monkeypatch):
    """The NMSE sweep's per-trial errors are the check's own: dropping the
    sigma^2 ||core(W')||^2 term from them fails it."""
    error_energy = experiments._error_energy

    def floor_only(bases, truth, core_h, core_w, sigmas):
        return error_energy(bases, truth, core_h, core_w, 0.0 * sigmas)

    monkeypatch.setattr(experiments, "_error_energy", floor_only)
    assert not check_error_decomposition(tiny).passed


def test_interpolation_fails_when_synthesis_ignores_the_grid(tiny, monkeypatch):
    """Each pair's synthesis rows with the interpolation matrix folded in
    are checked: rows that stay on the pilot grid fail the check."""
    synthesis = ProjectorPair.synthesis
    monkeypatch.setattr(ProjectorPair, "synthesis",
                        lambda self, grid: synthesis(self, None))
    result = check_interpolation(tiny)
    assert not result.passed, result.detail


@pytest.mark.parametrize("check", [check_covariance_mc, check_fading_moments],
                         ids=lambda check: check.__name__)
def test_monte_carlo_check_peaks_under_4_mib(desk, check):
    """The Monte Carlo checks sum their 10^5 and 2 x 10^5 draws block by
    block, so neither holds its samples at once (each held them all, 19.4 and
    18.4 MiB on the desk bundle)."""
    tracemalloc.start()
    try:
        result = check(desk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed, result.detail
    assert peak < 4 << 20, f"traced peak {peak / 2**20:.1f} MiB"
