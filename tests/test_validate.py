"""The invariant suite: its checks in their order, faults in the sweeps'
own code that its projection checks report, and the memory its Monte Carlo
checks take."""
import tracemalloc

import pytest

from chest import experiments
from chest.subspaces import ProjectorPair
from chest.validate import (check_covariance_mc, check_error_decomposition,
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
