"""Sweep harness: plan validation, record layout, statistical sanity,
chunk/worker determinism, the one-pass pipeline against a per-SNR oracle, and
CSV emission."""
import csv
import errno
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest.channel import assemble_channel
from chest import cli, experiments
from chest.config import (ConfigError, desk_config, load_config, noise_variance_for_snr,
                          validate_config)
from chest.experiments import (SWEEPS, ExperimentPlan, bml_ranks,
                               build_environment, emit_csv, emit_ecdf_csv,
                               measure_projection_floor, run_ecdf, run_nmse_sweep,
                               run_pilot_sweep, run_se_sweep, validate_plan,
                               _chunk_ranges, _draw, _method_bases, _noise_variances,
                               _reduce_slice, _simulate_chunk)
from chest.metrics import analytic_nmse, ecdf
from chest.propagation import (PathSet, dt_truncate, frequency_response, generate_paths,
                               save_paths_csv, steering_matrix)
from chest.streams import (FADING, NOISE, PATHS, WARM_FADING, WARM_NOISE,
                           complex_normal, substream)
from chest.subspaces import SnapshotGrams, bml_subspace, denoise_subspace, dt_subspace


RUNS = {"nmse-sweep": run_nmse_sweep, "se-sweep": run_se_sweep, "ecdf": run_ecdf,
        "pilot-sweep": run_pilot_sweep}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def tiny400(tiny):
    """Same geometry as ``tiny`` but enough trials for statistical checks."""
    return validate_config(replace(tiny.system, n_trials=400), tiny.scenario,
                           tiny.estimator)


@pytest.fixture(scope="module")
def tiny_env(tiny):
    return build_environment(tiny)


@pytest.fixture(scope="module")
def tiny400_nmse(tiny400):
    return run_nmse_sweep(ExperimentPlan(bundle=tiny400))


class TestValidatePlan:
    def test_unknown_kind(self, tiny):
        with pytest.raises(ConfigError, match="kind"):
            validate_plan(ExperimentPlan(bundle=tiny), "latency")

    def test_method_not_valid_for_kind(self, tiny):
        with pytest.raises(ConfigError, match="methods"):
            validate_plan(ExperimentPlan(bundle=tiny, methods=("ideal",)), "nmse-sweep")

    def test_defaults_filled(self, tiny):
        plan = validate_plan(ExperimentPlan(bundle=tiny), "nmse-sweep")
        assert plan.methods == ("ls", "denoise", "bml", "emdt")
        plan = validate_plan(ExperimentPlan(bundle=tiny), "ecdf")
        assert plan.snrs == (-10.0, 5.0)
        assert plan.methods == ("ideal", "ls", "denoise", "bml", "emdt")

    @pytest.mark.parametrize("kind, snrs", [
        ("nmse-sweep", (-20.0, 5.0, 30.0)), ("se-sweep", (-20.0, 5.0, 30.0)),
        ("ecdf", SWEEPS["ecdf"].snrs), ("pilot-sweep", SWEEPS["pilot-sweep"].snrs)])
    def test_snrs_default_to_the_kinds(self, tiny, kind, snrs):
        """NMSE and SE sweep the config's grid, the others their own default;
        the points are stored as floats, and validation is idempotent."""
        bundle = validate_config(replace(tiny.system, snr_grid_db=(-20, 5, 30)),
                                 tiny.scenario, tiny.estimator)
        plan = validate_plan(ExperimentPlan(bundle=bundle), kind)
        assert plan.snrs == snrs
        assert all(type(s) is float for s in plan.snrs)
        assert validate_plan(plan, kind) == plan
        given = validate_plan(ExperimentPlan(bundle=bundle, snrs=(3, -1)), kind)
        assert given.snrs == (3.0, -1.0) and type(given.snrs[0]) is float
        assert validate_plan(given, kind) == given

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_repeated_snrs_rejected(self, tiny, kind):
        with pytest.raises(ConfigError, match="SNR points repeat"):
            validate_plan(ExperimentPlan(bundle=tiny, snrs=(0.0, 5.0, 0)), kind)

    @pytest.mark.parametrize("kind", SWEEPS)
    @pytest.mark.parametrize("point", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snrs_rejected(self, tiny, kind, point):
        """A non-finite point fails here, before any environment is built."""
        with pytest.raises(ConfigError, match="SNR points must be finite"):
            validate_plan(ExperimentPlan(bundle=tiny, snrs=(0.0, point)), kind)

    @pytest.mark.parametrize("kind", SWEEPS)
    @pytest.mark.parametrize("point", [1000.5, -1000.5, 4000.0, -3085.0])
    def test_snrs_beyond_1000_db_rejected(self, tiny, kind, point):
        """Beyond +-1000 dB the noise variance over- or underflows."""
        with pytest.raises(ConfigError, match=f"within \\+-1000 dB, got {point!r}"):
            validate_plan(ExperimentPlan(bundle=tiny, snrs=(0.0, point)), kind)

    def test_snrs_at_1000_db_accepted(self, tiny):
        plan = validate_plan(ExperimentPlan(bundle=tiny, snrs=(-1000.0, 1000.0)), "ecdf")
        assert plan.snrs == (-1000.0, 1000.0)

    @pytest.mark.parametrize("kind", ["nmse-sweep", "se-sweep", "ecdf"])
    def test_pilot_counts_only_on_pilot_sweep(self, tiny, kind):
        with pytest.raises(ConfigError, match="pilot-sweep only"):
            validate_plan(ExperimentPlan(bundle=tiny, pilot_counts=(8,)), kind)

    def test_pilot_counts_must_divide_grid(self, tiny):
        with pytest.raises(ConfigError, match="divide"):
            validate_plan(ExperimentPlan(bundle=tiny, pilot_counts=(3,)), "pilot-sweep")

    def test_pilot_counts_sorted_unique(self, tiny):
        """Pilot counts are swept in ascending order, and a repeated count is
        rejected, as a repeated method or SNR point is, not silently dropped."""
        plan = validate_plan(ExperimentPlan(bundle=tiny, pilot_counts=(8, 2)),
                             "pilot-sweep")
        assert plan.pilot_counts == (2, 8)
        with pytest.raises(ConfigError, match="pilot counts repeat"):
            validate_plan(ExperimentPlan(bundle=tiny, pilot_counts=(8, 2, 8)),
                          "pilot-sweep")

    def test_bad_parallelism(self, tiny):
        with pytest.raises(ConfigError):
            validate_plan(ExperimentPlan(bundle=tiny, workers=0), "ecdf")


@pytest.mark.parametrize("kind", SWEEPS)
def test_runs_validate_a_validated_plan_again(tiny, kind):
    """The CLI hands every run_* a validated plan, which it validates again:
    the output is that of the plan as given."""
    plan = ExperimentPlan(bundle=tiny, methods=("ls", "emdt"), snrs=(-5, 5))
    given, validated = RUNS[kind](plan), RUNS[kind](validate_plan(plan, kind))
    if kind == "ecdf":
        assert list(given) == list(validated)
        for key, table in given.items():
            np.testing.assert_array_equal(table, validated[key])
    else:
        assert given == validated


@pytest.mark.parametrize("kind", ["nmse-sweep", "se-sweep"])
def test_plan_snrs_sweep_as_the_config_grid(tiny, kind):
    """An NMSE or SE plan's SNR points give the records of a config whose
    snr_grid_db holds them."""
    run = RUNS[kind]
    grid = (-5.0, 15.0)
    by_plan = run(ExperimentPlan(bundle=tiny, snrs=grid))
    by_config = run(ExperimentPlan(bundle=validate_config(
        replace(tiny.system, snr_grid_db=grid), tiny.scenario, tiny.estimator)))
    assert {r.snr_db for r in by_plan} == set(grid)
    assert by_plan == by_config


class TestNmseSweep:
    def test_record_layout(self, tiny):
        records = run_nmse_sweep(ExperimentPlan(bundle=tiny))
        assert len(records) == 12  # 3 SNRs x 4 methods
        assert {r.method for r in records} == {"ls", "denoise", "bml", "emdt"}
        assert {r.snr_db for r in records} == {-10.0, 0.0, 10.0}
        for r in records:
            assert r.trials == 12 and r.n_pilots == 8
            assert r.nmse_emp is not None and r.spectral_efficiency is None
            assert (r.nmse_analytic is not None) == (r.method == "emdt")

    def test_ls_matches_noise_over_snr(self, tiny400, tiny400_nmse):
        """LS NMSE is 1/SNR under the normalized-gain noise calibration."""
        for r in tiny400_nmse:
            if r.method != "ls":
                continue
            expected = 10.0 ** (-r.snr_db / 10.0)
            err_db = 10 * np.log10(r.nmse_emp / expected)
            assert abs(err_db) < 0.5

    def test_common_random_numbers_across_snr(self, tiny400, tiny400_nmse):
        """Noise is drawn once per trial and scaled, so the LS NMSE ratio
        between SNR points equals the noise-variance ratio to float precision."""
        ls = {r.snr_db: r.nmse_emp for r in tiny400_nmse if r.method == "ls"}
        env = build_environment(tiny400)
        nv = {s: noise_variance_for_snr(s, env.beta) for s in ls}
        assert ls[-10.0] / ls[10.0] == pytest.approx(nv[-10.0] / nv[10.0],
                                                     rel=1e-12)

    def test_emdt_tracks_analytic_total(self, tiny400_nmse):
        for r in tiny400_nmse:
            if r.method == "emdt":
                err_db = 10 * np.log10(r.nmse_emp / r.nmse_analytic.total)
                assert abs(err_db) < 1.0

    def test_projection_beats_ls_at_low_snr(self, tiny400_nmse):
        by = {(r.method, r.snr_db): r.nmse_emp for r in tiny400_nmse}
        assert by[("emdt", -10.0)] < by[("ls", -10.0)]
        assert by[("bml", -10.0)] < by[("ls", -10.0)]

    def test_extreme_snr_is_stable(self, tiny):
        bundle = validate_config(replace(tiny.system, snr_grid_db=(200.0,)),
                                 tiny.scenario, tiny.estimator)
        records = run_nmse_sweep(ExperimentPlan(bundle=bundle, methods=("ls",)))
        assert records[0].nmse_emp < 1e-6

    def test_supplied_path_set_changes_results(self, tiny, make_paths):
        paths = make_paths([0.05, 0.2, 0.35, 0.5], powers=[0.4, 0.3, 0.2, 0.1])
        plan = ExperimentPlan(bundle=tiny, methods=("emdt",),
                              environment=paths)
        custom = run_nmse_sweep(plan)
        default = run_nmse_sweep(replace(plan, environment=None))
        assert custom[0].nmse_emp != default[0].nmse_emp

    def test_supplied_paths_must_fit_cp(self, tiny, make_paths):
        late = make_paths([0.1, 2.0])  # 2 us exceeds the tiny CP duration
        with pytest.raises(ConfigError, match="CP"):
            run_nmse_sweep(ExperimentPlan(bundle=tiny, methods=("ls",), environment=late))


class TestProjectionFloor:
    @pytest.mark.parametrize("method", ["emdt", "denoise"])
    def test_matches_analytic_floor(self, tiny400, method):
        """The noiseless NMSE of a pair's estimator matches its closed-form
        subspace floor.  ``denoise`` runs on the desk geometry with a 0.2 us
        delay spread, where its floor is about 2.7e-3; at the default 0.9 us
        it is about 1, which any value near 1 would match."""
        if method == "emdt":
            env = build_environment(tiny400)
            measured, pair = measure_projection_floor(env, 400), env.projectors
        else:
            desk = desk_config(n_trials=400)
            env = build_environment(validate_config(
                desk.system, replace(desk.scenario, delay_spread=0.2e-6), desk.estimator))
            chunks = [_simulate_chunk(env, "nmse-sweep", t0, t1, ("denoise",), (0.0,))
                      for t0, t1 in _chunk_ranges(400)]
            measured = (np.concatenate([c[("error", "denoise", 0)] for c in chunks]).sum()
                        / np.concatenate([c["energy"] for c in chunks]).sum())
            pair = denoise_subspace(env.bundle.system, env.bundle.estimator.tau_max)
        analytic = analytic_nmse(pair, env.steering, env.freq_pilot,
                                 env.amplitude, 0.0,
                                 noise_variance_for_snr(0.0, env.beta))
        assert measured == pytest.approx(analytic.subspace_floor, rel=0.15)

    def test_deterministic(self, tiny_env):
        assert measure_projection_floor(tiny_env, 12) == \
            measure_projection_floor(tiny_env, 12)

    @pytest.mark.parametrize("n_trials", [0, -3])
    def test_rejects_no_trials(self, tiny_env, n_trials):
        with pytest.raises(ConfigError, match="n_trials"):
            measure_projection_floor(tiny_env, n_trials)

    def test_auto_bml_ranks_track_twin(self, tiny_env):
        assert bml_ranks(tiny_env) == (3, 3)

    def test_auto_bml_ranks_track_a_supplied_set_smaller_than_the_twin(self, desk,
                                                                       make_paths):
        """Desk asks the twin for 5 paths; a supplied 3-path set gives it 3, and
        batch-ML's 'auto' ranks follow: its pairs run at (3, 3) like the twin's."""
        env = build_environment(desk, make_paths([0.05, 0.2, 0.35], [-0.5, 0.1, 0.6],
                                                 [-1.0, 0.3, 1.1]))
        twin = (env.projectors.rank_spatial, env.projectors.rank_temporal)
        assert twin == bml_ranks(env) == (3, 3)
        nv = _noise_variances(env, (0.0, 10.0))
        for _, _, pair in _method_bases(env, ("bml",), np.asarray(nv), 0):
            assert (pair.rank_spatial, pair.rank_temporal) == (3, 3)


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")) + [None],
                         ids=lambda c: "3-path set" if c is None else c.name)
def test_twin_pair_is_the_channels_own_columns(config, desk, make_paths):
    """The environment's twin pair is, bit for bit, the pair of the twin
    paths' own responses: their steering matrix and the pilot rows of their
    full-grid frequency response, recomputed from the twin paths alone."""
    if config is None:
        bundle, supplied = desk, make_paths([0.05, 0.2, 0.35], powers=[0.5, 0.3, 0.2])
        paths = supplied
    else:
        bundle, supplied = load_config(config), None
        paths = generate_paths(bundle.scenario, substream(bundle.system.seed, PATHS))
    env = build_environment(bundle, supplied)
    sysc, scen = bundle.system, bundle.scenario
    keep = dt_truncate(paths, min(scen.n_dt_paths, len(paths)))
    twin = PathSet(elevation=paths.elevation[keep], azimuth=paths.azimuth[keep],
                   delay=paths.delay[keep], amplitude=paths.amplitude[keep])
    k = frequency_response(twin, sysc.n_subcarriers, sysc.sample_interval,
                           scen.pulse_rolloff)
    want = dt_subspace(steering_matrix(twin, sysc.n_rx, scen.array_spacing),
                       k[env.pilots.indices], tol=bundle.estimator.svd_rank_tolerance)
    np.testing.assert_array_equal(env.projectors.basis_spatial, want.basis_spatial)
    np.testing.assert_array_equal(env.projectors.basis_temporal, want.basis_temporal)
    np.testing.assert_array_equal(env.amplitude, paths.amplitude)


def test_full_scale_environment_holds_low_rank_projectors():
    """The largest environment of a pilot sweep on ``configs/full-scale.json``
    (64 antennas, 2048 pilots) keeps n x r bases, never a dense 2048-square
    projector (64 MB), so the whole environment that each process running the
    count's chunks builds and keeps stays small."""
    bundle = load_config(CONFIGS / "full-scale.json")
    n_sc = bundle.system.n_subcarriers
    assert n_sc == 2048
    env = build_environment(validate_config(replace(bundle.system, n_pilots=n_sc),
                                            bundle.scenario, bundle.estimator))
    r = bundle.scenario.n_dt_paths
    assert env.projectors.basis_spatial.shape == (64, r)
    assert env.projectors.basis_temporal.shape == (n_sc, r)
    assert len(pickle.dumps(env)) < 4e6


class TestSeSweep:
    def test_ideal_bounds_every_method(self, tiny400):
        records = run_se_sweep(ExperimentPlan(bundle=tiny400))
        assert len(records) == 15  # 3 SNRs x 5 methods
        by = {(r.method, r.snr_db): r.spectral_efficiency for r in records}
        for snr in (-10.0, 0.0, 10.0):
            assert ("ideal", snr) in by
            for m in ("ls", "denoise", "bml", "emdt"):
                # matched combining on the truth maximizes post-combining SNR
                assert by[(m, snr)] <= by[("ideal", snr)] + 1e-9
        assert by[("ls", -10.0)] < by[("emdt", -10.0)]
        for r in records:
            assert r.nmse_emp is None and r.spectral_efficiency >= 0


class TestEcdf:
    def test_table_layout(self, tiny, ecdf_at):
        tables = run_ecdf(ExperimentPlan(bundle=tiny))
        assert len(tables) == 10  # 2 SNR points x 5 methods
        for (method, snr), table in tables.items():
            assert method in ("ideal", "ls", "denoise", "bml", "emdt")
            assert snr in (-10.0, 5.0)
            assert ecdf_at(table, table[-1]) == 1.0
            # 12 trials x 16 subcarriers of per-subcarrier samples
            assert table.size == 192

    def test_custom_snr_points(self, tiny):
        tables = run_ecdf(ExperimentPlan(bundle=tiny, methods=("ideal",), snrs=(3.0,)))
        assert set(tables) == {("ideal", 3.0)}


def _draw_silencing_trial_4(env, fading_keys, noise_keys):
    """``_draw`` with trial 4's fading and noise zeroed, so that every one of
    its post-combining SNR samples is 0."""
    fading, noise = _draw(env, fading_keys, noise_keys)
    for row, key in enumerate(fading_keys):
        if key == (FADING, 4):
            fading[row] = 0.0
            noise[row] = 0.0
    return fading, noise


def _draw_failing_at_trial_6(env, fading_keys, noise_keys):
    if (FADING, 6) in fading_keys:
        raise RuntimeError("injected chunk failure")
    return _draw(env, fading_keys, noise_keys)


def _draw_with_fault_in_worker(fault):
    """``_draw`` that calls ``fault`` when a forked worker draws trial 55, and
    draws as usual otherwise; a run in this process never calls it."""
    parent = os.getpid()

    def draw(env, fading_keys, noise_keys):
        if (FADING, 55) in fading_keys and os.getpid() != parent:
            fault()
        return _draw(env, fading_keys, noise_keys)
    return draw


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts while the test runs."""
    pids, fork = [], os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def blocks_of_3(monkeypatch):
    """Chunks and batch-ML trial blocks of three trials; forked workers
    inherit the patch."""
    monkeypatch.setattr(experiments, "_BLOCK_TRIALS", 3)


class TestEcdfSampleBuffers:
    """``run_ecdf`` folds each chunk's samples into one buffer per table as the
    results arrive: the tables are those of the concatenated chunk results,
    the run holds about one copy of its samples, and no worker outlives it."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tables_equal_concatenated_chunks(self, monkeypatch, blocks_of_3, workers):
        """Seven trials in chunks of three (the last chunk holds one), with
        trial 4 silenced so that zero samples sort first.  Workers are
        forked and inherit the patch."""
        monkeypatch.setattr(experiments, "_draw", _draw_silencing_trial_4)
        bundle = desk_config(n_trials=7)
        plan = validate_plan(ExperimentPlan(bundle=bundle, workers=workers,
                                            snrs=(-10.0, 5.0)), "ecdf")
        env = build_environment(bundle)
        nv = _noise_variances(env, plan.snrs)
        assert _chunk_ranges(7) == [(0, 3), (3, 6), (6, 7)]
        partials = [_simulate_chunk(env, "ecdf", t0, t1, plan.methods, nv)
                    for t0, t1 in _chunk_ranges(7)]
        tables = run_ecdf(plan)
        assert list(tables) == [(m, s) for s in plan.snrs for m in plan.methods]
        n_zero = bundle.system.n_subcarriers
        for i, snr_db in enumerate(plan.snrs):
            for method in plan.methods:
                want = ecdf(np.concatenate([p[("snr", method, i)] for p in partials]))
                got = tables[(method, snr_db)]
                np.testing.assert_array_equal(got, want)
                assert np.all(got[:n_zero] == 0.0)
                assert got[n_zero] > 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_holds_one_copy_of_its_samples(self, workers):
        """Desk ECDF at 2000 trials: the traced peak stays within 1.5 copies
        of its samples (10.24 MB), on one worker and on two, where this
        process unpickles each chunk result from a worker's pipe.  Keeping
        every chunk result and a sorted copy per table would hold two."""
        bundle = desk_config(n_trials=2000)
        plan = validate_plan(ExperimentPlan(bundle=bundle, workers=workers), "ecdf")
        one_copy = (len(plan.snrs) * len(plan.methods) * bundle.system.n_trials
                    * bundle.system.n_subcarriers * np.dtype(float).itemsize)
        assert one_copy == 10_240_000
        tracemalloc.start()
        try:
            tables = run_ecdf(plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tables) == 10
        assert peak <= 1.5 * one_copy, f"traced peak {peak / 1e6:.2f} MB"

    def test_failed_chunk_surfaces_and_leaves_no_pool(self, monkeypatch, blocks_of_3, forks):
        monkeypatch.setattr(experiments, "_draw", _draw_failing_at_trial_6)
        plan = ExperimentPlan(bundle=desk_config(n_trials=9), workers=2)
        with pytest.raises(RuntimeError, match="injected chunk failure"):
            run_ecdf(plan)
        assert len(forks) == 2
        assert_no_child_left()

    def test_pool_has_no_more_workers_than_tasks(self, blocks_of_3, forks):
        """Every worker is forked before the first result is read, so a run
        of two chunks forks two workers, however many it is allowed."""
        plan = ExperimentPlan(bundle=desk_config(n_trials=6), methods=("ls", "emdt"),
                              snrs=(0.0,))
        serial = run_nmse_sweep(plan)
        assert forks == []
        pooled = run_nmse_sweep(replace(plan, workers=500))
        assert len(forks) == 2
        assert pooled == serial
        assert_no_child_left()

    def test_closed_generator_leaves_no_pool(self, blocks_of_3, forks):
        env = build_environment(desk_config(n_trials=12))
        nv = _noise_variances(env, (0.0,))
        results = experiments._map_chunks(
            lambda chunk: _simulate_chunk(env, "ecdf", *chunk, ("ls",), nv),
            _chunk_ranges(12), 2)
        first = next(results)
        assert first[("snr", "ls", 0)].shape == (3, env.bundle.system.n_subcarriers)
        assert len(forks) == 2
        results.close()
        assert_no_child_left()


def _sized_result(task: int) -> tuple[int, str]:
    """Task ``t``'s result: ``t`` and 20 000 t characters, so that tasks 4
    to 6 each overfill a 64 KiB pipe."""
    return task, str(task) * (20_000 * task)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_fork_map_is_an_ordered_map(forks, workers):
    """``_map_chunks`` runs any callable on any tasks and yields what
    ``map`` does, in the same order, on one worker and on forked ones."""
    tasks = list(range(7))
    got = list(experiments._map_chunks(_sized_result, tasks, workers))
    assert got == list(map(_sized_result, tasks))
    assert max(len(text) for _, text in got) > 64 * 1024
    assert len(forks) == (0 if workers == 1 else workers)
    assert_no_child_left()


class TestWorkerFailures:
    """A fault in a forked worker (the patched ``_draw`` reaches it) surfaces
    in the parent with the exit code of its kind, and no child outlives the
    run.  Trial 55 is in the second of the two chunks of 60 trials."""

    def run_cli(self, monkeypatch, capsys, tmp_path, fault) -> tuple[int, str]:
        monkeypatch.setattr(experiments, "_draw", _draw_with_fault_in_worker(fault))
        code = cli.main(["ecdf", "--methods", "ls", "--trials", "60", "--workers", "2",
                         "--out", str(tmp_path)])
        assert_no_child_left()
        return code, capsys.readouterr().err

    def test_dead_worker_is_a_runtime_failure(self, monkeypatch, capsys, tmp_path):
        code, err = self.run_cli(monkeypatch, capsys, tmp_path, lambda: os._exit(3))
        assert code == 2
        assert "exit status 3" in err

    def test_config_error_in_a_worker_exits_1(self, monkeypatch, capsys, tmp_path):
        def fault():
            raise ConfigError("injected worker config error")
        code, err = self.run_cli(monkeypatch, capsys, tmp_path, fault)
        assert code == 1
        assert "injected worker config error" in err

    def test_unpicklable_exception_arrives_as_runtime_error(self, monkeypatch):
        class LocalError(Exception):    # a local class cannot be pickled
            pass

        def fault():
            raise LocalError("injected unpicklable failure")
        monkeypatch.setattr(experiments, "_draw", _draw_with_fault_in_worker(fault))
        plan = ExperimentPlan(bundle=desk_config(n_trials=60), methods=("ls",), workers=2)
        with pytest.raises(RuntimeError) as info:
            run_ecdf(plan)
        assert type(info.value) is RuntimeError
        assert str(info.value) == "LocalError: injected unpicklable failure"
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_fork_closes_its_pipe(self, monkeypatch, blocks_of_3, forks, failing):
        """Fork number ``failing`` raises: its OSError surfaces, the pipe made
        for it is closed, and the child forked before it is reaped."""
        fork = os.fork

        def fork_failing_once():
            if len(forks) == failing:
                raise OSError(errno.EAGAIN, "injected fork failure")
            return fork()
        monkeypatch.setattr(os, "fork", fork_failing_once)
        plan = ExperimentPlan(bundle=desk_config(n_trials=6), methods=("ls",),
                              snrs=(0.0,), workers=2)
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="injected fork failure"):
            run_nmse_sweep(plan)
        assert sorted(os.listdir("/proc/self/fd")) == fds
        assert len(forks) == failing
        assert_no_child_left()

    def test_workers_exit_when_the_parent_is_killed(self, tmp_path):
        """A fresh interpreter runs a desk ECDF on two workers, whose chunk
        results (256 kB) overfill a pipe, and is SIGKILLed at its first
        folded result.  Its workers, whose next write has no reader left,
        end within 10 s; any that does not is killed here."""
        pid_file, log = tmp_path / "pids", tmp_path / "stderr"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        with open(log, "wb") as err:
            proc = subprocess.run([sys.executable, "-c", KILLED_PARENT, str(pid_file)],
                                  env=env, stdout=subprocess.DEVNULL, stderr=err,
                                  timeout=120)
        pids = [int(p) for p in pid_file.read_text().split()] if pid_file.exists() else []
        try:
            assert proc.returncode == -signal.SIGKILL, log.read_text()
            assert len(pids) == 2
            deadline = time.monotonic() + 10.0
            while (alive := [p for p in pids if _running(p)]) and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
            assert alive == [], f"workers {alive} outlived their killed parent"
        finally:
            for p in pids:
                if _running(p):
                    os.kill(p, signal.SIGKILL)


@pytest.fixture
def builds(monkeypatch):
    """The ``(pid, n_pilots)`` of each environment the sweeps build in this
    process while the test runs; a forked worker keeps its records to
    itself."""
    built, build = [], experiments.build_environment

    def recording_build(bundle, paths=None):
        built.append((os.getpid(), bundle.system.n_pilots))
        return build(bundle, paths)
    monkeypatch.setattr(experiments, "build_environment", recording_build)
    return built


def _small_plan(kind: str, **fields) -> ExperimentPlan:
    """Six desk trials, two chunks under ``blocks_of_3``, at one SNR point;
    a pilot sweep runs three pilot counts."""
    extra = {"pilot_counts": (2, 8, 32)} if kind == "pilot-sweep" else {}
    return ExperimentPlan(bundle=desk_config(n_trials=6), methods=("ls", "emdt"),
                          snrs=(0.0,), **extra, **fields)


def _output(kind: str, plan: ExperimentPlan):
    """A run's output in a form ``==`` compares exactly."""
    if kind == "ecdf":
        return {key: table.tolist() for key, table in run_ecdf(plan).items()}
    return RUNS[kind](plan)


@pytest.mark.usefixtures("blocks_of_3")
class TestEnvironmentBuilds:
    """Each process builds the environments of the tasks it runs, once: the
    parent of a pooled sweep builds none, bar the one the NMSE sweep's closed
    form reads, and a one-worker run builds each pilot count once."""

    @pytest.mark.parametrize("kind", ["ecdf", "se-sweep", "pilot-sweep"])
    def test_pooled_parent_builds_none(self, kind, builds, forks):
        _output(kind, _small_plan(kind, workers=2))
        assert len(forks) == 2
        assert builds == []
        assert_no_child_left()

    def test_pooled_nmse_parent_builds_one(self, builds, forks):
        plan = _small_plan("nmse-sweep", workers=2)
        run_nmse_sweep(plan)
        assert len(forks) == 2
        assert builds == [(os.getpid(), plan.bundle.system.n_pilots)]

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_one_worker_builds_each_count_once(self, kind, builds, forks):
        plan = validate_plan(_small_plan(kind), kind)
        _output(kind, plan)
        assert forks == []
        counts = plan.pilot_counts or (plan.bundle.system.n_pilots,)
        assert builds == [(os.getpid(), n) for n in counts]

    @pytest.mark.parametrize("kind", ["ecdf", "pilot-sweep"])
    def test_supplied_paths_give_the_same_output_on_any_worker_count(self, kind,
                                                                     make_paths):
        """Every worker builds its environments from the supplied set, and
        the output is that of one worker, which is not that of the drawn
        paths."""
        plan = _small_plan(kind, environment=make_paths([0.05, 0.2, 0.35],
                                                        powers=[0.5, 0.3, 0.2]))
        serial = _output(kind, plan)
        assert _output(kind, replace(plan, workers=2)) == serial
        assert _output(kind, replace(plan, environment=None)) != serial

    def test_supplied_paths_beyond_the_cp_fail_before_forking(self, make_paths, forks,
                                                              capsys, tmp_path):
        """A supplied delay at the CP duration or beyond is a configuration
        error of the plan, raised before any worker is forked."""
        desk = desk_config().system
        late = make_paths([0.1, desk.cp_length * desk.sample_interval * 2e6])
        plan = _small_plan("ecdf", environment=late, workers=2)
        with pytest.raises(ConfigError, match="CP"):
            validate_plan(plan, "ecdf")
        with pytest.raises(ConfigError, match="CP"):
            run_ecdf(plan)
        save_paths_csv(late, tmp_path / "late.csv")
        code = cli.main(["ecdf", "--methods", "ls", "--trials", "6", "--workers", "2",
                         "--paths", str(tmp_path / "late.csv"),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "CP" in capsys.readouterr().err
        assert forks == []


# Run by a fresh interpreter: records the pids it forks in the file argv[1],
# and SIGKILLs itself once the first chunk result is in.
KILLED_PARENT = """
import os, signal, sys
from chest import experiments
from chest.config import desk_config

fork, map_chunks = os.fork, experiments._map_chunks

def recording_fork():
    pid = fork()
    if pid:
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{pid}\\n")
    return pid

def dying_map_chunks(run, tasks, workers):
    for result in map_chunks(run, tasks, workers):
        os.kill(os.getpid(), signal.SIGKILL)
        yield result

os.fork, experiments._map_chunks = recording_fork, dying_map_chunks
experiments.run_ecdf(experiments.ExperimentPlan(bundle=desk_config(n_trials=1000),
                                                workers=2))
"""


def _running(pid: int) -> bool:
    """``pid`` names a process that has not ended: neither gone nor a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.fixture(scope="module")
def pilot_records(tiny400):
    return run_pilot_sweep(ExperimentPlan(bundle=tiny400, snrs=(0.0,)))


class TestPilotSweep:
    def test_layout(self, pilot_records):
        assert {(r.method, r.n_pilots) for r in pilot_records} == {
            (m, c) for m in ("ls", "emdt") for c in (2, 4, 8, 16)}
        for r in pilot_records:
            assert r.nmse_emp is not None and r.spectral_efficiency is not None

    def test_full_pilot_grid_has_zero_data_rate(self, pilot_records):
        for r in pilot_records:
            if r.n_pilots == 16:
                assert r.spectral_efficiency == 0.0

    def test_emdt_noise_term_shrinks_with_pilots(self, pilot_records):
        """More pilots average more noise into the same low-rank prior."""
        emdt = {r.n_pilots: r.nmse_emp for r in pilot_records if r.method == "emdt"}
        assert emdt[16] < emdt[2]

    def test_ls_nmse_flat_in_pilot_count(self, pilot_records):
        ls = [r.nmse_emp for r in pilot_records if r.method == "ls"]
        assert max(ls) / min(ls) < 10 ** (0.5 / 10)


# --- Per-SNR oracle ------------------------------------------------------------

def _post_combining_snr(est_h, truth_h, noise_variance):
    """Per-subcarrier SNR after matched combining on a formed estimate,
    (..., n_rx, n_sc) -> (..., n_sc); zero estimate columns give 0."""
    num = np.abs(np.einsum("...ik,...ik->...k", est_h.conj(), truth_h)) ** 2
    den = np.sum(np.abs(est_h) ** 2, axis=-2)
    gain = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return gain / noise_variance


def _genie_se(est_h, truth_h, noise_variance):
    """Mean of log2(1 + post-combining SNR) over every axis."""
    return float(np.mean(np.log2(1.0 + _post_combining_snr(est_h, truth_h,
                                                           noise_variance))))


class Uplink(NamedTuple):
    """The oracles of conftest that simulate trials the slow way."""

    draw_fading: Callable
    apply_uplink: Callable
    ls_estimate: Callable
    sample_covariances: Callable


@pytest.fixture(scope="session")
def uplink(draw_fading, apply_uplink, ls_estimate, sample_covariances):
    return Uplink(draw_fading, apply_uplink, ls_estimate, sample_covariances)


def _fixed_pair(env, method):
    """The projector pair of a method that learns none: the delay window for
    ``denoise``, the twin's for ``emdt``; None for ``ls``."""
    if method == "denoise":
        return denoise_subspace(env.bundle.system, env.bundle.estimator.tau_max)
    return env.projectors if method == "emdt" else None


def _oracle_pair(env, method, noise_variance, block, uplink):
    """The method's projector pair at one noise variance, the batch-ML one
    learned from its block's warm-up snapshots received at that noise level;
    None for ``ls``."""
    if method != "bml":
        return _fixed_pair(env, method)
    shape = (env.bundle.system.n_rx, len(env.pilots))
    warm = range(env.bundle.estimator.n_batch)
    fading_w = np.stack([uplink.draw_fading(env.amplitude,
                                            substream(env.seed, WARM_FADING, block, j))
                         for j in warm])
    noise_w = np.stack([complex_normal(substream(env.seed, WARM_NOISE, block, j), shape)
                        for j in warm])
    rx_w = uplink.apply_uplink(assemble_channel(env.steering, fading_w, env.freq_pilot),
                               env.pilots, noise_variance, noise_w)
    ls_w = uplink.ls_estimate(rx_w, env.pilots)
    return bml_subspace(uplink.sample_covariances(ls_w), *bml_ranks(env))


def _oracle_estimates(env, noise_variance, t0, t1, methods, full, uplink):
    """Simulate trials [t0, t1) at one noise variance the slow way: receive
    H x + sigma W, divide out x, then estimate.  Returns (pilot-grid truth,
    full-grid truth or None, {method: pilot-grid estimate})."""
    sysc = env.bundle.system
    shape = (sysc.n_rx, len(env.pilots))
    trials = range(t0, t1)
    fading = np.stack([uplink.draw_fading(env.amplitude, substream(env.seed, FADING, t))
                       for t in trials])
    noise = np.stack([complex_normal(substream(env.seed, NOISE, t), shape) for t in trials])
    truth_full = assemble_channel(env.steering, fading, env.freq_full) if full else None
    truth = (truth_full[..., env.pilots.indices] if full
             else assemble_channel(env.steering, fading, env.freq_pilot))
    ls = uplink.ls_estimate(uplink.apply_uplink(truth, env.pilots, noise_variance, noise),
                            env.pilots)
    estimates = {}
    for method in methods:
        if method != "ideal":
            pair = _oracle_pair(env, method, noise_variance,
                                t0 // experiments._BLOCK_TRIALS, uplink)
            estimates[method] = ls if pair is None else pair.project(pair.core(ls))
    return truth, truth_full, estimates


def _oracle(plan, kind, uplink, interpolate=None):
    """Per-SNR reference results of a plan validated as ``kind``: {(method,
    snr, n_pilots): nmse or se, or the sorted post-combining SNR samples for an
    ECDF}, simulated through the ``uplink`` oracles.  SE and ECDF plans take
    the estimates onto the full grid by ``interpolate``."""
    base = plan.bundle
    counts = plan.pilot_counts or (base.system.n_pilots,)
    snrs = plan.snrs
    full = kind in ("se-sweep", "ecdf")
    out = {}
    for n_p in counts:
        system = replace(base.system, n_pilots=n_p)
        env = build_environment(validate_config(system, base.scenario, base.estimator))
        n_sc = system.n_subcarriers
        for snr in snrs:
            nv = noise_variance_for_snr(snr, env.beta)
            err, energy, acc = {}, 0.0, {}
            for t0, t1 in _chunk_ranges(system.n_trials):
                truth, truth_full, est = _oracle_estimates(
                    env, nv, t0, t1, plan.methods, full, uplink)
                energy += np.sum(np.abs(truth) ** 2)
                for method in plan.methods:
                    if full:
                        h = truth_full if method == "ideal" else interpolate(
                            est[method], env.pilots, n_sc)
                        if kind == "ecdf":
                            value = _post_combining_snr(h, truth_full, nv).ravel()
                        else:
                            value = _genie_se(h, truth_full, nv) * (t1 - t0)
                    else:
                        err[method] = err.get(method, 0.0) + np.sum(
                            np.abs(est[method] - truth) ** 2)
                        value = _genie_se(est[method], truth, nv) * (t1 - t0)
                    acc.setdefault(method, []).append(value)
            for method in plan.methods:
                key = (method, float(snr), n_p)
                if kind == "ecdf":
                    out[key] = np.sort(np.concatenate(acc[method]))
                elif kind == "se-sweep":
                    out[key] = sum(acc[method]) / system.n_trials
                elif kind == "nmse-sweep":
                    out[key] = err[method] / energy
                else:
                    out[key] = (err[method] / energy, sum(acc[method]) / system.n_trials
                                * (1.0 - n_p / n_sc))
    return out


@pytest.fixture(scope="module")
def desk_small():
    """Desk geometry (16 antennas, 32 pilots, batch-ML warm-up of 64), six
    trials, which ``blocks_of_3`` puts in two chunks of three."""
    return desk_config(n_trials=6, snr_grid_db=(-10.0, 5.0, 20.0))


@pytest.mark.usefixtures("blocks_of_3")
class TestOnePassMatchesPerSnrOracle:
    """The one-pass split P(H) + sigma * P(W') against simulating every SNR
    point on its own, with every method the sweep accepts and two chunks."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nmse_sweep(self, desk_small, uplink, workers):
        plan = validate_plan(ExperimentPlan(bundle=desk_small, workers=workers),
                             "nmse-sweep")
        oracle = _oracle(plan, "nmse-sweep", uplink)
        records = run_nmse_sweep(plan)
        assert len(records) == len(oracle) == 12
        for r in records:
            assert r.nmse_emp == pytest.approx(oracle[(r.method, r.snr_db, r.n_pilots)],
                                               rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_se_sweep(self, desk_small, uplink, gather_interpolate, workers):
        plan = validate_plan(ExperimentPlan(bundle=desk_small, workers=workers),
                             "se-sweep")
        oracle = _oracle(plan, "se-sweep", uplink, gather_interpolate)
        records = run_se_sweep(plan)
        assert len(records) == len(oracle) == 15
        for r in records:
            assert r.spectral_efficiency == pytest.approx(
                oracle[(r.method, r.snr_db, r.n_pilots)], rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ecdf(self, desk_small, uplink, gather_interpolate, workers):
        plan = validate_plan(ExperimentPlan(bundle=desk_small, workers=workers,
                                            snrs=(-10.0, 5.0)), "ecdf")
        oracle = _oracle(plan, "ecdf", uplink, gather_interpolate)
        tables = run_ecdf(plan)
        assert len(tables) == len(oracle) == 10
        for (method, snr), table in tables.items():
            expected = oracle[(method, snr, desk_small.system.n_pilots)]
            np.testing.assert_allclose(table, expected, rtol=1e-9)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pilot_sweep(self, desk_small, uplink, workers):
        plan = validate_plan(ExperimentPlan(bundle=desk_small, workers=workers,
                                            pilot_counts=(2, 8, 32),
                                            snrs=(-15.0, 0.0)), "pilot-sweep")
        oracle = _oracle(plan, "pilot-sweep", uplink)
        records = run_pilot_sweep(plan)
        assert len(records) == len(oracle) == 12
        for r in records:
            nmse, se = oracle[(r.method, r.snr_db, r.n_pilots)]
            assert r.nmse_emp == pytest.approx(nmse, rel=1e-12)
            assert r.spectral_efficiency == pytest.approx(se, rel=1e-12)


# --- Per-column statistics against formed estimates ------------------------------

STATS_SNRS = (-20.0, -5.0, 10.0, 40.0)


@pytest.fixture(scope="module", params=["desk", "zero-floor"])
def stats_env(request):
    """The desk environment, and one whose twin knows every path
    (``n_dt_paths == n_paths``), so that its projection floor is zero."""
    bundle = desk_config(n_trials=4)
    if request.param == "zero-floor":
        bundle = validate_config(bundle.system,
                                 replace(bundle.scenario, n_paths=5, n_dt_paths=5),
                                 bundle.estimator)
    return build_environment(bundle)


def _chunk_inputs(env, n_trials):
    """Fading and LS noise W' of trials [0, n_trials), trial 0 zeroed so that
    every estimate of it, and every subcarrier, has zero energy."""
    fading, noise = _draw(env, [(FADING, t) for t in range(n_trials)],
                          [(NOISE, t) for t in range(n_trials)])
    fading[0] = 0.0
    noise[0] = 0.0
    return fading, noise


def _formed(env, fading, noise, method, noise_variance, interpolate):
    """Per-trial squared error and the pilot- and full-grid post-combining
    SNRs of the method's estimate P(H + sigma W'), formed in full and
    interpolated by the gather formula (``ideal`` combines on the channel).
    Batch-ML learns its pair from the warm-up Grams as the sweep does, since
    at high SNR the learned basis is sensitive to how its covariance is
    rounded; ``TestSnapshotGrams`` holds the two ways to each other."""
    truth_full = assemble_channel(env.steering, fading, env.freq_full)
    if method == "ideal":
        return None, None, _post_combining_snr(truth_full, truth_full, noise_variance)
    truth = assemble_channel(env.steering, fading, env.freq_pilot)
    ls = truth + np.sqrt(noise_variance) * noise
    if method == "bml":
        n_batch = env.bundle.estimator.n_batch
        fading_w, noise_w = _draw(env, [(WARM_FADING, 0, j) for j in range(n_batch)],
                                  [(WARM_NOISE, 0, j) for j in range(n_batch)])
        grams = SnapshotGrams.summed(
            [(assemble_channel(env.steering, fading_w, env.freq_pilot), noise_w)])
        pair = bml_subspace(grams.covariances(np.sqrt(noise_variance)), *bml_ranks(env))
    else:
        pair = _fixed_pair(env, method)
    est = ls if pair is None else pair.project(pair.core(ls))
    full = interpolate(est, env.pilots, env.bundle.system.n_subcarriers)
    return (np.sum(np.abs(est - truth) ** 2, axis=(-2, -1)),
            _post_combining_snr(est, truth, noise_variance),
            _post_combining_snr(full, truth_full, noise_variance))


@pytest.mark.parametrize("n_points", [1, 11])
@pytest.mark.parametrize("method", SWEEPS["ecdf"].methods)
def test_method_entries_cover_every_point_once(desk_env, method, n_points):
    """A method's ``_method_bases`` entries name consecutive ``range``s of SNR
    points that cover them all exactly once: one entry per point for
    ``bml``, one for the whole grid for every other method.
    ``_reduce_slice`` writes one key per point of an entry, so a gap or an
    overlap would drop a result or write one twice."""
    nv = np.asarray(_noise_variances(desk_env, np.linspace(-20.0, 30.0, n_points)))
    entries = _method_bases(desk_env, (method,), nv, 0)
    points = [p for _, p, _ in entries]
    assert {m for m, _, _ in entries} == {method}
    assert all(type(p) is range and p.step == 1 for p in points)
    assert [p.stop for p in points[:-1]] == [p.start for p in points[1:]]
    assert [i for p in points for i in p] == list(range(n_points))
    assert len(entries) == (n_points if method == "bml" else 1)


# The per-trial results each run_* reads, by output: _records reads errors
# with the channel energy and rates, run_ecdf the SNR samples.
READ_KEYS = {"nmse-sweep": ("error",), "pilot-sweep": ("error", "rate"),
             "se-sweep": ("rate",), "ecdf": ("snr",)}


@pytest.mark.parametrize("kind", SWEEPS)
def test_reduce_slice_returns_the_keys_its_run_reads(kind):
    """One desk slice reduced for a kind's outputs holds exactly the arrays
    its run_* reads, one row per trial, so no other per-trial array is built
    or shipped through the fork pipe."""
    env = build_environment(desk_config())
    sweep = SWEEPS[kind]
    methods = sweep.methods
    snrs = sweep.snrs or (-10.0, 10.0)
    nv = np.asarray(_noise_variances(env, snrs))
    fading, noise = _chunk_inputs(env, 3)
    result = _reduce_slice(env, fading, noise, _method_bases(env, methods, nv, 0), nv,
                           sweep.outputs, sweep.full_grid)
    want = {(name, m, i) for name in READ_KEYS[kind] for m in methods
            for i in range(len(snrs))}
    assert set(result) == want | ({"energy"} if "error" in READ_KEYS[kind] else set())
    n_sc = env.bundle.system.n_subcarriers
    for key, values in result.items():
        assert values.shape == ((3, n_sc) if key[0] == "snr" else (3,))


class TestStatisticsMatchFormedEstimates:
    """The reducers take errors from the orthogonal split and SNRs from
    per-column sums in subspace coordinates, with interpolation folded into
    the temporal basis; here every method's estimate is formed in full at
    every SNR point instead."""

    def test_every_method_at_every_snr_point(self, stats_env, gather_interpolate):
        env = stats_env
        fading, noise = _chunk_inputs(env, 4)
        nv = np.array(_noise_variances(env, STATS_SNRS))
        pilot_bases = _method_bases(env, SWEEPS["nmse-sweep"].methods, nv, 0)
        full_bases = _method_bases(env, SWEEPS["se-sweep"].methods, nv, 0)
        nmse, pilot, rates, samples = (
            _reduce_slice(env, fading, noise, bases, nv, SWEEPS[kind].outputs,
                          SWEEPS[kind].full_grid)
            for kind, bases in (("nmse-sweep", pilot_bases), ("pilot-sweep", pilot_bases),
                                ("se-sweep", full_bases), ("ecdf", full_bases)))
        for i, noise_variance in enumerate(nv):
            for method in SWEEPS["se-sweep"].methods:
                error, pilot_snr, full = _formed(env, fading, noise, method,
                                                 noise_variance, gather_interpolate)
                np.testing.assert_allclose(samples[("snr", method, i)], full, rtol=1e-12)
                assert np.all(samples[("snr", method, i)][0] == 0.0)
                np.testing.assert_allclose(rates[("rate", method, i)],
                                           np.mean(np.log2(1.0 + full), axis=-1),
                                           rtol=1e-12)
                if method == "ideal":
                    continue
                np.testing.assert_allclose(nmse[("error", method, i)], error, rtol=1e-12)
                np.testing.assert_allclose(pilot[("error", method, i)], error, rtol=1e-12)
                np.testing.assert_allclose(pilot[("rate", method, i)],
                                           np.mean(np.log2(1.0 + pilot_snr), axis=-1),
                                           rtol=1e-12)
        for result in (nmse, pilot):
            energy = result["energy"]
            assert energy[0] == 0.0 and np.all(energy[1:] > 0)

    def test_zero_energy_columns_written_as_minus_inf(self, stats_env, tmp_path):
        env = stats_env
        fading, noise = _chunk_inputs(env, 2)
        nv = np.array(_noise_variances(env, (0.0,)))
        methods = SWEEPS["ecdf"].methods
        samples = _reduce_slice(env, fading, noise, _method_bases(env, methods, nv, 0), nv,
                                frozenset({"snr"}), full_grid=True)
        emit_ecdf_csv({(m, 0.0): ecdf(samples[("snr", m, 0)]) for m in methods},
                      tmp_path / "ecdf.csv")
        with open(tmp_path / "ecdf.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        n_sc = env.bundle.system.n_subcarriers
        for method in methods:
            cells = [r["sample_snr_db"] for r in rows if r["method"] == method]
            assert cells[:n_sc] == ["-inf"] * n_sc
            assert "-inf" not in cells[n_sc:]

    def test_projection_floor_is_taken_directly(self, stats_env):
        """At sigma 0 the error is ||PH - H||^2 alone.  With a complete twin it
        is rounding noise far below ||H||^2 - ||core(H)||^2 would give."""
        env = stats_env
        fading, noise = _chunk_inputs(env, 4)
        nv = np.array([0.0])
        result = _reduce_slice(env, fading, noise, _method_bases(env, ("emdt",), nv, 0), nv,
                               frozenset({"error"}), full_grid=False)
        error, energy = result[("error", "emdt", 0)], result["energy"]
        truth = assemble_channel(env.steering, fading, env.freq_pilot)
        pair = env.projectors
        direct = np.sum(np.abs(pair.project(pair.core(truth)) - truth) ** 2, axis=(-2, -1))
        np.testing.assert_allclose(error, direct, rtol=1e-12, atol=1e-24 * energy.max())
        if env.bundle.scenario.n_dt_paths == env.bundle.scenario.n_paths:
            assert np.all(error <= 1e-20 * energy)


class TestDeterminism:
    def test_rerun_identical(self, tiny):
        plan = ExperimentPlan(bundle=tiny, methods=("ls", "emdt"))
        assert run_nmse_sweep(plan) == run_nmse_sweep(plan)

    def test_seed_changes_results(self, tiny):
        other = validate_config(replace(tiny.system, seed=99), tiny.scenario,
                                tiny.estimator)
        a = run_nmse_sweep(ExperimentPlan(bundle=tiny, methods=("ls",)))
        b = run_nmse_sweep(ExperimentPlan(bundle=other, methods=("ls",)))
        assert a[0].nmse_emp != b[0].nmse_emp

    def test_worker_count_does_not_change_csv(self, tiny, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_BLOCK_TRIALS", 5)
        base = ExperimentPlan(bundle=tiny)
        emit_csv(run_nmse_sweep(base), tmp_path / "w1.csv")
        emit_csv(run_nmse_sweep(replace(base, workers=2)), tmp_path / "w2.csv")
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()

    @pytest.mark.parametrize("kind", SWEEPS)
    def test_block_size_changes_no_output(self, kind, monkeypatch):
        """Chunk boundaries never change which random numbers a trial sees,
        and nothing is summed before every trial is in, so every sweep's
        output is the same bit for bit at any block size.  (Batch-ML is
        excluded: its warm-up is deliberately tied to the trial block.)"""
        bundle = desk_config(n_trials=24)
        methods = validate_plan(ExperimentPlan(bundle=bundle), kind).methods
        extra = {"pilot_counts": (2, 8, 32)} if kind == "pilot-sweep" else {}

        def output(block_trials):
            monkeypatch.setattr(experiments, "_BLOCK_TRIALS", block_trials)
            plan = ExperimentPlan(bundle=bundle,
                                  methods=tuple(m for m in methods if m != "bml"), **extra)
            if kind == "ecdf":
                return {key: table.tolist()
                        for key, table in run_ecdf(plan).items()}
            return RUNS[kind](plan)
        assert output(3) == output(12)

    def test_doubling_trials_moves_less_than_3_se(self, tiny400):
        """Pooled-ratio NMSE is stable under doubling the trial count."""
        env = build_environment(tiny400)
        nv = noise_variance_for_snr(0.0, env.beta)
        result = _simulate_chunk(env, "nmse-sweep", 0, 400, ("ls",), (nv,))
        err, gain = result[("error", "ls", 0)], result["energy"]
        r200 = err[:200].sum() / gain[:200].sum()
        r400 = err.sum() / gain.sum()
        # delta-method standard error of the pooled ratio at 200 trials
        infl = (err[:200] - r200 * gain[:200]) / gain[:200].mean()
        se200 = infl.std(ddof=1) / np.sqrt(200)
        assert abs(r400 - r200) < 3 * se200


# --- Trial and warm-up slices ---------------------------------------------------

def _one_pass_grams(env, block):
    """The batch-ML warm-up Grams of a block taken over the whole batch."""
    warm = range(env.bundle.estimator.n_batch)
    fading_w, noise_w = _draw(env, [(WARM_FADING, block, j) for j in warm],
                              [(WARM_NOISE, block, j) for j in warm])
    return SnapshotGrams.summed(
        [(assemble_channel(env.steering, fading_w, env.freq_pilot), noise_w)])


def _sweep_outputs(bundle, workers):
    """Every sweep's output on ``bundle`` with all its methods, batch-ML
    included, in comparable form."""
    def plan(**extra):
        return ExperimentPlan(bundle=bundle, workers=workers, **extra)
    tables = run_ecdf(plan(snrs=(-10.0, 5.0)))
    return (run_nmse_sweep(plan()), run_se_sweep(plan()),
            run_pilot_sweep(plan(pilot_counts=(2, 8, 32), snrs=(-15.0, 0.0))),
            {key: table.tolist() for key, table in tables.items()})


_THIRDS = [2] + [3] * 16     # 50 trials in 17 near-equal slices

# Every partition the configs get: each kind's 50-trial chunk, cut at its
# reducer's bytes per trial, and the batch-ML warm-up's 64 snapshots.
PARTITIONS = {
    "desk": {"nmse-sweep": [25, 25], "pilot-sweep": [25, 25],
             "se-sweep": [12, 13, 12, 13], "ecdf": [12, 13, 12, 13], "warm-up": [64]},
    "reference": {"nmse-sweep": [10] * 5, "pilot-sweep": [10] * 5, "se-sweep": _THIRDS,
                  "ecdf": _THIRDS, "warm-up": [12] * 5 + [4]},
    "pilot": {"nmse-sweep": [25, 25], "pilot-sweep": [25, 25], "se-sweep": _THIRDS,
              "ecdf": _THIRDS, "warm-up": [64]},
    "full-scale": {"nmse-sweep": [10] * 5, "pilot-sweep": [10] * 5, "se-sweep": [1] * 50,
                   "ecdf": [1] * 50, "warm-up": [12] * 5 + [4]},
}


class TestSlices:
    """Chunks are drawn and reduced in slices that fit a byte budget; the
    batch-ML warm-up is summed over slices of snapshots."""

    @pytest.mark.parametrize("config", PARTITIONS)
    def test_partitions(self, config, monkeypatch):
        """The slice sizes every kind's 50-trial chunk and the batch-ML
        warm-up are cut into on each committed config.  Trial slices set the
        peak; the warm-up's set the order its Grams are summed in, and so
        the batch-ML bits.  The chunk's slices are recorded where
        ``_simulate_chunk`` cuts them, and none is reduced."""
        env = build_environment(load_config(CONFIGS / f"{config}.json"))
        cuts = []
        slices = experiments._slices

        def recording_slices(*args, **kwargs):
            cuts.append([len(s) for s in slices(*args, **kwargs)])
            return []
        got = {}
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_slices", recording_slices)
            for kind in SWEEPS:
                _simulate_chunk(env, kind, 0, 50, ("ls",), [1.0])
                got[kind] = cuts.pop()
        sizes = _count_draws(monkeypatch)
        experiments._warm_up_grams(env, 0)
        got["warm-up"] = sizes
        assert got == PARTITIONS[config]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_trial_slices_match_one_pass(self, desk_small, blocks_of_3, monkeypatch,
                                             workers):
        """With a budget of one trial and one snapshot every sweep's output
        equals the one-pass run's bit for bit.  Per-trial results are joined,
        never re-summed, so slicing trials changes no bit.  Slicing the warm-up
        does change the order the Grams are summed in (the next test holds
        them to the one-pass Grams), so both runs here learn batch-ML from the
        one-pass Grams.  Workers are forked and inherit the patches."""
        monkeypatch.setattr(experiments, "_warm_up_grams", _one_pass_grams)
        one_pass = _sweep_outputs(desk_small, workers)
        monkeypatch.setattr(experiments, "_SLICE_BYTES", 1)
        assert experiments._slices(range(3), 1) == [range(0, 1), range(1, 2), range(2, 3)]
        assert _sweep_outputs(desk_small, workers) == one_pass

    @settings(max_examples=200, deadline=None)
    @given(start=st.integers(0, 1000), n=st.integers(0, 300),
           item_bytes=st.integers(1, 4 * experiments._SLICE_BYTES),
           kept=st.integers(0, 2 * experiments._SLICE_BYTES))
    def test_slices_cover_and_fit(self, start, n, item_bytes, kept):
        """Slices are non-empty and consecutive and cover the items; each fits
        the budget less ``kept`` unless it holds one item; even slices differ
        in size by at most one and are as many as the full slices.  No items
        make no slices, full or even."""
        items = range(start, start + n)
        budget = experiments._SLICE_BYTES - kept
        full = experiments._slices(items, item_bytes, kept)
        even = experiments._slices(items, item_bytes, kept, even=True)
        for slices in (full, even):
            assert all(len(s) > 0 for s in slices)
            assert [t for s in slices for t in s] == list(items)
            assert all(len(s) == 1 or len(s) * item_bytes <= budget for s in slices)
        assert len(even) == len(full)
        if not items:
            assert full == even == []
        else:
            assert max(map(len, even)) - min(map(len, even)) <= 1

    def test_sliced_warm_up_grams_match_one_pass(self, monkeypatch):
        env = build_environment(desk_config(n_rx=64))
        whole = _one_pass_grams(env, 1)
        monkeypatch.setattr(experiments, "_SLICE_BYTES", 1)
        sliced = experiments._warm_up_grams(env, 1)
        assert sliced.n_snapshots == whole.n_snapshots == env.bundle.estimator.n_batch
        for got, want in zip(sliced.spatial + sliced.temporal,
                             whole.spatial + whole.temporal):
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.abs(want).max())

    def test_reference_warm_up_holds_less_than_one_batch(self):
        """The warm-up of the reference config (64 snapshots of 64 x 32) never
        holds as much as one whole (n_batch, n_rx, n_pilots) complex array."""
        env = build_environment(desk_config(n_rx=64))
        shape = (env.bundle.estimator.n_batch, env.bundle.system.n_rx, len(env.pilots))
        peak = _traced_peak(lambda: experiments._warm_up_grams(env, 0))
        assert peak < np.prod(shape) * np.dtype(complex).itemsize

    def test_reference_nmse_chunk_working_set(self, monkeypatch):
        """A 20-trial reference NMSE chunk with all four methods at 11 SNR
        points is reduced 10 trials at a time, and peaks (traced) within 1.1 x
        what it must hold: its methods' bases, kept for the chunk, and one
        slice's arrays, in units of one complex (10, n_rx, n_pilots) array A:
        H and W' (2 A), one residual PH - H (A), one real |.|^2 temporary
        (A / 2) and the delay window's cores of H and W' (2 A k_tau /
        n_pilots), 4 A at the reference k_tau = 8 of 32 pilots.  The batch-ML
        warm-up, which the test above bounds on its own, is taken before
        tracing."""
        env = build_environment(load_config(CONFIGS / "reference.json"))
        nv = _noise_variances(env, env.bundle.system.snr_grid_db)
        methods = SWEEPS["nmse-sweep"].methods
        assert len(nv) == 11 and methods == ("ls", "denoise", "bml", "emdt")
        grams = experiments._warm_up_grams(env, 0)
        monkeypatch.setattr(experiments, "_warm_up_grams", lambda env, block: grams)
        sizes = _count_draws(monkeypatch)
        n_p = len(env.pilots)
        k_tau = denoise_subspace(env.bundle.system, env.bundle.estimator.tau_max) \
            .rank_temporal
        a = 10 * env.bundle.system.n_rx * n_p * np.dtype(complex).itemsize
        holds = (3.5 + 2 * k_tau / n_p) * a
        assert holds == 4 * a
        bases = sum(u.nbytes for _, _, pair in _method_bases(env, methods, np.asarray(nv), 0)
                    for u in (pair.basis_spatial, pair.basis_temporal) if u is not None)
        # first-call allocations untraced
        _simulate_chunk(env, "nmse-sweep", 0, 20, methods, nv)
        assert sizes == [10, 10]
        peak = _traced_peak(lambda: _simulate_chunk(env, "nmse-sweep", 0, 20, methods, nv))
        assert peak <= 1.1 * (holds + bases)

    def test_full_grid_slice_working_set(self, monkeypatch):
        """A desk full-grid ``ls`` slice of 13 trials, the largest a desk SE
        or ECDF chunk is cut into, peaks (traced) within 1.1 x what it must
        hold, in units of one complex (13, n_rx, n_subcarriers) array F: H on
        the full grid (F), its pilot columns and W' (F / 2 each at 32 of 64
        pilots) and the full-grid coordinates a and b (2 F), 4 F, and F / 2
        for the sums and the SNR samples, 4.5 F.  The sums read a and b where
        they lie (``np.vecdot``); a conjugate copy of either would add F."""
        env = build_environment(load_config(CONFIGS / "desk.json"))
        sweep, n_sc = SWEEPS["ecdf"], env.bundle.system.n_subcarriers
        assert len(env.pilots) == n_sc // 2
        nv = np.asarray(_noise_variances(env, sweep.snrs))
        sizes = _count_draws(monkeypatch)
        _simulate_chunk(env, "ecdf", 0, 50, ("ls",), nv)
        assert max(sizes) == 13
        bases = _method_bases(env, ("ls",), nv, 0)
        fading, noise = _draw(env, [(FADING, t) for t in range(13)],
                              [(NOISE, t) for t in range(13)])
        f = 13 * env.bundle.system.n_rx * n_sc * np.dtype(complex).itemsize

        def run():      # W' is drawn inside the slice, so its copy is traced
            return _reduce_slice(env, fading, noise.copy(), bases, nv, sweep.outputs,
                                 sweep.full_grid)
        run()   # first-call allocations untraced
        assert _traced_peak(run) <= 1.1 * 4.5 * f

    @pytest.mark.parametrize("config, kind, n_trials", [
        ("desk", "nmse-sweep", 50), ("desk", "se-sweep", 50), ("desk", "ecdf", 50),
        ("desk", "pilot-sweep", 50), ("reference", "nmse-sweep", 20)])
    def test_chunk_peak_within_slice_budget(self, config, kind, n_trials):
        """A chunk with its kind's default methods and SNR points peaks
        (traced, batch-ML warm-up included) within 1.4 x ``_SLICE_BYTES``:
        its trial slices are sized by every array the kind's reducer holds
        per trial on its grid (``_simulate_chunk`` counts them), not by H and
        W' alone."""
        env = build_environment(load_config(CONFIGS / f"{config}.json"))
        plan = validate_plan(ExperimentPlan(bundle=env.bundle), kind)
        nv = _noise_variances(env, plan.snrs)

        def run():
            return _simulate_chunk(env, kind, 0, n_trials, plan.methods, nv)
        run()   # first-call allocations untraced
        assert _traced_peak(run) <= 1.4 * experiments._SLICE_BYTES

    def test_chunk_peak_within_slice_budget_and_its_results(self):
        """A chunk also holds its own per-trial results, outside the slice
        budget.  A 50-trial ``ecdf`` chunk on ``configs/pilot.json`` keeps
        5 methods x 2 SNR points x 256 subcarriers of samples per trial,
        0.78 x ``_SLICE_BYTES`` in all, and peaks (traced) within 1.4 x
        ``_SLICE_BYTES`` and those results' bytes."""
        env = build_environment(load_config(CONFIGS / "pilot.json"))
        plan = validate_plan(ExperimentPlan(bundle=env.bundle), "ecdf")
        nv = _noise_variances(env, plan.snrs)

        def run():
            return _simulate_chunk(env, "ecdf", 0, 50, plan.methods, nv)
        results = sum(v.nbytes for v in run().values())   # first-call allocations untraced
        assert results == 50 * 5 * 2 * 256 * np.dtype(float).itemsize
        assert _traced_peak(run) <= 1.4 * experiments._SLICE_BYTES + results

    @pytest.mark.parametrize("kind", ["nmse-sweep", "pilot-sweep"])
    def test_full_scale_chunk_peak_does_not_grow_with_trials(self, kind):
        """At the full-scale pilot grid (64 antennas, 2048 pilots) a 50-trial
        chunk peaks within 10 % of an 8-trial one: a chunk keeps a few numbers
        per trial, never a trial's per-subcarrier values."""
        desk = desk_config()
        system = replace(desk.system, n_rx=64, n_subcarriers=2048, n_pilots=2048,
                         cp_length=desk.system.cp_length * 32)
        env = build_environment(validate_config(system, desk.scenario, desk.estimator))
        nv = _noise_variances(env, SWEEPS["pilot-sweep"].snrs)
        methods = SWEEPS["pilot-sweep"].methods
        peaks = {n: _traced_peak(lambda: _simulate_chunk(
            env, kind, 0, n, methods, nv)) for n in (8, 50)}
        assert peaks[50] <= 1.1 * peaks[8]


def _count_draws(monkeypatch) -> list[int]:
    """The number of keys of each ``experiments._draw`` call from now on."""
    sizes = []
    draw = experiments._draw

    def counting_draw(env, fading_keys, noise_keys):
        sizes.append(len(fading_keys))
        return draw(env, fading_keys, noise_keys)
    monkeypatch.setattr(experiments, "_draw", counting_draw)
    return sizes


def _traced_peak(fn) -> int:
    """Peak bytes traced by tracemalloc while ``fn`` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestCsvEmission:
    def test_schema_and_row_count(self, tiny, tmp_path):
        records = run_nmse_sweep(ExperimentPlan(bundle=tiny))
        out = tmp_path / "nmse.csv"
        emit_csv(records, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        assert lines[0] == ("method,snr_db,n_pilots,nmse_emp,nmse_floor,"
                            "nmse_noise,se_bps_hz,trials")
        methods = [ln.split(",")[0] for ln in lines[1:]]
        assert methods == sorted(methods)  # bml, denoise, emdt, ls blocks

    def test_na_fields_are_empty(self, tiny, tmp_path):
        records = run_nmse_sweep(ExperimentPlan(bundle=tiny))
        out = tmp_path / "nmse.csv"
        emit_csv(records, out)
        for ln in out.read_text().splitlines()[1:]:
            cells = ln.split(",")
            if cells[0] == "emdt":
                assert cells[4] != "" and cells[5] != ""
            else:
                assert cells[4] == "" and cells[5] == ""
            assert cells[6] == ""  # no SE column in an NMSE sweep

    def test_se_rows_fill_se_column(self, tiny, tmp_path):
        records = run_se_sweep(ExperimentPlan(bundle=tiny, methods=("ideal", "ls")))
        out = tmp_path / "se.csv"
        emit_csv(records, out)
        for ln in out.read_text().splitlines()[1:]:
            cells = ln.split(",")
            assert cells[3] == "" and cells[6] != ""

    def test_empty_records_leave_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(ValueError):
            emit_csv([], out)
        assert not out.exists()

    def test_ecdf_csv_groups_end_at_one(self, tiny, tmp_path):
        tables = run_ecdf(ExperimentPlan(bundle=tiny, methods=("ls", "ideal")))
        out = tmp_path / "ecdf.csv"
        emit_ecdf_csv(tables, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "method,snr_db,sample_snr_db,cum_frac"
        last_frac = {}
        for ln in lines[1:]:
            method, snr, _, frac = ln.split(",")
            last_frac[(method, snr)] = frac
        assert len(last_frac) == 4
        assert all(v == "1" for v in last_frac.values())


def _csv_writer_reference(tables, path):
    """ECDF rows through csv.writer, one row at a time."""
    fmt = "{:.9g}".format
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("method", "snr_db", "sample_snr_db", "cum_frac"))
        for (method, snr_db) in sorted(tables):
            table = tables[(method, snr_db)]
            with np.errstate(divide="ignore"):
                q_db = 10.0 * np.log10(table)
            fractions = np.arange(1, q_db.size + 1) / q_db.size
            for q, f in zip(q_db, fractions):
                writer.writerow([method, fmt(snr_db), fmt(q), fmt(f)])


def test_ecdf_csv_matches_csv_writer_bytes(rng, tmp_path):
    """Blocked f-string rows are byte for byte what csv.writer writes,
    including a zero sample (-inf dB), 9001-row tables over nine 1024-row
    blocks (the last one short, each taken to dB on its own), and the reuse
    of formatted cumulative fractions across table sizes A, A, B, A, C in
    key order: reused for the second A, and formatted afresh at each change
    of size, the change back to A included."""
    long = np.concatenate([[0.0], rng.exponential(size=9000)])
    tables = {("bml", -10.0): ecdf(long),
              ("bml", 5.0): ecdf(rng.exponential(size=9001)),
              ("denoise", 0.0): ecdf([0.0, 0.0, 1e-300, 2.5, 1e12]),
              ("emdt", -10.0): ecdf(long),
              ("ideal", 0.5): ecdf([3.0])}
    assert [tables[key].size for key in sorted(tables)] == [9001, 9001, 5,
                                                                        9001, 1]
    assert -(-long.size // experiments._ECDF_ROWS_PER_WRITE) == 9
    emit_ecdf_csv(tables, tmp_path / "fast.csv")
    _csv_writer_reference(tables, tmp_path / "reference.csv")
    fast = (tmp_path / "fast.csv").read_bytes()
    assert b"-inf" in fast
    assert fast == (tmp_path / "reference.csv").read_bytes()
