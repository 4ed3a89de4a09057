"""Acceptance gate: nine release criteria, one printed pass/fail line each.

Each criterion states its own tolerance; the printed line carries the measured
margin so a failing run is diagnosable from the log alone.  Runs share
module-scoped sweeps where criteria overlap.
"""
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from chest.config import desk_config, noise_variance_for_snr, validate_config
from chest.experiments import (ExperimentPlan, build_environment,
                               measure_projection_floor,
                               run_ecdf, run_nmse_sweep, run_pilot_sweep,
                               run_se_sweep, _chunk_ranges, _simulate_chunk)
from chest.metrics import analytic_nmse, quantile

GRID5 = (-20.0, -10.0, 0.0, 10.0, 20.0)


@pytest.fixture(scope="module")
def announce(request):
    """One visible pass/fail line per criterion, bypassing output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(tag: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line, file=sys.__stdout__, flush=True)

    return _announce


@pytest.fixture(scope="module")
def desk5():
    return desk_config(snr_grid_db=GRID5)


@pytest.fixture(scope="module")
def desk5_env(desk5):
    return build_environment(desk5)


@pytest.fixture(scope="module")
def emdt_run(desk5):
    return run_nmse_sweep(ExperimentPlan(bundle=desk5, methods=("emdt",)))


@pytest.fixture(scope="module")
def measured_floor(desk5_env):
    return measure_projection_floor(desk5_env, desk5_env.bundle.system.n_trials)


def test_c1_ls_white_error_law(desk5, announce):
    """LS NMSE equals 1/SNR within 0.3 dB at five SNRs, 500 trials, < 30 s."""
    t0 = time.perf_counter()
    records = run_nmse_sweep(ExperimentPlan(bundle=desk5, methods=("ls",)))
    elapsed = time.perf_counter() - t0
    devs = {r.snr_db: 10 * np.log10(r.nmse_emp * 10 ** (r.snr_db / 10))
            for r in records}
    worst = max(abs(v) for v in devs.values())
    ok = worst < 0.3 and elapsed < 30.0
    announce("C1", ok, f"LS NMSE vs 1/SNR: max deviation {worst:.3f} dB "
                       f"(tol 0.3) over {sorted(devs)}, "
                       f"runtime {elapsed:.1f} s (limit 30)")
    assert ok


def test_c2_projected_noise_term(desk5, desk5_env, emdt_run, measured_floor, announce):
    """Above the measured floor, the projection estimator pays exactly
    rank_s*rank_t/(n_rx*n_p*SNR) in noise, within 0.5 dB; the trace and rank
    forms of that term agree to 1e-9."""
    env = desk5_env
    sysc = desk5.system
    r_s, r_t = env.projectors.rank_spatial, env.projectors.rank_temporal
    worst = 0.0
    for rec in emdt_run:
        snr = 10 ** (rec.snr_db / 10)
        predicted = r_s * r_t / (sysc.n_rx * sysc.n_pilots * snr)
        dev = 10 * np.log10((rec.nmse_emp - measured_floor) / predicted)
        worst = max(worst, abs(dev))
    agree = True
    for snr_db in GRID5:
        bk = analytic_nmse(env.projectors, env.steering, env.freq_pilot,
                           env.amplitude, snr_db,
                           noise_variance_for_snr(snr_db, env.beta))
        simplified = r_s * r_t / (sysc.n_rx * sysc.n_pilots * 10 ** (snr_db / 10))
        agree = agree and np.isclose(bk.noise_term, simplified, rtol=1e-9)
    ok = worst < 0.5 and agree
    announce("C2", ok, f"noise term above floor: max deviation {worst:.3f} dB "
                       f"(tol 0.5); trace/rank forms agree to 1e-9: {agree}")
    assert ok


def test_c3_subspace_floor(desk5, announce):
    """At +40 dB the empirical NMSE sits on the analytic subspace floor."""
    bundle = validate_config(replace(desk5.system, snr_grid_db=(40.0,)),
                             desk5.scenario, desk5.estimator)
    records = run_nmse_sweep(ExperimentPlan(bundle=bundle, methods=("emdt",)))
    rec = records[0]
    floor = rec.nmse_analytic.subspace_floor
    dev = 10 * np.log10(rec.nmse_emp / floor)
    ok = abs(dev) < 0.5
    announce("C3", ok, f"empirical NMSE at +40 dB {10 * np.log10(rec.nmse_emp):.2f} dB "
                       f"vs analytic floor {10 * np.log10(floor):.2f} dB: "
                       f"deviation {dev:+.3f} dB (tol 0.5)")
    assert ok


def test_c4_low_snr_projection_gain(announce):
    """With 64 antennas, 32 pilots, and rank-5 priors the projection gain over
    LS at SNR <= -10 dB is 10*log10(2048/25) = 19.13 dB within 1 dB, < 5 min."""
    t0 = time.perf_counter()
    bundle = desk_config(n_rx=64, snr_grid_db=(-20.0, -15.0, -10.0), n_trials=200)
    records = run_nmse_sweep(ExperimentPlan(bundle=bundle, methods=("ls", "emdt")))
    elapsed = time.perf_counter() - t0
    env = build_environment(bundle)
    ranks = (env.projectors.rank_spatial, env.projectors.rank_temporal)
    expected = 10 * np.log10(bundle.system.n_rx * bundle.system.n_pilots
                             / (ranks[0] * ranks[1]))
    by = {(r.method, r.snr_db): r.nmse_emp for r in records}
    gains = {snr: 10 * np.log10(by[("ls", snr)] / by[("emdt", snr)])
             for snr in (-20.0, -15.0, -10.0)}
    worst = max(abs(g - expected) for g in gains.values())
    ok = ranks == (5, 5) and worst < 1.0 and elapsed < 300.0
    announce("C4", ok, f"low-SNR gain {min(gains.values()):.2f}..{max(gains.values()):.2f} dB "
                       f"vs {expected:.2f} dB (tol 1.0), ranks {ranks}, "
                       f"runtime {elapsed:.1f} s (limit 300)")
    assert ok


def test_c5_floor_ordering_and_batch_size(announce):
    """At +30 dB the twin projection floors below both baselines, and the
    batch-ML floor drops when its warm-up batch is quadrupled (3-sigma)."""
    bundle = desk_config(snr_grid_db=(30.0,))
    records = run_nmse_sweep(ExperimentPlan(bundle=bundle,
                                            methods=("emdt", "bml", "denoise")))
    by = {r.method: r.nmse_emp for r in records}
    ordering = by["emdt"] < by["bml"] and by["emdt"] < by["denoise"]

    n_trials = bundle.system.n_trials
    nv = noise_variance_for_snr(30.0, build_environment(bundle).beta)
    per_trial = {}
    for n_batch in (64, 256):
        est = replace(bundle.estimator, n_batch=n_batch)
        env = build_environment(validate_config(bundle.system, bundle.scenario, est))
        errors = np.empty(n_trials)
        for t0, t1 in _chunk_ranges(n_trials):
            errors[t0:t1] = _simulate_chunk(env, "nmse-sweep", t0, t1, ("bml",),
                                            (nv,))[("error", "bml", 0)]
        per_trial[n_batch] = errors
    diff = per_trial[64] - per_trial[256]
    z = diff.mean() / (diff.std(ddof=1) / np.sqrt(n_trials))
    ok = ordering and z > 3.0
    announce("C5", ok, f"NMSE at +30 dB: emdt {10 * np.log10(by['emdt']):.2f}, "
                       f"bml {10 * np.log10(by['bml']):.2f}, "
                       f"denoise {10 * np.log10(by['denoise']):.2f} dB; "
                       f"batch 64->256 improvement z = {z:.1f} (need > 3)")
    assert ok


def test_c6_spectral_efficiency_near_ideal(announce):
    """Twin-projection SE lands within 0.2 bit/s/Hz of the ideal-CSI curve at
    -15/-10/-5 dB, with LS strictly below it."""
    bundle = desk_config(snr_grid_db=(-15.0, -10.0, -5.0))
    records = run_se_sweep(ExperimentPlan(bundle=bundle, methods=("ideal", "ls", "emdt")))
    by = {(r.method, r.snr_db): r.spectral_efficiency for r in records}
    gaps = {snr: by[("ideal", snr)] - by[("emdt", snr)]
            for snr in bundle.system.snr_grid_db}
    ls_below = all(by[("ls", snr)] < by[("emdt", snr)]
                   for snr in bundle.system.snr_grid_db)
    ok = max(gaps.values()) <= 0.2 and ls_below
    announce("C6", ok, "ideal-minus-emdt SE gaps "
                       + ", ".join(f"{snr:g} dB: {g:.3f}" for snr, g in sorted(gaps.items()))
                       + f" bit/s/Hz (tol 0.2); LS below emdt: {ls_below}")
    assert ok


def test_c7_ecdf_first_order_dominance(announce):
    """The post-combining SNR distribution under the twin projection dominates
    LS at every decile at -10 dB."""
    bundle = desk_config()
    tables = run_ecdf(ExperimentPlan(bundle=bundle,
                                     methods=("ls", "emdt"), snrs=(-10.0,)))
    deciles = np.arange(0.1, 0.95, 0.1)
    q_ls = quantile(tables[("ls", -10.0)], deciles)
    q_dt = quantile(tables[("emdt", -10.0)], deciles)
    margins_db = 10 * np.log10(q_dt / q_ls)
    ok = bool(np.all(q_dt > q_ls))
    announce("C7", ok, f"decile-wise SNR advantage at -10 dB: "
                       f"{margins_db.min():.2f}..{margins_db.max():.2f} dB "
                       f"across deciles 0.1-0.9 (need > 0)")
    assert ok


def test_c8_pilot_reduction_wins(announce):
    """On a 256-subcarrier grid, two twin-projected pilots carry more
    overhead-adjusted rate than LS achieves at any pilot count."""
    bundle = desk_config(n_subcarriers=256, cp_length=128, n_pilots=32)
    records = run_pilot_sweep(ExperimentPlan(bundle=bundle, snrs=(-15.0, 0.0)))
    ok = True
    details = []
    for snr in (-15.0, 0.0):
        emdt2 = next(r.spectral_efficiency for r in records
                     if r.method == "emdt" and r.snr_db == snr and r.n_pilots == 2)
        ls_best = max(r.spectral_efficiency for r in records
                      if r.method == "ls" and r.snr_db == snr)
        ok = ok and emdt2 > ls_best
        details.append(f"{snr:g} dB: emdt@2 {emdt2:.3f} vs best LS {ls_best:.3f}")
    announce("C8", ok, "overhead-adjusted SE " + "; ".join(details)
                       + " bit/s/Hz (need emdt@2 greater)")
    assert ok


def test_c9_invariant_suite(announce):
    """`chest validate` passes every named invariant in under two minutes."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "chest", "validate"],
                          capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = tail.split()[0] if tail else "0/0"
    passed, _, total = counts.partition("/")
    ok = (proc.returncode == 0 and passed == total != "" and elapsed < 120.0
          and "FAIL" not in proc.stdout)
    announce("C9", ok, f"invariant suite {counts} checks passed, "
                       f"exit {proc.returncode}, runtime {elapsed:.1f} s (limit 120)")
    assert ok
