"""Experiment harness: Monte Carlo sweeps over SNR and pilot count, ECDF
collection, and deterministic CSV emission.

Every sweep runs one simulate->reduce pipeline.  Trials are split into
contiguous chunks of ``_BLOCK_TRIALS`` (50), each one trial block that shares
one batch-ML warm-up; each chunk is simulated once for the whole SNR grid,
and one reducer, :func:`_reduce_slice`, turns it into per-trial errors,
spectral efficiencies or post-combining SNR samples at every SNR point.

Each sweep kind has one entry in :data:`SWEEPS`, a :class:`Sweep` of plain
data: the methods it allows (all of them by default), its default SNR points
(none: the config's ``snr_grid_db``), the per-trial outputs it keeps
(``"error"``, ``"rate"``, ``"snr"``), whether its rates and samples are
taken on the full subcarrier grid, and whether the kind sweeps pilot counts.
The reducer picks its work from the outputs, not from the kind.  A plan
carries no kind: each ``run_*`` validates and runs it as its own, and the CLI
builds its subcommands from the table.

* Randomness comes from per-purpose substreams keyed by (seed, purpose,
  trial), or (seed, purpose, block, snapshot) for the batch-ML warm-up, and
  each is drawn once, the keys of one slice (below) in one batch
  (:func:`~chest.streams.complex_normals`).  A trial therefore sees the same
  fading and unit-variance noise W whatever the chunking, the slicing, the
  worker count or the SNR point; noise is scaled, never redrawn.
* Slices bound a chunk's working set.  A chunk takes each method's bases
  once, then draws and reduces its trials a slice at a time, and a slice
  holds as many trials as fit ``_SLICE_BYTES`` (1.25 MiB) in every array the
  reducer holds per trial on its grid, one trial at least
  (:func:`_simulate_chunk` counts them).  The batch-ML warm-up is drawn in
  slices of snapshots, each holding its H and W', under the same budget less
  its Gram matrices, and its Grams are summed over them.  A chunk's trials
  are cut into the fewest slices that fit, of near-equal sizes.  The sizes
  follow from the array sizes alone; ``TestSlices.test_partitions`` in
  ``tests/test_experiments.py`` lists them for every committed config.
* At noise variance sigma^2 the LS estimate is H + sigma * W', with
  W' = W / x: the received block H x + sigma W is never formed, and LS
  never divides it.  Every pilot-grid method projects the LS estimate by its
  :class:`~chest.subspaces.ProjectorPair`: the twin's pair for ``emdt``, the
  delay window for ``denoise``, the pair learned from the warm-up for
  ``bml``, and for ``ls`` the pair of two identity sides.  An identity side is
  never multiplied out (``ls`` has none, ``denoise`` no spatial side).  The
  estimate at every SNR point is P(H) + sigma * P(W'), and it is never
  formed: each method's subspace coordinates core(X) = (U_s^H X) conj(U_t)
  are taken once per chunk from H and from W', and every metric follows from
  a few per-trial or per-column sums of them.
* NMSE: P is an orthogonal projector, so the error is
  ||PH - H||^2 + sigma^2 ||core(W')||^2.  The first sum is taken directly;
  ||H||^2 - ||core(H)||^2 would cancel when the twin holds nearly all the
  energy.
* SE, ECDF and pilot SE: on subcarrier k the estimate is a_k + sigma b_k, so
  the post-combining SNR at every sigma follows from five per-column sums
  (:class:`~chest.metrics.CombiningStats`) taken in the spatial coordinates
  U_s^H H, or in the n_rx antenna coordinates for ``ls`` and ``denoise``.
  Full-grid interpolation is the right-multiplication by a real
  (n_pilots, n_subcarriers) matrix M
  (:func:`~chest.subspaces.interpolation_matrix`), so it is folded into the
  temporal basis as V = U_t^T M: the estimate's coordinates on the full grid
  are core(H) V and core(W') V (``ls`` takes H M and W' M), and no estimate
  is formed and then interpolated.
* Batch-ML learns its projectors from the warm-up snapshots H_w + sigma W'_w
  of the chunk's trial block, so it is re-decomposed at each SNR point.  The
  sample covariances of those snapshots are quadratic in sigma; their Gram
  matrices are taken once per chunk (:class:`~chest.subspaces.SnapshotGrams`)
  and only the two small ``eigh`` calls and its coordinates repeat per SNR
  point and slice.  So each method's entry (:func:`_method_bases`) names the
  ``range`` of SNR points its pair serves: the whole grid, or for batch-ML
  one point per pair.

The reducer returns per-trial results, one array per key with the trial on
axis 0, for the outputs the kind keeps and no others: ``("error", method,
i)`` and ``"energy"`` for ``"error"``, ``("rate", method, i)``, the trial's
mean log2(1 + SNR) over the pilot or full grid, for ``"rate"``, and
``("snr", method, i)``, (n_trials, n_subcarriers), for ``"snr"``, at SNR
point ``i``.  Nothing is summed before every trial is in: a chunk lays its
slices' rows end to end, and the sweep's sums run over whole per-trial
arrays, so every output is the same bit for bit whatever the chunking, the
slicing or the worker count, batch-ML aside, whose warm-up is that of the
trial block.

One set of forked worker processes serves a whole run, and a run of one
worker or one chunk forks none.  :func:`_map_chunks` is an ordered map that
knows nothing of sweeps: plain ``os.fork`` children run the callable they
inherited and send each result back through a pipe, so no run loads
``multiprocessing`` or ``concurrent.futures``.  Every sweep goes through one
driver, :func:`_sweep`, which makes every ``(k, t0, t1)`` chunk task, one per
pilot count ``k`` (the configured one unless the kind sweeps pilot counts) and
chunk, and folds the chunk results: they come back in chunk order, and each is
copied into rows [t0, t1) of one (n_trials, ...) array per key and dropped.  The ECDF thus holds one copy of its samples, and each sample buffer
is released once its table is sorted out of it.  Environments are built where
they are used: a process builds the environment of count ``k`` at its first
task of ``k`` and keeps it, so forked workers build their own and the parent
of a pooled run builds none, bar the one :func:`run_nmse_sweep` reads for its
closed form after the sweep.  One builder, :func:`_records`, makes every
record of the NMSE, SE and pilot sweeps.
"""
from __future__ import annotations

import csv
import os
import pickle
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channel import assemble_channel, average_gain_from_responses
from .config import (ConfigBundle, ConfigError, PilotPattern, build_pilot_pattern,
                     check_snr_points, noise_variance_for_snr)
from .metrics import (CombiningStats, MetricsRecord, analytic_nmse, ecdf,
                      post_combining_snr, _energy)
from .propagation import (PathSet, dt_truncate, frequency_response, generate_paths,
                          steering_matrix)
from .streams import (FADING, NOISE, PATHS, PILOTS, WARM_FADING, WARM_NOISE,
                      complex_normals, substream)
from .subspaces import (ProjectorPair, SnapshotGrams, bml_subspace, denoise_subspace,
                        dt_subspace, interpolation_matrix)

@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: configuration, methods, and overrides; the kind is the
    ``run_*`` that runs it."""

    bundle: ConfigBundle
    methods: tuple[str, ...] = ()
    snrs: tuple[float, ...] = ()            # SNR points in dB; default: the kind's
    pilot_counts: tuple[int, ...] = ()      # pilot-sweep only
    workers: int = 1
    environment: PathSet | None = None      # externally supplied path set


def validate_plan(plan: ExperimentPlan, kind: str) -> ExperimentPlan:
    """Fill method, SNR and pilot-count defaults from the :data:`SWEEPS` entry
    of ``kind`` and reject inconsistent plans.

    The SNR points default to the entry's, or to the config's
    ``snr_grid_db`` where it has none.  Validating a validated plan returns
    it unchanged.
    """
    if kind not in SWEEPS:
        raise ConfigError(f"unknown experiment kind {kind!r}; choose from {tuple(SWEEPS)}")
    sweep = SWEEPS[kind]
    if plan.workers < 1:
        raise ConfigError("workers must be >= 1")
    methods = plan.methods or sweep.methods
    bad = set(methods) - set(sweep.methods)
    if bad:
        raise ConfigError(f"methods {sorted(bad)} not valid for {kind} "
                          f"(allowed: {sweep.methods})")
    _require_distinct("methods", methods)
    snrs = tuple(float(s) for s in
                 plan.snrs or sweep.snrs or plan.bundle.system.snr_grid_db)
    check_snr_points(f"{kind} SNR points", snrs)
    _require_distinct(f"{kind} SNR points", snrs)
    if plan.environment is not None:
        # workers build the environments, so a set beyond the CP must fail here
        _require_within_cp(plan.bundle.system, plan.environment)
    plan = replace(plan, methods=tuple(methods), snrs=snrs)
    if not sweep.sweeps_pilots:
        if plan.pilot_counts:
            raise ConfigError(f"pilot counts apply to pilot-sweep only, not {kind}")
        return plan
    n = plan.bundle.system.n_subcarriers
    counts = plan.pilot_counts or _default_pilot_counts(n)
    for c in counts:
        if not 1 <= c <= n or n % c != 0:
            raise ConfigError(f"pilot count {c} must divide n_subcarriers {n}")
    _require_distinct("pilot counts", counts)
    return replace(plan, pilot_counts=tuple(sorted(int(c) for c in counts)))


def _require_distinct(name: str, values) -> None:
    """Each value is one row group of the output, so a repeat would write its
    rows twice, or, for ECDF tables keyed by SNR, drop a table."""
    if len(set(values)) != len(values):
        raise ConfigError(f"{name} repeat an entry: {list(values)}")


def _require_within_cp(sysc, paths: PathSet) -> None:
    if np.any(paths.delay >= sysc.cp_length * sysc.sample_interval):
        raise ConfigError("supplied path delays exceed the CP duration")


def _default_pilot_counts(n_subcarriers: int) -> tuple[int, ...]:
    counts = []
    c = 2
    while c <= n_subcarriers:
        counts.append(c)
        c *= 2
    return tuple(counts)


# --- Environment (everything fixed across trials) --------------------------

@dataclass(frozen=True, eq=False)
class Environment:
    """Deterministic per-seed context shared by every trial of one pilot
    count.  A sweep builds it in each process that runs the count's chunks
    (:func:`_sweep`), never in the parent of a pooled run ahead of the fork."""

    bundle: ConfigBundle
    amplitude: np.ndarray      # (L,) mean path amplitudes
    pilots: PilotPattern
    steering: np.ndarray       # (n_rx, L)
    freq_full: np.ndarray      # (N, L)
    freq_pilot: np.ndarray     # (N_p, L)
    projectors: ProjectorPair
    beta: float

    @property
    def seed(self) -> int:
        return self.bundle.system.seed


def bml_ranks(env: Environment) -> tuple[int, int]:
    """Configured batch-ML ranks; 'auto' tracks the twin path count."""
    est = env.bundle.estimator
    auto = min(env.bundle.scenario.n_dt_paths, len(env.amplitude))
    r_s = auto if est.bml_rank_spatial == "auto" else est.bml_rank_spatial
    r_t = auto if est.bml_rank_temporal == "auto" else est.bml_rank_temporal
    return min(r_s, env.bundle.system.n_rx), min(r_t, len(env.pilots))


def build_environment(bundle: ConfigBundle, paths: PathSet | None = None) -> Environment:
    """Draw (or adopt) the path set and precompute responses and priors.

    This is where the path geometry becomes responses, and the last place it
    is read: the twin pair spans the twin paths' columns of the steering and
    pilot-grid responses, and the environment keeps the amplitudes alone."""
    sysc, scen, estc = bundle.system, bundle.scenario, bundle.estimator
    if paths is None:
        paths = generate_paths(scen, substream(sysc.seed, PATHS))
    else:
        _require_within_cp(sysc, paths)
    pilots = build_pilot_pattern(sysc.n_subcarriers, sysc.n_pilots,
                                 substream(sysc.seed, PILOTS))
    steering = steering_matrix(paths, sysc.n_rx, scen.array_spacing)
    freq_full = frequency_response(paths, sysc.n_subcarriers, sysc.sample_interval,
                                   scen.pulse_rolloff)
    freq_pilot = freq_full[pilots.indices]
    twin = dt_truncate(paths, min(scen.n_dt_paths, len(paths)))
    projectors = dt_subspace(steering[:, twin], freq_pilot[:, twin],
                             tol=estc.svd_rank_tolerance)
    beta = average_gain_from_responses(paths.amplitude, freq_pilot)
    return Environment(bundle=bundle, amplitude=paths.amplitude, pilots=pilots,
                       steering=steering, freq_full=freq_full, freq_pilot=freq_pilot,
                       projectors=projectors, beta=beta)


# --- One pass per chunk -------------------------------------------------------

def _draw(env: Environment, fading_keys, noise_keys) -> tuple[np.ndarray, np.ndarray]:
    """Fading and LS noise at unit noise variance, W' = W / x, one substream
    per ``(purpose, index...)`` key, the keys of each drawn in one batch."""
    amplitude = env.amplitude
    shape = (env.bundle.system.n_rx, len(env.pilots))
    fading = amplitude * complex_normals(env.seed, fading_keys, amplitude.shape)
    noise = complex_normals(env.seed, noise_keys, shape)
    noise /= env.pilots.symbols    # W' in W's buffer: no second noise array
    return fading, noise


# Bytes one slice of trials or of batch-ML warm-up snapshots may hold; the
# module docstring names the test that lists the slice sizes.  A reference
# warm-up never holds as much as one whole warm-up array, and a whole
# 50-trial desk SE or ECDF chunk would peak near 5 MB.
_SLICE_BYTES = 5 << 18    # 1.25 MiB


def _slices(items: range, item_bytes: int, kept: int = 0, even: bool = False) -> list[range]:
    """``items``, trials or warm-up snapshots, cut into consecutive slices
    whose arrays, ``item_bytes`` per item, fit ``_SLICE_BYTES`` less the
    ``kept`` bytes; a slice holds one item at least, and no items make no
    slices.

    The slices are full but for the last, or, with ``even``, as many slices
    of sizes within one of each other, so that the largest, which sets the
    peak and the cache misses, is as small as the count allows.  Trials may
    be cut evenly, as their rows are laid end to end; the warm-up keeps full
    slices, as its partition sets the order its Grams are summed in."""
    step = max(1, (_SLICE_BYTES - kept) // item_bytes)
    if not even or not items:
        return [items[i:i + step] for i in range(0, len(items), step)]
    count = -(-len(items) // step)
    bounds = [len(items) * k // count for k in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def _warm_up_grams(env: Environment, block: int) -> SnapshotGrams:
    """Gram matrices of trial block ``block``'s batch-ML warm-up snapshots,
    summed over slices: one slice of snapshots is drawn at a time, and a
    slice keeps the Gram sums and its own Grams besides."""
    def batch(snapshots):
        fading, noise = _draw(env, [(WARM_FADING, block, j) for j in snapshots],
                              [(WARM_NOISE, block, j) for j in snapshots])
        return assemble_channel(env.steering, fading, env.freq_pilot), noise
    n_rx, n_p = env.bundle.system.n_rx, len(env.pilots)
    gram_bytes = 2 * 3 * np.dtype(complex).itemsize * (n_rx * n_rx + n_p * n_p)
    snapshot_bytes = 2 * np.dtype(complex).itemsize * n_rx * n_p    # its H and W'
    warm = range(env.bundle.estimator.n_batch)
    return SnapshotGrams.summed(batch(snapshots)
                                for snapshots in _slices(warm, snapshot_bytes, gram_bytes))


def _method_bases(env: Environment, methods: tuple[str, ...],
                  noise_variances: np.ndarray, block: int) -> list:
    """``(method, points, bases)`` for every method, taken once per chunk.

    ``points`` is the ``range`` of SNR points the entry serves; the method's
    estimate at point ``i`` in it is ``P(H) + sigma_i * P(W')``, with P the
    projection by ``bases``.  ``ls``, the twin pair and the delay window hold
    for the whole grid, ``range(len(noise_variances))``; the window is built
    here, as a full-scale window basis is too large to keep in every
    environment.  Batch-ML has one pair per SNR point, ``range(i, i + 1)``:
    it comes from the block's warm-up snapshots ``H_w + sigma * W'_w``, whose
    sample covariances follow from Gram matrices taken once per block.
    ``ideal`` has no bases (None): it combines on the channel itself.
    """
    points = range(len(noise_variances))
    out = []
    for method in methods:
        if method == "ideal":
            out.append((method, points, None))
        elif method == "ls":
            out.append((method, points, ProjectorPair(None, None)))
        elif method == "emdt":
            out.append((method, points, env.projectors))
        elif method == "denoise":
            out.append((method, points,
                        denoise_subspace(env.bundle.system, env.bundle.estimator.tau_max)))
        elif method == "bml":
            grams = _warm_up_grams(env, block)
            r_s, r_t = bml_ranks(env)
            for i, sigma in enumerate(np.sqrt(noise_variances)):
                out.append((method, range(i, i + 1),
                            bml_subspace(grams.covariances(sigma), r_s, r_t)))
        else:
            raise ConfigError(f"unknown method {method!r}")
    return out


def _error_energy(bases: ProjectorPair, truth: np.ndarray, core_h: np.ndarray,
                  core_w: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Per-trial squared error at every sigma, (len(sigmas), n_trials).

    P is an orthogonal projector, so PH - H is orthogonal to PW' and the error
    is ||PH - H||^2 + sigma^2 ||PW'||^2, where ||PW'|| is the norm of its core.
    The first term is taken directly, once per pair: ||H||^2 - ||core(H)||^2
    cancels catastrophically when the pair holds nearly all of H.
    """
    s = sigmas[:, None]
    if bases.basis_spatial is None and bases.basis_temporal is None:
        # core(H) is H itself here, which the in-place residual would zero
        return s * s * _energy(core_w)
    residual = bases.project(core_h)
    residual -= truth
    return _energy(residual) + s * s * _energy(core_w)


def _reduce_slice(env: Environment, fading: np.ndarray, noise: np.ndarray,
                  bases: list, noise_variances: np.ndarray, outputs: frozenset[str],
                  full_grid: bool) -> dict:
    """One slice's per-trial results, by key, for each of ``outputs`` at SNR
    point ``i``: each method's squared error, ``("error", method, i)``, with
    the per-trial channel energy, ``"energy"``; its spectral efficiency, the
    mean ``log2(1 + SNR)`` over the subcarriers, ``("rate", method, i)``; or
    its post-combining SNR samples, ``("snr", method, i)``, (n_trials, n_sc).

    One pass over the ``_method_bases`` entries: each takes the cores of H
    and W' once and serves its SNR points.  Errors are taken on the pilot
    grid, rates and samples on the pilot grid or, with ``full_grid``, on the
    full grid, where H is assembled whole and the pilot-grid H is its pilot
    columns.  The combining sums of the estimates ``P(H) + sigma P(W')`` live
    in the spatial coordinates of the method's basis, and interpolation is
    folded into the temporal side (``synthesis``), so no (n_rx, n_sc)
    estimate is formed unless the method keeps every antenna.  Where rates
    are kept without the samples, each method's samples are reduced before
    the next method runs.  ``ideal`` has no error; it combines on the channel
    itself."""
    if full_grid:
        truth_full = assemble_channel(env.steering, fading, env.freq_full)
        truth = truth_full[..., env.pilots.indices]
        grid = interpolation_matrix(env.pilots, env.bundle.system.n_subcarriers)
    else:
        truth = truth_full = assemble_channel(env.steering, fading, env.freq_pilot)
        grid = None
    sigmas = np.sqrt(noise_variances)
    out = {"energy": _energy(truth)} if "error" in outputs else {}
    for method, points, b in bases:
        got = {}
        if b is not None:
            core_h, core_w = b.core(truth), b.core(noise)
        if "error" in outputs:
            got["error"] = _error_energy(b, truth, core_h, core_w, sigmas[points])
        if outputs & {"rate", "snr"}:
            if b is None:
                stats = CombiningStats.of(truth_full, None, truth_full)
            else:
                rows = b.synthesis(grid)
                stats = CombiningStats.of(*(c if rows is None else c @ rows
                                            for c in (core_h, core_w)), b.coords(truth_full))
            snr = post_combining_snr(stats, sigmas[points], noise_variances[points])
            if "rate" in outputs:
                got["rate"] = np.mean(np.log2(1.0 + snr), axis=-1)
            if "snr" in outputs:
                got["snr"] = snr
        for name, values in got.items():
            out.update(zip([(name, method, i) for i in points], values))
    return out


class Sweep(NamedTuple):
    """Everything that sets one sweep kind apart; :data:`SWEEPS` holds one
    per kind, as plain data."""

    methods: tuple[str, ...]     # every method it allows, and its default
    snrs: tuple[float, ...]      # default SNR points; empty: the config's snr_grid_db
    outputs: frozenset[str]      # per-trial results it keeps: "error", "rate", "snr"
    full_grid: bool = False      # rates and samples on the full subcarrier grid
    sweeps_pilots: bool = False  # one environment per swept pilot count


SWEEPS: dict[str, Sweep] = {
    "nmse-sweep": Sweep(("ls", "denoise", "bml", "emdt"), (), frozenset({"error"})),
    "se-sweep": Sweep(("ideal", "ls", "denoise", "bml", "emdt"), (), frozenset({"rate"}),
                      full_grid=True),
    "ecdf": Sweep(("ideal", "ls", "denoise", "bml", "emdt"), (-10.0, 5.0),
                  frozenset({"snr"}), full_grid=True),
    "pilot-sweep": Sweep(("ls", "emdt"), (-15.0, 0.0, 15.0), frozenset({"error", "rate"}),
                         sweeps_pilots=True),
}


# Trials in one chunk, and in one trial block, which shares one batch-ML
# warm-up.
_BLOCK_TRIALS = 50


def _simulate_chunk(env: Environment, kind: str, t0: int, t1: int,
                    methods: tuple[str, ...], noise_variances) -> dict:
    """Draw trials [t0, t1) once and reduce them at every noise variance to
    the sweep ``kind``'s per-trial results, each array's row ``t - t0`` that
    of trial ``t``.

    Each method's bases are taken once for the chunk; its batch-ML warm-up is
    the one of trial block ``t0 // _BLOCK_TRIALS``.  The trials are drawn and
    reduced a slice at a time (:func:`_slices`, by what its reducer holds
    per trial on its grid), so the chunk holds one slice's arrays at a time;
    the slices' rows are laid end to end.
    """
    sweep = SWEEPS[kind]
    noise_variances = np.asarray(noise_variances, dtype=float)
    bases = _method_bases(env, methods, noise_variances, t0 // _BLOCK_TRIALS)
    # Per trial, in complex (n_rx, width) arrays.  On the pilot grid, errors
    # hold H, W', one residual PH - H and one real |.|^2 temporary: 3.5.
    # Pilot-grid rates hold less: their sums read H and W', or a pair's
    # r_s-row coordinates of them, where they lie.  On the full grid, counted
    # at full width, a slice holds the full-grid H, its pilot columns and W'
    # (3) and the full-grid coordinates a and b (2), which the sums read where
    # they lie, rounded up to 6 for the sums and the SNR samples it keeps.
    # The chunk's own per-trial results grow with its trials and lie outside
    # the slice budget.
    column_bytes = np.dtype(complex).itemsize * env.bundle.system.n_rx
    trial_bytes = (6 * column_bytes * env.bundle.system.n_subcarriers if sweep.full_grid
                   else 7 * column_bytes * len(env.pilots) // 2)
    out = {}
    for trials in _slices(range(t0, t1), trial_bytes, even=True):
        _lay_rows(out, _reduce_slice(env, *_draw(env, [(FADING, t) for t in trials],
                                                 [(NOISE, t) for t in trials]),
                                     bases, noise_variances, sweep.outputs, sweep.full_grid),
                  slice(trials.start - t0, trials.stop - t0), t1 - t0)
    return out


def _lay_rows(into: dict, result: dict, rows: slice, n: int) -> None:
    """Copy each per-trial array of ``result`` into rows ``rows`` of the
    (n, ...) array of its key in ``into``, allocated at the key's first
    result."""
    for key, part in result.items():
        if key not in into:
            into[key] = np.empty((n,) + part.shape[1:])
        into[key][rows] = part


def _chunk_ranges(n_trials: int) -> list[tuple[int, int]]:
    return [(t0, min(t0 + _BLOCK_TRIALS, n_trials))
            for t0 in range(0, n_trials, _BLOCK_TRIALS)]


def _map_chunks(run: Callable, tasks: list, workers: int):
    """Yield ``run(task)`` for each task, in task order.

    With more than one worker and task, ``n = min(workers, len(tasks))``
    children are forked, each with everything ``run`` holds and its own pipe:
    child ``j`` runs tasks ``j, j + n, ...`` (:func:`_fork_worker`) and the
    parent reads task ``i`` from pipe ``i % n``.  A child blocks on its full
    pipe until the parent reads, so a caller that folds the results as they
    come never holds more than one.  A task's exception is raised here, and
    a child that ends before its results are in raises a ``RuntimeError``
    naming its exit status.  However the generator ends, finished, failed or
    closed, every child is killed and reaped, and a fork that fails closes
    the pipe made for it.
    """
    if (n := min(workers, len(tasks))) <= 1 or not hasattr(os, "fork"):
        yield from map(run, tasks)
        return
    children = []       # (pid, read end of its pipe), in fork order
    try:
        for j in range(n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _fork_worker(run, tasks[j::n], write_fd,
                             [read_fd] + [pipe.fileno() for _, pipe in children])
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        for i in range(len(tasks)):
            pid, pipe = children[i % n]
            try:
                ok, result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                children.pop(i % n)[1].close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"sweep worker {pid} ended with exit status {status} "
                                   "before its results were in") from None
            if not ok:
                raise result
            yield result
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)     # SIGKILL: the signal module's tables cost 34 kB
            os.waitpid(pid, 0)


def _fork_worker(run: Callable, tasks: list, write_fd: int, read_fds: list[int]) -> None:
    """A forked child's whole life: close the read ends it inherited,
    ``read_fds``, write the pickled ``(True, run(task))`` of each task, or
    ``(False, exception)`` where it raised, to the pipe ``write_fd``, then
    leave through ``os._exit``, with status 1 if anything else ended it.
    With no read end left in any child, a write after the parent has died
    fails, and the child exits, instead of blocking forever on a full pipe.
    An exception that cannot be pickled goes as a ``RuntimeError`` carrying
    its text."""
    try:
        for fd in read_fds:
            os.close(fd)
        out = open(write_fd, "wb")
        for task in tasks:
            try:
                data = pickle.dumps((True, run(task)), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:    # noqa: BLE001 - raised in the parent
                try:
                    data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                except Exception:       # noqa: BLE001 - unpicklable
                    data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            out.write(data)
            out.flush()
        os._exit(0)
    finally:
        os._exit(1)


def _sweep(plan: ExperimentPlan, kind: str):
    """The plan validated as ``kind``, its environment builder, and the
    per-trial results of each pilot count (the configured count unless the
    kind sweeps pilot counts), by count, at the plan's SNR points: one
    (n_trials, ...) array per key of the kind's results.

    A task is ``(k, t0, t1)``: trials [t0, t1) at pilot count ``k``.  The
    builder, ``environment(k)``, builds that count's environment the first
    time its process asks for it and keeps it for that process, so each forked
    worker builds those of its own tasks, a one-worker run builds each count
    once, just before its first chunk, and the parent of a pooled run builds
    none unless a caller asks it for one afterwards.  The arrays are allocated
    at a count's first chunk, and every chunk's rows are copied into them as
    the chunk arrives (:func:`_map_chunks`), so the run holds one copy of its
    per-trial results and one chunk result at a time."""
    plan = validate_plan(plan, kind)
    base = plan.bundle
    n_trials = base.system.n_trials
    # validate_plan checked the counts; bml rank caps do not apply to them
    counts = plan.pilot_counts or (base.system.n_pilots,)
    built = {}

    def environment(k: int) -> Environment:
        if k not in built:
            bundle = replace(base, system=replace(base.system, n_pilots=k))
            built[k] = build_environment(bundle, plan.environment)
        return built[k]

    def run(task):
        k, t0, t1 = task
        env = environment(k)
        return _simulate_chunk(env, kind, t0, t1, plan.methods,
                               _noise_variances(env, plan.snrs))
    tasks = [(k, t0, t1) for k in counts for t0, t1 in _chunk_ranges(n_trials)]
    trials = {k: {} for k in counts}
    with closing(_map_chunks(run, tasks, plan.workers)) as results:
        for (k, t0, t1), result in zip(tasks, results):
            _lay_rows(trials[k], result, slice(t0, t1), n_trials)
    return plan, environment, trials


def _nmse(trials: dict, method: str, i: int) -> float:
    """sum(error) / sum(channel energy) over all trials at SNR point ``i``."""
    return float(trials[("error", method, i)].sum() / trials["energy"].sum())


def _noise_variances(env: Environment, snrs) -> list[float]:
    return [noise_variance_for_snr(s, env.beta) for s in snrs]


# --- Sweeps -------------------------------------------------------------------

def _records(plan: ExperimentPlan, kind: str) -> tuple[Callable, list[MetricsRecord]]:
    """The environment builder of a ``kind`` sweep (:func:`_sweep`) and one
    record per (pilot count, SNR point, method), in that order: the pooled
    NMSE where the sweep took errors, the mean per-trial rate where it took
    rates.  Each record's pilot count is the sweep's key, not an
    environment's, so the parent of a pooled sweep builds none."""
    plan, environment, per_count = _sweep(plan, kind)
    records = []
    for n_pilots, trials in per_count.items():
        for i, snr_db in enumerate(plan.snrs):
            for method in plan.methods:
                rate = trials.get(("rate", method, i))
                records.append(MetricsRecord(
                    method=method, snr_db=snr_db, n_pilots=n_pilots,
                    trials=plan.bundle.system.n_trials,
                    nmse_emp=_nmse(trials, method, i) if "energy" in trials else None,
                    spectral_efficiency=None if rate is None else float(rate.mean())))
    return environment, records


def run_nmse_sweep(plan: ExperimentPlan) -> list[MetricsRecord]:
    """Empirical NMSE per (method, SNR); analytic breakdown for the twin prior.

    The breakdown needs the environment in this process: a one-worker run
    reuses the sweep's, and the parent of a pooled run builds it here."""
    environment, records = _records(plan, "nmse-sweep")
    env = environment(plan.bundle.system.n_pilots)
    return [replace(r, nmse_analytic=analytic_nmse(
                env.projectors, env.steering, env.freq_pilot, env.amplitude, r.snr_db,
                noise_variance_for_snr(r.snr_db, env.beta)))
            if r.method == "emdt" else r for r in records]


def measure_projection_floor(env: Environment, n_trials: int) -> float:
    """Noiseless twin-projection NMSE over the same fading streams the noisy
    sweeps use, trials [0, n_trials); this is the measured subspace floor."""
    if n_trials < 1:
        raise ConfigError(f"n_trials must be >= 1, got {n_trials}")
    trials = _simulate_chunk(env, "nmse-sweep", 0, n_trials, ("emdt",), (0.0,))
    return _nmse(trials, "emdt", 0)


def run_se_sweep(plan: ExperimentPlan) -> list[MetricsRecord]:
    """Genie-aided spectral efficiency per (method, SNR) on the full grid."""
    return _records(plan, "se-sweep")[1]


def run_ecdf(plan: ExperimentPlan) -> dict[tuple[str, float], np.ndarray]:
    """ECDF of per-subcarrier post-combining SNR at the requested SNR points:
    one sorted sample table (:func:`~chest.metrics.ecdf`) per (method, SNR).

    Each (method, SNR point) has one (n_trials, n_subcarriers) sample buffer,
    filled chunk by chunk as the results arrive (:func:`_sweep`) and released
    as soon as its table is sorted, so the run holds about one copy of its
    samples.
    """
    plan, _, per_count = _sweep(plan, "ecdf")
    (samples,) = per_count.values()
    return {(method, snr_db): ecdf(samples.pop(("snr", method, i)))
            for i, snr_db in enumerate(plan.snrs) for method in plan.methods}


def run_pilot_sweep(plan: ExperimentPlan) -> list[MetricsRecord]:
    """NMSE and overhead-adjusted SE versus pilot count.

    Estimation quality is evaluated on the pilot subcarriers themselves; the
    spectral efficiency is scaled by the data fraction (1 - N_p/N).  Every
    (pilot count, chunk) task goes to the same workers.
    """
    n = plan.bundle.system.n_subcarriers
    return [replace(r, spectral_efficiency=r.spectral_efficiency * (1.0 - r.n_pilots / n))
            for r in _records(plan, "pilot-sweep")[1]]


# --- CSV emission -------------------------------------------------------------

CSV_HEADER = ("method", "snr_db", "n_pilots", "nmse_emp", "nmse_floor",
              "nmse_noise", "se_bps_hz", "trials")


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.9g}"


def emit_csv(records: list[MetricsRecord], path: str | Path) -> None:
    """Write records sorted by (method, snr, n_pilots); floats at 9 significant
    digits; empty fields where a metric does not apply."""
    if not records:
        raise ValueError("no records to write")
    rows = sorted(records, key=lambda r: (r.method, r.snr_db, r.n_pilots))
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in rows:
                floor = r.nmse_analytic.subspace_floor if r.nmse_analytic else None
                noise = r.nmse_analytic.noise_term if r.nmse_analytic else None
                writer.writerow([r.method, _fmt(r.snr_db), str(r.n_pilots),
                                 _fmt(r.nmse_emp), _fmt(floor), _fmt(noise),
                                 _fmt(r.spectral_efficiency), str(r.trials)])
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc


_ECDF_ROWS_PER_WRITE = 1024


def emit_ecdf_csv(tables: dict[tuple[str, float], np.ndarray], path: str | Path) -> None:
    """One row per sample: method, snr_db, sample SNR in dB, cumulative fraction.

    The k-th smallest of a table's n samples has cumulative fraction k / n.
    The bytes are those of ``csv.writer`` with :func:`_fmt` cells (no cell
    needs quoting; ``%.9g`` is the conversion of ``:.9g``, ``-inf`` included).
    Each block of ``_ECDF_ROWS_PER_WRITE`` (1024) rows takes its samples to dB
    on its own, is formatted by one ``%`` template over the block's sample
    cells, and is written on its own, so that the writer's temporaries are one
    block's, never a table's: no dB copy of a table and no table joined into
    one string.
    The ``cum_frac`` cells depend on the table size alone, so they are
    formatted once and reused while consecutive tables have the same size.
    They are kept as one string per block, ``",f1\\r\\n,f2\\r\\n...,fn"``,
    into which each table's row prefix is spliced: a list of cell strings
    would raise the peak memory by about 2 MB at 32 000 rows.
    """
    if not tables:
        raise ValueError("no ECDF tables to write")
    rows = _ECDF_ROWS_PER_WRITE
    size, frac_blocks = 0, []
    try:
        with open(path, "w", newline="") as fh:
            fh.write("method,snr_db,sample_snr_db,cum_frac\r\n")
            for (method, snr_db) in sorted(tables):
                table = tables[(method, snr_db)]
                if table.size != size:
                    size = table.size
                    fractions = (np.arange(k + 1, min(k + rows, size) + 1) / size
                                 for k in range(0, size, rows))
                    frac_blocks = ["," + "\r\n,".join([f"{f:.9g}" for f in block.tolist()])
                                   for block in fractions]
                cell = f"{method},{_fmt(snr_db)},".replace("%", "%%") + "%.9g"
                for k, frac_block in zip(range(0, size, rows), frac_blocks):
                    with np.errstate(divide="ignore"):
                        block_db = 10.0 * np.log10(table[k:k + rows])
                    template = cell + frac_block.replace("\r\n", "\r\n" + cell) + "\r\n"
                    fh.write(template % tuple(block_db.tolist()))
    except OSError as exc:
        raise RuntimeError(f"failed to write {path}: {exc}") from exc
