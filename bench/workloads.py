"""Benchmark workloads: the chest CLI invocation, the outputs it must write,
the checks those outputs must pass, and the set-up work measured as setup_s.

Run as a script, this file is the set-up probe child process:

    python3 bench/workloads.py setup WORKLOAD SEED

It imports chest, loads and validates the workload's config and the site's
path set, builds every environment the workload needs and, where the NMSE
plot draws the analytic overlay, the pilot-grid covariance.  The parent times
it from spawn to exit.
"""
from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
# The reference site: the path set chest draws for seed 5 (the one the
# acceptance tests use), so --seed varies pilots, fading and noise but not
# the geometry the physics checks depend on.
SITE = BENCH / "site.csv"

PILOT_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256)
DECILES = tuple(k / 10 for k in range(1, 10))


class CheckFailed(Exception):
    """An output of a workload run is missing or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    cli: tuple[str, ...]          # chest arguments without --seed/--out/--workers
    workers: int
    config: Path | None           # None: the built-in desk config
    outputs: tuple[str, ...]      # files every run must write; the first is the CSV
    rows: int                     # data rows the CSV must hold
    physics: Callable[[Iterable[dict[str, str]]], str]   # raises CheckFailed

    def argv(self, seed: int, out: Path, workers: int | None = None) -> list[str]:
        config = ["--config", str(self.config)] if self.config else []
        return [*self.cli, *config, "--paths", str(SITE), "--seed", str(seed),
                "--out", str(out), "--workers", str(self.workers if workers is None else workers)]


# --- Output checks ---------------------------------------------------------------

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_rows(path: Path):
    """Rows of a CSV, streamed: the benchmark process stays small because a
    child spawned from it starts with its peak resident set (see README)."""
    with open(path, newline="") as fh:
        yield from csv.DictReader(fh)


def _number(row: dict[str, str], key: str) -> float:
    value = float(row[key])
    _require(math.isfinite(value), f"non-finite {key} in row {row}")
    return value


def check_finite(row: dict[str, str]) -> None:
    for key, text in row.items():
        if key != "method" and text != "":
            _number(row, key)


def check_c4(rows) -> str:
    """Low-SNR projection gain of emdt over LS equals 10*log10(n_rx*n_p /
    (rank_s*rank_t)) = 19.13 dB within 1 dB at -20/-15/-10 dB, with ranks
    multiplying to 25, as in the acceptance test.  The ratio of the two
    empirical NMSEs cancels the realised channel energy both are normalised
    by."""
    by = {(r["method"], float(r["snr_db"])): r for r in rows}
    dims = 64 * 32      # n_rx * n_pilots of configs/reference.json
    worst = 0.0
    for snr in (-20.0, -15.0, -10.0):
        ls, emdt = by[("ls", snr)], by[("emdt", snr)]
        rank_product = _number(emdt, "nmse_noise") * dims * 10 ** (snr / 10)
        _require(abs(rank_product - 25) < 1e-6, f"C4: rank product {rank_product:.6g}, want 25")
        gain = 10 * math.log10(_number(ls, "nmse_emp") / _number(emdt, "nmse_emp"))
        worst = max(worst, abs(gain - 10 * math.log10(dims / 25)))
    _require(worst < 1.0, f"C4: low-SNR gain off 19.13 dB by {worst:.3f} dB (tol 1.0)")
    return f"C4 gain within {worst:.3f} dB of 19.13 dB"


def check_c8(rows) -> str:
    """Two twin-projected pilots beat LS at every pilot count in
    overhead-adjusted SE, at -15 and 0 dB."""
    rows = list(rows)
    ratios = []
    for snr in (-15.0, 0.0):
        at = [r for r in rows if float(r["snr_db"]) == snr]
        emdt2 = next(_number(r, "se_bps_hz") for r in at
                     if r["method"] == "emdt" and int(r["n_pilots"]) == 2)
        ls_best = max(_number(r, "se_bps_hz") for r in at if r["method"] == "ls")
        _require(emdt2 > ls_best, f"C8 at {snr:g} dB: emdt@2 {emdt2:.4f} <= best LS {ls_best:.4f}")
        ratios.append(emdt2 / ls_best)
    return f"C8 emdt@2 / best LS = {min(ratios):.3f} or more"


def quantile(sorted_values, p: float) -> float:
    """Smallest sample x with F(x) >= p, as chest.metrics.Ecdf.quantile."""
    return sorted_values[max(math.ceil(p * len(sorted_values)) - 1, 0)]


def check_c7(rows) -> str:
    """At -10 dB the emdt post-combining SNR beats LS at every decile."""
    samples = {"ls": [], "emdt": []}
    for r in rows:
        if r["method"] in samples and float(r["snr_db"]) == -10.0:
            samples[r["method"]].append(float(r["sample_snr_db"]))
    margins = []
    for p in DECILES:
        margins.append(quantile(samples["emdt"], p) - quantile(samples["ls"], p))
    _require(min(margins) > 0, f"C7: emdt below LS at a decile, margins {margins}")
    return f"C7 decile margin {min(margins):.2f} dB or more"


def check_outputs(workload: Workload, out: Path) -> str:
    """Raise CheckFailed unless ``out`` holds a correct run; returns a summary."""
    for name in workload.outputs:
        _require((out / name).is_file(), f"missing output {name}")
    path = out / workload.outputs[0]
    try:
        count = 0
        for row in read_rows(path):
            count += 1
            check_finite(row)
        _require(count == workload.rows, f"{path.name} has {count} rows, want {workload.rows}")
        return workload.physics(read_rows(path))
    except (KeyError, ValueError, StopIteration, csv.Error) as exc:
        raise CheckFailed(f"malformed {workload.outputs[0]}: {exc!r}") from exc


# --- Workloads -------------------------------------------------------------------

NMSE_METHODS = ("ls", "denoise", "bml", "emdt")
ECDF_METHODS = ("ideal", "ls", "denoise", "bml", "emdt")
NMSE_SNRS = 11
NMSE_TRIALS = 20
PILOT_TRIALS = 20
ECDF_TRIALS = 500
DESK_SUBCARRIERS = 64

# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="nmse-ref",
        cli=("nmse-sweep", "--methods", ",".join(NMSE_METHODS),
             "--trials", str(NMSE_TRIALS)),
        workers=1, config=ROOT / "configs" / "reference.json",
        outputs=("nmse.csv", "nmse.svg"), rows=len(NMSE_METHODS) * NMSE_SNRS,
        physics=check_c4),
    Workload(
        name="pilot-c8",
        cli=("pilot-sweep", "--methods", "ls,emdt",
             "--pilots", ",".join(str(c) for c in PILOT_COUNTS), "--snr=-15,0",
             "--trials", str(PILOT_TRIALS)),
        workers=1, config=BENCH / "c8.json",
        outputs=("pilot.csv", "pilot_nmse.svg", "pilot_se.svg"),
        rows=2 * 2 * len(PILOT_COUNTS), physics=check_c8),
    Workload(
        name="ecdf-desk",
        cli=("ecdf", "--methods", ",".join(ECDF_METHODS), "--snr=-10,5",
             "--trials", str(ECDF_TRIALS)),
        workers=2, config=None, outputs=("ecdf.csv", "ecdf.svg"),
        rows=len(ECDF_METHODS) * 2 * ECDF_TRIALS * DESK_SUBCARRIERS, physics=check_c7),
)}


# --- Set-up probe ----------------------------------------------------------------

def setup(workload: Workload, seed: int) -> None:
    from chest import config, experiments, propagation
    bundle = (config.desk_config() if workload.config is None
              else config.load_config(workload.config))
    paths = propagation.load_paths_csv(SITE)
    system = replace(bundle.system, seed=seed)
    counts = PILOT_COUNTS if workload.name == "pilot-c8" else (system.n_pilots,)
    for n_p in counts:
        env = experiments.build_environment(config.validate_config(
            replace(system, n_pilots=n_p), bundle.scenario, bundle.estimator), paths)
    # The NMSE plot's analytic emdt overlay needs the pilot-grid covariance.
    if workload.name == "nmse-ref" and hasattr(experiments, "pilot_covariance"):
        experiments.pilot_covariance(env)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] != "setup" or sys.argv[2] not in WORKLOADS:
        sys.exit(f"usage: workloads.py setup {{{','.join(WORKLOADS)}}} SEED")
    setup(WORKLOADS[sys.argv[2]], int(sys.argv[3]))
