#!/usr/bin/env python3
"""Batch-ML error floor versus warm-up batch size at high SNR.

The twin prior needs no warm-up data at all; this sweep shows how many LS
snapshots the batch-ML baseline burns to approach the same floor. Prints a
small table and writes batch_floor.csv under --out.
"""
import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chest.config import desk_config, validate_config
from chest.experiments import ExperimentPlan, run_nmse_sweep

BATCH_SIZES = (16, 32, 64, 128, 256, 512)
SNR_DB = 30.0


def floor_for_batch(bundle, n_batch: int) -> float:
    est = replace(bundle.estimator, n_batch=n_batch)
    b = validate_config(bundle.system, bundle.scenario, est)
    records = run_nmse_sweep(ExperimentPlan(kind="nmse-sweep", bundle=b,
                                            methods=("bml",)))
    return records[0].nmse_emp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/batch"))
    parser.add_argument("--trials", type=int, default=500)
    args = parser.parse_args()

    bundle = desk_config(snr_grid_db=(SNR_DB,), n_trials=args.trials)
    twin = run_nmse_sweep(ExperimentPlan(kind="nmse-sweep", bundle=bundle,
                                         methods=("emdt",)))[0].nmse_emp
    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    print(f"NMSE at {SNR_DB:g} dB, {args.trials} trials "
          f"(twin floor {10 * np.log10(twin):.2f} dB, zero warm-up)")
    for n_batch in BATCH_SIZES:
        t0 = time.perf_counter()
        nmse = floor_for_batch(bundle, n_batch)
        dt = time.perf_counter() - t0
        print(f"  batch {n_batch:4d}: {10 * np.log10(nmse):7.2f} dB   [{dt:.1f}s]")
        rows.append((n_batch, nmse))
    with open(args.out / "batch_floor.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n_batch", "nmse_emp"))
        for n_batch, nmse in rows:
            writer.writerow((n_batch, f"{nmse:.9g}"))
        writer.writerow(("twin", f"{twin:.9g}"))
    print(f"wrote {args.out / 'batch_floor.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
