"""Command-line entry point.

Subcommands: nmse-sweep, se-sweep, ecdf, pilot-sweep, validate.  Exit codes:
0 success, 1 config or invariant-suite failure, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import ConfigBundle, ConfigError, desk_config, load_config, validate_config
from .experiments import (SWEEPS, ExperimentPlan, emit_csv, emit_ecdf_csv, run_ecdf,
                          run_nmse_sweep, run_pilot_sweep, run_se_sweep, validate_plan)
from .metrics import quantile
from .propagation import load_paths_csv
from .svgplot import LineSeries, render_line_chart


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chest",
        description="OFDM uplink channel-estimation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sweep: bool = True):
        p.add_argument("--config", type=Path, default=None,
                       help="JSON config file (default: built-in desk config)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the configured seed")
        if not sweep:
            p.set_defaults(trials=None)
            return
        p.add_argument("--out", type=Path, required=True,
                       help="output directory for CSV and SVG artifacts")
        p.add_argument("--trials", type=int, default=None,
                       help="override the configured Monte Carlo trial count")
        p.add_argument("--paths", type=Path, default=None,
                       help="CSV path set to use instead of drawing one")
        p.add_argument("--methods", type=str, default=None,
                       help="comma-separated method subset")
        p.add_argument("--workers", type=int, default=1,
                       help="forked worker processes (results are identical for any value)")

    for kind, sweep in SWEEPS.items():
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        common(p)
        p.set_defaults(snr=None, pilots=None)
        if sweep.snrs:
            snrs = sweep.snrs
            p.add_argument("--snr", type=str,
                           help="comma-separated SNR points in dB; write "
                                f"--snr={snrs[0]:g},{snrs[1]:g} when the list starts "
                                f"negative (default {','.join(str(s) for s in snrs)})")
        if sweep.sweeps_pilots:
            p.add_argument("--pilots", type=str,
                           help="comma-separated pilot counts (default: powers of two)")

    v = sub.add_parser("validate", help="run the invariant suite")
    common(v, sweep=False)
    return parser


def _load_bundle(args) -> ConfigBundle:
    bundle = desk_config() if args.config is None else load_config(args.config)
    system = bundle.system
    if args.trials is not None:
        system = replace(system, n_trials=args.trials)
    if args.seed is not None:
        system = replace(system, seed=args.seed)
    return validate_config(system, bundle.scenario, bundle.estimator)


def _parse_list(text: str | None, type, flag: str, what: str) -> tuple:
    """The comma-separated option ``flag`` as a tuple of ``type``; unset:
    empty."""
    if text is None:
        return ()
    try:
        return tuple(type(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected comma-separated {what}, got {text!r}") from exc


def _make_plan(args, bundle: ConfigBundle) -> ExperimentPlan:
    """The validated plan, method defaults filled in for the plotting code."""
    environment = load_paths_csv(args.paths) if args.paths else None
    return validate_plan(ExperimentPlan(
        bundle=bundle, methods=_parse_list(args.methods, str, "--methods", "methods"),
        snrs=_parse_list(args.snr, float, "--snr", "numbers"),
        pilot_counts=_parse_list(args.pilots, int, "--pilots", "integers"),
        workers=args.workers, environment=environment), args.command)


def _curves(records, keys, y, key=attrgetter("method"), x=attrgetter("snr_db")):
    """``(k, x, y)`` for each ``k`` in ``keys``: the ``x`` and ``y`` values of
    the records whose ``key`` is ``k``, as arrays sorted by x."""
    for k in keys:
        pts = sorted((x(r), y(r)) for r in records if key(r) == k)
        yield k, np.array([p[0] for p in pts]), np.array([p[1] for p in pts])


def _run_nmse(plan: ExperimentPlan, out: Path) -> None:
    records = run_nmse_sweep(plan)
    emit_csv(records, out / "nmse.csv")
    series = [LineSeries(label=m, x=x, y=10 * np.log10(np.maximum(y, 1e-300)))
              for m, x, y in _curves(records, plan.methods, attrgetter("nmse_emp"))]
    analytic = [r for r in records if r.nmse_analytic is not None]
    overlaid = [m for m in plan.methods if any(r.method == m for r in analytic)]
    series += [LineSeries(label=f"{m} analytic", x=x, y=10 * np.log10(y), dashed=True)
               for m, x, y in _curves(analytic, overlaid, attrgetter("nmse_analytic.total"))]
    render_line_chart(series, out / "nmse.svg", title="Channel estimation NMSE",
                      xlabel="SNR (dB)", ylabel="NMSE (dB)")
    print(f"wrote {out / 'nmse.csv'} ({len(records)} records) and nmse.svg")


def _run_se(plan: ExperimentPlan, out: Path) -> None:
    records = run_se_sweep(plan)
    emit_csv(records, out / "se.csv")
    series = [LineSeries(label=m, x=x, y=y, dashed=(m == "ideal"))
              for m, x, y in _curves(records, plan.methods,
                                     attrgetter("spectral_efficiency"))]
    render_line_chart(series, out / "se.svg", title="Genie-aided spectral efficiency",
                      xlabel="SNR (dB)", ylabel="SE (bit/s/Hz)")
    print(f"wrote {out / 'se.csv'} ({len(records)} records) and se.svg")


def _run_ecdf(plan: ExperimentPlan, out: Path) -> None:
    tables = run_ecdf(plan)
    emit_ecdf_csv(tables, out / "ecdf.csv")
    series = []
    probs = np.linspace(0.005, 1.0, 200)
    for (method, snr_db) in sorted(tables):
        with np.errstate(divide="ignore"):
            q_db = 10 * np.log10(quantile(tables[(method, snr_db)], probs))
        series.append(LineSeries(label=f"{method} @ {snr_db:g} dB", x=q_db, y=probs))
    render_line_chart(series, out / "ecdf.svg",
                      title="Post-combining SNR distribution",
                      xlabel="post-combining SNR (dB)", ylabel="cumulative fraction")
    print(f"wrote {out / 'ecdf.csv'} ({len(tables)} tables) and ecdf.svg")


def _run_pilot(plan: ExperimentPlan, out: Path) -> None:
    records = run_pilot_sweep(plan)
    emit_csv(records, out / "pilot.csv")
    nmse_series, se_series = [], []
    keys = sorted({(r.method, r.snr_db) for r in records})
    for (method, snr_db), x, y in _curves(
            records, keys, attrgetter("nmse_emp", "spectral_efficiency"),
            key=attrgetter("method", "snr_db"), x=attrgetter("n_pilots")):
        label, x = f"{method} @ {snr_db:g} dB", np.log2(x)
        nmse_series.append(LineSeries(label=label, x=x, y=10 * np.log10(y[:, 0])))
        se_series.append(LineSeries(label=label, x=x, y=y[:, 1]))
    render_line_chart(nmse_series, out / "pilot_nmse.svg",
                      title="Pilot-grid NMSE vs pilot count",
                      xlabel="log2(pilot count)", ylabel="NMSE (dB)")
    render_line_chart(se_series, out / "pilot_se.svg",
                      title="Overhead-adjusted spectral efficiency vs pilot count",
                      xlabel="log2(pilot count)", ylabel="SE (bit/s/Hz)")
    print(f"wrote {out / 'pilot.csv'} ({len(records)} records), "
          f"pilot_nmse.svg, pilot_se.svg")


# Each sweep kind's run and the CSV and SVG files it writes.
WRITERS = {"nmse-sweep": _run_nmse, "se-sweep": _run_se, "ecdf": _run_ecdf,
           "pilot-sweep": _run_pilot}


def _run_validate(args) -> int:
    # Imported here: no sweep needs the invariant suite.
    from .validate import run_validation
    bundle = _load_bundle(args)
    results = run_validation(bundle)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _run_validate(args)
        bundle = _load_bundle(args)
        plan = _make_plan(args, bundle)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create directory {args.out}: {exc.strerror}")
        WRITERS[args.command](plan, args.out)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
