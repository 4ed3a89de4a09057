"""The CLI boundary, by property: configs drawn from the schema, valid ones
and ones with a single field broken, and flag sets with a single flag
broken, run in process through every subcommand.

Every argument list drawn here parses, and each run must exit 0 or 1,
never 2 and never with an uncaught exception.  A valid config and valid
flags exit 0, ``validate`` included, and write every output with finite
values; one broken field or flag exits 1 with a message that names it.
"""
import csv
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chest import cli
from chest.experiments import SWEEPS

OUTPUTS = {"nmse-sweep": ("nmse.csv", "nmse.svg"), "se-sweep": ("se.csv", "se.svg"),
           "ecdf": ("ecdf.csv", "ecdf.svg"),
           "pilot-sweep": ("pilot.csv", "pilot_nmse.svg", "pilot_se.svg")}
NAN, INF = float("nan"), float("inf")


class Case(NamedTuple):
    command: str
    config: dict              # the JSON written to --config
    flags: tuple[str, ...]
    broken: str | None        # what an exit-1 message must name; None: all valid


# SNR points in dB: the +-1000 dB edges and points between them are valid.
snr_points = st.one_of(st.sampled_from([-1000.0, 0.0, 1000.0]),
                       st.floats(-1000.0, 1000.0, allow_nan=False))
BAD_SNRS = (1000.5, -1000.5, 3080.0, -3085.0, 4000.0, -4000.0)


@st.composite
def valid_configs(draw) -> dict:
    """A schema-valid config small enough to run in milliseconds."""
    log_n = draw(st.integers(2, 6))
    n = 2 ** log_n
    n_pilots = 2 ** draw(st.integers(0, log_n))
    n_rx = draw(st.integers(1, 4))
    cp_length = draw(st.integers(1, n))
    spacing = draw(st.sampled_from([15e3, 480e3, 1.92e6]))
    delay_spread = draw(st.floats(0.05, 0.95)) * cp_length / (n * spacing)
    n_paths = draw(st.integers(1, 6))
    azimuth = sorted(draw(st.lists(st.floats(-math.pi, math.pi), min_size=2, max_size=2)))
    elevation = sorted(draw(st.lists(st.floats(-math.pi / 2, math.pi / 2),
                                     min_size=2, max_size=2)))
    system = {"n_subcarriers": n, "cp_length": cp_length, "n_rx": n_rx,
              "n_pilots": n_pilots, "subcarrier_spacing": spacing,
              "snr_grid_db": draw(st.lists(snr_points, min_size=1, max_size=3,
                                           unique=True)),
              "n_trials": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 2 ** 63 - 1))}
    if draw(st.booleans()):
        system.update(carrier_freq=draw(st.floats(1e6, 1e12)),
                      symbol_power=draw(st.floats(1e-3, 1e3)))
    return {
        "system": system,
        "scenario": {"n_paths": n_paths, "n_dt_paths": draw(st.integers(1, n_paths)),
                     "delay_spread": delay_spread, "pdp_decay": draw(st.floats(-30, 30)),
                     "azimuth_range": azimuth, "elevation_range": elevation,
                     "array_spacing": draw(st.floats(0.05, 2.0)),
                     "pulse_rolloff": draw(st.floats(0.0, 0.99))},
        "estimator": {"tau_max": draw(st.floats(1e-12, 1e-4)),
                      "n_batch": draw(st.integers(1, 8)),
                      "bml_rank_spatial": draw(st.one_of(st.just("auto"),
                                                         st.integers(1, n_rx))),
                      "bml_rank_temporal": draw(st.one_of(st.just("auto"),
                                                          st.integers(1, n_pilots))),
                      "svd_rank_tolerance": draw(st.floats(1e-12, 0.5))},
    }


# Values that pass a plain sign check but overflow downstream: the sample
# interval 1 / (N * spacing) or the bandwidth, the steering phase
# 2 pi spacing n, or the delay window's tap count.
OVERFLOWING_FIELDS = [
    *[("system", "subcarrier_spacing", v) for v in (INF, 1e308, 5e-324)],
    *[("scenario", "array_spacing", v) for v in (INF, 1e308)],
    ("estimator", "tau_max", INF),
]

# One broken field each: (section, key, value); each value fails the check
# of its own field before any other.
BROKEN_FIELDS = [
    *OVERFLOWING_FIELDS,
    *[("system", "n_subcarriers", v) for v in (48, 1, "64", 64.5)],
    *[("system", "cp_length", v) for v in (-1, 2.5)],
    *[("system", "n_rx", v) for v in (0, True, None)],
    *[("system", "n_pilots", v) for v in (0, 3, "8")],
    *[("system", "subcarrier_spacing", v) for v in (0.0, -480e3, "480e3")],
    *[("system", "snr_grid_db", v) for v in ([], [NAN], [0.0, 0.0], "0",
                                             *([s] for s in BAD_SNRS))],
    *[("system", "n_trials", v) for v in (0, 1.5)],
    *[("system", "seed", v) for v in (-1, 2 ** 63)],
    *[("system", key, v) for key in ("carrier_freq", "symbol_power")
      for v in (0, -1, "1", True)],
    ("system", "n_antennas", 8),
    *[("scenario", "n_paths", v) for v in (0, 2.0)],
    *[("scenario", "n_dt_paths", v) for v in (0, 99)],
    *[("scenario", "delay_spread", v) for v in (0.0, -1e-7, 1.0)],
    *[("scenario", "pdp_decay", v) for v in (NAN, "x")],
    *[("scenario", key, v) for key in ("azimuth_range", "elevation_range")
      for v in ([1.0, 0.0], [0.0], [NAN, 0.0], 0.5)],
    *[("scenario", "array_spacing", v) for v in (0.0, -0.5)],
    *[("scenario", "pulse_rolloff", v) for v in (1.0, -0.1)],
    *[("estimator", "tau_max", v) for v in (0.0, -1e-6)],
    ("estimator", "n_batch", 0),
    *[("estimator", key, v) for key in ("bml_rank_spatial", "bml_rank_temporal")
      for v in (0, 99, "full")],
    *[("estimator", "svd_rank_tolerance", v) for v in (0.0, 1.0)],
    ("extras", None, {}),
]


def _list(values) -> str:
    return ",".join(str(v) for v in values)


@st.composite
def flag_sets(draw, command: str, config: dict, break_one: bool):
    """Flags the subcommand's parser takes, each drawn valid, or, with
    ``break_one``, one of them broken; returns ``(flags, name)`` with the
    name an exit-1 message must carry."""
    sweep = SWEEPS.get(command)
    seed = [f"--seed={draw(st.integers(0, 2 ** 63 - 1))}"] if draw(st.booleans()) else []
    if sweep is None:
        return (("--seed=-1",), "--seed") if break_one else (tuple(seed), None)
    n = config["system"]["n_subcarriers"]
    methods = draw(st.lists(st.sampled_from(sweep.methods), min_size=1, unique=True))
    valid = {"--trials": str(draw(st.integers(1, 2))),
             "--methods": _list(methods) if draw(st.booleans()) else None}
    broken = {"--trials": ["0"], "--seed": ["-1"],
              "--methods": ["foo", "", _list(methods * 2)]}
    if sweep.snrs:
        points = draw(st.lists(snr_points, min_size=1, max_size=2, unique=True))
        valid["--snr"] = _list(points) if draw(st.booleans()) else None
        broken["--snr"] = ["x", "", *(_list([0.0, s]) for s in BAD_SNRS)]
    if sweep.sweeps_pilots:
        counts = draw(st.lists(st.sampled_from([2 ** k for k in range(n.bit_length())]),
                               min_size=1, max_size=3, unique=True))
        valid["--pilots"] = _list(counts) if draw(st.booleans()) else None
        broken["--pilots"] = ["3", "0", str(2 * n), "x", _list(counts * 2)]
    name = None
    if break_one:
        name = draw(st.sampled_from(sorted(broken)))
        valid[name] = draw(st.sampled_from(broken[name]))
        seed = [] if name == "--seed" else seed
    flags = [f"{flag}={value}" for flag, value in valid.items() if value is not None]
    return tuple(seed + flags), name


MESSAGE_NAMES = {"--trials": "trials", "--seed": "seed", "--methods": "methods",
                 "--snr": "SNR", "--pilots": "pilot"}


@st.composite
def cases(draw, command: str) -> Case:
    config = draw(valid_configs())
    kind = draw(st.sampled_from(["valid", "field", "flag"]))
    flags, flag = draw(flag_sets(command, config, kind == "flag"))
    if kind == "field":
        section, key, value = draw(st.sampled_from(BROKEN_FIELDS))
        if key is None:
            config[section] = value
        else:
            config[section][key] = value
        return Case(command, config, flags, key or section)
    return Case(command, config, flags, MESSAGE_NAMES.get(flag))


def _finite_csv(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, f"{path.name} has no rows"
    for row in rows:
        for key, text in row.items():
            if key != "method" and text != "":
                assert math.isfinite(float(text)), f"{path.name}: {key}={text}"


def _tiny(**changes) -> dict:
    """A fixed small config with ``changes`` merged into its sections."""
    config = {"system": {"n_rx": 4, "n_subcarriers": 16, "cp_length": 8, "n_pilots": 8,
                         "n_trials": 2, "snr_grid_db": [-10.0, 0.0, 10.0]},
              "scenario": {"n_paths": 6, "n_dt_paths": 3},
              "estimator": {"n_batch": 8}}
    for section, fields in changes.items():
        config[section].update(fields)
    return config


def _run(case: Case) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(case.config))
        out = Path(tmp) / "out"
        argv = [case.command, "--config", str(config), *case.flags]
        if case.command != "validate":
            argv += ["--out", str(out)]
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()) as stdout, redirect_stderr(stderr):
            code = cli.main(argv)
        if case.broken is not None:
            assert code == 1, (code, stderr.getvalue())
            assert case.broken.lower() in stderr.getvalue().lower(), stderr.getvalue()
            return
        assert code == 0, (code, stderr.getvalue(), stdout.getvalue())
        for name in OUTPUTS.get(case.command, ()):
            path = out / name
            if name.endswith(".csv"):
                _finite_csv(path)
            else:
                svg = path.read_text()
                assert "<polyline" in svg and not re.search(r"\b(nan|inf)\b", svg), name


@pytest.mark.parametrize("command", SWEEPS)
@given(data=st.data())
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
def test_sweep_boundary(command, data):
    _run(data.draw(cases(command)))


@given(case=cases("validate"))
@settings(max_examples=6, derandomize=True, deadline=None, database=None)
def test_validate_boundary(case):
    _run(case)


# SNR points beyond any float64 noise variance, which overflowed (exit 2)
# before they were rejected, by flag and by config; the edge configs that
# ``validate`` used to fail are in test_validate.py.
@pytest.mark.parametrize("case", [
    pytest.param(Case("ecdf", _tiny(), ("--snr=4000", "--trials=1"), "SNR"),
                 id="ecdf-snr-4000"),
    pytest.param(Case("ecdf", _tiny(), ("--snr=-4000", "--trials=1"), "SNR"),
                 id="ecdf-snr-minus-4000"),
    pytest.param(Case("pilot-sweep", _tiny(), ("--snr=3080", "--pilots=2,8"), "SNR"),
                 id="pilot-sweep-snr-3080"),
    pytest.param(Case("nmse-sweep", _tiny(system={"snr_grid_db": [-3085.0, 0.0]}),
                      ("--trials=1",), "snr_grid_db"),
                 id="nmse-sweep-grid-at-minus-3085-dB"),
])
def test_snr_beyond_1000_db(case):
    _run(case)


@pytest.mark.parametrize("command", ["nmse-sweep", "validate"])
@pytest.mark.parametrize("section,key,value", OVERFLOWING_FIELDS,
                         ids=lambda v: v if isinstance(v, str) else repr(v))
def test_overflowing_field_exits_1_naming_it(command, section, key, value):
    """Each value exited 2 (an OverflowError, an SVD that did not converge),
    named another field, or ran on an infinite sample interval."""
    flags = ("--trials=1",) if command != "validate" else ()
    _run(Case(command, _tiny(**{section: {key: value}}), flags, key))


@pytest.mark.parametrize("command", ["nmse-sweep", "validate"])
@pytest.mark.parametrize("config", [
    pytest.param(_tiny(estimator={"tau_max": 1e308}), id="tau-max-1e308"),
    pytest.param(_tiny(system={"subcarrier_spacing": 1e-300},
                       estimator={"tau_max": 1e-30}), id="tau-max-below-a-float-of-taps"),
])
def test_delay_window_at_the_float_edges_runs(command, config):
    """A finite window wider than the grid keeps every tap, and a positive
    one too narrow to count in floats keeps tap 0: 1e308 s overflowed
    counting the taps (exit 2), and 1e-30 s at 1.25e299 s per tap counted none,
    which failed two ``validate`` checks."""
    flags = ("--trials=1",) if command != "validate" else ()
    _run(Case(command, config, flags, None))
