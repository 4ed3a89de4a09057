"""CLI behavior through real subprocesses: exit codes, artifacts, overrides.

The `validate` subcommand is exercised by the acceptance suite; here we cover
the experiment subcommands with a deliberately small configuration, and check
in process that the parser follows the sweep table.
"""
import argparse
import ast
import csv
import importlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from chest.cli import WRITERS, _build_parser
from chest.config import load_config
from chest.experiments import SWEEPS

CMD = [sys.executable, "-m", "chest"]
ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "system": {"n_rx": 4, "n_subcarriers": 16, "cp_length": 8, "n_pilots": 8,
               "n_trials": 12, "snr_grid_db": [-10.0, 0.0, 10.0]},
    "scenario": {"n_paths": 6, "n_dt_paths": 3},
    "estimator": {"n_batch": 8},
}


def run_cli(*argv, timeout=120):
    return subprocess.run(CMD + list(argv), capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture
def tiny_json(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    return cfg


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestNmseSweepCommand:
    def test_writes_csv_and_svg(self, tiny_json, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert (out / "nmse.csv").exists() and (out / "nmse.svg").exists()
        assert "nmse.csv" in proc.stdout
        rows = read_rows(out / "nmse.csv")
        assert len(rows) == 12
        assert {r["method"] for r in rows} == {"ls", "denoise", "bml", "emdt"}
        svg = (out / "nmse.svg").read_text()
        assert svg.startswith("<svg") or "<svg" in svg

    def test_trials_and_seed_overrides(self, tiny_json, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(out),
                       "--trials", "5", "--seed", "123", "--methods", "ls")
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(out / "nmse.csv")
        assert all(r["trials"] == "5" for r in rows)
        again = tmp_path / "again"
        run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(again),
                "--trials", "5", "--seed", "123", "--methods", "ls")
        assert (out / "nmse.csv").read_bytes() == (again / "nmse.csv").read_bytes()
        other = tmp_path / "other"
        run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(other),
                "--trials", "5", "--seed", "124", "--methods", "ls")
        assert (out / "nmse.csv").read_bytes() != (other / "nmse.csv").read_bytes()

    def test_worker_count_is_invisible_in_output(self, tiny_json, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(a),
                "--methods", "ls,emdt")
        run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(b),
                "--methods", "ls,emdt", "--workers", "2")
        assert (a / "nmse.csv").read_bytes() == (b / "nmse.csv").read_bytes()

    @pytest.mark.parametrize("command,stem,extra", [
        ("ecdf", "ecdf", ("--snr=-10,5",)),
        ("se-sweep", "se", ()),
        ("pilot-sweep", "pilot", ("--pilots", "2,8", "--snr=-15,0")),
    ])
    def test_worker_count_is_invisible_in_every_csv(self, tiny_json, tmp_path,
                                                    command, stem, extra):
        """110 trials make three chunks of 50, so two workers share them."""
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            proc = run_cli(command, "--config", str(tiny_json), "--out", str(out),
                           "--trials", "110", "--workers", workers, *extra)
            assert proc.returncode == 0, proc.stderr
            outs.append((out / f"{stem}.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_path_csv_import(self, tiny_json, tmp_path):
        paths = tmp_path / "paths.csv"
        paths.write_text("theta_rad,phi_rad,tau_s,alpha\n"
                         "0.1,-0.4,1e-7,0.8\n"
                         "-0.3,0.9,3e-7,0.6\n")
        out = tmp_path / "run"
        proc = run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(out),
                       "--paths", str(paths), "--methods", "ls,emdt")
        assert proc.returncode == 0, proc.stderr
        assert (out / "nmse.csv").exists()


class TestDefaultMethods:
    """Without --methods every default method is run, written and plotted."""

    @pytest.mark.parametrize("command,stem,methods,extra", [
        ("nmse-sweep", "nmse", ("ls", "denoise", "bml", "emdt"), ("emdt analytic",)),
        ("se-sweep", "se", ("ideal", "ls", "denoise", "bml", "emdt"), ()),
    ])
    def test_one_series_per_default_method(self, tiny_json, tmp_path, command,
                                           stem, methods, extra):
        out = tmp_path / "run"
        proc = run_cli(command, "--config", str(tiny_json), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert {r["method"] for r in read_rows(out / f"{stem}.csv")} == set(methods)
        svg = (out / f"{stem}.svg").read_text()
        labels = re.findall(r'<text x="[0-9.]+" y="[0-9.]+">([^<]+)</text>', svg)
        assert svg.count("<polyline") == len(methods) + len(extra)
        assert labels == list(methods + extra)


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        payload = dict(TINY)
        payload["system"] = dict(TINY["system"], n_antennas=8)
        cfg.write_text(json.dumps(payload))
        proc = run_cli("nmse-sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        proc = run_cli("nmse-sweep", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1

    def test_invalid_method_for_kind(self, tiny_json, tmp_path):
        proc = run_cli("nmse-sweep", "--config", str(tiny_json),
                       "--out", str(tmp_path / "o"), "--methods", "ideal")
        assert proc.returncode == 1

    def test_bad_paths_csv(self, tiny_json, tmp_path):
        bad = tmp_path / "paths.csv"
        bad.write_text("delay,power\n1e-7,0.5\n")
        proc = run_cli("nmse-sweep", "--config", str(tiny_json),
                       "--out", str(tmp_path / "o"), "--paths", str(bad))
        assert proc.returncode == 1

    @pytest.mark.parametrize("section,key,value", [
        ("system", "n_rx", "16"),
        ("system", "n_rx", 16.5),
        ("system", "n_rx", True),
        ("system", "n_rx", None),
        ("system", "n_trials", 2.5),
    ])
    def test_mistyped_config_value_is_config_error(self, tmp_path, section, key, value):
        cfg = tmp_path / "bad.json"
        payload = dict(TINY)
        payload[section] = dict(TINY[section], **{key: value})
        cfg.write_text(json.dumps(payload))
        proc = run_cli("nmse-sweep", "--config", str(cfg),
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert f"{section}.{key}" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rows", [
        "0.1,-0.4,nan,0.8\n-0.3,0.9,3e-7,0.6\n",
        "0.1,-0.4,1e-7,0\n-0.3,0.9,3e-7,0\n",
    ], ids=["nan", "all-zero-amplitude"])
    def test_invalid_paths_csv_values(self, tiny_json, tmp_path, rows):
        bad = tmp_path / "paths.csv"
        bad.write_text("theta_rad,phi_rad,tau_s,alpha\n" + rows)
        proc = run_cli("nmse-sweep", "--config", str(tiny_json),
                       "--out", str(tmp_path / "o"), "--paths", str(bad))
        assert proc.returncode == 1, proc.stderr
        assert "path CSV" in proc.stderr

    @pytest.mark.parametrize("argv,message", [
        (("nmse-sweep", "--methods", "ls,ls"), "methods repeat"),
        (("pilot-sweep", "--snr=0,0"), "SNR points repeat"),
        (("ecdf", "--snr=-10,-10"), "SNR points repeat"),
        (("ecdf", "--snr=-10,-10.0"), "SNR points repeat"),
        (("ecdf", "--snr="), "expected comma-separated numbers"),
        (("pilot-sweep", "--snr="), "expected comma-separated numbers"),
        (("nmse-sweep", "--methods="), "methods [''] not valid"),
        (("ecdf", "--methods="), "methods [''] not valid"),
        (("pilot-sweep", "--pilots="), "expected comma-separated integers"),
        (("pilot-sweep", "--pilots=4,4"), "pilot counts repeat"),
    ])
    def test_repeated_or_empty_lists_are_config_errors(self, tiny_json, tmp_path,
                                                       argv, message):
        """A repeated method, SNR point or pilot count would write its rows
        twice (an ECDF would silently lose a table), and an empty --snr=,
        --methods= or --pilots= list is no list, not a request for the
        defaults."""
        proc = run_cli(*argv, "--config", str(tiny_json), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert message in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [("ecdf", "--snr=nan"), ("ecdf", "--snr=-10,inf"),
                                      ("pilot-sweep", "--snr=nan")])
    def test_non_finite_snr_is_config_error(self, tiny_json, tmp_path, argv):
        proc = run_cli(*argv, "--config", str(tiny_json), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert "SNR points must be finite" in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_repeated_snr_grid_entry_is_config_error(self, tmp_path):
        cfg = tmp_path / "repeat.json"
        cfg.write_text(json.dumps(dict(TINY, system=dict(TINY["system"],
                                                         snr_grid_db=[0.0, 5.0, 0.0]))))
        proc = run_cli("nmse-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert proc.returncode == 1, proc.stderr
        assert "snr_grid_db entries repeat" in proc.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
    def test_blocked_output_directory_is_config_error(self, tiny_json, tmp_path, under):
        """An ``--out`` that exists as a regular file, or lies under one,
        cannot be made a directory: a configuration error naming ``--out``,
        raised before the sweep runs."""
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        out = blocker / "o" if under else blocker
        proc = run_cli("nmse-sweep", "--config", str(tiny_json), "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert f"error: --out: cannot create directory {out}" in proc.stderr
        assert "runtime" not in proc.stderr.lower() and proc.stdout == ""
        assert blocker.read_text() == "not a directory"

    def test_missing_subcommand_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--trials", "5"],
                                      ["--methods", "ls"], ["--paths", "x.csv"]])
    def test_validate_rejects_sweep_flags(self, flag):
        """`validate` takes --config and --seed only; a sweep flag it would
        ignore is a usage error."""
        proc = run_cli("validate", *flag)
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()


class TestOtherCommands:
    def test_se_sweep(self, tiny_json, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("se-sweep", "--config", str(tiny_json), "--out", str(out),
                       "--methods", "ideal,ls,emdt")
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(out / "se.csv")
        assert {r["method"] for r in rows} == {"ideal", "ls", "emdt"}
        assert all(r["se_bps_hz"] != "" for r in rows)
        assert (out / "se.svg").exists()

    def test_ecdf_custom_snr(self, tiny_json, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("ecdf", "--config", str(tiny_json), "--out", str(out),
                       "--snr", "-5", "--methods", "ideal,emdt")
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(out / "ecdf.csv")
        assert {r["method"] for r in rows} == {"ideal", "emdt"}
        assert {r["snr_db"] for r in rows} == {"-5"}
        assert (out / "ecdf.svg").exists()

    def test_pilot_sweep_subset(self, tiny_json, tmp_path):
        out = tmp_path / "run"
        proc = run_cli("pilot-sweep", "--config", str(tiny_json), "--out", str(out),
                       "--pilots", "2,8", "--snr", "0")
        assert proc.returncode == 0, proc.stderr
        rows = read_rows(out / "pilot.csv")
        assert {r["n_pilots"] for r in rows} == {"2", "8"}
        assert {r["method"] for r in rows} == {"ls", "emdt"}
        assert (out / "pilot_nmse.svg").exists()
        assert (out / "pilot_se.svg").exists()

    def test_pilot_sweep_ignores_batch_ml_ranks(self, tmp_path):
        """A pilot sweep runs no batch-ML, so a rank that fits only the
        configured pilot count neither stops it nor changes its output."""
        written = []
        for name, estimator in (("rank", {"bml_rank_temporal": 8}), ("plain", {})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"estimator": estimator}))
            proc = run_cli("pilot-sweep", "--config", str(cfg), "--trials", "4",
                           "--out", str(tmp_path / name))
            assert proc.returncode == 0, proc.stderr
            written.append((tmp_path / name / "pilot.csv").read_bytes())
        assert written[0] == written[1]

    def test_batch_ml_rank_above_pilot_count_is_config_error(self, tmp_path):
        cfg = tmp_path / "rank.json"
        cfg.write_text(json.dumps({"estimator": {"bml_rank_temporal": 40}}))
        proc = run_cli("nmse-sweep", "--config", str(cfg), "--trials", "4",
                       "--out", str(tmp_path / "o"))
        assert proc.returncode == 1
        assert "bml_rank_temporal" in proc.stderr

    def test_pilot_count_not_dividing_grid(self, tiny_json, tmp_path):
        proc = run_cli("pilot-sweep", "--config", str(tiny_json),
                       "--out", str(tmp_path / "o"), "--pilots", "3")
        assert proc.returncode == 1


class TestSubcommandsFollowTheSweepTable:
    def test_sweep_subcommands_are_the_table_and_the_writers(self):
        [sub] = [a for a in _build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == [*SWEEPS, "validate"]
        assert list(WRITERS) == list(SWEEPS)

    @pytest.mark.parametrize("kind", ["ecdf", "pilot-sweep"])
    def test_snr_help_shows_the_tables_default(self, kind, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args([kind, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        default = ",".join(str(s) for s in SWEEPS[kind].snrs)
        assert f"(default {default})" in text


class TestReadme:
    def test_every_readme_command_parses_and_loads_its_config(self):
        """Every `chest ...` line of the README's sh blocks is a valid command
        line, and every config file it names loads."""
        text = (ROOT / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", text, re.S):
            for line in block.splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["chest"]:
                    commands.append(argv[1:])
        assert len(commands) >= 5
        for argv in commands:
            args = _build_parser().parse_args(argv)
            if args.config is not None:
                load_config(ROOT / args.config)

    def test_every_name_a_readme_python_block_imports_from_chest_exists(self):
        """Every ``from chest... import`` line of the README's python blocks
        names things the package or its module has."""
        text = (ROOT / "README.md").read_text()
        imports = [node for block in re.findall(r"```python\n(.*?)```", text, re.S)
                   for node in ast.walk(ast.parse(block))
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "chest"]
        assert len(imports) >= 2
        missing = [f"{node.module}.{alias.name}" for node in imports
                   for alias in node.names
                   if not hasattr(importlib.import_module(node.module), alias.name)]
        assert missing == []


def test_importing_cli_leaves_validate_unloaded():
    """The invariant suite is imported only by `chest validate`."""
    code = "import sys, chest.cli; print('chest.validate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


# Imports chest, runs one-worker sweeps and then a two-worker ECDF in one
# interpreter, printing after each step whether the pool machinery is loaded.
POOL_LOADING = """import sys
import chest
import chest.cli
config, out = sys.argv[1:]
POOL = ("multiprocessing", "concurrent.futures.process")
def loaded(step):
    print(step, *(m in sys.modules for m in POOL))
loaded("import")
for name, argv in [("nmse", ["nmse-sweep", "--trials", "2", "--workers", "1"]),
                   ("ecdf-1", ["ecdf", "--trials", "60", "--workers", "1"]),
                   ("ecdf-2", ["ecdf", "--trials", "60", "--workers", "2"])]:
    code = chest.cli.main([*argv, "--config", config, "--out", f"{out}/{name}"])
    assert code == 0, name
    loaded(name)
"""


def test_pool_machinery_loads_only_when_a_pool_starts(tiny_json, tmp_path):
    """No run loads ``multiprocessing`` or ``concurrent.futures.process``
    (about 2 MB resident): not `import chest`, not one-worker sweeps, and not
    an ECDF of two chunks on two workers, whose workers are plain forks and
    which writes the bytes of its one-worker run."""
    res = subprocess.run([sys.executable, "-c", POOL_LOADING, str(tiny_json),
                          str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    steps = [line.split() for line in res.stdout.splitlines()
             if not line.startswith("wrote ")]
    assert steps == [["import", "False", "False"], ["nmse", "False", "False"],
                     ["ecdf-1", "False", "False"], ["ecdf-2", "False", "False"]]
    assert (tmp_path / "ecdf-2" / "ecdf.csv").read_bytes() == \
        (tmp_path / "ecdf-1" / "ecdf.csv").read_bytes()


# Runs its arguments and prints their exit code and wait4 ru_maxrss (kB), then
# their output.  A child's ru_maxrss starts at the peak of the process that
# spawned it, as exec records the old address space's high-water mark, so the
# command is spawned from this small process rather than from the test run.
WAIT4 = ("import os, subprocess, sys\n"
         "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)\n"
         "out = proc.stdout.read().decode()\n"
         "_, status, usage = os.wait4(proc.pid, 0)\n"
         "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
         "print(out, end='')\n")


def run_cli_peak(*argv, timeout=180):
    """Run the CLI through the WAIT4 launcher: its exit status, peak resident
    MB, stdout lines and stderr."""
    proc = subprocess.run([sys.executable, "-c", WAIT4, *CMD, *argv],
                          capture_output=True, text=True, timeout=timeout)
    head, *lines = proc.stdout.splitlines()
    status, max_rss_kb = map(int, head.split())
    return status, max_rss_kb / 1024, lines, proc.stderr


def test_full_scale_pilot_sweep_peaks_under_100_mb(tmp_path):
    """The full-scale pilot sweep at 2048 pilots (64 x 2048 per trial) stays
    under 100 MB resident: its chunks hold one slice of trials at a time."""
    status, peak_mb, _, stderr = run_cli_peak(
        "pilot-sweep", "--config", str(ROOT / "configs" / "full-scale.json"),
        "--pilots", "2048", "--trials", "16", "--out", str(tmp_path))
    assert status == 0, stderr
    assert (tmp_path / "pilot.csv").is_file()
    assert peak_mb < 100, f"peak RSS {peak_mb:.1f} MB"


def test_full_scale_validate_peaks_under_100_mb():
    """`chest validate` on the reference config (64 antennas) passes all 12
    checks under 100 MB resident: its slow paths form each side's dense
    projector, never the (n_rx n_pilots)-square Kronecker product of the two."""
    status, peak_mb, lines, stderr = run_cli_peak(
        "validate", "--config", str(ROOT / "configs" / "reference.json"))
    assert status == 0, "\n".join(lines) + stderr
    assert lines[-1] == "12/12 checks passed"
    assert peak_mb < 100, f"peak RSS {peak_mb:.1f} MB"
