"""Pinned output bytes: every CSV and SVG of a fixed set of small runs, and the
stdout of ``chest validate``, hash to the SHA-256 digests in ``golden.json``.

The runs go through ``cli.main`` in-process.  A change that moves output bytes
on purpose regenerates the file and says which files moved and why:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from chest import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden.json")
CONFIGS = ROOT / "configs"

# Each run's CLI arguments, without --out; "validate" is hashed by its stdout.
RUNS = {
    "nmse-desk": ["nmse-sweep", "--trials", "100"],
    "nmse-desk-workers-2": ["nmse-sweep", "--trials", "100", "--workers", "2"],
    "se-desk": ["se-sweep", "--trials", "100"],
    "se-desk-workers-2": ["se-sweep", "--trials", "100", "--workers", "2"],
    "ecdf-desk": ["ecdf", "--trials", "100"],
    "ecdf-desk-workers-2": ["ecdf", "--trials", "100", "--workers", "2"],
    "ecdf-one-point": ["ecdf", "--trials", "20", "--snr=0"],
    "pilot": ["pilot-sweep", "--config", str(CONFIGS / "pilot.json"), "--trials", "20"],
    "pilot-workers-2": ["pilot-sweep", "--config", str(CONFIGS / "pilot.json"),
                        "--trials", "20", "--workers", "2"],
    "nmse-reference": ["nmse-sweep", "--config", str(CONFIGS / "reference.json"),
                       "--trials", "20"],
    "ecdf-reference": ["ecdf", "--config", str(CONFIGS / "reference.json"),
                       "--trials", "20"],
    "se-reference": ["se-sweep", "--config", str(CONFIGS / "reference.json"),
                     "--trials", "20"],
    "pilot-one-workers-2": ["pilot-sweep", "--pilots", "1,2,4", "--trials", "20",
                            "--workers", "2"],
    "pilot-full-scale": ["pilot-sweep", "--config", str(CONFIGS / "full-scale.json"),
                         "--pilots", "2048", "--trials", "4"],
    "validate": ["validate"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(out: Path) -> dict[str, str]:
    """``{"<run>/<file>": sha256}`` for every file each run writes under
    ``out/<run>``, and ``"validate/stdout"``."""
    digests = {}
    for name, argv in RUNS.items():
        stdout = io.StringIO()
        sweep = argv[0] != "validate"
        with contextlib.redirect_stdout(stdout):
            status = cli.main(argv + ["--out", str(out / name)] if sweep else argv)
        assert status == 0, f"{name} exited with status {status}"
        if sweep:
            digests.update((f"{name}/{f.name}", _sha256(f.read_bytes()))
                           for f in sorted((out / name).iterdir()))
        else:
            digests[f"{name}/stdout"] = _sha256(stdout.getvalue().encode())
    return digests


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = output_digests(tmp_path)
    moved = sorted(key for key in golden["sha256"].keys() | got.keys()
                   if golden["sha256"].get(key) != got.get(key))
    assert moved == [], (f"output bytes moved in {moved}; golden.json was made with "
                         f"numpy {golden['numpy']}, this run has numpy {np.__version__}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = output_digests(Path(tmp))
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "sha256": digests},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
