"""Benchmark of the chest sweeps: run each workload through the chest CLI in
fresh processes, check every run's outputs, and report end-to-end metrics
(``--trace 0``) or per-layer metrics from a traced run (``--trace 1``).

    python3 bench/run.py [--workload nmse-ref|pilot-c8|ecdf-desk|all]
                         [--seed N] [--seconds S] [--trace 0|1]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import ROOT, WORKLOADS, CheckFailed, Workload, check_outputs

BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
SETUP_PER_RUN = 3      # set-up probes after each timed run
MIN_RUNS = 2            # the determinism check compares at least two CSVs
RUN_BUDGET_S = 170.0    # one invocation per workload ends within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Proc:
    """One child process: exit code and what wait4 reports for its tree."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawned: float
    exited: float


@dataclass
class Run:
    """One chest CLI invocation of a workload, with its output check."""

    proc: Proc
    traced: bool
    workers: int
    digest: str = ""
    error: str = ""
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.proc.code == 0 and not self.error


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> Proc:
    """Run ``python3 argv`` from the checkout root; wall time from spawn to exit,
    CPU and peak RSS of the process and every child it waited for."""
    with open(log, "wb") as fh:
        spawned = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(deadline - spawned, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        exited = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(code=proc.returncode, wall_s=exited - spawned,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024.0, spawned=spawned, exited=exited)


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Bench:
    """Runs of one workload in one invocation, sharing output checks."""

    def __init__(self, workload: Workload, seed: int, deadline: float, directory: Path):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = directory
        directory.mkdir(parents=True, exist_ok=True)
        self.runs: list[Run] = []
        self.checked: dict[str, str] = {}     # CSV digest -> check error ("" if ok)

    def run(self, traced: bool = False, workers: int | None = None) -> Run:
        w = self.workload
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        cli = w.argv(self.seed, out, workers)
        trace_file = self.dir / "spans.json"
        if traced:
            trace_file.unlink(missing_ok=True)
            argv = [str(BENCH / "spans.py"), str(trace_file), "--", *cli]
        else:
            argv = ["-m", "chest", *cli]
        run = Run(proc=spawn(argv, self.dir / "run.log", self.deadline), traced=traced,
                  workers=w.workers if workers is None else workers)
        if run.proc.code != 0:
            run.error = f"exit code {run.proc.code}, see {self.dir / 'run.log'}"
        else:
            self._check(run, out)
        if traced and run.ok:
            self._read_spans(run, trace_file)
        self.runs.append(run)
        return run

    def _check(self, run: Run, out: Path) -> None:
        missing = [n for n in self.workload.outputs if not (out / n).is_file()]
        if missing:
            run.error = f"missing outputs {missing}"
            return
        run.digest = file_digest(out / self.workload.outputs[0])
        if run.digest not in self.checked:     # identical bytes pass or fail alike
            try:
                print(f"  check: {check_outputs(self.workload, out)}")
                self.checked[run.digest] = ""
            except CheckFailed as exc:
                self.checked[run.digest] = str(exc)
        run.error = self.checked[run.digest]
        first = next((r.digest for r in self.runs if r.digest), run.digest)
        if not run.error and run.digest != first:
            run.error = f"CSV differs from the first run of this seed (workers {run.workers})"

    def _read_spans(self, run: Run, trace_file: Path) -> None:
        try:
            data = json.loads(trace_file.read_text())
        except (OSError, ValueError) as exc:
            run.error = f"no spans: {exc}"
            return
        all_spans = spans.with_process_span(data["spans"], run.proc.spawned,
                                            run.proc.exited)
        run.layer = spans.layer_metrics(all_spans, data["counters"],
                                        data["substream_keys"])
        total = spans.self_time_sum(run.layer)
        print(f"  traced --workers {run.workers}: {len(all_spans)} spans, "
              f"self times sum to {total:.4f} s, traced wall_s {run.proc.wall_s:.4f} s")

    def setup_times(self, reps: int) -> list[float]:
        """Wall times of ``reps`` set-up probes; a failing probe counts as a
        failed run and ends the probes."""
        argv = [str(BENCH / "workloads.py"), "setup", self.workload.name, str(self.seed)]
        times = []
        for _ in range(reps):
            proc = spawn(argv, self.dir / "setup.log", self.deadline)
            if proc.code != 0:
                self.runs.append(Run(proc=proc, traced=False, workers=1,
                                     error=f"set-up probe exit code {proc.code}, "
                                           f"see {self.dir / 'setup.log'}"))
                break
            times.append(proc.wall_s)
        return times

    def repeat(self, batch, seconds: float, at_least: int) -> None:
        """Call ``batch`` until less than half a call of ``seconds`` is left and
        it ran ``at_least`` times, unless one more call would overrun the
        invocation's deadline.  Stopping at the nearest call keeps the timed
        loop about ``seconds`` long whatever a call takes."""
        started = time.perf_counter()
        done = 0
        while True:
            t0 = time.perf_counter()
            batch()
            done += 1
            now = time.perf_counter()
            last = now - t0
            if now + last > self.deadline or \
                    (done >= at_least and now - started + last / 2 >= seconds):
                return


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics from untraced runs for ``seconds``.  Set-up probes
    alternate with the timed runs, so that both sample the same stretch of
    the host's load."""
    bench.setup_times(1)                # warms the file cache; not counted
    timed: list[Run] = []
    setup: list[float] = []

    def cycle():
        timed.append(bench.run())
        setup.extend(bench.setup_times(SETUP_PER_RUN))
    bench.repeat(cycle, seconds, MIN_RUNS)
    if bench.workload.workers > 1:      # results must not depend on the pool
        bench.run(workers=1)
    return {"wall_s": median([r.proc.wall_s for r in timed]),
            "setup_s": median(setup),
            "cpu_s": median([r.proc.cpu_s for r in timed]),
            "peak_rss_mb": median([r.proc.peak_rss_mb for r in timed])}


def trace(bench: Bench, seconds: float) -> dict[str, float]:
    """Per-layer metrics from traced runs, alternated with untraced ones.

    With a pool, worker-side layer metrics come from a traced --workers 1 run of
    the same inputs, since spans in forked workers are not recorded.
    """
    pooled = bench.workload.workers > 1

    def cycle():
        bench.run()
        bench.run(traced=True)
        if pooled:
            bench.run(traced=True, workers=1)
    bench.repeat(cycle, seconds, 1)
    plain = [r.proc.wall_s for r in bench.runs if not r.traced]
    traced = [r for r in bench.runs if r.traced and r.workers == bench.workload.workers]
    metrics = {name: median([r.layer.get(name, 0.0) for r in traced if r.layer])
               for name in spans.PER_LAYER}
    if pooled:
        serial = [r for r in bench.runs if r.traced and r.workers == 1 and r.layer]
        for name in spans.PER_LAYER:
            if name.startswith(spans.WORKER_SIDE):
                metrics[name] = median([r.layer[name] for r in serial])
        print("  worker-side metrics (" + ", ".join(p + "*" for p in spans.WORKER_SIDE)
              + ") come from a traced --workers 1 run of the same inputs")
    metrics["trace.overhead_s"] = median([r.proc.wall_s for r in traced]) - median(plain)
    metrics["trace.errors"] = sum(r.layer.get("trace.errors", 0.0) for r in bench.runs)
    return metrics


def git_commit() -> str:
    """Commit of the checkout from .git, without running git (which would
    search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# Run in a child, so that numpy never loads into the benchmark process.
VERSIONS = """import json, numpy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"numpy": numpy.__version__,
                  "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}))"""


def environment(seed: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", VERSIONS], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    versions = json.loads(proc.stdout) if proc.returncode == 0 else {"numpy": "?"}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **THREADS, "python": platform.python_version(), **versions,
            "commit": git_commit(), "seed": seed}


def outcome(runs: list[Run]) -> dict:
    """Runs attempted and failed; a run fails on a non-zero exit code or a
    failed output check, the determinism check included."""
    failed = sum(1 for r in runs if not r.ok)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed}


def fail_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool,
                 env_info: dict) -> dict:
    print(f"{workload.name}:")
    deadline = time.perf_counter() + RUN_BUDGET_S
    bench = Bench(workload, seed, deadline, OUT / workload.name)
    metrics = (trace if traced else measure)(bench, seconds)
    units = spans.PER_LAYER if traced else END_TO_END
    for r in bench.runs:
        if r.error:
            print(f"  FAILED run (traced={r.traced}, workers {r.workers}): {r.error}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = outcome(bench.runs)
    print(f"  fail_frac = {fail_frac(result):.6g} 1 "
          f"({result['failed']} of {result['attempted']} runs)")
    result["metrics"] = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    # Children start with this process's peak RSS, which must stay below theirs.
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"workload": workload.name, "trace": traced, "environment": env_info,
              "bench_peak_rss_mb": own_rss_mb,
              "runs": [{"traced": r.traced, "workers": r.workers, "code": r.proc.code,
                        "wall_s": r.proc.wall_s, "cpu_s": r.proc.cpu_s,
                        "peak_rss_mb": r.proc.peak_rss_mb, "error": r.error}
                       for r in bench.runs], **result}
    (OUT / f"{workload.name}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return result


def missing_program() -> list[str]:
    needed = [ROOT / "src" / "chest" / "__init__.py"]
    needed += [w.config for w in WORKLOADS.values() if w.config is not None]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=5,
                        help="seed of the workload inputs (chest --seed)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="how long each workload's timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_program()
    if missing:
        print(f"error: chest sources not found in {ROOT}: {missing}", file=sys.stderr)
        return 2
    seed = args.seed % 2 ** 32
    OUT.mkdir(exist_ok=True)
    env_info = environment(seed)
    print("environment: " + json.dumps(env_info))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], seed, args.seconds, bool(args.trace), env_info)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
