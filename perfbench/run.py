"""End-to-end benchmark of ``python -m repro campaign``, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One invocation measures one workload (see ``workloads.py``):

1. Set-up: write the spec generated from ``--seed`` (sweep workload)
   and run the reference, the scalar serial path, into a fresh SQLite
   store.
2. Repetitions for half of ``--seconds``: each one starts the real CLI
   in a fresh directory with a fresh store and a ``REPRO_*``-free
   environment, and waits for it to exit.
3. Set-up again, which must reproduce the reference, and repetitions
   for the other half.  ``setup_s`` is the median of the two set-ups.
   Every repetition's store and printed report are then checked
   against the reference.  Each repetition is timed between two
   :func:`calibrate` runs, which measure the host's speed at the time.
4. With ``--trace 1``, one more repetition runs under
   ``traced_cli.py`` and its spans give the per-layer metrics
   (``analyze.py``); the median untraced wall gives the tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (cells, over every repetition) and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The lines above it also give the raw ``wall_s``,
``cpu_s`` and ``cells_per_s``.  Exit status 0 means every cell matched the reference
and no run left files in the repository root; 1 means not; 2 means
the directory holds no repro sources to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from analyze import PER_LAYER, analyze
from launcher import LAUNCH, Launcher
from workloads import REFERENCE, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for run directories, inside the checkout.
SCRATCH = ROOT / ".perfbench_tmp"

SETUP_REPEATS = 2
#: The whole invocation must end within this many seconds.
BUDGET_S = 170.0
#: Record fields that may differ from the reference (scripts/diff_stores.py).
IGNORED_FIELDS = frozenset({"elapsed_s", "span_id"})

#: Iterations of the calibration loop: about 0.05 s on a 2-vCPU Xeon VM.
CALIBRATION_LOOPS = 1_000_000
#: Before and after each run, calibrate for this share of the last run's
#: wall (at least once), so slow workloads get as steady a host speed
#: as fast ones, which make many more runs.
CALIBRATION_SHARE = 0.05

END_TO_END = (
    ("wall_cal", "cal"),
    ("cpu_cal", "cal"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
#: Raw medians, printed in the report but not bounded (see :func:`calibrate`).
MEASURED = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("cells_per_s", "1/s"),
    ("cal_s", "s"),
)
PER_LAYER_METRICS = (*PER_LAYER, ("host.cal_s", "s"))
#: How the report's medians that are not medians of samples are computed.
DERIVED = {"wall_cal": "wall_s / cal_s", "cpu_cal": "cpu_s / cal_s",
           "cells_per_s": "cells / wall_s"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad reference, timeout...)."""


@dataclass
class Proc:
    """One finished CLI process."""

    code: int
    launch: float
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


@dataclass
class Reference:
    spec_args: list[str]
    store: Path
    records: dict[str, dict]
    report: str
    seconds: float


def child_env() -> dict[str, str]:
    """The caller's environment without ``REPRO_*``, importing repro from ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Session:
    """Starts measured processes through the launcher, in a hermetic env."""

    def __init__(self, launcher: Launcher, deadline: float) -> None:
        self.launcher = launcher
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], cwd: Path) -> Proc:
        """Run ``argv`` in ``cwd`` to exit; :data:`LAUNCH` becomes its launch time."""
        result = self.launcher.run(argv, cwd, self.env,
                                   self.deadline - time.perf_counter())
        return Proc(**result,
                    stdout=(cwd / "stdout.txt").read_text(errors="replace"))


def read_store(path: Path) -> tuple[dict[str, dict], int]:
    """(records by key without :data:`IGNORED_FIELDS`, number of rows)."""
    from repro.campaigns.stores import open_store

    if not path.exists():
        return {}, 0
    store = open_store(f"sqlite:{path}")
    try:
        rows = list(store.records())
    finally:
        store.close()
    records = {r["key"]: {k: v for k, v in r.items() if k not in IGNORED_FIELDS}
               for r in rows}
    return records, len(rows)


def report_of(stdout: str) -> str:
    """The printed aggregate report: everything from its ``== `` title on."""
    lines = stdout.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith("== ")),
                 len(lines))
    return "\n".join(lines[start:])


def count_failures(proc: Proc, store: Path, ref: Reference) -> int:
    """Cells of one run that are missing, errors, or differ from the reference.

    A non-zero exit or a report that differs from the reference's fails
    every cell: the user saw a wrong result.
    """
    cells = len(ref.records)
    if proc.code != 0 or report_of(proc.stdout) != ref.report:
        return cells
    records, rows = read_store(store)
    bad = sum(1 for key, rec in ref.records.items()
              if "error" in rec or records.get(key) != rec)
    extra = len(records.keys() - ref.records.keys()) + rows - len(records)
    return min(cells, bad + extra)


def set_up(session: Session, workload: Workload, seed: int,
           directory: Path) -> Reference:
    """Write the inputs and run the reference; time the whole of it."""
    start = time.perf_counter()
    directory.mkdir()
    spec_args = workload.spec_args(seed, directory)
    store = directory / "reference.db"
    proc = session.run([sys.executable, "-m", "repro", *REFERENCE,
                        *spec_args, "--store", f"sqlite:{store}"], directory)
    if proc.code != 0:
        stderr = (directory / "stderr.txt").read_text(errors="replace")
        raise BenchError(f"reference run exited {proc.code}:\n{stderr[-2000:]}")
    records, _rows = read_store(store)
    return Reference(spec_args, store, records, report_of(proc.stdout),
                     time.perf_counter() - start)


def run_rep(session: Session, workload: Workload, ref: Reference,
            directory: Path, trace_dir: Path | None = None) -> tuple[Proc, Path]:
    """One measured CLI run in ``directory``: (process, its store)."""
    directory.mkdir()
    store = directory / "store.db"
    cli =[*workload.args, *ref.spec_args, "--store", f"sqlite:{store}"]
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro", *cli]
    else:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_dir),
                LAUNCH, "--", *cli]
    return session.run(argv, directory), store


def fingerprint() -> dict:
    """What makes two results comparable: host, toolchain and code."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy,
            "git_sha": git_sha(), "src_sha256": digest.hexdigest()[:16]}


def git_sha() -> str | None:
    """HEAD's commit when the checkout is a git repository, else ``None``."""
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
    return None


def calibrate() -> float:
    """Seconds this process takes for a fixed pure-Python loop.

    A shared host's speed drifts by tens of percent within minutes, and
    every CLI run drifts with it: on a 2-vCPU VM the median wall of one
    invocation differed from the next by 20% with nothing else changed.
    This loop slows down with the host but never changes with the code,
    so the median run time divided by the median of the calibrations
    taken around the runs (``wall_cal``, ``cpu_cal``) compares commits
    measured at different host speeds.  On that VM, over ten invocations,
    it cut the spread (IQR / median) of paper-tables' wall from 0.15 to
    0.08, and of the batch-wide preset's from 0.54 to 0.12.  The raw
    seconds are printed beside it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    return time.perf_counter() - start


def calibrations(seconds: float) -> list[float]:
    """:func:`calibrate` repeatedly for ``seconds``, at least once."""
    stop = time.perf_counter() + seconds
    times = [calibrate()]
    while time.perf_counter() < stop:
        times.append(calibrate())
    return times


def measure(session: Session, workload: Workload, seed: int, seconds: float,
            trace: bool, run_dir: Path) -> dict:
    setups = [set_up(session, workload, seed, run_dir / "setup0")]
    ref = setups[0]
    runs: list[tuple[Proc, Path]] = []
    cals: list[float] = []
    # One measuring window follows each set-up, so the runs sample the
    # host (whose speed drifts over tens of seconds) across the whole
    # invocation instead of one stretch of it.  Stores are checked after
    # the windows, so the checks do not thin out the samples.
    for window in range(SETUP_REPEATS):
        if window:
            setups.append(set_up(session, workload, seed,
                                 run_dir / f"setup{window}"))
            if (setups[-1].records, setups[-1].report) != (ref.records,
                                                           ref.report):
                raise BenchError("two reference runs of the same inputs differ")
        first = len(runs)
        stop = time.perf_counter() + seconds / SETUP_REPEATS
        while len(runs) == first or time.perf_counter() < stop:
            if runs and (time.perf_counter() + 2 * runs[-1][0].wall
                         > session.deadline):
                break
            share = CALIBRATION_SHARE * (runs[-1][0].wall if runs else 0.0)
            cals.extend(calibrations(share))
            runs.append(run_rep(session, workload, ref,
                                run_dir / f"run{len(runs)}"))
            cals.extend(calibrations(share))
    attempted = len(runs) * len(ref.records)
    failed = sum(count_failures(proc, store, ref) for proc, store in runs)

    samples = {
        "peak_rss_mb": [p.rss_mb for p, _ in runs],
        "setup_s": [s.seconds for s in setups],
        "wall_s": [p.wall for p, _ in runs],
        "cpu_s": [p.cpu for p, _ in runs],
        "cal_s": cals,
    }
    medians = {name: statistics.median(v) for name, v in samples.items()}
    medians["wall_cal"] = medians["wall_s"] / medians["cal_s"]
    medians["cpu_cal"] = medians["cpu_s"] / medians["cal_s"]
    medians["cells_per_s"] = len(ref.records) / medians["wall_s"]
    result = {
        "cells": len(ref.records),
        "samples": samples,
        "medians": medians,
    }
    if trace:
        trace_dir = run_dir / "trace"
        trace_dir.mkdir()
        proc, store = run_rep(session, workload, ref, run_dir / "traced",
                              trace_dir=trace_dir)
        attempted += len(ref.records)
        failed += count_failures(proc, store, ref)
        result["per_layer"] = analyze(
            trace_dir, exit_t=proc.launch + proc.wall,
            untraced_wall=medians["wall_s"])
        result["per_layer"]["host.cal_s"] = medians["cal_s"]
    result["attempted"], result["failed"] = attempted, failed
    return result


def root_entries() -> set[str]:
    return set(os.listdir(ROOT)) - {SCRATCH.name}


def print_report(workload: Workload, seed: int, result: dict) -> None:
    samples = result["samples"]
    print(f"perfbench {workload.name} seed={seed}: {result['cells']} cells, "
          f"{len(samples['wall_s'])} runs")
    for name, unit in (*END_TO_END, *MEASURED):
        value = result["medians"][name]
        values = samples.get(name)
        extra = (f"median of {len(values)}  [min {min(values):.4f}, "
                 f"max {max(values):.4f}]" if values else
                 f"= {DERIVED[name]}")
        print(f"  {name:<30} {value:>14.6f} {unit:<6} {extra}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<30} {failed / attempted:>14.6f} ratio  "
          f"{failed} of {attempted} cells")
    for name, unit in PER_LAYER_METRICS if "per_layer" in result else ():
        print(f"  {name:<30} {result['per_layer'][name]:>14.6f} {unit}")
    print("host " + json.dumps(fingerprint(), sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Start the launcher while this process is still small (launcher.py).
    launcher = Launcher()
    try:
        session = Session(launcher, time.perf_counter() + BUDGET_S)
        sys.path.insert(0, str(SRC))
        import repro.campaigns.stores  # noqa: F401  (outside set-up timing)

        before = root_entries()
        SCRATCH.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                        dir=SCRATCH))
        try:
            result = measure(session, workload, args.seed, args.seconds,
                             bool(args.trace), run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:
                pass
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
    leftovers = sorted(root_entries() - before)
    if leftovers:
        print(f"perfbench: runs left files in the repository root: "
              f"{leftovers}", file=sys.stderr)
    print_report(workload, args.seed, result)
    metrics = (
        {name: {"value": result["per_layer"][name], "unit": unit}
         for name, unit in PER_LAYER_METRICS}
        if args.trace else
        {name: {"value": result["medians"][name], "unit": unit}
         for name, unit in END_TO_END})
    correct = result["failed"] == 0 and not leftovers
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
