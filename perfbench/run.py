"""Run one hankelfill benchmark workload and print its metrics.

    python3 perfbench/run.py --workload slice-inpaint --seed 1 --seconds 20 --trace 0

Every job goes through the user's entry point, ``hankelfill.cli.main``,
called in-process from the checkout's ``src``: a closed loop, one job at a
time, BLAS pinned to ``BLAS_THREADS`` threads.  The workload's unit of work
(see ``workloads.py``) is repeated until ``--seconds`` have passed; timings
are medians over the repeats, each repeat's time scaled to a nominal host
speed by reference work timed before and after every job (see
``reference.py``).  Every job is checked: exit code, a sweep
count on the status line, an HTEN output of the right shape, finite values,
PSNR against the benchmark's own ground truth above the workload's floor, and
output identical to the first repeat.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and reports the per-layer metrics (see
``tracing.py``), then makes one more repeat under tracemalloc for the memory
peak.  ``--workload all`` runs each workload in its own process and prints a
table.  The last stdout line is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
``{"record": ...}``, holds the environment, input digests and raw samples.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads; child processes inherit the setting.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

import numpy as np  # noqa: E402

from perfbench import reference, tracing  # noqa: E402
from perfbench.workloads import (PAPER_SHAPE, PAPER_TAUS, WORKLOADS, Workload,  # noqa: E402
                                 embedded_elements, gap_nrmse, psnr_db, read_hten)

MIN_REPEATS = 3        # untraced repeats per run, whatever --seconds says
SETUP_SAMPLES = 11     # fresh interpreters timed for setup_s, after one warm-up
SETUP_TIMEOUT_S = 60
REF_CALLS = 120        # reference runs per repeat, half before and half after its jobs
SETUP_REF_CALLS = 40   # reference runs after each set-up sample

END_TO_END = {"wall_s": "s", "sweep_ms": "ms", "sweeps": "count", "psnr_db": "dB",
              "gap_nrmse": "frac", "peak_mib": "MiB", "setup_s": "s", "ok_frac": "frac"}

PER_LAYER = {
    "core.mode_multiply.self_ms": "ms", "core.mode_multiply.calls": "count",
    "core.mode_multiply.computed_mb": "MB", "core.mode_multiply.gflop": "GFLOP",
    **{f"completion.{name}.{kind}": unit
       for name in ("auxiliary_fill", "cost", "reconstruct", "als_sweep")
       for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    "completion.init_model.self_ms": "ms",
    "linalg.leading_singular_vectors.self_ms": "ms",
    "linalg.leading_singular_vectors.calls": "count",
    **{f"ranking.{name}.{kind}": unit
       for name in ("mode_residuals", "pad_model", "select_increment_mode",
                    "default_stopping_criteria")
       for kind, unit in (("self_ms", "ms"), ("calls", "count"))},
    **{f"embedding.{name}.self_ms": "ms"
       for name in ("mdt", "mdt_mask", "inverse_mdt", "embedded_observed_energy")},
    "embedding.copy_mib": "MiB", "memory.peak_traced_copies": "copies",
    "pipeline.recover.self_ms": "ms", "cli.main.self_ms": "ms",
    "fileio.read.self_ms": "ms", "fileio.read.bytes": "B",
    "fileio.write.self_ms": "ms", "fileio.write.bytes": "B",
    "trace.overhead_frac": "frac",
}

SETUP_PROBE = ("import time; t = time.perf_counter(); import hankelfill.cli; "
               "print(repr(time.perf_counter() - t))")


@dataclass
class Repeat:
    """One pass over a workload's jobs."""

    wall_s: float = 0.0
    sweeps: int = 0
    psnr: list[float] = field(default_factory=list)
    nrmse: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    ref_kind: str = "calls"
    ref_s: float = 0.0
    ref_calls: int = 0

    @property
    def factor(self) -> float:
        """Takes this repeat's seconds to the nominal host speed (1 if not gauged)."""
        if not self.ref_calls:
            return 1.0
        return reference.scale(self.ref_kind, self.ref_s, self.ref_calls)

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.factor


def import_cli():
    """hankelfill.cli from this checkout's src, or exit nonzero without a result."""
    try:
        from hankelfill import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import hankelfill from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: hankelfill resolved to {cli.__file__}, not under {SRC}")
    return cli


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__, "blas": blas,
            "python": platform.python_version(), "machine": platform.machine()}


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds to import hankelfill.cli in fresh interpreters (warm-up discarded).

    Returns the samples at nominal host speed and as measured.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit(f"error: importing hankelfill.cli failed: {proc.stderr.strip()}")
        seconds = float(proc.stdout.strip().splitlines()[-1])
        ref_s = reference.gauge("calls", SETUP_REF_CALLS)
        scaled.append(seconds * reference.scale("calls", ref_s, SETUP_REF_CALLS))
        raw.append(seconds)
    return scaled[1:], raw[1:]


def run_repeat(cli, workload: Workload, gauge: bool = True) -> Repeat:
    """One pass over the jobs; with ``gauge``, reference work brackets each job."""
    rep = Repeat(ref_kind=workload.reference)
    half = max(1, REF_CALLS // (2 * len(workload.jobs))) if gauge else 0
    for job in workload.jobs:
        job.output.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        if half:
            rep.ref_s += reference.gauge(rep.ref_kind, half)
        started = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(job.argv)
        except SystemExit as exc:  # argparse rejects flags this way
            code = exc.code if isinstance(exc.code, int) else 1
        rep.wall_s += time.perf_counter() - started
        if half:
            rep.ref_s += reference.gauge(rep.ref_kind, half)
            rep.ref_calls += 2 * half

        found = re.search(r"\bsweeps (\d+)", out.getvalue())
        if code != 0 or found is None:
            rep.failures.append(f"{job.output.name}: exit {code}, {err.getvalue().strip()!r}")
            continue
        rep.sweeps += int(found.group(1))
        try:
            est = read_hten(job.output)
        except (OSError, ValueError) as exc:
            rep.failures.append(f"{job.output.name}: {exc}")
            continue
        if est.shape != job.truth.shape or not np.all(np.isfinite(est)):
            rep.failures.append(f"{job.output.name}: shape {est.shape} or non-finite values")
            continue
        quality = psnr_db(job.truth, est, job.peak)
        if not quality >= job.floor_db:
            rep.failures.append(f"{job.output.name}: psnr {quality:.2f} dB below "
                                f"floor {job.floor_db} dB")
            continue
        rep.psnr.append(quality)
        rep.nrmse.append(gap_nrmse(job.truth, est, job.missing, job.peak))
        rep.digests.append(hashlib.sha256(est.tobytes()).hexdigest())
    return rep


def keep_going(started: float, seconds: float, repeats: list[Repeat]) -> bool:
    """Start another repeat if it should end within half a repeat of the deadline."""
    typical = statistics.median(r.wall_s + r.ref_s for r in repeats)
    return time.perf_counter() - started + typical / 2 < seconds


def nondeterminism(repeats: list[Repeat]) -> list[str]:
    first = repeats[0]
    return [f"repeat {i} differs from repeat 0" for i, rep in enumerate(repeats[1:], 1)
            if (rep.sweeps, rep.digests) != (first.sweeps, first.digests)]


def end_to_end(cli, workload: Workload, seconds: float, record: dict) -> tuple[list, dict]:
    setup, setup_raw = measure_setup()
    started = time.perf_counter()
    repeats = [run_repeat(cli, workload)]
    # High-water RSS of a process that has run the workload once; later
    # repeats would only add allocator drift.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(repeats) < MIN_REPEATS or keep_going(started, seconds, repeats):
        repeats.append(run_repeat(cli, workload))
    first = repeats[0]
    wall = statistics.median(r.scaled_s for r in repeats)
    record["samples"] = {"wall_s": [r.scaled_s for r in repeats],
                         "raw_wall_s": [r.wall_s for r in repeats],
                         "setup_s": setup, "raw_setup_s": setup_raw}
    values = {"wall_s": wall, "sweep_ms": wall * 1000.0 / max(first.sweeps, 1),
              "sweeps": first.sweeps,
              "psnr_db": statistics.fmean(first.psnr) if first.psnr else 0.0,
              "gap_nrmse": statistics.fmean(first.nrmse) if first.nrmse else 0.0,
              "peak_mib": peak_mib,
              "setup_s": statistics.median(setup)}
    return repeats, values


def per_layer(cli, workload: Workload, seconds: float, record: dict) -> tuple[list, dict]:
    untraced, traced, layer_runs, counters = [], [], [], None
    absent: list[str] = []
    started = time.perf_counter()
    while not traced or keep_going(started, seconds, untraced + traced):
        untraced.append(run_repeat(cli, workload))
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as absent:
            traced.append(run_repeat(cli, workload))
        factor = traced[-1].factor
        layer_runs.append({span: (self_s * factor, calls) for span, (self_s, calls)
                           in tracing.self_times(tracer.spans).items()})
        counters = counters or dict(tracer.counters)

    tracemalloc.start()
    try:
        # No reference work here: its arrays would count towards the peak.
        memory = run_repeat(cli, workload, gauge=False)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    copy_bytes = 8.0 * max(job.embedded_elements for job in workload.jobs)
    copies = peak_bytes / copy_bytes
    paper_mib = 8.0 * embedded_elements(PAPER_SHAPE, PAPER_TAUS) / 2**20
    values = {"embedding.copy_mib": copy_bytes / 2**20, "memory.peak_traced_copies": copies,
              "trace.overhead_frac": statistics.median(r.scaled_s for r in traced)
              / statistics.median(r.scaled_s for r in untraced) - 1.0}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "self_ms":
            values[name] = 1000.0 * statistics.median(run.get(span, (0.0, 0))[0]
                                                      for run in layer_runs)
        elif kind == "calls":
            values[name] = layer_runs[0].get(span, (0.0, 0))[1]
        elif name not in values:
            values[name] = counters.get(name, 0.0)
    record["absent_targets"] = absent
    record["absent_layers"] = tracing.absent_spans(absent)
    # Not run: it does not fit this machine.  pixel-128 runs the same code
    # path at the largest size that does, so its copy count is the projection.
    record["paper_setting"] = {"shape": PAPER_SHAPE, "taus": PAPER_TAUS, "run": False,
                               "embedded_elements": embedded_elements(PAPER_SHAPE, PAPER_TAUS),
                               "copy_mib": paper_mib}
    if workload.name == "pixel-128":
        record["paper_setting"]["projected_peak_mib"] = copies * paper_mib
    record["samples"] = {"untraced_wall_s": [r.scaled_s for r in untraced],
                         "traced_wall_s": [r.scaled_s for r in traced],
                         "raw_untraced_wall_s": [r.wall_s for r in untraced],
                         "raw_traced_wall_s": [r.wall_s for r in traced]}
    return untraced + traced + [memory], values


def run_one(args) -> dict:
    cli = import_cli()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(),
                  "input_sha256": workload.input_sha256()}
        reference.gauge(workload.reference, REF_CALLS)  # warm-up
        measure = per_layer if args.trace else end_to_end
        repeats, values = measure(cli, workload, args.seconds, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(repeats) * len(workload.jobs)
    failed = sum(len(r.failures) for r in repeats)
    problems = [f for r in repeats for f in r.failures] + nondeterminism(repeats)
    record["problems"] = problems[:20]
    record["psnr_min_db"] = min((q for r in repeats for q in r.psnr), default=None)
    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        values["ok_frac"] = (attempted - failed) / attempted
    print(json.dumps({"record": record}))
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:40s} {values[name]:>16.6g} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak memory is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited {proc.returncode}: {proc.stderr.strip()}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[1:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
