"""Command-line interface.

Subcommands:

    recover      full pipeline: embed, complete, invert, write the estimate
    embed        multi-way delay embedding of a tensor file
    invert       inverse embedding of an embedded tensor file
    mask         generate an observation mask file
    metrics      psnr / snr / ssim between two files
    demo-signal  gap-filling demo on a damped sinusoid, CSV output

Images travel as binary PPM/PGM, everything else as HTEN tensors; the
format is detected from the file contents on read and from the extension
(.ppm/.pgm/.hten) on write.  All randomness is seeded: identical flags give
bit-identical outputs.  Errors print a single ``error: ...`` line on stderr
(the exception's class name where it has no message, as a MemoryError has)
and exit nonzero; a missing directory for an output file is such an error,
raised before any input is read, as is an image output for a shape no image
holds, raised as soon as the shape is known.  A ``recover`` run prints one
``warning: ...`` line on stderr for each of two things: a run of fully
missing slices that no window bridges, and a stop above its cost threshold,
naming the threshold that stopped it.  In-process callers of :func:`main`
share one parser, built by the first call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from .embedding import embedded_shape, inverse_mdt, mdt
from .fileio import (_image_magic, _is_image_path, _read_any, _write_any, read_mask,
                     read_tensor, write_mask)
from .masks import make_mask
from .metrics import mean_ssim, psnr, snr
from .pipeline import SCHEDULE_EXHAUSTED, SWEEP_BUDGET, recover
from .ranking import RankSchedule, _checked_embedded_count, default_stopping_criteria
from .signals import damped_sine, linear_interpolate_gaps


def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _integer_from(lowest: int, what: str):
    """An argparse type: an integer of at least ``lowest``, else a usage error naming ``what``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= lowest:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_seed = _integer_from(0, "a nonnegative integer")
_sweeps = _integer_from(1, "a positive integer")


def _rank_sequences(text: str) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(part) for part in text.split(";"))


def _write_trace_csv(path, trace, rank_history) -> None:
    events = {sweep: f"m{mode}:{rank}" for sweep, mode, rank in rank_history}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep", "cost", "rank_event"])
        for sweep, value in trace:
            writer.writerow([sweep, repr(value), events.get(sweep, "")])


def _cmd_recover(args) -> int:
    if args.ranks is not None and args.rank_seq is not None:
        raise ValueError("--ranks and --rank-seq are mutually exclusive")
    data = _read_any(args.input)
    for out in filter(_is_image_path, args.output):  # before the fit, not after it
        _image_magic(out, data.shape)
    mask = read_mask(args.mask, data_shape=data.shape)
    schedule = None
    if args.ranks is not None:
        schedule = args.ranks
    elif args.rank_seq is not None:
        schedule = RankSchedule(args.rank_seq)

    overrides = {"epsilon": args.epsilon, "tol": args.tol,
                 "max_total_sweeps": args.max_sweeps}
    criteria = replace(default_stopping_criteria(data, mask, args.tau),
                       **{k: v for k, v in overrides.items() if v is not None})

    report = recover(data, mask, args.tau, schedule=schedule, criteria=criteria,
                     seed=args.seed)
    for out in args.output:
        _write_any(out, report.estimate)
    if args.trace_csv:
        _write_trace_csv(args.trace_csv, report.cost_trace, report.rank_history)
    print(f"status {report.status}, ranks {report.ranks}, "
          f"sweeps {report.cost_trace[-1][0]}, "
          f"wall {report.wall_time_s:.3f}s")
    if report.unbridged_gap is not None:
        mode, run = report.unbridged_gap
        print(f"warning: {run} fully missing slices in a row on mode {mode}; no window "
              f"bridges a run on a mode with --tau 1 or --tau equal to the mode's length",
              file=sys.stderr)
    stopped_by = {SWEEP_BUDGET: f"--max-sweeps {criteria.max_total_sweeps}",
                  SCHEDULE_EXHAUSTED: f"--tol {criteria.tol:.6g} at the final ranks"}
    if report.status in stopped_by:
        print(f"warning: stopped by {stopped_by[report.status]} with cost "
              f"{report.cost_trace[-1][1]:.6g} above --epsilon {criteria.epsilon:.6g}",
              file=sys.stderr)
    return 0


def _cmd_embed(args) -> int:
    x = _read_any(args.input)
    shape = embedded_shape(x.shape, args.tau)
    _checked_embedded_count(shape)
    if _is_image_path(args.output):
        _image_magic(args.output, shape)
    xh = mdt(x, args.tau)
    _write_any(args.output, xh)
    print(f"embedded shape {xh.shape}")
    return 0


def _cmd_invert(args) -> int:
    if _is_image_path(args.output):
        _image_magic(args.output, args.shape)
    xh = read_tensor(args.input)
    expected = embedded_shape(args.shape, args.tau)
    if xh.shape != expected:
        raise ValueError(f"{args.input} holds shape {xh.shape}; --shape and --tau "
                         f"embed to {expected}")
    _write_any(args.output, inverse_mdt(xh))
    return 0


def _cmd_mask(args) -> int:
    rects = [tuple(r) for r in args.rect] if args.rect else None
    q = make_mask(args.shape, args.pattern, seed=args.seed, fraction=args.fraction,
                  mode=args.mode, start=args.start, count=args.count, rects=rects)
    write_mask(args.output, q)
    print(f"missing fraction {1.0 - q.mean():.6f}")
    return 0


def _cmd_metrics(args) -> int:
    ref = _read_any(args.ref)
    est = _read_any(args.est)
    if not (args.psnr or args.snr or args.ssim):
        raise ValueError("request at least one of --psnr, --snr, --ssim")
    # one bare value per line, in the fixed order psnr, snr, ssim
    if args.psnr:
        print(psnr(ref, est, args.peak))
    if args.snr:
        print(snr(ref, est))
    if args.ssim:
        print(mean_ssim(ref, est, slice_mode=args.slice_mode, peak=args.peak))
    return 0


def _cmd_demo_signal(args) -> int:
    truth = damped_sine(args.length, amplitude=args.amplitude, decay=args.decay,
                        omega=args.omega, phase=args.phase, noise=args.noise,
                        seed=args.seed)
    if args.gap_start < 0 or args.gap_count < 0:
        raise ValueError(f"--gap-start and --gap-count must be nonnegative, got "
                         f"{args.gap_start} and {args.gap_count}")
    observed = np.ones(args.length, dtype=bool)
    if args.gap_count:
        if args.gap_start + args.gap_count > args.length:
            raise ValueError("gap lies outside the signal")
        observed[args.gap_start:args.gap_start + args.gap_count] = False

    criteria = default_stopping_criteria(truth, observed, (args.tau,),
                                         epsilon_rel=args.epsilon_rel)
    report = recover(truth, observed, (args.tau,), criteria=criteria, seed=args.seed)
    linear = linear_interpolate_gaps(np.where(observed, truth, 0.0), observed)

    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "truth", "observed", "linear_fill", "recovered"])
        for i in range(args.length):
            writer.writerow([i, repr(truth[i]), repr(truth[i]) if observed[i] else "",
                             repr(linear[i]), repr(report.estimate[i])])

    gap = ~observed
    if gap.any():
        rmse_rec = float(np.sqrt(np.mean((report.estimate - truth)[gap] ** 2)))
        rmse_lin = float(np.sqrt(np.mean((linear - truth)[gap] ** 2)))
        print(f"gap rmse recovered {rmse_rec:.6g}")
        print(f"gap rmse linear-fill {rmse_lin:.6g}")
    print(f"status {report.status}, ranks {report.ranks}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hankelfill",
                                     description="Tensor completion in delay-embedded space.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recover", help="recover missing entries of a tensor/image")
    p.add_argument("--input", required=True, help="data file (PPM/PGM or HTEN)")
    p.add_argument("--mask", required=True,
                   help="observation mask (PGM 0/255 or HTEN 0/1, nonzero = observed)")
    p.add_argument("--tau", required=True, type=_ints,
                   help="per-mode window lengths, e.g. 32,32,1")
    p.add_argument("--ranks", type=_ints, default=None,
                   help="fixed embedded-space ranks (one-element rank sequences)")
    p.add_argument("--rank-seq", type=_rank_sequences, default=None,
                   help="per-embedded-mode rank sequences, ';'-separated, e.g. 1,2,4;1,2;1")
    p.add_argument("--epsilon", type=float, default=None,
                   help="absolute terminal cost threshold (default: 1e-4 x observed energy)")
    p.add_argument("--tol", type=float, default=None,
                   help="absolute plateau threshold (default: 1e-6 x observed energy)")
    p.add_argument("--max-sweeps", type=_sweeps, default=None, help="total sweep budget")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", action="append", required=True,
                   help="output file; repeat to write several formats "
                        "(.ppm/.pgm clamped image, otherwise lossless HTEN)")
    p.add_argument("--trace-csv", default=None,
                   help="write the cost trace as CSV sweep,cost,rank_event")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("embed", help="delay-embed a tensor file")
    p.add_argument("--input", required=True)
    p.add_argument("--tau", required=True, type=_ints)
    p.add_argument("--output", required=True,
                   help="embedded tensor (.ppm/.pgm clamped image, otherwise lossless HTEN)")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("invert", help="invert a delay-embedded tensor file")
    p.add_argument("--input", required=True, help="embedded tensor (HTEN)")
    p.add_argument("--shape", required=True, type=_ints, help="original shape, e.g. 256,256,3")
    p.add_argument("--tau", required=True, type=_ints)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("mask", help="generate an observation mask")
    p.add_argument("--shape", required=True, type=_ints)
    p.add_argument("--pattern", required=True,
                   choices=("random-voxel", "slices", "random-slices", "rectangles"))
    p.add_argument("--fraction", type=float, default=None, help="missing fraction in [0,1]")
    p.add_argument("--mode", type=int, default=None, help="mode for slice patterns (0-based)")
    p.add_argument("--start", type=int, default=None, help="first missing slice")
    p.add_argument("--count", type=int, default=None, help="number of missing slices")
    p.add_argument("--rect", action="append", type=_ints, default=None,
                   metavar="R0,C0,H,W", help="occlusion rectangle; repeatable")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", required=True, help=".pgm for 0/255 image masks, else HTEN")
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("metrics", help="compare two files")
    p.add_argument("--ref", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--psnr", action="store_true")
    p.add_argument("--snr", action="store_true")
    p.add_argument("--ssim", action="store_true")
    p.add_argument("--peak", type=float, default=255.0, help="peak value for psnr/ssim")
    p.add_argument("--slice-mode", type=int, default=2,
                   help="slice mode for ssim on 3-way tensors (default: channels)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("demo-signal", help="gap-fill a damped sinusoid and emit CSV")
    p.add_argument("--length", type=int, default=200)
    p.add_argument("--tau", type=int, default=50)
    p.add_argument("--gap-start", type=int, default=85)
    p.add_argument("--gap-count", type=int, default=30)
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--decay", type=float, default=0.005)
    p.add_argument("--omega", type=float, default=0.55)
    p.add_argument("--phase", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--epsilon-rel", type=float, default=1e-8,
                   help="terminal threshold relative to observed energy")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--output", required=True, help="CSV of truth/observed/fills")
    p.set_defaults(func=_cmd_demo_signal)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in a process, built by the first one."""
    return build_parser()


def _check_output_directories(args) -> None:
    """Refuse an output path whose directory does not exist, before any input is read."""
    outputs = getattr(args, "output", None)
    paths = [("--output", path) for path in (outputs if isinstance(outputs, list) else [outputs])]
    paths.append(("--trace-csv", getattr(args, "trace_csv", None)))
    for flag, path in paths:
        if path is not None:
            directory = os.path.dirname(path) or "."
            if not os.path.isdir(directory):
                raise ValueError(f"{flag} {path}: directory {directory} does not exist")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output_directories(args)
        return args.func(args)
    except Exception as exc:  # one parsable line, nonzero exit
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
