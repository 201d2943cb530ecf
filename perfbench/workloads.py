"""Workload inputs, file formats and quality math, all in plain numpy.

Nothing here imports hankelfill: a change to the program cannot change what a
workload feeds it or how its output is scored.  Every input is a function of
the workload name and the benchmark seed.

Workloads (each is one unit of work, repeated for the length of a run):

signal-batch   60 1-D gap-fill jobs, L=200, tau=50, one 30-sample gap at a
               fixed grid position that the seed moves by at most 2 samples;
               damped sine, two-tone mixture and Lorenz-x in turn, on fixed
               parameter grids; CLI default thresholds.  Tiny embedded
               tensors (50x151) and thousands of sweeps: per-call overhead
               and small eigensolves dominate, so a full-size-pass
               optimisation should show no change here.
slice-inpaint  64x64x3 texture missing columns 30-34, tau=8,8,1, rank
               increment to convergence.  The paper's headline task; the
               embedded tensor (4.8 MiB) stays in cache.
pixel-128      128x128x3 texture with half of its pixels missing at random
               (one fixed draw, a 2-D PGM mask broadcast over channels),
               tau=16,16,1, fixed ranks and exactly 10 sweeps.  The embedded
               tensor (75 MiB per copy) is far larger than cache: full-size
               passes are bandwidth-bound and peak memory is large.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGNAL_LENGTH = 200
SIGNAL_TAU = 50
SIGNAL_GAP = 30
SIGNAL_JOBS = 60
# The seed moves each gap by at most this many samples: seeds give different
# inputs, while the batch's sweep count stays within a few percent (gaps drawn
# freely over the whole range moved it by 14%).
SIGNAL_GAP_JITTER = 2
SIGNAL_KINDS = ("damped-sine", "sine-mixture", "lorenz-x")
# Step of the Lorenz integration: 200 samples then span about one orbit of a
# lobe, a signal the embedding can extrapolate across a gap.
LORENZ_DT = 0.005

# The paper's own setting: too large to run here, recorded as an estimate.
PAPER_SHAPE = (256, 256, 3)
PAPER_TAUS = (32, 32, 1)

TEXTURE_PHASES = np.array([0.4, 1.1, 2.0, 1.2, 0.2])
TEXTURE_JITTER = 0.05
PIXEL_MASK_SEED = 128


@dataclass
class Job:
    """One CLI invocation plus what its output is checked against."""

    argv: list[str]
    output: Path
    truth: np.ndarray
    missing: np.ndarray  # bool, True where the input hides the truth
    peak: float
    floor_db: float  # the job fails below this PSNR
    embedded_elements: int


@dataclass
class Workload:
    name: str
    inputs: list[Path]
    jobs: list[Job]
    # The kind of reference work its times are scaled by (see reference.py).
    reference: str = "calls"

    def input_sha256(self) -> str:
        """One digest over every input file, names and bytes, in job order."""
        digest = hashlib.sha256()
        for path in self.inputs:
            digest.update(path.name.encode() + b"\0")
            digest.update(path.read_bytes())
        return digest.hexdigest()


# ------------------------------------------------------------------ files

def write_hten(path: Path, values: np.ndarray) -> None:
    """HTEN: magic, version 1, order, uint64 dims, float64 values with the first index fastest."""
    values = np.asarray(values, dtype=np.float64)
    head = b"HTEN" + struct.pack("<BB", 1, values.ndim)
    head += struct.pack(f"<{values.ndim}Q", *values.shape)
    path.write_bytes(head + values.ravel(order="F").astype("<f8").tobytes())


def read_hten(path: Path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if len(buf) < 6 or buf[:4] != b"HTEN":
        raise ValueError(f"{path} is not an HTEN file")
    version, order = struct.unpack_from("<BB", buf, 4)
    if version != 1 or order < 1:
        raise ValueError(f"{path}: unsupported HTEN version {version} or order {order}")
    dims = struct.unpack_from(f"<{order}Q", buf, 6)
    start = 6 + 8 * order
    count = math.prod(dims)
    if len(buf) != start + 8 * count:
        raise ValueError(f"{path}: payload does not match dims {dims}")
    flat = np.frombuffer(buf, dtype="<f8", offset=start, count=count)
    return flat.astype(np.float64).reshape(dims, order="F")


def write_pnm(path: Path, pixels: np.ndarray) -> None:
    """Binary PGM (HxW) or PPM (HxWx3) of uint8 pixels."""
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    height, width = pixels.shape[:2]
    header = magic + f"\n{width} {height}\n255\n".encode("ascii")
    path.write_bytes(header + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


# ------------------------------------------------------------------ inputs

def texture(side: int, rng: np.random.Generator) -> np.ndarray:
    """Three-channel sum of 2-D sinusoids, as uint8 pixels.

    The seed jitters each phase by at most 0.05 rad: enough to change every
    pixel, too little to change which ranks the fit grows to, so runs of
    different seeds do comparable work.
    """
    hh, ww = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    ph = TEXTURE_PHASES + rng.uniform(-TEXTURE_JITTER, TEXTURE_JITTER, size=5)
    base = (np.sin(0.35 * hh + 0.55 * ww + ph[0])
            + np.sin(0.9 * hh - 0.25 * ww + ph[1])
            + 0.5 * np.sin(0.15 * hh + 1.4 * ww + ph[2]))
    alt = np.sin(0.35 * hh + 0.55 * ww + ph[3]) + np.sin(0.9 * hh - 0.25 * ww + ph[4])
    img = np.stack([base, alt, 0.8 * base + 0.3], axis=2)
    img = (img - img.min()) / (img.max() - img.min()) * 255.0
    return np.rint(img).astype(np.uint8)


def grid(n: int, lo: float, hi: float, stride: int) -> np.ndarray:
    """n stratum midpoints of [lo, hi), visited with a stride coprime to n."""
    return lo + (hi - lo) * ((np.arange(n) * stride) % n + 0.5) / n


def damped_sine(t: np.ndarray, decay: float, omega: float, phase: float) -> np.ndarray:
    return np.exp(-decay * t) * np.sin(omega * t + phase)


def sine_mixture(t: np.ndarray, second: float, omega1: float, omega2: float,
                 phase1: float, phase2: float) -> np.ndarray:
    return np.sin(omega1 * t + phase1) + second * np.sin(omega2 * t + phase2)


def lorenz_x(length: int, discard: int, dt: float = LORENZ_DT) -> np.ndarray:
    """x coordinate of the Lorenz system (10, 28, 8/3) from (1, 1, 1), classic RK4."""
    def deriv(x, y, z):
        return 10.0 * (y - x), x * (28.0 - z) - y, x * y - (8.0 / 3.0) * z

    state = (1.0, 1.0, 1.0)
    out = np.empty(length)
    for i in range(discard + length):
        if i >= discard:
            out[i - discard] = state[0]
        k1 = deriv(*state)
        k2 = deriv(*(s + 0.5 * dt * k for s, k in zip(state, k1)))
        k3 = deriv(*(s + 0.5 * dt * k for s, k in zip(state, k2)))
        k4 = deriv(*(s + dt * k for s, k in zip(state, k3)))
        state = tuple(s + dt / 6.0 * (a + 2 * b + 2 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
    return out


def signals(per_kind: int) -> list[np.ndarray]:
    """per_kind signals of each kind, interleaved damped sine, mixture, Lorenz-x.

    The parameters sweep fixed grids: each seed gets the same signals and
    only jitters the gaps, so the batch's work barely depends on the seed.
    """
    t = np.arange(SIGNAL_LENGTH, dtype=np.float64)
    n = per_kind
    damped = zip(grid(n, 0.002, 0.008, 1), grid(n, 0.35, 0.75, 3), grid(n, 0.0, 2 * np.pi, 7))
    mixed = zip(grid(n, 0.3, 0.7, 9), grid(n, 0.15, 0.35, 11), grid(n, 0.5, 0.9, 13),
                grid(n, 0.0, 2 * np.pi, 17), grid(n, 0.0, 2 * np.pi, 19))
    out = []
    for d, m, k in zip(damped, mixed, grid(n, 500, 1500, 3).astype(int)):
        out += [damped_sine(t, *d), sine_mixture(t, *m), lorenz_x(SIGNAL_LENGTH, int(k))]
    return out


def embedded_elements(shape, taus) -> int:
    return math.prod(tau * (size - tau + 1) for size, tau in zip(shape, taus))


def _recover_argv(data: Path, mask: Path, taus, out: Path, extra=()) -> list[str]:
    # The CLI's own --seed (the model's random start) stays at its default:
    # the benchmark seed varies the data, as a user's runs would.
    return ["recover", "--input", str(data), "--mask", str(mask),
            "--tau", ",".join(str(t) for t in taus), *extra, "--output", str(out)]


def signal_batch(seed: int, work: Path) -> Workload:
    truths = signals(SIGNAL_JOBS // len(SIGNAL_KINDS))
    # Gaps start anywhere in [tau, L - tau - gap], away from the ends the
    # embedding sees least.  A permutation of a fixed grid pairs them with the
    # signals; the seed then jitters each start.
    jitter = SIGNAL_GAP_JITTER
    starts = np.floor(grid(SIGNAL_JOBS, SIGNAL_TAU + jitter,
                           SIGNAL_LENGTH - SIGNAL_TAU - SIGNAL_GAP + 1 - jitter, 7))
    starts += np.random.default_rng(seed).integers(-jitter, jitter + 1, size=SIGNAL_JOBS)
    inputs, jobs = [], []
    for j, (truth, start) in enumerate(zip(truths, starts.astype(int))):
        observed = np.ones(SIGNAL_LENGTH, dtype=bool)
        observed[start:start + SIGNAL_GAP] = False
        data, mask, out = work / f"s{j:02d}.hten", work / f"s{j:02d}.mask.hten", \
            work / f"s{j:02d}.out.hten"
        write_hten(data, np.where(observed, truth, 0.0))
        write_hten(mask, observed.astype(np.float64))
        inputs += [data, mask]
        jobs.append(Job(_recover_argv(data, mask, (SIGNAL_TAU,), out),
                        out, truth, ~observed, float(np.abs(truth).max()), 25.0,
                        embedded_elements(truth.shape, (SIGNAL_TAU,))))
    return Workload("signal-batch", inputs, jobs)


def _image_job(name: str, pixels: np.ndarray, observed2d: np.ndarray, taus,
               work: Path, floor_db: float, extra=()) -> Workload:
    data, mask, out = work / f"{name}.ppm", work / f"{name}.mask.pgm", work / f"{name}.out.hten"
    write_pnm(data, pixels)
    write_pnm(mask, np.where(observed2d, 255, 0).astype(np.uint8))
    truth = pixels.astype(np.float64)
    missing = np.broadcast_to(~observed2d[:, :, None], truth.shape)
    job = Job(_recover_argv(data, mask, taus, out, extra), out, truth, missing, 255.0,
              floor_db, embedded_elements(truth.shape, taus))
    return Workload(name, [data, mask], [job])


def slice_inpaint(seed: int, work: Path) -> Workload:
    rng = np.random.default_rng(seed)
    pixels = texture(64, rng)
    observed = np.ones((64, 64), dtype=bool)
    observed[:, 30:35] = False
    return _image_job("slice-inpaint", pixels, observed, (8, 8, 1), work, 30.0)


def pixel_128(seed: int, work: Path) -> Workload:
    pixels = texture(128, np.random.default_rng(seed))
    # After 10 sweeps the fit is far from converged and its quality swings by
    # 2 dB with the draw of the mask, so the draw is fixed and the seed only
    # moves the texture.
    observed = np.ones(128 * 128, dtype=bool)
    missing = np.random.default_rng(PIXEL_MASK_SEED).choice(observed.size, observed.size // 2,
                                                            replace=False)
    observed[missing] = False
    workload = _image_job("pixel-128", pixels, observed.reshape(128, 128), (16, 16, 1), work,
                          35.0, ("--ranks", "8,16,8,16,1,3", "--epsilon", "0", "--tol", "0",
                                 "--max-sweeps", "10"))
    # Its full-size passes are bound by memory bandwidth.  Scaled by the
    # small-call reference work its spread tripled (its time did not follow
    # that work: log-log slope 0.08 over 29 repeats); it follows the
    # streaming work better (slopes 0.5-0.8 in three sets of runs).
    workload.reference = "stream"
    return workload


WORKLOADS = {"signal-batch": signal_batch, "slice-inpaint": slice_inpaint,
             "pixel-128": pixel_128}


# ------------------------------------------------------------------ quality

def psnr_db(truth: np.ndarray, estimate: np.ndarray, peak: float) -> float:
    mse = float(np.mean((estimate - truth) ** 2))
    return 10.0 * math.log10(peak * peak / mse) if mse > 0 else math.inf


def gap_nrmse(truth: np.ndarray, estimate: np.ndarray, missing: np.ndarray,
              peak: float) -> float:
    """RMSE over the missing entries only, divided by the peak."""
    err = (estimate - truth)[missing]
    return math.sqrt(float(np.mean(err * err))) / peak
