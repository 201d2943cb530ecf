"""Fixed pieces of work that gauge the host's speed next to the program's.

The benchmark runs on a few cores of a shared machine whose speed drifts by
20-40% over tens of seconds as its neighbours load it, on interpreted Python
and on BLAS alike.  Runs a minute apart then differ by more than the program
does.  So the benchmark times reference work just before and just after
every job and reports each repeat's time at one nominal host speed: the
measured seconds times the reference's nominal time over its own mean time in
that repeat.  The raw seconds go on the record line beside the scaled ones.

The drift does not slow all code alike, so each workload names the kind of
reference work that resembles where its own time goes:

calls   many numpy calls on small arrays (products, a symmetric eigensolve,
        a masked fill, a tensor contraction and a refold), as in an ALS
        sweep, one larger matrix product, and random reads from a 4 MiB
        table, whose speed falls when neighbours fill the shared cache.  Its
        arrays, about 5 MiB, count towards every workload's ``peak_mib``.
stream  passes over two 16 MiB arrays, for workloads whose full-size passes
        are bound by memory bandwidth.  The arrays live only while they are
        timed, before or after a job, not beside the job's own.

The inputs are fixed, so a change to hankelfill or to the benchmark seed
cannot change the reference work.
"""

from __future__ import annotations

import time

import numpy as np

# About one call's time on the 2-vCPU x86-64 host the bounds were set on
# (calls: 2.1-3.7 ms, stream: 3.3-4.7 ms as its load varied); any fixed value
# works, it only sets the unit.
NOMINAL_S = {"calls": 0.003, "stream": 0.0035}
STREAM_LENGTH = 1 << 21

_rng = np.random.default_rng(20180405)
_HANKEL = _rng.standard_normal((50, 151))  # a signal-batch-sized embedding
_OBSERVED = _rng.random((50, 151)) < 0.8
_CUBE = _rng.standard_normal((12, 12, 12))
_SQUARE = _rng.standard_normal((256, 256))
_TABLE = _rng.standard_normal(1 << 19)  # 4 MiB
_PICKS = _rng.integers(0, _TABLE.size, size=1 << 16)


def calls_work() -> float:
    total = 0.0
    for _ in range(20):
        gram = _HANKEL @ _HANKEL[:8].T
        _, vecs = np.linalg.eigh(gram.T @ gram)
        filled = np.where(_OBSERVED, _HANKEL, 0.0)
        folded = np.tensordot(_CUBE, _CUBE[0, :, :8], axes=([1], [0]))
        total += filled.sum() + np.moveaxis(folded, 2, 1).reshape(12, -1)[0, 0] + vecs[0, 0]
    total += (_SQUARE @ _SQUARE)[0, 0]
    for _ in range(2):
        total += _TABLE[_PICKS].sum()
    return float(total)


def gauge(kind: str, calls: int) -> float:
    """Seconds that ``calls`` runs of the ``kind`` reference work take."""
    if kind == "stream":
        a = np.ones(STREAM_LENGTH)
        b = np.zeros(STREAM_LENGTH)  # both touched before the clock starts

        def work():
            np.multiply(a, 0.5, out=b)
            np.add(b, 0.5, out=a)  # a stays 1
    else:
        work = calls_work
    started = time.perf_counter()
    for _ in range(calls):
        work()
    return time.perf_counter() - started


def scale(kind: str, ref_s: float, calls: int) -> float:
    """Factor taking seconds measured beside ``calls`` reference runs to nominal speed."""
    return NOMINAL_S[kind] * calls / ref_s
