"""Per-layer spans around hankelfill's public functions, installed from outside.

Each layer is named after the module that defines it.  A wrapper replaces the
function at every place the package has bound it (its own module and every
``from .x import f`` site), so calls between modules are seen; a class method
is replaced on its class.  Spans live in memory; self time is a span's length
minus the time its child spans cover.

A target that a later refactor renames or deletes is reported as absent and
left alone; the untraced run never touches this module.

What each layer metric should move, and on which workload (the untraced
metrics are per workload):

    core.mode_multiply.*                 sweep_ms  pixel-128, slice-inpaint
    completion.*                         sweep_ms  pixel-128, slice-inpaint
    linalg.leading_singular_vectors.*    sweep_ms  signal-batch
    ranking.*                            wall_s    slice-inpaint (none on pixel-128)
    embedding.*, embedding.copy_mib      wall_s, peak_mib  pixel-128
    memory.peak_traced_copies            peak_mib  pixel-128
    pipeline.recover, cli.main, fileio.* wall_s    signal-batch
    trace.overhead_frac                  (cost of tracing itself)  all
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, defining module, attribute or Class.method).  Several targets
# may share one span name; the span is absent only if all of them are.
TARGETS = (
    ("core.mode_multiply", "hankelfill.core", "mode_multiply"),
    ("completion.auxiliary_fill", "hankelfill.completion", "auxiliary_fill"),
    ("completion.cost", "hankelfill.completion", "cost"),
    ("completion.reconstruct", "hankelfill.completion", "TuckerModel.reconstruct"),
    ("completion.als_sweep", "hankelfill.completion", "als_sweep"),
    ("completion.init_model", "hankelfill.completion", "init_model"),
    ("linalg.leading_singular_vectors", "hankelfill.linalg", "leading_singular_vectors"),
    ("ranking.mode_residuals", "hankelfill.ranking", "mode_residuals"),
    ("ranking.pad_model", "hankelfill.ranking", "pad_model"),
    ("ranking.select_increment_mode", "hankelfill.ranking", "select_increment_mode"),
    ("ranking.default_stopping_criteria", "hankelfill.ranking", "default_stopping_criteria"),
    ("embedding.mdt", "hankelfill.embedding", "mdt"),
    ("embedding.mdt_mask", "hankelfill.embedding", "mdt_mask"),
    ("embedding.inverse_mdt", "hankelfill.embedding", "inverse_mdt"),
    ("embedding.embedded_observed_energy", "hankelfill.embedding", "embedded_observed_energy"),
    ("pipeline.recover", "hankelfill.pipeline", "recover"),
    ("cli.main", "hankelfill.cli", "main"),
    ("fileio.read", "hankelfill.fileio", "read_image"),
    ("fileio.read", "hankelfill.fileio", "read_tensor"),
    ("fileio.read", "hankelfill.fileio", "read_mask"),
    ("fileio.write", "hankelfill.fileio", "write_image"),
    ("fileio.write", "hankelfill.fileio", "write_tensor"),
    ("fileio.write", "hankelfill.fileio", "write_mask"),
)


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self seconds, calls).

    ``spans`` lists ``(name, start, end, parent_index)`` with every parent
    before its children, as :class:`Tracer` records them.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += end - start - child[i]
        entry[1] += 1
    return {name: (s, n) for name, (s, n) in totals.items()}


class Tracer:
    """Records nested spans of one thread, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, self._open[-1] if self._open else None])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._open.pop()

    def parent_name(self, idx: int) -> str | None:
        parent = self.spans[idx][3]
        return None if parent is None else self.spans[parent][0]

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if counter is not None:
                    counter(self, idx, args)
        return traced


def _count_mode_multiply(tracer: Tracer, idx: int, args) -> None:
    # mode_multiply(t, a, mode): a is R x I_k; out has t.size / I_k * R elements.
    try:
        t, a = args[0], args[1]
        rows, cols = a.shape
        out = t.size // cols * rows
    except (AttributeError, IndexError, TypeError, ValueError, ZeroDivisionError):
        return
    tracer.counters["core.mode_multiply.computed_mb"] += 8 * (t.size + a.size + out) / 1e6
    tracer.counters["core.mode_multiply.gflop"] += 2 * rows * t.size / 1e9


def _count_file_bytes(tracer: Tracer, idx: int, args) -> None:
    name = tracer.spans[idx][0]
    if tracer.parent_name(idx) == name:  # read_mask -> read_image: count the file once
        return
    try:
        tracer.counters[name + ".bytes"] += os.path.getsize(args[0])
    except (IndexError, TypeError, OSError):
        pass


_COUNTERS = {"core.mode_multiply": _count_mode_multiply,
             "fileio.read": _count_file_bytes, "fileio.write": _count_file_bytes}


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return (owner, attr, original) if callable(original) else None


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block; yields the absent targets."""
    restore = []
    absent = []
    try:
        for span, module_name, qualname in TARGETS:
            found = _resolve(module_name, qualname)
            if found is None:
                absent.append(f"{module_name}:{qualname}")
                continue
            owner, attr, original = found
            wrapper = tracer.wrap(span, original, _COUNTERS.get(span))
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(mod, key) for mod_name, mod in list(sys.modules.items())
                         if mod_name == "hankelfill" or mod_name.startswith("hankelfill.")
                         for key, value in list(vars(mod).items()) if value is original]
            for site, key in sites:
                setattr(site, key, wrapper)
                restore.append((site, key, original))
        yield absent
    finally:
        for site, key, original in reversed(restore):
            setattr(site, key, original)


def absent_spans(absent: list[str]) -> list[str]:
    """Span names none of whose targets are left in the program."""
    gone = set(absent)
    spans = {span for span, _, _ in TARGETS}
    return sorted(spans - {span for span, module_name, qualname in TARGETS
                           if f"{module_name}:{qualname}" not in gone})
