"""Observation masks: synthetic patterns, and the runs of fully missing slices in a mask."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import _integer, as_mask, check_shape
from .embedding import embedded_shape

PATTERNS = ("random-voxel", "slices", "random-slices", "rectangles")


def make_mask(shape: Sequence[int], pattern: str, seed=0, *,
              fraction: float | None = None,
              mode: int | None = None,
              start: int | None = None,
              count: int | None = None,
              rects: Sequence[Sequence[int]] | None = None) -> np.ndarray:
    """Build a boolean observation mask (True = observed) for one of:

    random-voxel   ``fraction`` of entries missing, drawn without replacement
                   so the realized fraction matches the request exactly
                   (up to rounding to a whole voxel count)
    slices         ``count`` contiguous slices missing along ``mode``
                   starting at ``start``
    random-slices  ``fraction`` of the slices along ``mode`` missing
    rectangles     axis-aligned boxes ``(row0, col0, height, width)`` in the
                   first two modes missing across all remaining modes

    Randomized patterns are deterministic given ``seed``.  A dimension of
    ``shape`` or a position, ``mode``, ``start``, ``count`` or a rectangle's
    value, that is not an integer is a ValueError, not truncated.
    """
    shape = check_shape(shape)
    mode, start, count = (None if v is None else _integer(v, name)
                          for v, name in ((mode, "mode"), (start, "start"), (count, "count")))
    q = np.ones(shape, dtype=bool)
    if pattern == "random-voxel":
        if fraction is None or not 0.0 <= fraction <= 1.0:
            raise ValueError(f"random-voxel needs fraction in [0, 1], got {fraction}")
        size = q.size
        n_missing = int(round(fraction * size))
        rng = np.random.default_rng(seed)
        hit = rng.choice(size, size=n_missing, replace=False)
        flat = q.ravel()
        flat[hit] = False
        return flat.reshape(shape)
    if pattern == "slices":
        if mode is None or start is None or count is None:
            raise ValueError("slices needs mode, start and count")
        if not 0 <= mode < len(shape):
            raise ValueError(f"mode {mode} out of range for shape {shape}")
        if count < 0 or start < 0 or start + count > shape[mode]:
            raise ValueError(f"slice range [{start}, {start + count}) out of bounds "
                             f"for mode size {shape[mode]}")
        sl = [slice(None)] * len(shape)
        sl[mode] = slice(start, start + count)
        q[tuple(sl)] = False
        return q
    if pattern == "random-slices":
        if mode is None or fraction is None or not 0.0 <= fraction <= 1.0:
            raise ValueError("random-slices needs mode and fraction in [0, 1]")
        if not 0 <= mode < len(shape):
            raise ValueError(f"mode {mode} out of range for shape {shape}")
        rng = np.random.default_rng(seed)
        n_missing = int(round(fraction * shape[mode]))
        hit = rng.choice(shape[mode], size=n_missing, replace=False)
        sl = [slice(None)] * len(shape)
        sl[mode] = hit
        q[tuple(sl)] = False
        return q
    if pattern == "rectangles":
        if rects is None:
            raise ValueError("rectangles needs a list of (row0, col0, height, width)")
        if len(shape) < 2:
            raise ValueError("rectangles needs at least a 2-way shape")
        for rect in rects:
            if len(rect) != 4:
                raise ValueError(f"rectangle {tuple(rect)} needs 4 values "
                                 f"(row0, col0, height, width), got {len(rect)}")
            r0, c0, h, w = (_integer(v, f"a value of rectangle {tuple(rect)}") for v in rect)
            if r0 < 0 or c0 < 0 or h < 0 or w < 0 or r0 + h > shape[0] or c0 + w > shape[1]:
                raise ValueError(f"rectangle {tuple(rect)} out of bounds for shape {shape}")
            q[(slice(r0, r0 + h), slice(c0, c0 + w)) + (slice(None),) * (len(shape) - 2)] = False
        return q
    raise ValueError(f"unknown pattern {pattern!r}; choose from {PATTERNS}")


def longest_missing_runs(q: np.ndarray) -> tuple[int, ...]:
    """Per mode, the longest run of consecutive slices with no observed entry.

    One reduction of ``q`` per mode (read by :func:`hankelfill.core.as_mask`)
    and no embedding: a slice is fully missing when no entry of it is observed.
    """
    q = as_mask(q)
    runs = []
    for mode in range(q.ndim):
        seen = q.any(axis=tuple(n for n in range(q.ndim) if n != mode))
        edges = np.diff(np.concatenate(([0], (~seen).view(np.int8), [0])))
        runs.append(int((np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1)).max(initial=0)))
    return tuple(runs)


def unbridged_gap(mask: np.ndarray, taus: Sequence[int]) -> tuple[int, int] | None:
    """(mode, run) of the longest run of fully missing slices that no window bridges.

    Read from the mask alone (see :func:`longest_missing_runs`).  A run on a
    mode with window 1 is never bridged: nothing links the slices of that
    mode.  The input fill of the sweep loop
    (:func:`hankelfill.pipeline.recover`) bridges any
    run on a mode with a longer window.  ``taus`` are checked as
    :func:`hankelfill.embedding.embedded_shape` checks them.  Ties go to the
    lowest mode; None when every run is bridged.
    """
    q = as_mask(mask)
    taus = embedded_shape(q.shape, taus)[::2]
    worst = None
    for mode, (run, tau) in enumerate(zip(longest_missing_runs(q), taus)):
        if run and tau == 1:
            if worst is None or run > worst[1]:
                worst = (mode, run)
    return worst
