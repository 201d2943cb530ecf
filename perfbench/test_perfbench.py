"""Tests of the benchmark's own code: inputs, quality math, speed scaling and spans."""

import math

import numpy as np
import pytest

from perfbench import reference, tracing, workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name, tmp_path):
    digests = []
    for run, seed in enumerate((3, 3, 4)):
        work = tmp_path / str(run)
        work.mkdir()
        digests.append(workloads.WORKLOADS[name](seed, work).input_sha256())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_workload_shapes_and_masks(tmp_path):
    batch = workloads.signal_batch(1, tmp_path)
    assert len(batch.jobs) == 60
    assert all(job.missing.sum() == 30 and job.truth.shape == (200,) for job in batch.jobs)
    assert all(job.embedded_elements == 50 * 151 for job in batch.jobs)
    pixel = workloads.pixel_128(1, tmp_path).jobs[0]
    assert pixel.missing.mean() == 0.5
    assert (pixel.missing == pixel.missing[:, :, :1]).all()
    assert pixel.embedded_elements == 16 * 113 * 16 * 113 * 3
    inpaint = workloads.slice_inpaint(1, tmp_path).jobs[0]
    assert inpaint.missing[:, 30:35].all() and inpaint.missing.sum() == 64 * 5 * 3


def test_hten_files_read_back_the_same_in_the_program(tmp_path):
    from hankelfill.fileio import read_tensor

    values = np.random.default_rng(0).standard_normal((3, 4, 2))
    path = tmp_path / "x.hten"
    workloads.write_hten(path, values)
    assert np.array_equal(workloads.read_hten(path), values)
    assert np.array_equal(read_tensor(path), values)


def test_quality_math_matches_a_naive_oracle():
    rng = np.random.default_rng(5)
    truth = rng.uniform(0, 255, (6, 5, 3))
    est = truth + rng.normal(0, 4, truth.shape)
    missing = rng.random(truth.shape) < 0.3

    squares = [(e - t) ** 2 for e, t in zip(est.ravel(), truth.ravel())]
    assert workloads.psnr_db(truth, est, 255.0) == pytest.approx(
        10 * math.log10(255.0 ** 2 / (sum(squares) / len(squares))), rel=1e-12)
    gap = [s for s, m in zip(squares, missing.ravel()) if m]
    assert workloads.gap_nrmse(truth, est, missing, 255.0) == pytest.approx(
        math.sqrt(sum(gap) / len(gap)) / 255.0, rel=1e-12)
    assert workloads.psnr_db(truth, truth, 255.0) == math.inf


def test_reference_scale_takes_times_to_nominal_speed(tmp_path):
    # a host running the reference at half speed took twice the nominal time
    for kind, nominal in reference.NOMINAL_S.items():
        assert reference.scale(kind, 2 * nominal * 7, 7) == pytest.approx(0.5)
        assert reference.scale(kind, nominal * 3, 3) == pytest.approx(1.0)
        assert reference.gauge(kind, 1) > 0
    assert {w(1, tmp_path).reference for w in workloads.WORKLOADS.values()} <= set(
        reference.NOMINAL_S)


def test_self_time_subtracts_child_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 6]
    spans = [("a", 0.0, 10.0, None), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
             ("b", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == {"a": (6.0, 1), "b": (3.0, 2), "c": (1.0, 1)}


def test_tracer_records_nested_calls_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    # outer opens at 0, inner spans [1, 2] and [3, 4], outer closes at 5
    assert tracing.self_times(tracer.spans) == {"outer": (3.0, 1), "inner": (2.0, 2)}


def test_missing_targets_are_absent_and_originals_come_back(monkeypatch):
    import hankelfill.completion as completion
    import hankelfill.core as core

    original = core.mode_multiply
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("gone.layer", "hankelfill.core", "no_such_function"),
        ("gone.module", "hankelfill.no_such_module", "f"),
        ("gone.method", "hankelfill.completion", "NoSuchClass.method")))
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        assert completion.mode_multiply is not original
        assert core.mode_multiply is completion.mode_multiply
        core.mode_multiply(np.ones((2, 3)), np.ones((4, 3)), 1)
    assert absent == ["hankelfill.core:no_such_function", "hankelfill.no_such_module:f",
                      "hankelfill.completion:NoSuchClass.method"]
    assert tracing.absent_spans(absent) == ["gone.layer", "gone.method", "gone.module"]
    assert tracing.absent_spans(["hankelfill.fileio:read_image"]) == []
    assert core.mode_multiply is original and completion.mode_multiply is original
    # (2x3) times a 4x3 matrix on mode 1: 2*4*6 flops, 8*(6+12+8) bytes
    assert tracer.counters["core.mode_multiply.gflop"] == pytest.approx(48e-9)
    assert tracer.counters["core.mode_multiply.computed_mb"] == pytest.approx(208e-6)
