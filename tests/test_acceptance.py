"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` captures them but still enforces every bound.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hankelfill import (RecoveryRequest, StoppingCriteria, damped_sine, default_rank_sequences,
                        embedded_shape, inverse_mdt, linear_interpolate_gaps, make_mask, mdt,
                        psnr, recover, snr, ssim_map)
from helpers import (fixed_rank_fit, initial_cost, is_non_increasing, naive_ssim_map,
                     orthonormality_defect, plain_loop, planted_tucker, random_mask,
                     relative_criteria, texture_image)


def _report(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_mdt_roundtrip():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        order = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(2, 9)) for _ in range(order))
        taus = tuple(int(rng.integers(1, s + 1)) for s in shape)
        x = rng.standard_normal(shape)
        err = np.linalg.norm(inverse_mdt(mdt(x, taus)) - x) / np.linalg.norm(x)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    _report("1 mdt-roundtrip", worst <= 1e-10 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.2f}s over 200 tensors")


def test_criterion_2_embedded_shape():
    shape = embedded_shape((256, 256, 3), (32, 32, 1))
    _report("2 embedded-shape", shape == (32, 225, 32, 225, 1, 3),
            f"(256,256,3) tau=(32,32,1) -> {shape}")


def test_criterion_3_monotonicity_suite():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    all_monotone = True
    worst_defect = 0.0
    for case in range(100):
        order = int(rng.integers(3, 5))
        shape = tuple(int(rng.integers(4, 8)) for _ in range(order))
        ranks = tuple(int(rng.integers(1, min(4, s) + 1)) for s in shape)
        t = rng.standard_normal(shape)
        t /= np.linalg.norm(t)
        q = rng.random(shape) >= rng.uniform(0.0, 0.95)
        result = fixed_rank_fit(t, q, ranks, StoppingCriteria(0.0, 0.0, 12), seed=case)
        all_monotone &= is_non_increasing(result.cost_trace, slack=1e-12)
        worst_defect = max(worst_defect,
                           max(orthonormality_defect(u) for u in result.model.factors))
    elapsed = time.perf_counter() - started
    _report("3 monotonicity", all_monotone and worst_defect < 1e-10 and elapsed < 120.0,
            f"100 instances, worst orthonormality defect {worst_defect:.2e}, "
            f"{elapsed:.1f}s")


def test_criterion_4_planted_model():
    started = time.perf_counter()
    shape, true_ranks = (10, 12, 10), (2, 3, 2)
    truth = planted_tucker(shape, true_ranks, data_seed=42)
    q = random_mask(shape, 0.30, seed=43)
    hidden = ~q

    tol = 1e-15 * max(1.0, initial_cost(truth, q, true_ranks, seed=7))
    fixed = fixed_rank_fit(truth, q, true_ranks, StoppingCriteria(0.0, tol, 5000), seed=7)
    fixed_err = (np.linalg.norm((fixed.model.reconstruct() - truth)[hidden])
                 / np.linalg.norm(truth[hidden]))

    criteria = relative_criteria(truth, q, (1, 1, 1), epsilon_rel=1e-10, tol_rel=1e-10)
    result = plain_loop(truth, q, default_rank_sequences(shape), criteria, seed=7)
    inc_err = (np.linalg.norm((result.model.reconstruct() - truth)[hidden])
               / np.linalg.norm(truth[hidden]))
    covers = all(r >= p for r, p in zip(result.model.ranks, true_ranks))
    elapsed = time.perf_counter() - started
    _report("4 planted-model",
            fixed_err < 1e-5 and inc_err < 1e-3 and covers and elapsed < 30.0,
            f"fixed-rank err {fixed_err:.2e}, increment err {inc_err:.2e}, "
            f"terminal ranks {result.model.ranks}, {elapsed:.1f}s")


def test_criterion_5_signal_gap():
    started = time.perf_counter()
    length, tau, amplitude = 200, 50, 1.0
    truth = damped_sine(length, amplitude=amplitude, decay=0.005, omega=0.55, phase=0.3)
    observed = np.ones(length, bool)
    observed[85:115] = False  # samples 86..115, 1-based

    criteria = relative_criteria(truth, observed, (tau,), epsilon_rel=1e-8, tol_rel=1e-9,
                                 max_total_sweeps=2000)
    report = recover(RecoveryRequest(data=truth, mask=observed, taus=(tau,),
                                     criteria=criteria, seed=0))
    gap = ~observed
    rmse = float(np.sqrt(np.mean((report.estimate - truth)[gap] ** 2)))
    linear = linear_interpolate_gaps(np.where(observed, truth, 0.0), observed)
    rmse_linear = float(np.sqrt(np.mean((linear - truth)[gap] ** 2)))
    elapsed = time.perf_counter() - started
    _report("5 signal-gap",
            rmse < 0.05 * amplitude and rmse_linear > 0.25 * amplitude
            and elapsed < 60.0,
            f"recovered rmse {rmse:.2e} vs linear fill {rmse_linear:.2e} "
            f"(amplitude {amplitude}), status {report.status}, {elapsed:.1f}s")


def test_criterion_6_slice_inpainting():
    started = time.perf_counter()
    img = texture_image(64)
    mask = make_mask(img.shape, "slices", mode=1, start=30, count=5)

    criteria = relative_criteria(img, mask, (8, 8, 1), epsilon_rel=1e-7, tol_rel=1e-5,
                                 max_total_sweeps=3000)
    report = recover(RecoveryRequest(data=img, mask=mask, taus=(8, 8, 1),
                                     criteria=criteria, seed=0))
    recovered_psnr = psnr(img, report.estimate, 255.0)
    baseline_psnr = psnr(img, np.where(mask, img, 0.0), 255.0)
    elapsed = time.perf_counter() - started
    _report("6 slice-inpainting",
            recovered_psnr >= 30.0 and recovered_psnr >= baseline_psnr + 10.0
            and elapsed < 300.0,
            f"psnr {recovered_psnr:.2f} dB vs zero-fill {baseline_psnr:.2f} dB, "
            f"ranks {report.ranks}, status {report.status}, {elapsed:.1f}s")


def test_criterion_7_metric_correctness():
    rng = np.random.default_rng(707)
    ok = True
    details = []

    worst_psnr = worst_snr = 0.0
    for _ in range(25):
        ref = rng.uniform(0, 255, (9, 11))
        est = rng.uniform(0, 255, (9, 11))
        mse = np.mean((ref - est) ** 2)
        worst_psnr = max(worst_psnr,
                         abs(psnr(ref, est, 255.0) - 10 * np.log10(255.0**2 / mse)))
        expected = 10 * np.log10((ref**2).sum() / ((ref - est) ** 2).sum())
        worst_snr = max(worst_snr, abs(snr(ref, est) - expected))
    ok &= worst_psnr <= 1e-10 and worst_snr <= 1e-10
    details.append(f"psnr/snr oracle gap {max(worst_psnr, worst_snr):.1e} dB")

    x = rng.uniform(0, 255, (16, 16))
    _, self_score = ssim_map(x, x)
    ok &= self_score == 1.0
    details.append(f"ssim(x,x)={self_score}")

    ref = rng.uniform(0, 255, (16, 16))
    est = np.clip(ref + rng.normal(0, 30, (16, 16)), 0, 255)
    smap, _ = ssim_map(ref, est)
    gap = float(np.abs(smap - naive_ssim_map(ref, est)).max())
    ok &= gap <= 1e-8
    details.append(f"ssim vs naive {gap:.1e}")
    _report("7 metric-correctness", ok, ", ".join(details))


def test_criterion_8_cli_determinism(tmp_path):
    import hankelfill
    from hankelfill import write_image, write_mask

    # the child interpreter imports the package this process tests
    src = str(Path(hankelfill.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    img_path = tmp_path / "img.ppm"
    mask_path = tmp_path / "mask.pgm"
    write_image(img_path, texture_image(24))
    mask2d = np.ones((24, 24), bool)
    mask2d[:, 11:14] = False
    write_mask(mask_path, mask2d)

    outputs = []
    traces = []
    for run in (1, 2):
        out = tmp_path / f"out{run}.hten"
        trace = tmp_path / f"trace{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "hankelfill", "recover",
             "--input", str(img_path), "--mask", str(mask_path),
             "--tau", "4,4,1", "--ranks", "4,8,4,8,1,3", "--seed", "7",
             "--output", str(out), "--trace-csv", str(trace)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
        traces.append(trace.read_text())
    identical = outputs[0] == outputs[1] and traces[0] == traces[1]
    _report("8 cli-determinism", identical,
            f"two runs, {len(outputs[0])} byte outputs "
            f"{'identical' if identical else 'DIFFER'}")
