import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hankelfill
from hankelfill import (cli, mdt, read_image, read_tensor, ssim_map, write_image,
                        write_mask, write_tensor)
from hankelfill.cli import main
from helpers import texture_image


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMetricsCommand:
    def test_identical_images_print_inf(self, tmp_path, capsys):
        path = tmp_path / "a.ppm"
        write_image(path, texture_image(16))
        code, out, _ = run_cli(capsys, "metrics", "--ref", str(path), "--est", str(path),
                               "--psnr")
        assert code == 0
        assert out.strip() == "inf"

    def test_all_three_metrics_one_value_per_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.ppm"
        est = tmp_path / "est.ppm"
        write_image(ref, texture_image(16))
        write_image(est, np.clip(texture_image(16) + 5.0, 0, 255))
        code, out, _ = run_cli(capsys, "metrics", "--ref", str(ref), "--est", str(est),
                               "--psnr", "--snr", "--ssim")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(float(line) > 0 for line in lines)

    def test_gray_ssim_is_the_single_slice_score(self, tmp_path, capsys):
        ref = tmp_path / "ref.pgm"
        est = tmp_path / "est.pgm"
        write_image(ref, texture_image(16, channels=1)[:, :, 0])
        write_image(est, np.clip(texture_image(16, channels=1)[:, :, 0] + 9.0, 0, 255))
        code, out, _ = run_cli(capsys, "metrics", "--ref", str(ref), "--est", str(est),
                               "--ssim", "--peak", "200")
        assert code == 0
        expected = ssim_map(read_image(ref), read_image(est), peak=200.0)[1]
        assert out == f"{expected}\n"

    @pytest.mark.parametrize("peak", ["nan", "inf", "0"])
    def test_non_finite_or_zero_peak_is_an_error(self, tmp_path, capsys, peak):
        path = tmp_path / "a.ppm"
        write_image(path, texture_image(16))
        code, out, err = run_cli(capsys, "metrics", "--ref", str(path), "--est", str(path),
                                 "--psnr", "--ssim", "--peak", peak)
        assert code == 1
        assert out == ""
        assert err.startswith("error: peak must be positive and finite")

    def test_no_metric_requested_fails(self, tmp_path, capsys):
        path = tmp_path / "a.pgm"
        write_image(path, np.zeros((4, 4)))
        code, _, err = run_cli(capsys, "metrics", "--ref", str(path), "--est", str(path))
        assert code == 1
        assert err.startswith("error:")


class TestEmbedInvert:
    def test_roundtrip_through_files(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((9, 7))
        src = tmp_path / "t.hten"
        emb = tmp_path / "e.hten"
        back = tmp_path / "b.hten"
        write_tensor(src, t)
        code, out, _ = run_cli(capsys, "embed", "--input", str(src), "--tau", "4,3",
                               "--output", str(emb))
        assert code == 0
        assert "(4, 6, 3, 5)" in out
        code, _, _ = run_cli(capsys, "invert", "--input", str(emb), "--shape", "9,7",
                             "--tau", "4,3", "--output", str(back))
        assert code == 0
        assert np.abs(read_tensor(back) - t).max() <= 1e-12

    def test_invert_rejects_a_file_that_disagrees_with_shape_and_tau(self, tmp_path, capsys):
        emb = tmp_path / "e.hten"
        write_tensor(emb, np.zeros((4, 6, 3, 5)))  # embeds (9, 7) with tau (4, 3)
        for shape, tau in [("9,8", "4,3"), ("9,7", "3,3"), ("9", "4")]:
            code, _, err = run_cli(capsys, "invert", "--input", str(emb), "--shape", shape,
                                   "--tau", tau, "--output", str(tmp_path / "b.hten"))
            assert code == 1
            assert err.startswith("error:")
            assert not (tmp_path / "b.hten").exists()

    def test_invert_checks_an_image_output_against_shape_before_reading(self, tmp_path,
                                                                        capsys):
        # the input does not exist: the shape alone decides
        code, text, err = run_cli(capsys, "invert", "--input", str(tmp_path / "none.hten"),
                                  "--shape", "9,7,2", "--tau", "4,3,1",
                                  "--output", str(tmp_path / "b.ppm"))
        assert code == 1
        assert text == ""
        assert err == "error: cannot write shape (9, 7, 2) as an image (want HxW or HxWx3)\n"
        assert list(tmp_path.iterdir()) == []

    def test_invert_to_an_image_refuses_nan_and_writes_nothing(self, tmp_path, capsys):
        # NaN has no pixel value: cast to uint8 it would read as a 0 pixel.
        # The corner of the embedded tensor maps back to input entry (0, 0) alone
        xh = np.array(mdt(np.full((9, 7), 100.0), (4, 3)))
        xh[0, 0, 0, 0] = np.nan
        emb, out = tmp_path / "xh.hten", tmp_path / "back.pgm"
        write_tensor(emb, xh)
        code, text, err = run_cli(capsys, "invert", "--input", str(emb), "--shape", "9,7",
                                  "--tau", "4,3", "--output", str(out))
        assert code == 1
        assert text == ""
        assert err == "error: an image cannot hold NaN: 1 of 63 values are NaN\n"
        assert not out.exists()

    def test_embed_writes_an_image_for_an_image_path(self, tmp_path, capsys):
        # a signal embeds to a tau x W matrix, which a .pgm file holds
        src, out = tmp_path / "v.hten", tmp_path / "e.pgm"
        write_tensor(src, np.arange(6.0) * 40)
        code, text, _ = run_cli(capsys, "embed", "--input", str(src), "--tau", "2",
                                "--output", str(out))
        assert code == 0
        assert text == "embedded shape (2, 5)\n"
        assert out.read_bytes().startswith(b"P5")
        np.testing.assert_array_equal(read_image(out), [[0, 40, 80, 120, 160],
                                                        [40, 80, 120, 160, 200]])

    def test_embed_checks_an_image_output_against_the_embedded_shape(self, tmp_path, capsys):
        # a 9 x 7 input embeds to order 4, which no image holds; nothing is written
        src, out = tmp_path / "t.hten", tmp_path / "e.pgm"
        write_tensor(src, np.zeros((9, 7)))
        code, text, err = run_cli(capsys, "embed", "--input", str(src), "--tau", "4,3",
                                  "--output", str(out))
        assert code == 1
        assert text == ""
        assert err == "error: cannot write shape (4, 6, 3, 5) as an image (want HxW or HxWx3)\n"
        assert not out.exists()

    def test_embed_over_the_embedded_cap_is_an_error(self, tmp_path, capsys):
        # 20000 x 20001 = 400M embedded elements, twice the cap recover uses
        src = tmp_path / "v.hten"
        out = tmp_path / "e.hten"
        write_tensor(src, np.zeros(40000))
        code, _, err = run_cli(capsys, "embed", "--input", str(src), "--tau", "20000",
                               "--output", str(out))
        assert code == 1
        assert err.startswith("error: embedded tensor would hold 400020000 elements")
        assert "the cap is 200000000" in err
        # no flag sets the cap, so the error offers only smaller windows
        assert err.rstrip().endswith("Reduce the windows.")
        assert not out.exists()

    def test_embed_meets_the_embedded_cap_alone_not_the_fit_guard(self, tmp_path, capsys):
        # (2000, 2) at tau=500,1 embeds to 1.5M elements.  recover refuses it
        # for the pair matrix a fit would build, 2000 x 750500
        # (test_recover_over_the_pair_matrix_cap_is_one_error_line); embed
        # builds none and writes the embedded tensor
        src, out = tmp_path / "v.hten", tmp_path / "e.hten"
        x = np.sin(np.arange(4000.0) / 7).reshape(2000, 2)
        write_tensor(src, x)
        code, text, err = run_cli(capsys, "embed", "--input", str(src), "--tau", "500,1",
                                  "--output", str(out))
        assert (code, text, err) == (0, "embedded shape (500, 1501, 1, 2)\n", "")
        embedded = read_tensor(out)
        assert embedded.size == 1_501_000
        np.testing.assert_array_equal(embedded, mdt(x, (500, 1)))


class TestMaskCommand:
    def test_slices_mask_written(self, tmp_path, capsys):
        out = tmp_path / "m.hten"
        code, text, _ = run_cli(capsys, "mask", "--shape", "16,16,3", "--pattern",
                                "slices", "--mode", "1", "--start", "5", "--count", "4",
                                "--output", str(out))
        assert code == 0
        q = read_tensor(out) != 0
        assert (~q).sum() == 16 * 4 * 3
        assert "missing fraction 0.25" in text

    def test_random_voxel_pgm_output(self, tmp_path, capsys):
        out = tmp_path / "m.pgm"
        code, _, _ = run_cli(capsys, "mask", "--shape", "12,12", "--pattern",
                             "random-voxel", "--fraction", "0.5", "--seed", "3",
                             "--output", str(out))
        assert code == 0
        from hankelfill import read_mask
        q = read_mask(out)
        assert abs((~q).mean() - 0.5) <= 0.005

    def test_bad_pattern_parameters(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "mask", "--shape", "8,8", "--pattern", "slices",
                               "--output", str(tmp_path / "m.hten"))
        assert code == 1
        assert "error:" in err


class TestRecoverCommand:
    def fixture_files(self, tmp_path):
        img = texture_image(24)
        data = tmp_path / "img.ppm"
        write_image(data, img)
        mask = tmp_path / "mask.pgm"
        write_mask(mask, ~np.isin(np.arange(24), [10, 11, 12])[None, :].repeat(24, 0))
        return data, mask

    def test_end_to_end_with_trace(self, tmp_path, capsys):
        data, mask = self.fixture_files(tmp_path)
        out_img = tmp_path / "out.ppm"
        out_ten = tmp_path / "out.hten"
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask),
            "--tau", "4,4,1", "--ranks", "4,8,4,8,1,3", "--seed", "1",
            "--output", str(out_img), "--output", str(out_ten),
            "--trace-csv", str(trace))
        assert code == 0
        assert "status converged" in out
        est = read_tensor(out_ten)
        assert est.shape == (24, 24, 3)
        assert np.all(np.isfinite(est))
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "sweep,cost,rank_event"
        costs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_a_signal_sized_run_reports_what_it_cost(self, tmp_path, capsys):
        # a 1-D gap fill of the benchmark's signal-batch size takes a few
        # milliseconds: the status line's wall time shows them, to the
        # millisecond, in the "wall <digits>s" shape that scripts strip
        signal = np.exp(-0.005 * np.arange(200.0)) * np.sin(0.55 * np.arange(200.0))
        observed = np.ones(200, bool)
        observed[85:115] = False
        write_tensor(tmp_path / "s.hten", np.where(observed, signal, 0.0))
        write_mask(tmp_path / "q.hten", observed)
        code, out, _ = run_cli(capsys, "recover", "--input", str(tmp_path / "s.hten"),
                               "--mask", str(tmp_path / "q.hten"), "--tau", "50",
                               "--output", str(tmp_path / "o.hten"))
        assert code == 0
        assert re.search(r"\bsweeps \d+, ", out)
        wall = re.search(r"wall ([0-9]+\.[0-9]{3})s$", out.strip())
        assert wall and float(wall.group(1)) > 0

    def test_rank_seq_flag(self, tmp_path, capsys):
        data, mask = self.fixture_files(tmp_path)
        out_ten = tmp_path / "out.hten"
        seq = "1,2,4;1,2,4,8;1,2,4;1,2,4,8;1;1,2,3"
        code, out, _ = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask),
            "--tau", "4,4,1", "--rank-seq", seq, "--max-sweeps", "60",
            "--seed", "1", "--output", str(out_ten))
        assert code == 0
        assert read_tensor(out_ten).shape == (24, 24, 3)

    def test_ranks_and_rank_seq_conflict(self, tmp_path, capsys):
        data, mask = self.fixture_files(tmp_path)
        code, _, err = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask),
            "--tau", "4,4,1", "--ranks", "1,1,1,1,1,1", "--rank-seq", "1;1;1;1;1;1",
            "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert "mutually exclusive" in err

    def test_ranks_and_rank_seq_conflict_is_found_before_the_inputs_are_read(self, tmp_path,
                                                                              capsys):
        code, text, err = run_cli(
            capsys, "recover", "--input", str(tmp_path / "nope.hten"),
            "--mask", str(tmp_path / "nope.hten"), "--tau", "4",
            "--ranks", "1,1", "--rank-seq", "1;1", "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert text == ""
        assert err == "error: --ranks and --rank-seq are mutually exclusive\n"

    @pytest.mark.parametrize("sweeps", ["0", "-3", "1.5"])
    def test_a_sweep_budget_below_one_is_a_parse_error(self, tmp_path, capsys, sweeps):
        # checked before any file is read: the input here does not exist
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--input", str(tmp_path / "nope.hten"), "--mask",
                  str(tmp_path / "nope.hten"), "--tau", "4", "--max-sweeps", sweeps,
                  "--output", str(tmp_path / "o.hten")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument --max-sweeps: expected a positive integer, got '{sweeps}'")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_value_at_a_missing_entry_is_never_read(self, tmp_path, capsys, bad):
        # an HTEN input may hold NaN or Inf where the mask is 0: the run,
        # its estimate and its trace are those with 0 there
        signal = np.sin(0.3 * np.arange(60.0))
        observed = np.ones(60, bool)
        observed[25:31] = False
        write_mask(tmp_path / "q.hten", observed)
        runs = []
        for fill in (0.0, bad, "observed"):
            data = np.where(observed, signal, 0.0 if fill == "observed" else fill)
            if fill == "observed":
                data[3] = bad
            write_tensor(tmp_path / "v.hten", data)
            out, trace = tmp_path / f"o{len(runs)}.hten", tmp_path / f"t{len(runs)}.csv"
            code, text, err = run_cli(capsys, "recover", "--input", str(tmp_path / "v.hten"),
                                      "--mask", str(tmp_path / "q.hten"), "--tau", "12",
                                      "--output", str(out), "--trace-csv", str(trace))
            runs.append((code, re.sub(r"wall \S+", "", text), err, out, trace))
        (code0, text0, err0, out0, trace0), (code1, text1, err1, out1, trace1) = runs[:2]
        assert code0 == code1 == 0
        assert text1 == text0 and "status converged" in text0
        assert err1 == err0
        assert out1.read_bytes() == out0.read_bytes()
        assert trace1.read_text() == trace0.read_text()
        code, text, err, out, _ = runs[2]
        assert code == 1
        assert text == ""
        assert err == "error: observed values must be finite (no NaN/Inf)\n"
        assert not out.exists()

    def test_absolute_epsilon_override(self, tmp_path, capsys):
        # a huge absolute threshold is met by the rank-one initialization
        data, mask = self.fixture_files(tmp_path)
        out = tmp_path / "o.hten"
        code, text, err = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask),
            "--tau", "4,4,1", "--epsilon", "1e30", "--output", str(out))
        assert code == 0
        assert "status converged" in text
        assert "ranks (1, 1, 1, 1, 1, 1)" in text
        assert err == ""  # a converged run has nothing to warn about

    @pytest.mark.parametrize("tau, warning", [
        ("4,4,1", None),
        ("4,3,1", None),  # a run as long as the window is bridged too
        ("4,1,1", "warning: 3 fully missing slices in a row on mode 1; no window bridges "
                  "a run on a mode with --tau 1 or --tau equal to the mode's length"),
    ])
    def test_a_gap_no_window_bridges_warns_on_stderr(self, tmp_path, capsys, tau, warning):
        # the fixture misses columns 10-12: a run of 3 slices on mode 1
        data, mask = self.fixture_files(tmp_path)
        code, text, err = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask), "--tau", tau,
            "--epsilon", "1e30", "--output", str(tmp_path / "o.hten"))
        assert code == 0
        assert "status converged" in text
        assert err.splitlines() == ([warning] if warning else [])

    def test_ranks_obey_epsilon(self, tmp_path, capsys):
        data, mask = self.fixture_files(tmp_path)
        code, text, _ = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask),
            "--tau", "4,4,1", "--ranks", "4,8,4,8,1,3", "--epsilon", "1e30",
            "--output", str(tmp_path / "o.hten"))
        assert code == 0
        assert "status converged" in text
        assert "sweeps 0," in text

    @pytest.mark.parametrize("flags, status, threshold", [
        (("--max-sweeps", "2"), "sweep_budget", "--max-sweeps 2"),
        (("--tol", "1e30"), "schedule_exhausted", "--tol 1e+30 at the final ranks"),
    ])
    def test_stop_above_epsilon_warns_on_stderr(self, tmp_path, capsys, flags, status,
                                                threshold):
        data, mask = self.fixture_files(tmp_path)
        code, text, err = run_cli(
            capsys, "recover", "--input", str(data), "--mask", str(mask),
            "--tau", "4,4,1", "--ranks", "2,2,2,2,1,1", "--epsilon", "0", *flags,
            "--output", str(tmp_path / "o.hten"))
        assert code == 0
        assert text.startswith(f"status {status}, ranks (2, 2, 2, 2, 1, 1), sweeps ")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"warning: stopped by {threshold} with cost ")
        assert lines[0].endswith(" above --epsilon 0")

    @pytest.mark.parametrize("flag", ["--epsilon", "--tol"])
    def test_nan_threshold_is_an_error(self, tmp_path, capsys, flag):
        # NaN compares false: as --tol it never sees a plateau, as --epsilon
        # it never converges, so the run would spend its whole budget.  An
        # infinite --epsilon would return the random start as converged, an
        # infinite --tol would make every sweep a plateau.
        data, mask = self.fixture_files(tmp_path)
        out = tmp_path / "o.hten"
        for value in ("nan", "inf"):
            code, text, err = run_cli(capsys, "recover", "--input", str(data), "--mask",
                                      str(mask), "--tau", "4,4,1", flag, value,
                                      "--output", str(out))
            assert code == 1
            assert text == ""
            assert err.startswith("error: epsilon and tol must be nonnegative and finite")
            assert not out.exists()

    def test_energy_overflow_is_one_error_line(self, tmp_path, capsys):
        # thresholds set to 0 must not be blamed for data whose energy overflows
        data, mask = tmp_path / "v.hten", tmp_path / "q.hten"
        write_tensor(data, 1e160 * np.sin(np.arange(120) / 5.0))
        write_mask(mask, np.arange(120) % 7 != 3)
        out = tmp_path / "o.hten"
        code, text, err = run_cli(capsys, "recover", "--input", str(data), "--mask",
                                  str(mask), "--tau", "30", "--epsilon", "0", "--tol", "0",
                                  "--output", str(out))
        assert code == 1
        assert text == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the observed energy of the data overflows float64")
        assert err.rstrip().endswith("rescale the data")
        assert not out.exists()

    @pytest.mark.parametrize("scale", [1e-170, 1e-300])
    def test_energy_underflow_is_one_error_line(self, tmp_path, capsys, scale):
        # the estimate of a sine at 1e-170 once came back about 2e6 times
        # the data's peak, with status converged and every threshold at 0.0
        data, mask = tmp_path / "v.hten", tmp_path / "q.hten"
        observed = np.ones(200, bool)
        observed[80:110] = False
        write_tensor(data, scale * np.sin(np.arange(200) / 5.0))
        write_mask(mask, observed)
        out = tmp_path / "o.hten"
        code, text, err = run_cli(capsys, "recover", "--input", str(data), "--mask",
                                  str(mask), "--tau", "50", "--output", str(out))
        assert code == 1
        assert text == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the observed energy of the data underflows float64")
        assert err.rstrip().endswith("rescale the data")
        assert not out.exists()

    def test_empty_mask_is_an_error(self, tmp_path, capsys):
        data, _ = self.fixture_files(tmp_path)
        mask = tmp_path / "none.pgm"
        write_mask(mask, np.zeros((24, 24), bool))
        code, _, err = run_cli(capsys, "recover", "--input", str(data), "--mask", str(mask),
                               "--tau", "4,4,1", "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert err.startswith("error: the mask observes no entry")

    def test_recover_over_the_embedded_cap_offers_only_smaller_windows(self, tmp_path, capsys):
        data, mask = tmp_path / "v.hten", tmp_path / "q.hten"
        write_tensor(data, np.zeros(40000))
        write_mask(mask, np.ones(40000, bool))
        code, _, err = run_cli(capsys, "recover", "--input", str(data), "--mask", str(mask),
                               "--tau", "20000", "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert err.startswith("error: embedded tensor would hold 400020000 elements")
        assert err.rstrip().endswith("Reduce the windows.")

    def test_recover_over_the_pair_matrix_cap_is_one_error_line(self, tmp_path, capsys):
        # 1.5M embedded elements, but the chain's K_0 would be 2000 x 750500
        data, mask = tmp_path / "v.hten", tmp_path / "q.hten"
        write_tensor(data, np.zeros((2000, 2)))
        write_mask(mask, np.ones((2000, 2), bool))
        code, _, err = run_cli(capsys, "recover", "--input", str(data), "--mask", str(mask),
                               "--tau", "500,1", "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert err.startswith("error: a fit at ranks (500, 1501, 1, 2) would build a pair "
                              "matrix of 1501000000 elements")
        assert "the cap is 200000000" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o.hten").exists()

    def test_recover_over_the_factor_matrix_cap_is_one_error_line(self, tmp_path, capsys):
        # 80k embedded elements, but the random start's U_1 would be 39999 x 39999
        data, mask = tmp_path / "v.hten", tmp_path / "q.hten"
        write_tensor(data, np.zeros(40000))
        write_mask(mask, np.ones(40000, bool))
        code, _, err = run_cli(capsys, "recover", "--input", str(data), "--mask", str(mask),
                               "--tau", "2", "--ranks", "2,39999",
                               "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert err.startswith("error: a fit at ranks (2, 39999) would build a factor "
                              "matrix of 1599920001 elements (39999 x 39999 on mode 1)")
        assert "the cap is 200000000" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o.hten").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "recover", "--input", str(tmp_path / "nope.ppm"),
                               "--mask", str(tmp_path / "nope.pgm"), "--tau", "2,2,1",
                               "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize("flag", ["--trace-csv", "--output"])
    def test_a_missing_output_directory_fails_before_any_work(self, tmp_path, capsys, flag):
        data, mask = self.fixture_files(tmp_path)
        out, trace = tmp_path / "o.hten", tmp_path / "t.csv"
        missing = tmp_path / "nodir" / ("t.csv" if flag == "--trace-csv" else "o2.hten")
        code, text, err = run_cli(capsys, "recover", "--input", str(data), "--mask",
                                  str(mask), "--tau", "4,4,1", "--output", str(out),
                                  "--trace-csv", str(trace), flag, str(missing))
        assert code == 1
        assert text == ""
        assert err == (f"error: {flag} {missing}: directory {missing.parent} "
                       f"does not exist\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["img.ppm", "mask.pgm"]

    def test_an_image_output_of_a_shape_no_image_holds_fails_before_the_fit(
            self, tmp_path, capsys, monkeypatch):
        data, mask = tmp_path / "s.hten", tmp_path / "q.hten"
        write_tensor(data, np.sin(np.arange(200) / 7.0))
        write_mask(mask, np.arange(200) % 9 != 4)
        fits = []
        monkeypatch.setattr(cli, "recover", lambda *args, **kwargs: fits.append(args))
        code, text, err = run_cli(capsys, "recover", "--input", str(data), "--mask",
                                  str(mask), "--tau", "50", "--output",
                                  str(tmp_path / "a.hten"), "--output", str(tmp_path / "b.pgm"))
        assert code == 1
        assert text == ""
        assert err == "error: cannot write shape (200,) as an image (want HxW or HxWx3)\n"
        assert fits == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["q.hten", "s.hten"]

    def test_a_pgm_output_of_a_colour_input_fails_before_the_fit(self, tmp_path, capsys,
                                                                 monkeypatch):
        data, mask = self.fixture_files(tmp_path)
        out = tmp_path / "out.pgm"
        fits = []
        monkeypatch.setattr(cli, "recover", lambda *args, **kwargs: fits.append(args))
        code, text, err = run_cli(capsys, "recover", "--input", str(data), "--mask",
                                  str(mask), "--tau", "4,4,1", "--output", str(out))
        assert code == 1
        assert text == ""
        assert err == (f"error: cannot write shape (24, 24, 3) to {out}: an image of that "
                       f"shape is written as .ppm\n")
        assert fits == []
        assert not out.exists()

    def test_the_output_directory_is_checked_before_the_inputs_are_read(self, tmp_path,
                                                                        capsys):
        missing = tmp_path / "nodir" / "o.hten"
        code, _, err = run_cli(capsys, "recover", "--input", str(tmp_path / "nope.ppm"),
                               "--mask", str(tmp_path / "nope.pgm"), "--tau", "2,2,1",
                               "--output", str(missing))
        assert code == 1
        assert err == f"error: --output {missing}: directory {missing.parent} does not exist\n"


class TestDemoSignal:
    def test_csv_and_thresholds_at_defaults(self, tmp_path, capsys):
        # the defaults are the bundled toy fixture: length 200, tau 50,
        # samples 85..114 missing; the gap must be recovered to within a few
        # percent while a flat fill misses badly
        out = tmp_path / "demo.csv"
        code, text, _ = run_cli(capsys, "demo-signal", "--output", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,truth,observed,linear_fill,recovered"
        assert len(lines) == 201
        row = lines[1 + 90].split(",")
        assert row[2] == ""  # inside the gap: no observed value
        rec = float(text.split("gap rmse recovered")[1].splitlines()[0])
        lin = float(text.split("gap rmse linear-fill")[1].splitlines()[0])
        assert rec < 0.05
        assert lin > 0.25

    @pytest.mark.parametrize("gap", [("--gap-count", "-5"),
                                     ("--gap-start", "-3", "--gap-count", "0"),
                                     ("--gap-start", "-3")])
    def test_negative_gap_is_an_error(self, tmp_path, capsys, gap):
        out = tmp_path / "demo.csv"
        code, text, err = run_cli(capsys, "demo-signal", *gap, "--output", str(out))
        assert code == 1
        assert err.startswith("error:") and "nonnegative" in err
        assert text == ""
        assert not out.exists()


    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_epsilon_rel_is_an_error(self, tmp_path, capsys, value):
        out = tmp_path / "demo.csv"
        code, text, err = run_cli(capsys, "demo-signal", "--epsilon-rel", value,
                                  "--output", str(out))
        assert code == 1
        assert text == ""
        assert err == f"error: epsilon_rel must be nonnegative and finite, got {float(value)}\n"
        assert not out.exists()


def test_an_error_without_a_message_prints_its_class_name(tmp_path, capsys, monkeypatch):
    # a MemoryError carries no message, and "error: " alone would say nothing
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "make_mask", out_of_memory)
    code, text, err = run_cli(capsys, "mask", "--shape", "8,8", "--pattern", "random-voxel",
                              "--fraction", "0.5", "--output", str(tmp_path / "m.pgm"))
    assert (code, text, err) == (1, "", "error: MemoryError\n")
    assert list(tmp_path.iterdir()) == []


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--bogus"])
    assert exc.value.code != 0


@pytest.mark.parametrize("command", [
    ["embed", "--input", "x.hten", "--tau", "2"],
    ["mask", "--shape", "8,8", "--pattern", "random-voxel", "--fraction", "0.5"],
    ["demo-signal"],
])
def test_every_command_checks_its_output_directory_first(tmp_path, capsys, command):
    missing = tmp_path / "nodir" / "out"
    code, text, err = run_cli(capsys, *command, "--output", str(missing))
    assert code == 1
    assert text == ""
    assert err == f"error: --output {missing}: directory {missing.parent} does not exist\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["recover", "--input", "x.hten", "--mask", "q.hten", "--tau", "4", "--output", "o.hten"],
    ["mask", "--shape", "8,8", "--pattern", "random-voxel", "--fraction", "0.5",
     "--output", "m.pgm"],
    ["demo-signal", "--output", "demo.csv"],
])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_a_seed_that_is_not_a_nonnegative_integer_is_a_parse_error(capsys, command, seed):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument --seed: expected a nonnegative integer, got '{seed}'")


class TestParserReuse:
    """main() builds its parser on the first call and reuses it in every later one."""

    def calls(self, d: Path) -> list[list[str]]:
        data, mask = str(d / "s.hten"), str(d / "q.hten")
        recover = ["recover", "--input", data, "--mask", mask, "--tau", "10"]
        return [
            recover + ["--ranks", "2,2", "--output", str(d / "a.hten")],
            recover + ["--max-sweeps", "40", "--output", str(d / "b.hten")],
            recover + ["--ranks", "2,3", "--output", str(d / "c.hten"),
                       "--output", str(d / "c2.hten"), "--trace-csv", str(d / "c.csv")],
            # were --output still [c.hten, c2.hten], both would be rewritten
            recover + ["--ranks", "1,1", "--output", str(d / "d.hten")],
            recover + ["--ranks", "2,2", "--bogus"],
            recover + ["--output", str(d / "e.hten"), "--seed", "-1"],
            ["recover", "--input", str(d / "nope.hten"), "--mask", mask, "--tau", "10",
             "--output", str(d / "f.hten")],
            recover + ["--ranks", "2,2", "--output", str(d / "g.hten")],
            ["mask", "--shape", "12,12", "--pattern", "random-voxel", "--fraction", "0.5",
             "--seed", "3", "--output", str(d / "m.pgm")],
            ["mask", "--shape", "60", "--pattern", "slices", "--mode", "0", "--start", "5",
             "--count", "4", "--output", str(d / "m.hten")],
            ["metrics", "--ref", data, "--est", str(d / "a.hten"), "--psnr", "--snr",
             "--peak", "1"],
            ["metrics", "--ref", data, "--est", str(d / "a.hten"), "--snr"],
        ]

    def run_sequence(self, d: Path, capsys, fresh: bool) -> list:
        """Per call: exit code, stdout less its wall time, stderr, digests of d's files."""
        for path in d.iterdir():
            if path.name not in ("s.hten", "q.hten"):
                path.unlink()
        results = []
        for argv in self.calls(d):
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's way out
                code = exc.code
            captured = capsys.readouterr()
            files = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                     for path in sorted(d.iterdir())}
            results.append((argv, code, re.sub(r"wall [0-9.]+s", "wall", captured.out),
                            captured.err, files))
        return results

    def test_a_reused_parser_acts_as_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        q = np.ones(60, bool)
        q[20:30] = False
        write_tensor(tmp_path / "s.hten", np.sin(np.arange(60) / 4.0))
        write_mask(tmp_path / "q.hten", q)
        fresh = self.run_sequence(tmp_path, capsys, fresh=True)

        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        reused = self.run_sequence(tmp_path, capsys, fresh=False)
        assert len(builds) == 1
        assert [r[1] for r in fresh] == [0, 0, 0, 0, 2, 2, 1, 0, 0, 0, 0, 0]
        for want, got in zip(fresh, reused):
            assert got == want
        # the two-output call wrote two files that the one-output call left alone
        files = fresh[3][4]
        assert files["c.hten"] == files["c2.hten"] != files["d.hten"]
        assert "c.hten" in fresh[2][4] and "d.hten" not in fresh[2][4]

    def test_importing_the_cli_builds_no_parser(self):
        # a fresh interpreter, so that no earlier test has built the parser
        probe = ("import argparse\n"
                 "built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "def counting(self, *a, **k):\n"
                 "    built.append(1)\n"
                 "    init(self, *a, **k)\n"
                 "argparse.ArgumentParser.__init__ = counting\n"
                 "import hankelfill.cli\n"
                 "print(len(built), hankelfill.cli._parser.cache_info().currsize)\n")
        src = str(Path(hankelfill.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]
