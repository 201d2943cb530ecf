import numpy as np
import pytest

from hankelfill import read_image, read_tensor, ssim_map, write_image, write_mask, write_tensor
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
                  "a run on a mode with --tau 1"),
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

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "recover", "--input", str(tmp_path / "nope.ppm"),
                               "--mask", str(tmp_path / "nope.pgm"), "--tau", "2,2,1",
                               "--output", str(tmp_path / "o.hten"))
        assert code == 1
        assert err.startswith("error:")


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


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--bogus"])
    assert exc.value.code != 0
