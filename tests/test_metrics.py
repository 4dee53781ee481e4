import numpy as np
import pytest

from deqpocs.errors import InvalidInputError, ShapeError
from deqpocs.harness import CheckReport
import deqpocs.metrics as metrics
from deqpocs.metrics import (
    evaluate_kspace_pair,
    evaluate_kspace_set,
    image_from_kspace,
    nmse,
    psnr,
    ssim,
    ssos,
)
from oracles import ssim_reference
from deqpocs.solvers import FixedPointResult, diagnostics_csv
from deqpocs.tensors import fft2_centered
from deqpocs.training import TrainReport


class TestSSoS:
    def test_single_coil_is_magnitude(self, rand_tensor):
        x = rand_tensor((6, 6, 1), 1)
        assert np.allclose(ssos(x), np.abs(x[:, :, 0]))

    def test_two_identical_unit_coils(self):
        x = np.ones((5, 5, 2), dtype=complex)
        assert np.allclose(ssos(x), np.sqrt(2.0))

    def test_matches_scalar_loop(self, rand_tensor):
        x = rand_tensor((8, 8, 3), 2)
        want = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                want[i, j] = np.sqrt(sum(abs(x[i, j, c]) ** 2 for c in range(3)))
        assert np.allclose(ssos(x), want, atol=1e-6)


class TestPSNR:
    def test_identical_images_capped(self):
        ref = np.random.default_rng(0).random((10, 10))
        assert psnr(ref, ref) == 99.0

    def test_single_dead_pixel_closed_form(self):
        ref = np.ones((10, 10))
        test = ref.copy()
        test[0, 0] = 0.0
        assert psnr(test, ref) == pytest.approx(10 * np.log10(100.0))

    def test_matches_scalar_loop(self):
        gen = np.random.default_rng(1)
        ref = gen.random((12, 12))
        test = gen.random((12, 12))
        mse = sum(
            (test[i, j] - ref[i, j]) ** 2 for i in range(12) for j in range(12)
        ) / 144.0
        want = 10 * np.log10(ref.max() ** 2 / mse)
        assert psnr(test, ref) == pytest.approx(want, abs=1e-6)

    def test_monotone_in_error(self):
        gen = np.random.default_rng(2)
        ref = gen.random((10, 10)) + 0.5
        noise = gen.standard_normal((10, 10))
        values = [psnr(ref + s * noise, ref) for s in (0.2, 0.1, 0.05, 0.01)]
        assert values == sorted(values)

    def test_zero_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            psnr(np.ones((4, 4)), np.zeros((4, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.ones((4, 4)), np.ones((5, 4)))


class TestNMSE:
    def test_identical(self):
        ref = np.random.default_rng(3).random((8, 8))
        assert nmse(ref, ref) == 0.0

    def test_double_reference(self):
        ref = np.random.default_rng(4).random((8, 8))
        assert nmse(2 * ref, ref) == pytest.approx(1.0)

    def test_matches_scalar_loop(self):
        gen = np.random.default_rng(5)
        ref = gen.random((9, 9))
        test = gen.random((9, 9))
        num = sum((test[i, j] - ref[i, j]) ** 2 for i in range(9) for j in range(9))
        den = sum(ref[i, j] ** 2 for i in range(9) for j in range(9))
        assert nmse(test, ref) == pytest.approx(num / den, abs=1e-9)


class TestSSIM:
    def test_identical_images(self):
        ref = np.random.default_rng(6).random((16, 16))
        assert ssim(ref, ref) == pytest.approx(1.0, abs=1e-9)

    def test_constant_shift_penalized(self):
        ref = np.random.default_rng(7).random((16, 16))
        dr = ref.max() - ref.min()
        assert ssim(ref + 0.5 * dr, ref) < 1.0

    def test_matches_naive_window_oracle(self):
        gen = np.random.default_rng(8)
        ref = gen.random((16, 16))
        test = gen.random((16, 16))
        assert ssim(test, ref) == pytest.approx(ssim_reference(test, ref), abs=1e-6)

    def test_small_image_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.ones((8, 8)), np.ones((8, 8)))


class TestPipeline:
    def test_image_from_kspace_round_trip(self, rand_tensor):
        img = np.abs(rand_tensor((16, 16, 1), 9))[:, :, 0]
        maps = np.stack([np.full((16, 16), 0.6), np.full((16, 16), 0.8)], axis=2)
        coil = img[:, :, None] * maps
        k = fft2_centered(coil)
        assert np.allclose(image_from_kspace(k), img, atol=1e-10)

    def test_report_csv_layout(self, rand_tensor):
        a = rand_tensor((16, 16, 2), 10)
        b = rand_tensor((16, 16, 2), 11)
        csv = evaluate_kspace_set([(a, b), (b, b)], (0, 1))
        lines = csv.strip().split("\n")
        assert lines[0] == "sample_id,nmse,psnr,ssim"
        assert len(lines) == 1 + 2 + 2  # header, two samples, mean and std
        assert lines[-2].startswith("mean,")
        assert lines[-1].startswith("std,")
        pair = evaluate_kspace_pair(b, b)
        assert pair["nmse"] == 0.0 and pair["psnr"] == 99.0
        assert pair["ssim"] == pytest.approx(1.0, abs=1e-9)


class TestReportCsvBytes:
    """Every report CSV, byte for byte: floats as %.17g (``0.1 + 0.2`` needs
    all 17 digits), ints as written, bools (numpy's too) as 0/1, and empty
    trailing fields. The expected strings are the output of the per-report
    formatting that ``csv_text`` replaced."""

    X = 0.1 + 0.2
    RESULT = FixedPointResult(solution=np.zeros((1, 1, 1)), residuals=[X, 3, 1e-17],
                              converged=True, tolerance=1e-5, method="picard")
    METRICS = [{"nmse": X, "psnr": 20.5, "ssim": 0.75}, {"nmse": 1, "psnr": 99.0, "ssim": 1 / 3}]
    METRICS_CSV = (
        "sample_id,nmse,psnr,ssim\n0,0.30000000000000004,20.5,0.75\n"
        "sample_0001,1,99,0.33333333333333331\n"
        "mean,0.65000000000000002,59.75,0.54166666666666663\n"
        "std,0.34999999999999998,39.25,0.20833333333333334\n"
    )

    def test_convergence(self):
        report = CheckReport(
            name="convergence",
            header="sample,init,converged,iterations,rate_ok,final_residual",
            rows=[(0, "measurement", True, 7, False, self.X),
                  (1, "random0", False, 12, np.True_, 1e-300),
                  ("agreement", 0, self.X, 1e-05, None, None),
                  ("agreement", 1, 2, 3.5, None, None)],
            passed=False, detail="2 runs, L=0.900000, slack=1.05",
        )
        assert report.to_csv() == (
            "sample,init,converged,iterations,rate_ok,final_residual\n"
            "0,measurement,1,7,0,0.30000000000000004\n1,random0,0,12,1,1e-300\n"
            "agreement,0,0.30000000000000004,1.0000000000000001e-05,,\nagreement,1,2,3.5,,\n"
        )
        assert report.summary() == "convergence: FAIL (2 runs, L=0.900000, slack=1.05)"

    def test_robustness(self):
        report = CheckReport(
            name="robustness", header="delta_rel,delta_abs,observed,bound,margin",
            rows=[(0.01, self.X, 1.5, 2, -0.25), ("recursion", 0.01, True, None, None),
                  ("recursion", 0.1, np.False_, None, None)],
            passed=False, detail="1 trials, L=0.900000",
        )
        assert report.to_csv() == (
            "delta_rel,delta_abs,observed,bound,margin\n0.01,0.30000000000000004,1.5,2,-0.25\n"
            "recursion,0.01,1,,\nrecursion,0.10000000000000001,0,,\n"
        )

    def test_init_independence(self):
        report = CheckReport(
            name="init-independence", header="level,trial,distance,threshold",
            rows=[(0.5, 0, self.X, 1e-4), (2, 3, 0.0, 1)], passed=True, detail="2 runs, L=0.900000",
        )
        assert report.to_csv() == (
            "level,trial,distance,threshold\n0.5,0,0.30000000000000004,0.0001\n2,3,0,1\n"
        )

    def test_train(self):
        report = TrainReport(
            epoch_mean_loss=[self.X, 2], epoch_mean_fwd_iters=[12.0, 1e20],
            epoch_certificate=[0.9875, 1 / 3], final_train_residual=self.X,
        )
        assert report.to_csv() == (
            "epoch,mean_loss,mean_fwd_iters,L\n"
            "0,0.30000000000000004,12,0.98750000000000004\n"
            "1,2,1e+20,0.33333333333333331\nfinal_train_residual,0.30000000000000004,,\n"
        )

    def test_metrics(self, monkeypatch):
        # the set's CSV of two pairs whose metrics are METRICS
        results = iter(self.METRICS)
        monkeypatch.setattr(metrics, "evaluate_kspace_pair", lambda recon, ref: next(results))
        csv = evaluate_kspace_set([(None, None)] * 2, (0, "sample_0001"))
        assert csv == self.METRICS_CSV

    def test_solver_diagnostics(self):
        assert diagnostics_csv(self.RESULT) == (
            "iteration,residual\n0,0.30000000000000004\n1,3\n2,1.0000000000000001e-17\n"
        )
