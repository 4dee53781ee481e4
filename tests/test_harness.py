import numpy as np
import pytest

from deqpocs.errors import ConfigurationError
from deqpocs.harness import (
    verify_convergence,
    verify_init_independence,
    verify_mask_transfer,
    verify_robustness,
    worker_count,
)
from deqpocs.network import certified_lipschitz, init_params
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.sampling import apply_sampling, make_mask


@pytest.fixture(scope="module")
def small_problem():
    spec = DatasetSpec(n=3, height=8, width=8, coils=2, accel=2.0, seed=4, acs=2)
    dataset = make_dataset(spec)
    params = init_params("kspace", 2, 4, 2, seed=7, grid=(8, 8))
    return params, dataset


class TestConvergence:
    def test_untrained_net_passes(self, small_problem):
        params, dataset = small_problem
        report = verify_convergence(params, [m for _, m in dataset], inits_per_sample=3)
        assert report.all_pass
        assert len(report.runs) == 9
        labels = {r.init_label for r in report.runs}
        assert labels == {"measurement", "zero", "random0"}

    def test_alpha_zero_exact_rate(self, small_problem):
        params, dataset = small_problem
        import deqpocs.network as net

        p = net.clone_params(params)
        for blk in p.blocks:
            blk.alpha = 0.0
        assert certified_lipschitz(p).contraction_bound == pytest.approx(0.99**2)
        report = verify_convergence(p, [dataset[0][1]], inits_per_sample=2, slack=1.05)
        assert report.all_pass

    def test_csv_layout(self, small_problem):
        params, dataset = small_problem
        report = verify_convergence(params, [dataset[0][1]], inits_per_sample=2)
        lines = report.to_csv().strip().split("\n")
        assert lines[0].startswith("sample,init,converged")
        assert any(line.startswith("agreement,") for line in lines)
        assert "PASS" in report.summary()


class TestRobustness:
    def test_bound_holds(self, small_problem):
        params, dataset = small_problem
        report = verify_robustness(
            params, dataset[0][1], delta_rels=(0.01, 0.1), trials_per_level=3, seed=1
        )
        assert report.all_within_bound
        assert len(report.trials) == 6
        assert len(report.recursion_checks) == 2
        for t in report.trials:
            assert t.observed <= t.bound

    def test_zero_noise_trial(self, small_problem):
        params, dataset = small_problem
        report = verify_robustness(
            params, dataset[0][1], delta_rels=(0.0,), trials_per_level=1, seed=2
        )
        (trial,) = report.trials
        assert trial.delta_abs == 0.0
        assert trial.observed <= 10 * 1e-5 * max(1.0, 1.0)

    def test_csv(self, small_problem):
        params, dataset = small_problem
        report = verify_robustness(
            params, dataset[0][1], delta_rels=(0.05,), trials_per_level=2, seed=3
        )
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "delta_rel,delta_abs,observed,bound,margin"
        assert len(lines) == 1 + 2 + 1  # header, trials, one recursion row


class TestInitIndependence:
    def test_levels_agree(self, small_problem):
        params, dataset = small_problem
        report = verify_init_independence(
            params, dataset[0][1], levels=(0.5, 2.0), trials_per_level=2, seed=5
        )
        assert report.all_pass
        assert len(report.rows) == 4

    def test_zero_level(self, small_problem):
        params, dataset = small_problem
        report = verify_init_independence(
            params, dataset[0][1], levels=(0.0,), trials_per_level=1, seed=6
        )
        assert report.all_pass
        assert report.rows[0][2] <= report.rows[0][3]


@pytest.fixture(scope="module")
def transfer_problem():
    # SSIM needs images of at least 11x11
    spec = DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=4, acs=2)
    dataset = make_dataset(spec)
    params = init_params("kspace", 2, 4, 2, seed=7, grid=(16, 16))
    return params, dataset


class TestMaskTransfer:
    def test_report_fields_finite(self, transfer_problem):
        params, dataset = transfer_problem
        report = verify_mask_transfer(
            params, [s.kspace for s, _ in dataset], mask_kind="1d-free", accel=2.0, seed=8
        )
        for vals in (report.metrics.psnr_values, report.metrics.nmse_values):
            assert all(np.isfinite(v) for v in vals)
        assert "mask-transfer" in report.summary()
        assert "# zero-filled baseline" in report.to_csv()

    def test_same_mask_matches_direct_evaluation(self, transfer_problem):
        params, dataset = transfer_problem
        from deqpocs.metrics import evaluate_kspace_pair
        from deqpocs.rng import derive_seed
        from deqpocs.training import reconstruct

        x = dataset[0][0].kspace
        report = verify_mask_transfer(params, [x], mask_kind="2d-free", accel=2.0, seed=9)
        mask = make_mask("2d-free", 16, 16, 2.0, seed=derive_seed(9, 0))
        meas = apply_sampling(x, mask)
        res = reconstruct(params, meas)
        direct = evaluate_kspace_pair(res.solution, x)
        assert report.metrics.psnr_values[0] == pytest.approx(direct["psnr"], abs=1e-9)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("DEQPOCS_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("DEQPOCS_THREADS", "64")
    assert worker_count() >= 1
    monkeypatch.setenv("DEQPOCS_THREADS", "abc")
    with pytest.raises(ConfigurationError, match="DEQPOCS_THREADS"):
        worker_count()
