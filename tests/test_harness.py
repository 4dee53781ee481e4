import sys
import threading
import time

import numpy as np
import pytest

import deqpocs.harness as harness
import deqpocs.training as training
from deqpocs.errors import ConfigurationError
from deqpocs.harness import (
    _map_ordered,
    verify_convergence,
    verify_init_independence,
    verify_mask_transfer,
    verify_robustness,
    worker_count,
)
from deqpocs.network import certified_lipschitz, init_params
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.sampling import apply_sampling, make_mask
from deqpocs.solvers import picard_solve
from deqpocs.tensors import gaussian_tensor


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

    @pytest.mark.parametrize("inits, runs, draws", [(1, 2, 0), (2, 2, 0), (3, 3, 1)])
    def test_draws_only_the_random_starts_it_runs(
        self, small_problem, monkeypatch, inits, runs, draws
    ):
        import deqpocs.harness as harness

        params, dataset = small_problem
        calls = []

        def counting(shape, stream):
            calls.append(shape)
            return gaussian_tensor(shape, stream)

        monkeypatch.setattr(harness, "gaussian_tensor", counting)
        report = verify_convergence(params, [dataset[0][1]], inits_per_sample=inits)
        assert len(report.runs) == runs
        assert len(calls) == draws

    def test_records_only_the_clean_run(self, small_problem, monkeypatch):
        params, dataset = small_problem
        recorded = []

        def spy(*args, record_iterates=False, **kwargs):
            recorded.append(record_iterates)
            return picard_solve(*args, record_iterates=record_iterates, **kwargs)

        monkeypatch.setattr(training, "picard_solve", spy)
        report = verify_convergence(params, [m for _, m in dataset[:2]], inits_per_sample=3)
        assert recorded.count(True) == 1 and len(recorded) == 6
        assert report.clean.iterates is not None
        assert report.clean.iterations == report.runs[0].iterations
        assert report.clean.final_residual == report.runs[0].final_residual
        assert verify_convergence(params, []).clean is None

    def test_csv_layout(self, small_problem):
        params, dataset = small_problem
        report = verify_convergence(params, [dataset[0][1]], inits_per_sample=2)
        lines = report.to_csv().strip().split("\n")
        assert lines[0].startswith("sample,init,converged")
        assert any(line.startswith("agreement,") for line in lines)
        assert "PASS" in report.summary()


class TestMapOrdered:
    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_item_order_and_calling_thread(self, monkeypatch, threads):
        monkeypatch.setenv("DEQPOCS_THREADS", threads)
        idents = {}

        def fn(i):
            time.sleep(0.002 * ((5 - i) % 3))  # finish out of item order
            idents[i] = threading.get_ident()
            return i * i

        assert _map_ordered(fn, list(range(6))) == [i * i for i in range(6)]
        assert idents[0] == threading.get_ident()
        assert len(set(idents.values())) <= harness.worker_count()

    def test_raises_first_failing_item(self, monkeypatch):
        monkeypatch.setenv("DEQPOCS_THREADS", "2")

        def fn(i):
            if i == 1:
                time.sleep(0.05)  # fails after item 3 does on a two-thread run
                raise ValueError("item 1")
            if i == 3:
                raise KeyError("item 3")
            return i

        with pytest.raises(ValueError, match="item 1"):
            _map_ordered(fn, list(range(5)))

    def test_no_item_starts_after_a_failure(self, monkeypatch):
        monkeypatch.setenv("DEQPOCS_THREADS", "2")
        started = []

        def fn(i):
            started.append(i)
            if i == 1:
                raise ValueError("item 1")
            time.sleep(0.05)
            return i

        with pytest.raises(ValueError, match="item 1"):
            _map_ordered(fn, list(range(20)))
        # items 0 and 1, plus at most the one the other thread took meanwhile
        assert len(started) <= 3
        assert sorted(started) == list(range(len(started)))

    def test_each_item_runs_once_under_thread_churn(self, monkeypatch):
        """More threads than cores and a short switch interval: a lost
        update of the shared item counter would run an item twice or never."""
        monkeypatch.setattr(harness, "worker_count", lambda: 8)
        runs = [0] * 300
        lock = threading.Lock()

        def fn(i):
            with lock:
                runs[i] += 1
            return -i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _map_ordered(fn, list(range(300))) == [-i for i in range(300)]
        finally:
            sys.setswitchinterval(interval)
        assert runs == [1] * 300

    def test_single_item_and_empty(self):
        assert _map_ordered(lambda x: x + 1, [1]) == [2]
        assert _map_ordered(lambda x: x + 1, []) == []


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

    @pytest.mark.parametrize("trials, draws", [(2, 4), (0, 2)])
    def test_draws_each_noisy_measurement_once(self, small_problem, monkeypatch, trials, draws):
        """The recursion check reuses trial 0's noisy measurement of its
        level, and draws it itself only when there are no trials."""
        params, dataset = small_problem
        calls = []
        add_noise = harness.add_noise

        def counting(meas, level, seed):
            calls.append((level, seed))
            return add_noise(meas, level, seed=seed)

        monkeypatch.setattr(harness, "add_noise", counting)
        report = verify_robustness(
            params, dataset[0][1], delta_rels=(0.01, 0.1), trials_per_level=trials, seed=4
        )
        assert len(calls) == draws
        assert len(set(calls)) == draws
        assert len(report.trials) == 2 * trials
        assert [ok for _, ok in report.recursion_checks] == [True, True]

    def test_shared_clean_solve_gives_same_report(self, small_problem):
        params, dataset = small_problem
        meas = dataset[0][1]
        conv = verify_convergence(params, [meas], inits_per_sample=2)
        kw = dict(delta_rels=(0.01, 0.1), trials_per_level=2, seed=5)
        assert (
            verify_robustness(params, meas, clean=conv.clean, **kw).to_csv()
            == verify_robustness(params, meas, **kw).to_csv()
        )
        ikw = dict(levels=(0.5, 2.0), trials_per_level=1, seed=5)
        assert (
            verify_init_independence(params, meas, clean=conv.clean, **ikw).to_csv()
            == verify_init_independence(params, meas, **ikw).to_csv()
        )

    def test_clean_solve_for_another_tolerance_refused(self, small_problem):
        params, dataset = small_problem
        meas = dataset[0][1]
        conv = verify_convergence(params, [meas], inits_per_sample=2, tol=1e-4)
        with pytest.raises(ValueError, match="clean solve"):
            verify_robustness(params, meas, trials_per_level=1, tol=1e-5, clean=conv.clean)
        with pytest.raises(ValueError, match="clean solve"):
            verify_init_independence(params, meas, trials_per_level=1, tol=1e-5, clean=conv.clean)

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
