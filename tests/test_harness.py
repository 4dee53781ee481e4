import copy
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
    verify_robustness,
    worker_count,
)
from deqpocs.network import certified_lipschitz, init_params
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.rng import derive_seed
from deqpocs.sampling import add_noise
from deqpocs.solvers import picard_solve
from deqpocs.tensors import frob, gaussian_tensor
from deqpocs.training import reconstruct


@pytest.fixture(scope="module")
def small_problem():
    spec = DatasetSpec(n=3, height=8, width=8, coils=2, accel=2.0, seed=4, acs=2)
    dataset = make_dataset(spec)
    params = init_params("kspace", 2, 4, 2, seed=7, grid=(8, 8))
    return params, dataset


@pytest.fixture(scope="module")
def false_certificate():
    """Stored bounds scaled by 1e-2 claim an L below 1e-10 for a model that
    contracts far more weakly, and one measurement to run it on."""
    params = init_params("kspace", 1, 4, 2, seed=0, grid=(16, 16))
    blk = params.blocks[0]
    blk.alpha = 0.99
    blk.kspace_branch.sigmas = [1e-2 * s for s in blk.kspace_branch.sigmas]
    assert 0.0 < certified_lipschitz(params).contraction_bound < 1e-10
    spec = DatasetSpec(n=1, height=16, width=16, coils=2, accel=2.0, seed=1)
    return params, make_dataset(spec)[0][1]


class TestConvergence:
    def test_untrained_net_passes(self, small_problem):
        params, dataset = small_problem
        report, _ = verify_convergence(params, [m for _, m in dataset], inits_per_sample=3)
        assert report.passed
        runs = [row for row in report.rows if row[0] != "agreement"]
        assert len(runs) == 9 and len(report.rows) == 9 + 3
        labels = {row[1] for row in runs}
        assert labels == {"measurement", "zero", "random0"}

    def test_alpha_zero_exact_rate(self, small_problem):
        params, dataset = small_problem
        p = copy.deepcopy(params)
        for blk in p.blocks:
            blk.alpha = 0.0
        assert certified_lipschitz(p).contraction_bound == pytest.approx(0.99**2)
        report, _ = verify_convergence(p, [dataset[0][1]], inits_per_sample=2)
        assert report.passed

    @pytest.mark.parametrize("inits, runs, draws", [(2, 2, 0), (3, 3, 1)])
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
        report, _ = verify_convergence(params, [dataset[0][1]], inits_per_sample=inits)
        assert len(report.rows) == runs + 1  # and one agreement row
        assert len(calls) == draws

    @pytest.mark.parametrize("inits", [1, 0])
    def test_fewer_than_two_starts_refused(self, small_problem, inits):
        # one start has nothing to agree with; it used to run two silently
        params, dataset = small_problem
        with pytest.raises(ValueError, match="at least 2 starts"):
            verify_convergence(params, [dataset[0][1]], inits_per_sample=inits)

    def test_records_only_the_clean_run(self, small_problem, monkeypatch):
        params, dataset = small_problem
        recorded = []

        def spy(*args, record_iterates=False, **kwargs):
            recorded.append(record_iterates)
            return picard_solve(*args, record_iterates=record_iterates, **kwargs)

        monkeypatch.setattr(training, "picard_solve", spy)
        report, clean = verify_convergence(params, [m for _, m in dataset[:2]], inits_per_sample=3)
        assert recorded.count(True) == 1 and len(recorded) == 6
        assert clean.iterates is not None
        assert report.rows[0][:2] == (0, "measurement")
        assert clean.iterations == report.rows[0][3]
        assert clean.final_residual == report.rows[0][5]
        with pytest.raises(ValueError):
            verify_convergence(params, [])

    def test_rate_fails_under_a_false_certificate(self, false_certificate):
        """No run of a falsely certified model follows the envelope
        ``r_k <= 1.05 * L^k * r_0``, so every run's rate_ok is 0 and the
        report fails."""
        params, meas = false_certificate
        report, _ = verify_convergence(params, [meas])
        runs = [row for row in report.rows if row[0] != "agreement"]
        assert len(runs) == 3
        assert [rate_ok for *_, rate_ok, _ in runs] == [False] * 3
        assert report.passed is False
        assert report.summary().startswith("convergence: FAIL (3 runs, L=0.000000, ")

    def test_csv_layout(self, small_problem):
        params, dataset = small_problem
        report, _ = verify_convergence(params, [dataset[0][1]], inits_per_sample=2)
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
        assert report.passed
        trials = [row for row in report.rows if row[0] != "recursion"]
        assert len(trials) == 6
        assert len(report.rows) == 6 + 2
        for _, _, observed, bound, _ in trials:
            assert observed <= bound

    def test_zero_noise_trial(self, small_problem):
        params, dataset = small_problem
        report = verify_robustness(
            params, dataset[0][1], delta_rels=(0.0,), trials_per_level=1, seed=2
        )
        trial, recursion = report.rows
        assert trial[1] == 0.0
        assert trial[2] <= 10 * 1e-5 * max(1.0, 1.0)
        assert recursion == ("recursion", 0.0, True, None, None)

    @pytest.mark.parametrize("trials, draws", [(2, 4), (0, 2)])
    def test_draws_each_noisy_measurement_once(self, small_problem, monkeypatch, trials, draws):
        """Each (level, trial) slot draws its noisy measurement once; with no
        trials, trial 0 of each level is still drawn for the recursion."""
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
        assert len(report.rows) == 2 * trials + 2
        assert report.rows[2 * trials:] == [("recursion", 0.01, True, None, None),
                                            ("recursion", 0.1, True, None, None)]

    @pytest.mark.parametrize("trials", [3, 1, 0])
    def test_trial_0_is_the_one_recursion_solve(self, small_problem, monkeypatch, trials):
        """One solve per (level, trial) slot, zero trials counting as one
        slot: trial 0 is the only Picard solve with iterates of its level,
        on trial 0's noisy measurement, and its bound row is that solve's."""
        params, dataset = small_problem
        meas = dataset[0][1]
        levels, seed = (0.01, 0.1), 6
        _, clean = verify_convergence(params, [meas], inits_per_sample=2)
        solves = []
        monkeypatch.setenv("DEQPOCS_THREADS", "1")  # solves in job order

        def spy(name):
            solve = getattr(training, name)

            def wrapped(*args, record_iterates=False, **kwargs):
                res = solve(*args, record_iterates=record_iterates, **kwargs)
                solves.append((name, record_iterates, res))
                return res

            monkeypatch.setattr(training, name, wrapped)

        spy("picard_solve")
        spy("anderson_solve")
        report = verify_robustness(params, meas, delta_rels=levels, trials_per_level=trials,
                                   seed=seed, clean=clean)
        monkeypatch.undo()
        assert len(solves) == len(levels) * max(trials, 1)
        assert all(recorded == (name == "picard_solve") for name, recorded, _ in solves)
        picard = [res for name, _, res in solves if name == "picard_solve"]
        assert len(picard) == len(levels)
        assert len(report.rows) == len(levels) * (trials + 1)
        assert [row[:2] for row in report.rows[len(levels) * trials:]] == [
            ("recursion", level) for level in levels
        ]
        for li, (level, res) in enumerate(zip(levels, picard)):
            noisy = add_noise(meas, level, seed=derive_seed(seed, li, 0))
            want = reconstruct(params, noisy, meas.y, method="picard")
            assert np.array_equal(res.solution, want.solution)
            if trials:
                trial0 = report.rows[li * trials]
                assert trial0[2] == frob(res.solution - clean.solution)

    def test_shared_clean_solve_gives_same_report(self, small_problem):
        params, dataset = small_problem
        meas = dataset[0][1]
        _, clean = verify_convergence(params, [meas], inits_per_sample=2)
        kw = dict(delta_rels=(0.01, 0.1), trials_per_level=2, seed=5)
        assert (
            verify_robustness(params, meas, clean=clean, **kw).to_csv()
            == verify_robustness(params, meas, **kw).to_csv()
        )
        ikw = dict(levels=(0.5, 2.0), trials_per_level=1, seed=5)
        assert (
            verify_init_independence(params, meas, clean=clean, **ikw).to_csv()
            == verify_init_independence(params, meas, **ikw).to_csv()
        )

    def test_clean_solve_for_another_tolerance_refused(self, small_problem):
        params, dataset = small_problem
        meas = dataset[0][1]
        _, clean = verify_convergence(params, [meas], inits_per_sample=2, tol=1e-4)
        with pytest.raises(ValueError, match="clean solve"):
            verify_robustness(params, meas, trials_per_level=1, tol=1e-5, clean=clean)
        with pytest.raises(ValueError, match="clean solve"):
            verify_init_independence(params, meas, trials_per_level=1, tol=1e-5, clean=clean)

    def test_clean_solve_without_iterates_refused(self, small_problem):
        params, dataset = small_problem
        meas = dataset[0][1]
        clean = reconstruct(params, meas, method="picard")  # verify's tol, no iterates
        assert clean.iterates is None
        with pytest.raises(ValueError, match="no recorded iterates"):
            verify_robustness(params, meas, trials_per_level=1, clean=clean)
        with pytest.raises(ValueError, match="no recorded iterates"):
            verify_init_independence(params, meas, trials_per_level=1, clean=clean)

    def test_recursion_fails_under_a_false_certificate(self, false_certificate):
        """The noisy and clean iterates of a falsely certified model break
        ``d_k <= L * d_{k-1} + delta`` and the report fails."""
        params, meas = false_certificate
        report = verify_robustness(params, meas, delta_rels=(0.1,), trials_per_level=1, seed=0)
        assert report.rows[1:] == [("recursion", 0.1, False, None, None)]
        assert report.passed is False

    def test_csv(self, small_problem):
        params, dataset = small_problem
        report = verify_robustness(
            params, dataset[0][1], delta_rels=(0.05,), trials_per_level=2, seed=3
        )
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "delta_rel,delta_abs,observed,bound,margin"
        assert len(lines) == 1 + 2 + 1  # header, trials, one recursion row


@pytest.mark.parametrize(
    "check, kwargs",
    [
        (verify_robustness, dict(delta_rels=())),
        (verify_robustness, dict(trials_per_level=-1)),
        (verify_init_independence, dict(levels=())),
        (verify_init_independence, dict(trials_per_level=0)),
    ],
)
def test_check_that_compares_nothing_refused(small_problem, check, kwargs):
    params, dataset = small_problem
    with pytest.raises(ValueError):
        check(params, dataset[0][1], **kwargs)


class TestInitIndependence:
    def test_levels_agree(self, small_problem):
        params, dataset = small_problem
        report = verify_init_independence(
            params, dataset[0][1], levels=(0.5, 2.0), trials_per_level=2, seed=5
        )
        assert report.passed
        assert len(report.rows) == 4

    def test_zero_level(self, small_problem):
        params, dataset = small_problem
        report = verify_init_independence(
            params, dataset[0][1], levels=(0.0,), trials_per_level=1, seed=6
        )
        assert report.passed
        assert report.rows[0][2] <= report.rows[0][3]


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("DEQPOCS_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("DEQPOCS_THREADS", "64")
    assert worker_count() >= 1
    monkeypatch.setenv("DEQPOCS_THREADS", "abc")
    with pytest.raises(ConfigurationError, match="DEQPOCS_THREADS"):
        worker_count()
