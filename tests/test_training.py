import numpy as np
import pytest

from deqpocs.errors import CertificateError, TrainingError
from deqpocs.harness import verify_convergence, verify_init_independence, verify_robustness
from deqpocs.network import (
    certified_lipschitz,
    forward,
    init_params,
    pack_params,
    unpack_params,
)
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.rng import RandomStream
from deqpocs.sampling import apply_sampling, make_mask, project_data_consistency
from deqpocs.solvers import picard_solve
from deqpocs.tensors import frob, gaussian_tensor
from deqpocs.training import (
    AdamState,
    SolverSettings,
    TrainConfig,
    adam_step,
    auto_max_iter,
    implicit_backward,
    make_pocs_operator,
    reconstruct,
    train,
    zero_fill,
)


def tiny_setup(seed=0, with_biases=True):
    """8x8x2 measurement plus a one-block operator, kink-conditioned."""
    x_full = gaussian_tensor((8, 8, 2), RandomStream(seed))
    mask = make_mask("1d-calibrated", 8, 8, 2, acs=2, seed=5)
    meas = apply_sampling(x_full, mask)
    params = init_params("kspace", 1, 4, 2, seed=9, grid=(8, 8))
    if with_biases:
        s = RandomStream(77)
        for blk in params.blocks:
            for j, b in enumerate(blk.kspace_branch.biases):
                blk.kspace_branch.biases[j] = 0.3 * gaussian_tensor(
                    (1, 1, b.size), s
                ).reshape(b.shape)
    return x_full, meas, params


def reference_solve(params, meas, tol, max_iter=None):
    """Untightened Picard from the measurement, with the budget the
    certificate-free sizing gives (L taken as 0.5) unless one is set."""
    if max_iter is None:
        max_iter = auto_max_iter(tol, 0.5, "picard")
    return picard_solve(make_pocs_operator(params, meas), meas.y, tol=tol, max_iter=max_iter)


class TestAdam:
    def test_zero_gradient_keeps_values(self):
        state = AdamState.init(np.array([1.0, -2.0, 3.0]))
        out = adam_step(state, np.zeros(3), lr=0.1)
        assert np.array_equal(out.values, state.values)

    def test_first_step_magnitude(self):
        state = AdamState.init(np.array([0.0]))
        out = adam_step(state, np.array([7.3]), lr=1e-3)
        # first bias-corrected step is -lr * g / (|g| + eps) ~ -lr
        assert out.values[0] == pytest.approx(-1e-3, rel=1e-6)

    def test_scalar_quadratic_converges(self):
        state = AdamState.init(np.array([0.0]))
        for _ in range(500):
            grad = 2.0 * (state.values - 3.0)
            state = adam_step(state, grad, lr=0.1)
        assert abs(state.values[0] - 3.0) < 1e-2

    def test_nonfinite_gradient_rejected(self):
        state = AdamState.init(np.zeros(2))
        with pytest.raises(TrainingError):
            adam_step(state, np.array([np.nan, 0.0]))


class TestImplicitBackward:
    def test_zero_loss_gradient(self):
        x_full, meas, params = tiny_setup()
        res = reference_solve(params, meas, tol=1e-10)
        grad, _ = implicit_backward(params, res.solution, meas, np.zeros_like(res.solution))
        assert np.all(grad == 0.0)

    def test_alpha_zero_kernel_gradients_vanish(self):
        x_full, meas, params = tiny_setup(with_biases=False)
        params.blocks[0].alpha = 0.0
        res = reference_solve(params, meas, tol=1e-10)
        g = 2.0 * (res.solution - x_full)
        # the identity-dominant operator contracts at 0.99: give the adjoint room
        grad, _ = implicit_backward(params, res.solution, meas, g, tol=1e-8, max_iter=4000)
        q = unpack_params(params, grad)
        for k in q.blocks[0].kspace_branch.kernels:
            assert np.abs(k).max() == 0.0

    def test_matches_finite_differences_through_solver(self):
        x_full, meas, params = tiny_setup()

        def loss(vec):
            p = unpack_params(params, vec)
            return frob(reference_solve(p, meas, 1e-11, 5000).solution - x_full) ** 2

        res = reference_solve(params, meas, 1e-11, 5000)
        grad, _ = implicit_backward(
            params, res.solution, meas, 2.0 * (res.solution - x_full), tol=1e-11, max_iter=5000
        )
        vec = pack_params(params)
        s = RandomStream(123)
        for _ in range(5):
            d = np.array(s.gaussians(vec.size))
            d /= np.linalg.norm(d)
            h = 1e-4
            fd = (loss(vec + h * d) - loss(vec - h * d)) / (2 * h)
            assert fd == pytest.approx(float(grad @ d), rel=1e-3, abs=1e-12)

    def test_warns_when_adjoint_budget_exhausted(self):
        x_full, meas, params = tiny_setup()
        res = reference_solve(params, meas, tol=1e-8)
        with pytest.warns(RuntimeWarning):
            implicit_backward(
                params, res.solution, meas, 2.0 * (res.solution - x_full), tol=1e-14, max_iter=1
            )


class TestEquilibrium:
    def test_fully_sampled_fixed_point_is_measurement(self):
        x_full = gaussian_tensor((8, 8, 2), RandomStream(3))
        mask = make_mask("1d-calibrated", 8, 8, 1, acs=2, seed=0)
        meas = apply_sampling(x_full, mask)
        params = init_params("kspace", 1, 4, 2, seed=1, grid=(8, 8))
        res = reconstruct(params, meas)
        assert res.converged
        assert frob(res.solution - x_full) == 0.0

    def test_initialization_independence(self):
        x_full, meas, params = tiny_setup(seed=4)
        tol = 1e-5
        base = reconstruct(params, meas, settings=SolverSettings(method="picard", tol=tol))
        noisy_x0 = meas.y + 0.5 * frob(meas.y) * gaussian_tensor(
            meas.y.shape, RandomStream(8)
        ) / frob(gaussian_tensor(meas.y.shape, RandomStream(8)))
        other = reconstruct(
            params, meas, x0=noisy_x0, settings=SolverSettings(method="picard", tol=tol)
        )
        threshold = 10 * tol * max(1.0, frob(base.solution))
        assert frob(base.solution - other.solution) <= threshold

    def test_anderson_and_picard_agree(self):
        x_full, meas, params = tiny_setup(seed=6)
        a = reconstruct(params, meas, settings=SolverSettings(method="anderson", tol=1e-7))
        p = reconstruct(params, meas, settings=SolverSettings(method="picard", tol=1e-7))
        assert frob(a.solution - p.solution) <= 1e-5 * max(1.0, frob(p.solution))

    def test_operator_composition(self):
        x_full, meas, params = tiny_setup(seed=7)
        T = make_pocs_operator(params, meas)
        x = gaussian_tensor((8, 8, 2), RandomStream(11))
        want = project_data_consistency(forward(params, x), meas)
        assert np.array_equal(T(x), want)

    def test_zero_fill_is_measurement(self):
        x_full, meas, _ = tiny_setup(seed=8)
        assert zero_fill(meas) is meas.y

    @pytest.mark.parametrize("shape", [(16, 16), (16, 8), (8, 16)])
    def test_grid_beyond_certified_grid_refused(self, shape):
        _, _, params = tiny_setup()  # certified on 8x8
        x_full = gaussian_tensor((*shape, 2), RandomStream(12))
        meas = apply_sampling(x_full, make_mask("1d-calibrated", *shape, 2, acs=2, seed=5))
        with pytest.raises(CertificateError, match="exceeds the certified grid 8x8"):
            make_pocs_operator(params, meas)
        with pytest.raises(CertificateError):
            reconstruct(params, meas)

    def test_grid_within_certified_grid_accepted(self):
        x_full = gaussian_tensor((6, 8, 2), RandomStream(13))
        meas = apply_sampling(x_full, make_mask("1d-calibrated", 6, 8, 2, acs=2, seed=5))
        assert reconstruct(tiny_setup()[2], meas).converged


class TestCertifiedSolve:
    """``reconstruct`` is the one certified solve: the harness and ``train``
    reach the equilibrium only through it."""

    @pytest.mark.parametrize("method", ["picard", "anderson"])
    def test_records_start_and_every_map_output(self, method):
        _, meas, params = tiny_setup(seed=3)
        T = make_pocs_operator(params, meas)
        x0 = gaussian_tensor(meas.y.shape, RandomStream(14))
        tol = 1e-6
        res = reconstruct(params, meas, x0, SolverSettings(method, tol), record_iterates=True)
        L = certified_lipschitz(params).contraction_bound
        assert res.method == method and res.converged
        assert res.tolerance == tol * (1.0 - L)
        assert len(res.iterates) == res.iterations + 1
        assert np.array_equal(res.iterates[0], x0)
        assert np.array_equal(res.iterates[-1], res.solution)
        # the first two steps are plain steps for both methods
        steps = range(res.iterations) if method == "picard" else range(2)
        for k in steps:
            assert np.array_equal(res.iterates[k + 1], T(res.iterates[k]))
        assert reconstruct(params, meas, x0, SolverSettings(method, tol)).iterates is None

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda p, x, m: reconstruct(p, m), CertificateError),
            (lambda p, x, m: verify_convergence(p, [m], inits_per_sample=2), CertificateError),
            (lambda p, x, m: verify_robustness(p, m, trials_per_level=1), CertificateError),
            (lambda p, x, m: verify_init_independence(p, m, trials_per_level=1), CertificateError),
            (lambda p, x, m: train([(x, m)], TrainConfig(epochs=1), params=p), TrainingError),
        ],
        ids=["reconstruct", "verify_convergence", "verify_robustness",
             "verify_init_independence", "train"],
    )
    def test_uncertified_parameters_refused(self, call, error):
        x_full, meas, params = tiny_setup()
        params.blocks[0].kspace_branch.sigmas[0] = 5.0
        params.blocks[0].alpha = 0.99
        with pytest.raises(error, match="is not < 1"):
            call(params, x_full, meas)


class TestTrainLoop:
    def _dataset(self, n=2, seed=0):
        spec = DatasetSpec(n=n, height=8, width=8, coils=2, accel=2.0, seed=seed, acs=2)
        return [(s.kspace, m) for s, m in make_dataset(spec)]

    def test_fully_sampled_data_keeps_parameters(self):
        x_full = gaussian_tensor((8, 8, 2), RandomStream(21))
        mask = make_mask("1d-calibrated", 8, 8, 1, acs=2, seed=0)
        meas = apply_sampling(x_full, mask)
        config = TrainConfig(epochs=3, blocks=1, features=4)
        params, report = train([(x_full, meas)], config)
        assert all(v == 0.0 for v in report.epoch_mean_loss)
        fresh = init_params("kspace", 1, 4, 2, seed=config.init_seed, grid=(8, 8))
        assert np.array_equal(pack_params(params), pack_params(fresh))

    def test_deterministic_reports(self):
        config = TrainConfig(epochs=2, blocks=1, features=4)
        ds = self._dataset()
        p1, r1 = train(ds, config)
        p2, r2 = train(ds, config)
        assert np.array_equal(pack_params(p1), pack_params(p2))
        assert r1.to_csv() == r2.to_csv()

    def test_certificate_maintained_every_step(self):
        config = TrainConfig(epochs=3, blocks=2, features=4, learning_rate=1e-2)
        _, report = train(self._dataset(n=3, seed=5), config)
        assert len(report.step_certificates) == 3 * 3
        assert all(l <= 0.99 + 1e-12 for l in report.step_certificates)

    def test_report_csv_layout(self):
        config = TrainConfig(epochs=2, blocks=1, features=4)
        _, report = train(self._dataset(), config)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "epoch,mean_loss,mean_fwd_iters,mean_bwd_iters,L"
        assert len(lines) == 1 + 2 + 1  # header, epochs, final residual
        assert lines[-1].startswith("final_train_residual,")
        assert np.isfinite(report.final_train_residual)

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(epochs=0)
        with pytest.raises(TrainingError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(TrainingError):
            train([], TrainConfig(epochs=1))
