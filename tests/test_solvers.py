import numpy as np
import pytest

from deqpocs.errors import DivergenceError
from deqpocs.rng import RandomStream
from deqpocs.solvers import (
    anderson_solve,
    diagnostics_csv,
    geometric_rate_check,
    numerical_floor,
    picard_solve,
)
from deqpocs.tensors import frob, gaussian_tensor


def affine_map(factor, offset):
    return lambda x: factor * x + offset


class TestPicard:
    def test_affine_contraction_closed_form(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(1))
        res = picard_solve(affine_map(0.5, c), np.zeros_like(c), tol=1e-10, max_iter=100)
        assert res.converged
        assert frob(res.solution - 2 * c) <= 1e-8 * frob(c)
        ratios = [b / a for a, b in zip(res.residuals, res.residuals[1:])]
        assert all(r == pytest.approx(0.5, abs=1e-6) for r in ratios[:10])

    def test_fixed_point_start_converges_immediately(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(2))
        res = picard_solve(affine_map(0.5, c), 2 * c, tol=1e-8, max_iter=50)
        assert res.converged and res.iterations == 1
        assert res.residuals[0] <= 1e-12

    def test_residual_list_length_matches_iterations(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(3))
        res = picard_solve(affine_map(0.9, c), np.zeros_like(c), tol=1e-6, max_iter=300)
        assert len(res.residuals) == res.iterations
        assert res.residuals[-1] <= res.tolerance * max(1.0, frob(res.solution))

    def test_divergence_error_reports_iteration(self):
        def blowup(x):
            return np.full_like(x, np.inf)

        with pytest.raises(DivergenceError) as err:
            picard_solve(blowup, np.ones((2, 2, 1), dtype=complex), tol=1e-6, max_iter=10)
        assert err.value.iteration == 0

    def test_watchdog_returns_best_iterate(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(4))
        res = picard_solve(
            affine_map(1.5, c), np.zeros_like(c), tol=1e-9, max_iter=500, divergence_window=10
        )
        assert not res.converged
        assert res.iterations < 500
        assert min(res.residuals) == frob(affine_map(1.5, c)(res.solution) - res.solution)

    def test_record_iterates(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(5))
        res = picard_solve(
            affine_map(0.5, c), np.zeros_like(c), tol=1e-8, max_iter=60, record_iterates=True
        )
        assert len(res.iterates) == res.iterations + 1
        assert np.array_equal(res.iterates[-1], res.solution)

    def test_max_iter_not_converged(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(6))
        res = picard_solve(affine_map(0.999, c), np.zeros_like(c), tol=1e-12, max_iter=5)
        assert not res.converged and res.iterations == 5


class TestAnderson:
    def test_memory_one_matches_picard(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(7))
        T = affine_map(0.7, c)
        pic = picard_solve(T, np.zeros_like(c), tol=1e-9, max_iter=200)
        and_ = anderson_solve(T, np.zeros_like(c), m=1, ridge=0.0, tol=1e-9, max_iter=200)
        n = min(pic.iterations, and_.iterations)
        assert np.allclose(pic.residuals[:n], and_.residuals[:n], rtol=1e-9)

    def test_accelerates_diagonal_affine(self):
        # 16-dimensional diagonal contraction, spectral radius 0.9
        diag = np.linspace(0.3, 0.9, 16).reshape(4, 4, 1)
        c = gaussian_tensor((4, 4, 1), RandomStream(8))
        T = lambda x: diag * x + c
        pic = picard_solve(T, np.zeros_like(c), tol=1e-8, max_iter=1000)
        acc = anderson_solve(T, np.zeros_like(c), m=5, tol=1e-8, max_iter=1000)
        assert acc.converged and pic.converged
        assert acc.iterations < pic.iterations
        assert frob(acc.solution - pic.solution) <= 1e-5

    def test_never_converged_above_tolerance(self):
        for seed in range(5):
            c = gaussian_tensor((4, 4, 1), RandomStream(seed))
            res = anderson_solve(affine_map(0.8, c), np.zeros_like(c), tol=1e-7, max_iter=100)
            if res.converged:
                assert res.residuals[-1] <= res.tolerance * max(1.0, frob(res.solution))

    def test_divergence_error(self):
        def blowup(x):
            return x * 2e200

        with pytest.raises(DivergenceError):
            anderson_solve(blowup, np.ones((2, 2, 1), dtype=complex), tol=1e-6, max_iter=300)

    def test_parameter_validation(self):
        c = np.zeros((2, 2, 1), dtype=complex)
        with pytest.raises(ValueError):
            anderson_solve(lambda x: x, c, m=0)
        with pytest.raises(ValueError):
            picard_solve(lambda x: x, c, tol=-1.0)


class TestGeometricRateCheck:
    def test_exact_geometric_passes(self):
        assert geometric_rate_check([1.0, 0.5, 0.25], L=0.5, slack=1.0)

    def test_slow_decay_fails(self):
        assert not geometric_rate_check([1.0, 0.9], L=0.5, slack=1.0)

    def test_floor_ignores_noise_tail(self):
        # after ~50 halvings the envelope drops below the 1e-15 noise plateau
        residuals = [0.5**k for k in range(11)] + [1e-15] * 60
        assert geometric_rate_check(residuals, L=0.5, slack=1.0, floor=1e-12)
        assert not geometric_rate_check(residuals, L=0.5, slack=1.0, floor=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_rate_check([], L=0.5)
        with pytest.raises(ValueError):
            geometric_rate_check([1.0], L=1.5)

    def test_numerical_floor_scales(self):
        x = np.ones((4, 4, 1), dtype=complex)
        assert numerical_floor(x) == pytest.approx(100 * np.finfo(np.float64).eps * 4.0)


class TestDiagnostics:
    def test_csv_shape(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(10))
        res = picard_solve(affine_map(0.5, c), np.zeros_like(c), tol=1e-6, max_iter=50)
        timed = diagnostics_csv(res, include_timing=True)
        lines = timed.strip().split("\n")
        assert lines[0] == "iteration,residual,wall-time-ms"
        assert len(lines) == res.iterations + 1
        plain = diagnostics_csv(res, include_timing=False)
        assert plain.startswith("iteration,residual\n")
