import numpy as np
import pytest

from deqpocs.errors import DivergenceError
from deqpocs.rng import RandomStream
from deqpocs.solvers import (
    RATE_SLACK,
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
        and_ = anderson_solve(T, np.zeros_like(c), m=1, tol=1e-9, max_iter=200)
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

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    def test_finite_termination_on_four_eigenvalues(self, tol):
        # on an affine map Anderson is GMRES (Walker & Ni 2011): with four
        # distinct eigenvalues its fifth iterate is the fixed point, which the
        # sixth evaluation confirms
        diag = np.repeat([0.3, 0.6, 0.9, 0.95], 4).reshape(4, 4, 1)
        c = gaussian_tensor((4, 4, 1), RandomStream(9))
        res = anderson_solve(lambda x: diag * x + c, np.zeros_like(c), m=5, tol=tol, max_iter=100)
        assert res.converged and res.iterations <= 6
        assert frob(res.solution - c / (1.0 - diag)) <= 10 * tol * max(1.0, frob(res.solution))

    def test_zero_residual_differences_give_plain_steps(self):
        # a translation has the same residual at every iterate, so the
        # differences are zero and the minimum-norm mixing is the plain step
        d = np.full((2, 2, 1), 0.5 + 0.25j)
        x0 = np.zeros_like(d)
        res = anderson_solve(lambda x: x + d, x0, m=5, tol=1e-9, max_iter=7,
                             record_iterates=True)
        assert not res.converged and res.iterations == 7
        for k, it in enumerate(res.iterates):
            assert np.array_equal(it, x0 + k * d)

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
        with pytest.raises(ValueError):
            anderson_solve(lambda x: x, c, tol=float("inf"))


class TestGeometricRateCheck:
    def test_exact_geometric_passes(self):
        # residuals exactly on the envelope RATE_SLACK * L**k * r0
        assert geometric_rate_check([1.0, RATE_SLACK * 0.5, RATE_SLACK * 0.25], L=0.5)

    def test_slow_decay_fails(self):
        assert not geometric_rate_check([1.0, 0.9], L=0.5)
        # one ulp above the envelope
        assert not geometric_rate_check([1.0, np.nextafter(RATE_SLACK * 0.5, 1.0)], L=0.5)

    def test_floor_ignores_noise_tail(self):
        # after ~50 halvings the envelope drops below the 1e-15 noise plateau
        residuals = [1.0] + [RATE_SLACK * 0.5**k for k in range(1, 11)] + [1e-15] * 60
        assert geometric_rate_check(residuals, L=0.5, floor=1e-12)
        assert not geometric_rate_check(residuals, L=0.5, floor=0.0)

    def test_zero_rate(self):
        # L = 0 certifies a constant map: every residual after the first is 0
        assert geometric_rate_check([1.0, 0.0], L=0.0)
        assert not geometric_rate_check([1.0, 1e-3], L=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_rate_check([], L=0.5)
        with pytest.raises(ValueError):
            geometric_rate_check([1.0], L=-0.1)
        with pytest.raises(ValueError):
            geometric_rate_check([1.0], L=1.5)

    def test_numerical_floor_scales(self):
        x = np.ones((4, 4, 1), dtype=complex)
        assert numerical_floor(x) == pytest.approx(100 * np.finfo(np.float64).eps * 4.0)


class TestDiagnostics:
    def test_csv_shape(self):
        c = gaussian_tensor((4, 4, 1), RandomStream(10))
        res = picard_solve(affine_map(0.5, c), np.zeros_like(c), tol=1e-6, max_iter=50)
        lines = diagnostics_csv(res).strip().split("\n")
        assert lines[0] == "iteration,residual"
        assert len(lines) == res.iterations + 1
