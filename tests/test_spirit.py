import numpy as np
import pytest

from deqpocs.errors import ConfigurationError, DivergenceError, InvalidInputError
from deqpocs.phantom import make_sample
from deqpocs.rng import RandomStream, derive_seed
from deqpocs.sampling import apply_sampling, make_mask, project_data_consistency
from deqpocs.spirit import (
    DIVERGENCE_WINDOW,
    SpiritKernels,
    calibrate_kernels,
    extract_acs,
    spirit_apply,
    spirit_pocs_recon,
)
from deqpocs.tensors import frob, gaussian_tensor
from deqpocs.metrics import image_from_kspace, psnr
from oracles import dense_calibration_reference


def shifted_pair_kspace(H, W, seed=0):
    """Coil 2 is coil 1 shifted one pixel along the width axis."""
    base = gaussian_tensor((H, W, 1), RandomStream(seed))[:, :, 0]
    x = np.zeros((H, W, 2), dtype=complex)
    x[:, :, 0] = base
    x[:, 1:, 1] = base[:, :-1]
    return x


def quadrature_phantom_problem():
    """A 32x32 4-coil phantom at R=2 with a 6-line ACS block, and its
    calibrated 3x3 kernels."""
    s = make_sample(
        32, 32, 4, derive_seed(0, 0, 0), derive_seed(0, 0, 1),
        edge_sigma=0.7, coil_style="quadrature",
    )
    mask = make_mask("1d-calibrated", 32, 32, 2, acs=6, seed=derive_seed(0, 0, 2))
    meas = apply_sampling(s.kspace, mask)
    return s, meas, calibrate_kernels(extract_acs(meas), k=3, lam_rel=1e-2)


class TestCalibration:
    def test_matches_dense_oracle(self):
        acs = gaussian_tensor((24, 24, 3), RandomStream(3))
        got = calibrate_kernels(acs, k=5, lam_rel=1e-2)
        want = dense_calibration_reference(acs, 5, 1e-2)
        assert frob(got.taps - want) <= 1e-6 * frob(want)

    def test_zero_acs_gives_zero_kernels(self):
        got = calibrate_kernels(np.zeros((12, 12, 2), dtype=complex), k=3, lam_rel=1e-2)
        assert frob(got.taps) == 0.0

    def test_shifted_coil_pair_recovers_unit_tap(self):
        x = shifted_pair_kspace(24, 24, seed=5)
        kern = calibrate_kernels(x, k=3, lam_rel=1e-8)
        # predicting coil 1 (index 1, the shifted copy) from coil 0 needs the
        # tap that reads the source one pixel to the left
        w_10 = kern.taps[:, :, 0, 1]
        assert abs(w_10[1, 0] - 1.0) <= 1e-4
        others = w_10.copy()
        others[1, 0] = 0
        assert np.abs(others).max() <= 1e-4
        assert np.abs(kern.taps[:, :, 1, 1]).max() <= 1e-4

    def test_normal_equation_residual_orthogonality(self):
        acs = gaussian_tensor((16, 16, 2), RandomStream(7))
        k, lam_rel = 3, 1e-2
        kern = calibrate_kernels(acs, k=k, lam_rel=lam_rel)
        c = k // 2
        # rebuild the design for coil 0 and check A^H (b - A w) = lam * w
        want = dense_calibration_reference(acs, k, lam_rel)
        assert frob(kern.taps - want) <= 1e-8 * frob(want)

    def test_acs_too_small(self):
        with pytest.raises(ConfigurationError):
            calibrate_kernels(gaussian_tensor((4, 4, 2), RandomStream(0)), k=5)

    def test_center_tap_invariant_enforced(self):
        taps = np.zeros((3, 3, 2, 2), dtype=complex)
        taps[1, 1, 0, 0] = 0.5
        with pytest.raises(InvalidInputError):
            SpiritKernels(taps=taps)

    def test_local_minimum_of_regularized_objective(self):
        acs = gaussian_tensor((14, 14, 2), RandomStream(9))
        k, lam_rel = 3, 1e-2
        kern = calibrate_kernels(acs, k=k, lam_rel=lam_rel)
        c = k // 2

        def coil_objective(taps, coil):
            # fit term over interior points plus the ridge term with the
            # same absolute weight the calibration used for this coil
            pred = spirit_apply(SpiritKernels(taps=taps), acs)
            resid = (pred - acs)[c:-c, c:-c, coil]
            w = taps[:, :, :, coil]
            want = dense_calibration_reference(acs, k, lam_rel)  # for lam scale only
            del want
            # recompute the per-coil ridge weight exactly as calibration does
            rows = []
            for i in range(c, 14 - c):
                for j in range(c, 14 - c):
                    row = []
                    for dy in range(-c, c + 1):
                        for dx in range(-c, c + 1):
                            for n in range(2):
                                row.append(acs[i + dy, j + dx, n])
                    rows.append(row)
            A_full = np.array(rows, dtype=complex)
            self_col = (c * k + c) * 2 + coil
            keep = [q for q in range(A_full.shape[1]) if q != self_col]
            normal = A_full[:, keep].conj().T @ A_full[:, keep]
            lam = lam_rel * float(np.real(np.trace(normal))) / normal.shape[0]
            return float(np.sum(np.abs(resid) ** 2)) + lam * float(np.sum(np.abs(w) ** 2))

        s = RandomStream(10)
        base_vals = [coil_objective(kern.taps, coil) for coil in range(2)]
        for _ in range(20):
            i, j = s.randint(3), s.randint(3)
            src, dst = s.randint(2), s.randint(2)
            if i == 1 and j == 1 and src == dst:
                continue  # the constrained-zero center tap is not a free coordinate
            delta = 1e-3 * (1 if s.uniform() < 0.5 else -1)
            for delta_part in (delta, delta * 1j):
                perturbed = kern.taps.copy()
                perturbed[i, j, src, dst] += delta_part
                assert coil_objective(perturbed, dst) >= base_vals[dst] - 1e-9


class TestApply:
    def test_zero_kernels(self, rand_tensor):
        kern = SpiritKernels(taps=np.zeros((3, 3, 2, 2), dtype=complex))
        assert frob(spirit_apply(kern, rand_tensor((8, 8, 2), 0))) == 0.0

    def test_shifted_pair_reproduction(self):
        x = shifted_pair_kspace(24, 24, seed=11)
        kern = calibrate_kernels(x, k=3, lam_rel=1e-8)
        pred = spirit_apply(kern, x)
        interior = (slice(2, -2), slice(2, -2))
        err = np.abs((pred - x)[:, :, 1][interior]).max()
        assert err <= 1e-4

    def test_linearity(self, rand_tensor):
        kern = calibrate_kernels(gaussian_tensor((12, 12, 2), RandomStream(12)), k=3)
        a = rand_tensor((10, 10, 2), 13)
        b = rand_tensor((10, 10, 2), 14)
        lhs = spirit_apply(kern, 2.0 * a - 1.5j * b)
        rhs = 2.0 * spirit_apply(kern, a) - 1.5j * spirit_apply(kern, b)
        assert frob(lhs - rhs) <= 1e-6 * max(frob(rhs), 1e-12)


class TestPocsRecon:
    def test_fully_sampled_returns_measurement(self):
        x = shifted_pair_kspace(16, 16, seed=16)
        mask = make_mask("1d-calibrated", 16, 16, 1, acs=4, seed=0)
        meas = apply_sampling(x, mask)
        kern = calibrate_kernels(extract_acs(meas), k=3, lam_rel=1e-6)
        res = spirit_pocs_recon(kern, meas, max_iter=10)
        assert frob(res.solution - x) == 0.0

    def test_shifted_pair_exact_consistency_reconstruction(self):
        # alternating columns: every value is observed through one of the two
        # coils, so the exact shift kernels determine the rest (adjacent
        # unsampled column pairs would be fundamentally unrecoverable)
        from deqpocs.sampling import SamplingMask

        x = shifted_pair_kspace(32, 32, seed=17)
        grid = np.zeros((32, 32), dtype=bool)
        grid[:, ::2] = True
        mask = SamplingMask(grid=grid, kind="1d-free", accel=2.0, acs=(0, 0))
        meas = apply_sampling(x, mask)
        kern = calibrate_kernels(x, k=3, lam_rel=1e-8)  # exact kernels from full data
        res = spirit_pocs_recon(kern, meas, max_iter=200, tol=1e-8)
        band = (slice(4, -4), slice(4, -4))
        rel = frob((res.solution - x)[band]) / frob(x[band])
        assert rel <= 1e-3

    def test_phantom_beats_zero_fill(self):
        # quadrature maps carry the cross-coil k-space redundancy the
        # prediction kernels need; margin on this instance is ~+8 dB
        s, meas, kern = quadrature_phantom_problem()
        res = spirit_pocs_recon(kern, meas, max_iter=30)
        p_sp = psnr(image_from_kspace(res.solution), s.reference)
        p_zf = psnr(image_from_kspace(meas.y), s.reference)
        assert p_sp > p_zf + 1.0

    def test_free_mask_has_no_acs(self):
        x = shifted_pair_kspace(16, 16, seed=18)
        mask = make_mask("1d-free", 16, 16, 2, seed=6)
        meas = apply_sampling(x, mask)
        with pytest.raises(ConfigurationError):
            extract_acs(meas)


class TestWatchdog:
    """SPIRiT's operator has no certificate, so its loop keeps a watchdog."""

    @pytest.mark.parametrize("max_iter", [500, 15])
    def test_returns_best_iterate(self, max_iter):
        # scaled up, the calibrated taps are expansive: the residual falls
        # for 9 steps, then grows
        _, meas, kern = quadrature_phantom_problem()
        expansive = SpiritKernels(taps=1.3 * kern.taps)
        res = spirit_pocs_recon(expansive, meas, max_iter=max_iter, tol=1e-9)
        best = int(np.argmin(res.residuals))
        assert not res.converged and best > 0
        # the watchdog stops DIVERGENCE_WINDOW steps after the smallest
        # residual, unless the budget runs out first
        assert res.iterations == min(max_iter, best + 1 + DIVERGENCE_WINDOW)
        step = project_data_consistency(spirit_apply(expansive, res.solution), meas)
        assert frob(step - res.solution) == min(res.residuals)

    def test_non_finite_iterate_raises_at_iteration_0(self):
        _, meas, kern = quadrature_phantom_problem()
        huge = SpiritKernels(taps=kern.taps * (1e300 / np.abs(kern.taps).max()))
        with pytest.raises(DivergenceError) as err:
            spirit_pocs_recon(huge, meas)
        assert err.value.iteration == 0

    @pytest.mark.parametrize("tol, max_iter",
                             [(0.0, 10), (-1e-5, 10), (float("inf"), 10), (1e-5, 0)])
    def test_bad_tol_or_budget_raises(self, tol, max_iter):
        _, meas, kern = quadrature_phantom_problem()
        with pytest.raises(ValueError):
            spirit_pocs_recon(kern, meas, max_iter=max_iter, tol=tol)
