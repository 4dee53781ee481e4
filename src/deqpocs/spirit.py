"""Classical SPIRiT baseline: per-coil linear-prediction kernels calibrated
from the fully sampled ACS block, applied iteratively under the
data-consistency projection.

Each k-space point of coil ``i`` is predicted from the kxk multi-coil
neighborhood around it (the point itself excluded): calibration solves one
ridge least-squares problem per target coil over the interior of the ACS
region. The resulting linear operator carries no contraction guarantee, so
reconstruction runs with a divergence watchdog and returns the
best-residual iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeError
from .sampling import Measurement, project_data_consistency
from .solvers import FixedPointResult, picard_solve
from .tensors import as_tensor, conv2d_complex, window_rows


@dataclass(frozen=True)
class SpiritKernels:
    """Linear prediction taps, layout (kh, kw, source coil, target coil).

    The center tap mapping a coil to itself is identically zero: a point
    never predicts itself.
    """

    taps: np.ndarray  # complex (k, k, Nc, Nc)

    def __post_init__(self):
        t = np.asarray(self.taps, dtype=np.complex128)
        object.__setattr__(self, "taps", t)
        if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
            raise ShapeError(f"taps must be (k, k, Nc, Nc), got {t.shape}")
        if t.shape[0] % 2 == 0:
            raise ShapeError("kernel size must be odd")
        if not np.all(np.isfinite(t)):
            raise InvalidInputError("taps contain non-finite values")
        c = t.shape[0] // 2
        if np.any(t[c, c, np.arange(t.shape[2]), np.arange(t.shape[2])] != 0):
            raise InvalidInputError("self-prediction center taps must be zero")

    @property
    def coils(self) -> int:
        return self.taps.shape[2]


def calibrate_kernels(acs: np.ndarray, k: int = 5, lam_rel: float = 1e-2) -> SpiritKernels:
    """Ridge least-squares calibration over the ACS interior.

    For each target coil the design matrix holds every kxk neighborhood tap
    of every coil except the target's own center; the ridge weight is
    ``lam_rel`` times the mean diagonal of the normal matrix (an absolute
    fallback keeps the degenerate all-zero ACS well-posed, yielding zero
    kernels).
    """
    acs = as_tensor(acs, "ACS block")
    Ha, Wa, nc = acs.shape
    if k % 2 == 0 or k < 1:
        raise ConfigurationError("kernel size must be odd and positive")
    if Ha < k or Wa < k:
        raise ConfigurationError(f"ACS block {Ha}x{Wa} smaller than kernel {k}x{k}")
    if lam_rel < 0:
        raise ConfigurationError("ridge weight must be nonnegative")
    A_full = window_rows(acs, k, k)
    center = k // 2
    margin = center
    centers = acs[margin : Ha - margin, margin : Wa - margin, :].reshape(-1, nc)
    taps = np.zeros((k, k, nc, nc), dtype=np.complex128)
    for i in range(nc):
        self_col = (center * k + center) * nc + i
        keep = np.arange(A_full.shape[1]) != self_col
        A = A_full[:, keep]
        b = centers[:, i]
        normal = A.conj().T @ A
        mean_diag = float(np.real(np.trace(normal))) / normal.shape[0]
        lam = lam_rel * mean_diag if mean_diag > 0 else lam_rel
        w = np.linalg.solve(normal + lam * np.eye(normal.shape[0]), A.conj().T @ b)
        full = np.zeros(k * k * nc, dtype=np.complex128)
        full[keep] = w
        taps[:, :, :, i] = full.reshape(k, k, nc)
    return SpiritKernels(taps=taps)


def spirit_apply(kernels: SpiritKernels, kspace: np.ndarray) -> np.ndarray:
    """Predict every coil's k-space from all coils' neighborhoods (linear)."""
    x = as_tensor(kspace, "k-space")
    if x.shape[2] != kernels.coils:
        raise ShapeError(
            f"coil mismatch: data has {x.shape[2]}, kernels expect {kernels.coils}"
        )
    return conv2d_complex(x, kernels.taps)


def spirit_pocs_recon(
    kernels: SpiritKernels,
    meas: Measurement,
    max_iter: int = 100,
    tol: float = 1e-5,
) -> FixedPointResult:
    """Alternate prediction and data consistency from the measurement.

    Stops on the relative residual, on ``max_iter``, or when the residual
    has grown for 10 consecutive iterations (returning the best-residual
    iterate flagged not converged).
    """

    def T(x: np.ndarray) -> np.ndarray:
        return project_data_consistency(spirit_apply(kernels, x), meas)

    return picard_solve(T, meas.y, tol=tol, max_iter=max_iter, divergence_window=10)


def extract_acs(meas: Measurement) -> np.ndarray:
    """The fully sampled central block of a calibrated measurement."""
    rows, cols = meas.mask.acs_slices()
    if rows.stop - rows.start == 0 or cols.stop - cols.start == 0:
        raise ConfigurationError(
            f"mask kind {meas.mask.kind!r} carries no ACS block to calibrate from"
        )
    return meas.y[rows, cols, :]
