"""Classical SPIRiT baseline: per-coil linear-prediction kernels calibrated
from the fully sampled ACS block, applied iteratively under the
data-consistency projection.

Each k-space point of coil ``i`` is predicted from the kxk multi-coil
neighborhood around it (the point itself excluded): calibration solves one
ridge least-squares problem per target coil over the interior of the ACS
region. The resulting linear operator carries no contraction guarantee, so
reconstruction runs its own plain projected iteration with a divergence
watchdog and returns the best-residual iterate; the package's certified
solver loop (:mod:`deqpocs.solvers`) keeps none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeError
from .sampling import Measurement, project_data_consistency
from .solvers import FixedPointResult, _norms
from .tensors import as_tensor, conv2d_complex, window_rows

DIVERGENCE_WINDOW = 10  # iterations without a new smallest residual that stop the recon


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
    """Alternate prediction and data consistency from the measurement: the
    plain projected iteration ``x <- P(G x)``, with no Anderson history.

    Stops with ``P(G x)``, converged, once the residual ``||P(G x) - x||_F``
    drops below ``tol * max(1, ||P(G x)||_F)``. When the residual has not
    reached a new minimum for ``DIVERGENCE_WINDOW`` iterations, or
    ``max_iter`` runs out, it returns the pre-step iterate of the smallest
    residual, flagged not converged. A non-finite iterate raises
    :class:`DivergenceError`.
    """
    if not 0 < tol < np.inf or max_iter < 1:
        raise ValueError("tol must be finite and positive and max_iter >= 1")
    x = np.asarray(meas.y, dtype=np.complex128)
    residuals: list[float] = []
    best_iterate, best_k = x, 0  # the pre-step iterate of the smallest residual
    for k in range(max_iter):
        g = project_data_consistency(spirit_apply(kernels, x), meas)
        res, size = _norms(g, x, k)
        residuals.append(res)
        if res <= tol * max(1.0, size):
            return FixedPointResult(g, residuals, True, tol, "picard")
        if res < residuals[best_k]:
            best_iterate, best_k = x, k
        elif k - best_k >= DIVERGENCE_WINDOW:
            break
        x = g
    return FixedPointResult(best_iterate, residuals, False, tol, "picard")


def extract_acs(meas: Measurement) -> np.ndarray:
    """The fully sampled central block of a calibrated measurement."""
    rows, cols = meas.mask.acs_slices()
    if rows.stop - rows.start == 0 or cols.stop - cols.start == 0:
        raise ConfigurationError(
            f"mask kind {meas.mask.kind!r} carries no ACS block to calibrate from"
        )
    return meas.y[rows, cols, :]
