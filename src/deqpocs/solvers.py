"""Fixed-point solvers: Anderson acceleration, with Picard iteration as its
memory-1 case.

One loop iterates an operator ``T`` on complex tensors and records the
fixed-point residual ``||T(x_k) - x_k||_F`` at every step (for Picard this
equals the step norm ``||x_{k+1} - x_k||_F``). Convergence is relative: the
run stops once the residual drops below ``tol * max(1, ||T(x_k)||_F)``. The
forward equilibrium, the harness's plain iteration and the training
adjoint all run on this loop, and all three iterate an operator with a
certified contraction bound ``L < 1``, so the loop keeps no divergence
watchdog: the uncertified SPIRiT baseline runs its own
(:func:`deqpocs.spirit.spirit_pocs_recon`). Anderson mixes the last ``m``
iterates by one plain least-squares solve on residual differences, with no
ridge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .metrics import csv_text
from .tensors import all_finite, frob

RATE_SLACK = 1.05  # the geometric envelope r_k <= 1.05 * L^k * r_0 that verify checks


@dataclass
class FixedPointResult:
    solution: np.ndarray
    residuals: list[float]
    converged: bool
    tolerance: float
    method: str
    iterates: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


def _norms(g: np.ndarray, x: np.ndarray, iteration: int) -> tuple[float, float]:
    """``(||g - x||_F, ||g||_F)``. A non-finite iterate, or a norm that is
    not finite or overflows, is divergence."""
    if all_finite(np.asarray(g)):
        try:
            with np.errstate(over="raise", invalid="raise"):
                res, size = frob(g - x), frob(g)
            if np.isfinite(res):
                return res, size
        except FloatingPointError:
            pass
    raise DivergenceError(
        f"non-finite iterate or residual at iteration {iteration}", iteration=iteration
    )


def picard_solve(
    T,
    x0: np.ndarray,
    tol: float = 1e-5,
    max_iter: int = 200,
    record_iterates: bool = False,
) -> FixedPointResult:
    """Iterate ``x <- T(x)`` until the relative residual drops below ``tol``:
    :func:`anderson_solve` with memory 1."""
    return anderson_solve(T, x0, m=1, tol=tol, max_iter=max_iter,
                          record_iterates=record_iterates)


def anderson_solve(
    T,
    x0: np.ndarray,
    m: int = 5,
    tol: float = 1e-5,
    max_iter: int = 60,
    record_iterates: bool = False,
) -> FixedPointResult:
    """Anderson-accelerated fixed-point solve with memory ``m``.

    Over the last ``m`` iterates, with residuals ``f_i = T(x_i) - x_i`` taken
    as real vectors, the step solves the plain least-squares problem
    ``gamma = argmin ||f_k - dF gamma||`` on the residual differences
    ``dF = [f_{i+1} - f_i]`` and moves to ``x = T(x_k) - dG gamma`` with the
    matching differences ``dG`` of the ``T(x_i)``: the mixing weights
    minimize the combined residual subject to summing to one, with no
    ridge. On an affine map this is GMRES on the same Krylov space (Walker &
    Ni, SINUM 2011). A rank-deficient ``dF`` gets the minimum-norm
    ``gamma``, so ``dF = 0`` gives the plain step. With ``m = 1`` every step
    is the plain step ``x <- T(x)``, i.e. Picard iteration.

    The result is the last ``T(x_k)``: converged once its residual meets
    ``tol``, not converged when the budget runs out first.
    ``record_iterates`` attaches ``x0`` followed by every ``T(x_k)`` as
    ``result.iterates``.
    """
    if m < 1:
        raise ValueError("require m >= 1")
    if not 0 < tol < np.inf or max_iter < 1:
        raise ValueError("tol must be finite and positive and max_iter >= 1")
    x = np.asarray(x0, dtype=np.complex128)
    shape = x.shape
    hist_f: list[np.ndarray] = []  # residuals g_i - x_i as real views
    hist_g: list[np.ndarray] = []
    residuals: list[float] = []
    iterates = [x] if record_iterates else None
    converged = False
    for k in range(max_iter):
        g = T(x)
        res, size = _norms(g, x, k)
        residuals.append(res)
        if iterates is not None:
            iterates.append(g)
        if res <= tol * max(1.0, size):
            converged = True
            break
        hist_f.append((g - x).ravel().view(np.float64))
        hist_g.append(g.ravel())
        if len(hist_g) > m:
            hist_f.pop(0)
            hist_g.pop(0)
        if len(hist_g) == 1:
            x = g
            continue
        dF = np.diff(np.stack(hist_f, axis=1), axis=1)
        dG = np.diff(np.stack(hist_g, axis=1), axis=1)
        gamma = np.linalg.lstsq(dF, hist_f[-1], rcond=None)[0]
        x = (hist_g[-1] - dG @ gamma).reshape(shape)
    return FixedPointResult(
        solution=g,
        residuals=residuals,
        converged=converged,
        tolerance=tol,
        method="picard" if m == 1 else "anderson",
        iterates=iterates,
    )


def geometric_rate_check(residuals: list[float], L: float, floor: float = 0.0) -> bool:
    """True iff ``residual_k <= RATE_SLACK * L**k * residual_0`` for all k.

    Residuals at or below ``floor`` (e.g. ``100 * eps * norm(solution)``)
    are ignored: once the iteration reaches the numerical noise floor the
    geometric envelope no longer applies.
    """
    if not residuals:
        raise ValueError("residuals must be nonempty")
    if not 0 <= L < 1:
        raise ValueError("require 0 <= L < 1")
    r0 = residuals[0]
    for k, r in enumerate(residuals):
        if r <= floor:
            continue
        if r > RATE_SLACK * (L**k) * r0:
            return False
    return True


def numerical_floor(solution: np.ndarray) -> float:
    """Residual level treated as numerical noise for rate checks."""
    return 100.0 * np.finfo(np.float64).eps * max(1.0, frob(solution))


def diagnostics_csv(result: FixedPointResult) -> str:
    """Per-iteration diagnostics: ``iteration,residual`` rows."""
    return csv_text("iteration,residual", enumerate(result.residuals))
