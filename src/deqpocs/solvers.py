"""Fixed-point solvers: Anderson acceleration, with Picard iteration as its
memory-1 case.

One loop iterates an operator ``T`` on complex tensors and records the
fixed-point residual ``||T(x_k) - x_k||_F`` at every step (for Picard this
equals the step norm ``||x_{k+1} - x_k||_F``). Convergence is relative: the
run stops once the residual drops below ``tol * max(1, ||T(x_k)||_F)``. The
forward equilibrium, the harness's plain iteration and the training
adjoint all run on this loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .tensors import frob


@dataclass
class FixedPointResult:
    solution: np.ndarray
    residuals: list[float]
    iterations: int
    converged: bool
    tolerance: float
    method: str
    wall_times_ms: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else float("nan")


def _norms(g: np.ndarray, x: np.ndarray, iteration: int) -> tuple[float, float]:
    """``(||g - x||_F, ||g||_F)``. A non-finite iterate, or a norm that is
    not finite or overflows, is divergence."""
    if np.all(np.isfinite(g)):
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
    divergence_window: int | None = None,
    record_iterates: bool = False,
) -> FixedPointResult:
    """Iterate ``x <- T(x)`` until the relative residual drops below ``tol``:
    :func:`anderson_solve` with memory 1."""
    return anderson_solve(T, x0, m=1, tol=tol, max_iter=max_iter,
                          divergence_window=divergence_window, record_iterates=record_iterates)


def anderson_solve(
    T,
    x0: np.ndarray,
    m: int = 5,
    tol: float = 1e-5,
    max_iter: int = 60,
    ridge: float = 1e-4,
    divergence_window: int | None = None,
    record_iterates: bool = False,
) -> FixedPointResult:
    """Anderson-accelerated fixed-point solve with memory ``m``.

    Mixing weights minimize the norm of the combined residual over the last
    ``m`` iterates subject to summing to one, through a ridge-regularized
    bordered system (the ridge scales with the residual Gram trace so it
    stays meaningful as residuals shrink); any degenerate solve falls back
    to a plain step. With ``m = 1`` every step is the plain step
    ``x <- T(x)``, i.e. Picard iteration.

    ``divergence_window`` enables a watchdog for operators without a
    contraction guarantee: when the residual grows for that many consecutive
    iterations, or the budget runs out, the solve returns the best-residual
    iterate flagged not converged. ``record_iterates`` attaches ``x0``
    followed by every ``T(x_k)`` as ``result.iterates``.
    """
    if m < 1 or ridge < 0:
        raise ValueError("require m >= 1 and ridge >= 0")
    if tol <= 0 or max_iter < 1:
        raise ValueError("tol must be positive and max_iter >= 1")
    x = np.asarray(x0, dtype=np.complex128)
    shape = x.shape
    hist_x: list[np.ndarray] = []
    hist_g: list[np.ndarray] = []
    residuals: list[float] = []
    times: list[float] = []
    iterates = [x] if record_iterates else None
    best_x, best_res = x, float("inf")
    growth = 0
    converged = False
    solution = x
    t0 = time.perf_counter()
    for k in range(max_iter):
        g = T(x)
        res, size = _norms(g, x, k)
        residuals.append(res)
        times.append((time.perf_counter() - t0) * 1e3)
        if iterates is not None:
            iterates.append(g)
        solution = g
        if res < best_res:
            # the pre-step iterate is the one this residual certifies
            best_x, best_res = x, res
            growth = 0
        else:
            growth += 1
        if res <= tol * max(1.0, size):
            converged = True
            break
        if divergence_window is not None and growth >= divergence_window:
            break
        hist_x.append(x.ravel())
        hist_g.append(g.ravel())
        if len(hist_x) > m:
            hist_x.pop(0)
            hist_g.pop(0)
        if len(hist_x) == 1:
            x = g
            continue
        F = np.stack([gi - xi for gi, xi in zip(hist_g, hist_x)], axis=0)
        gram = np.real(F @ F.conj().T)
        lam = ridge * max(np.trace(gram) / gram.shape[0], np.finfo(np.float64).tiny)
        mk = gram.shape[0]
        system = np.zeros((mk + 1, mk + 1))
        system[0, 1:] = 1.0
        system[1:, 0] = 1.0
        system[1:, 1:] = gram + lam * np.eye(mk)
        rhs = np.zeros(mk + 1)
        rhs[0] = 1.0
        try:
            weights = np.linalg.solve(system, rhs)[1:]
        except np.linalg.LinAlgError:
            weights = None
        if weights is None or not np.all(np.isfinite(weights)):
            x = g  # degenerate least squares: plain step
            continue
        x = (weights @ np.stack(hist_g, axis=0)).reshape(shape)
    if not converged and divergence_window is not None:
        solution = best_x
    return FixedPointResult(
        solution=solution,
        residuals=residuals,
        iterations=len(residuals),
        converged=converged,
        tolerance=tol,
        method="picard" if m == 1 else "anderson",
        wall_times_ms=times,
        iterates=iterates,
    )


def geometric_rate_check(
    residuals: list[float],
    L: float,
    slack: float = 1.05,
    floor: float = 0.0,
) -> bool:
    """True iff ``residual_k <= slack * L**k * residual_0`` for all k.

    Residuals at or below ``floor`` (e.g. ``100 * eps * norm(solution)``)
    are ignored: once the iteration reaches the numerical noise floor the
    geometric envelope no longer applies.
    """
    if not residuals:
        raise ValueError("residuals must be nonempty")
    if not (0 < L < 1) or slack < 1:
        raise ValueError("require 0 < L < 1 and slack >= 1")
    r0 = residuals[0]
    for k, r in enumerate(residuals):
        if r <= floor:
            continue
        if r > slack * (L**k) * r0:
            return False
    return True


def numerical_floor(solution: np.ndarray) -> float:
    """Residual level treated as numerical noise for rate checks."""
    return 100.0 * np.finfo(np.float64).eps * max(1.0, frob(solution))


def diagnostics_csv(result: FixedPointResult, include_timing: bool = True) -> str:
    """Per-iteration diagnostics: ``iteration,residual,wall-time-ms`` rows."""
    if include_timing:
        lines = ["iteration,residual,wall-time-ms"]
        for i, (r, t) in enumerate(zip(result.residuals, result.wall_times_ms)):
            lines.append(f"{i},{r:.17g},{t:.3f}")
    else:
        lines = ["iteration,residual"]
        for i, r in enumerate(result.residuals):
            lines.append(f"{i},{r:.17g}")
    return "\n".join(lines) + "\n"
