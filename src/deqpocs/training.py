"""Training and inference for the equilibrium interpolation operator.

Training solves, per sample, the fixed point ``x* = P(net(x*))`` of the
consistency operator composed with the data-consistency projection, scores
it with a squared-Frobenius k-space loss against the fully sampled truth,
and backpropagates through the equilibrium with the implicit-function
adjoint: ``v = (I - J^T)^{-1} g`` is the fixed point of the (provably
contractive, certificate-backed) linear map ``v <- g + J^T v``, solved by
Anderson acceleration on the forward solve's loop (:func:`anderson_solve`;
on a linear map, Anderson within its memory is GMRES), after which one
parameter-side reverse product of the composed operator yields the
gradient. Adam holds the raw kernels ``V``; the operator uses
``W = V / s`` from :func:`normalize_params`, once per step, and the gradient
goes through that division (:func:`normalize_vjp`), as in spectral
normalization. alpha and the branch weights are projected after every step.

Every equilibrium solve of the package (training, inference, the harness)
goes through :func:`reconstruct`, the one place that gates on the
certificate, stops at ``tol * (1 - L)`` and sizes the budget from L.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, TrainingError
from .metrics import csv_text
from .network import (
    ConsistencyNetParams,
    certified_lipschitz,
    clone_params,
    forward,
    forward_with_trace,
    init_params,
    jacobian_vjp,
    normalize_params,
    normalize_vjp,
    pack_params,
    param_vjp,
    require_contractive,
    unpack_params,
)
from .rng import RandomStream
from .sampling import Measurement, mask_complement_multiply, project_data_consistency
from .solvers import FixedPointResult, anderson_solve, picard_solve
from .tensors import frob


TRAIN_BACKWARD_MAX_ITER = 300  # adjoint budget per training step

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def make_pocs_operator(params: ConsistencyNetParams, meas: Measurement):
    """The iteration map: consistency operator followed by the projection.

    Raises :class:`CertificateError` when the measurement grid exceeds the
    certified grid in either dimension: zero-padded convolution norms grow
    with the grid, so the certificate does not cover larger inputs.
    """
    (gh, gw), (h, w) = params.cert_grid, meas.y.shape[:2]
    if h > gh or w > gw:
        raise CertificateError(
            f"measurement grid {h}x{w} exceeds the certified grid {gh}x{gw}"
        )

    def T(x: np.ndarray) -> np.ndarray:
        return project_data_consistency(forward(params, x), meas)

    return T


def auto_max_iter(tol_eff: float, contraction: float, method: str) -> int:
    if contraction <= 0:
        return 50
    need = math.log(max(tol_eff, 1e-300) / 10.0) / math.log(contraction)
    cap = int(min(max(need + 25, 50), 20000))
    return cap if method == "picard" else max(cap // 2, 50)


def reconstruct(
    params: ConsistencyNetParams,
    meas: Measurement,
    x0: np.ndarray | None = None,
    method: str = "anderson",
    tol: float = 1e-5,
    record_iterates: bool = False,
) -> FixedPointResult:
    """The package's one certified solve of ``x = P(net(x))`` by ``method``
    (picard or anderson) from ``x0`` (default: the measurement). It refuses a
    certificate L >= 1, stops at ``tol * (1 - L)`` (so the result is within
    ``tol * max(1, ||x||)`` of the unique fixed point, and any two starts
    agree to ``10 * tol``) and sizes the budget from L. ``record_iterates``
    attaches ``x0`` and every ``T(x_k)``."""
    if method not in ("picard", "anderson"):
        raise ValueError(f"unknown solver method {method!r}; expected 'picard' or 'anderson'")
    cert = certified_lipschitz(params)
    require_contractive(cert)
    L = cert.contraction_bound
    T = make_pocs_operator(params, meas)
    tol_eff = tol * (1.0 - L)
    max_iter = auto_max_iter(tol_eff, L, method)
    solve = picard_solve if method == "picard" else anderson_solve
    return solve(T, meas.y if x0 is None else x0, tol=tol_eff, max_iter=max_iter,
                 record_iterates=record_iterates)


def zero_fill(meas: Measurement) -> np.ndarray:
    """No-learning baseline: the measurement itself (zeros off the mask)."""
    return meas.y


# ---------------------------------------------------------------------------
# Implicit (equilibrium) backward pass
# ---------------------------------------------------------------------------

def implicit_backward(
    params: ConsistencyNetParams,
    x_fixed: np.ndarray,
    meas: Measurement,
    grad_loss: np.ndarray,
    tol: float = 1e-4,
    max_iter: int = 200,
) -> tuple[np.ndarray, int]:
    """Parameter gradient of a loss evaluated at the equilibrium point.

    Solves the adjoint equation ``v = g + J^T v`` where ``J`` is the
    Jacobian of the projected operator at ``x_fixed`` (the projection
    contributes the sampled-set complement, the network contributes its
    reverse-mode product on a cached trace), then returns the parameter
    cotangent of one application. The adjoint is solved with
    :func:`anderson_solve` at its default memory from ``v = g``: the map
    is affine with a certificate L < 1, and within its memory Anderson on
    it is GMRES. Hitting ``max_iter`` first only warns and returns the last
    iterate.

    Returns ``(grad, iterations)``: the flat real gradient aligned with
    :func:`pack_params` and the number of adjoint iterations run.
    """
    _, traces = forward_with_trace(params, x_fixed)
    g = np.asarray(grad_loss, dtype=np.complex128)

    def adjoint_map(v: np.ndarray) -> np.ndarray:
        return g + jacobian_vjp(params, traces, mask_complement_multiply(v, meas.mask))

    adjoint = anderson_solve(adjoint_map, g, tol=tol, max_iter=max_iter)
    if not adjoint.converged:
        warnings.warn(
            f"adjoint fixed-point iteration did not reach tol={tol} in {max_iter} steps",
            RuntimeWarning,
        )
    grad = param_vjp(params, traces, mask_complement_multiply(adjoint.solution, meas.mask))
    return grad, adjoint.iterations


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    values: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def init(cls, values: np.ndarray) -> "AdamState":
        return cls(
            values=values.astype(np.float64, copy=True),
            m=np.zeros_like(values, dtype=np.float64),
            v=np.zeros_like(values, dtype=np.float64),
        )


def adam_step(state: AdamState, grads: np.ndarray, lr: float = 1e-4) -> AdamState:
    """One bias-corrected Adam update on a flat real parameter vector, with
    the fixed moment decays ``ADAM_BETA1`` and ``ADAM_BETA2`` and the
    denominator floor ``ADAM_EPS``."""
    if grads.shape != state.values.shape:
        raise TrainingError("gradient shape does not match parameter vector")
    if not np.all(np.isfinite(grads)):
        raise TrainingError(f"non-finite gradients at step {state.step + 1}")
    t = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    values = state.values - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(values=values, m=m, v=v, step=t)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 1e-4
    variant: str = "kspace"
    blocks: int = 10
    features: int = 8
    init_seed: int = 0
    shuffle_seed: int = 0
    forward_method: str = "anderson"
    forward_tol: float = 1e-4
    backward_tol: float = 1e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise TrainingError("learning rate must be finite and positive")


@dataclass
class TrainReport:
    epoch_mean_loss: list[float] = field(default_factory=list)
    epoch_mean_fwd_iters: list[float] = field(default_factory=list)
    epoch_mean_bwd_iters: list[float] = field(default_factory=list)
    epoch_certificate: list[float] = field(default_factory=list)
    step_certificates: list[float] = field(default_factory=list)
    final_train_residual: float = float("nan")

    def to_csv(self) -> str:
        epochs = zip(self.epoch_mean_loss, self.epoch_mean_fwd_iters,
                     self.epoch_mean_bwd_iters, self.epoch_certificate)
        rows = [(e, *row) for e, row in enumerate(epochs)]
        rows.append(("final_train_residual", self.final_train_residual, None, None, None))
        return csv_text("epoch,mean_loss,mean_fwd_iters,mean_bwd_iters,L", rows)


def train(
    dataset: list[tuple[np.ndarray, Measurement]],
    config: TrainConfig = TrainConfig(),
    params: ConsistencyNetParams | None = None,
    progress=None,
) -> tuple[ConsistencyNetParams, TrainReport]:
    """Equilibrium training over ``(full k-space, measurement)`` pairs.

    Per epoch the sample order is reshuffled from the seeded stream; per
    sample the forward equilibrium is solved, the squared-Frobenius k-space
    loss and its implicit gradient are computed, and one Adam step on the
    raw parameters is taken, followed by :func:`normalize_params`. Adam's
    first raw kernels are the given ones, so the first gradient goes through
    no division. The report logs per-epoch means and
    the certificate after every step; the final entry is the mean
    equilibrium residual of the trained operator over the training set.
    """
    if not dataset:
        raise TrainingError("training dataset is empty")
    shapes = {x.shape for x, _ in dataset}
    if len(shapes) != 1:
        raise TrainingError(f"all samples must share one shape, got {shapes}")
    H, W, nc = next(iter(shapes))
    if params is None:
        params = init_params(
            config.variant,
            config.blocks,
            config.features,
            nc,
            seed=config.init_seed,
            grid=(H, W),
        )
    params = clone_params(params)
    for blk in params.blocks:
        for br in blk.branches:
            br.rescales = [None] * len(br.kernels)
    state = AdamState.init(pack_params(params))
    order_stream = RandomStream(config.shuffle_seed)
    report = TrainReport()
    for epoch in range(config.epochs):
        order = list(range(len(dataset)))
        order_stream.shuffle(order)
        losses, fwd_iters, bwd_iters = [], [], []
        for m in order:
            x_full, meas = dataset[m]
            try:
                result = reconstruct(params, meas, method=config.forward_method,
                                     tol=config.forward_tol)
                diff = result.solution - x_full
                loss = frob(diff) ** 2
                grad, n_bwd = implicit_backward(
                    params,
                    result.solution,
                    meas,
                    2.0 * diff,
                    tol=config.backward_tol,
                    max_iter=TRAIN_BACKWARD_MAX_ITER,
                )
            except Exception as exc:
                raise TrainingError(f"solve failed at epoch {epoch}, sample {m}: {exc}") from exc
            state = adam_step(state, normalize_vjp(params, grad), lr=config.learning_rate)
            raw = unpack_params(params, state.values)
            params = normalize_params(raw)
            # Adam keeps the raw kernels and the projected block weights
            for blk, projected in zip(raw.blocks, params.blocks):
                blk.alpha, blk.c_k, blk.c_i = projected.alpha, projected.c_k, projected.c_i
            state.values = pack_params(raw)
            cert = certified_lipschitz(params)
            report.step_certificates.append(cert.contraction_bound)
            losses.append(loss)
            fwd_iters.append(result.iterations)
            bwd_iters.append(n_bwd)
        report.epoch_mean_loss.append(float(np.mean(losses)))
        report.epoch_mean_fwd_iters.append(float(np.mean(fwd_iters)))
        report.epoch_mean_bwd_iters.append(float(np.mean(bwd_iters)))
        report.epoch_certificate.append(cert.contraction_bound)
        if progress is not None:
            progress(epoch, report)
    residuals = []
    for x_full, meas in dataset:
        result = reconstruct(params, meas, method=config.forward_method, tol=config.forward_tol)
        residuals.append(frob(result.solution - x_full))
    report.final_train_residual = float(np.mean(residuals))
    return params, report
