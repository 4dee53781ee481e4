"""Executable certification of the operator's convergence and robustness
guarantees, plus the interference experiments (noisy measurements, noisy
initial iterates, transferred sampling patterns).

All checks run against the certificate L of ``certified_lipschitz``:
convergence must follow the geometric envelope ``r_k <= slack * L^k * r_0``;
noisy-vs-clean equilibria must stay within ``delta / (1 - L)``; equilibria
from different starting points must coincide. Slack terms of ``10 * tol`` / ``20 * tol``
(times ``max(1, ||x||)``, matching the solvers' relative stop rule) absorb
solver inexactness: each equilibrium is solved to within
``tol * max(1, ||x||)`` of the true fixed point, so compared pairs can
deviate by at most twice that. Every equilibrium is solved by
:func:`deqpocs.training.reconstruct`, which owns that stop rule, the
certificate gate and the iteration budget.

Trials are independent and seeded individually. They run on
``worker_count()`` threads, the calling thread included, and
``DEQPOCS_THREADS`` caps that count. ``deqpocs verify`` solves each clean
equilibrium once: the convergence check's solve of sample 0 from the
measurement, with its iterates, is handed to the robustness and
init-independence checks, which would otherwise solve it again.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .metrics import MetricsReport, evaluate_kspace_set
from .network import ConsistencyNetParams, certified_lipschitz, require_contractive
from .rng import RandomStream, derive_seed
from .sampling import Measurement, add_noise, apply_sampling, make_mask
from .solvers import FixedPointResult, geometric_rate_check, numerical_floor
from .solvers import picard_solve  # noqa: F401  (perfbench traces it under this name)
from .tensors import frob, gaussian_tensor
from .training import SolverSettings, reconstruct, zero_fill


def worker_count() -> int:
    """Harness threads, the calling one included: ``min(4, cpu_count)``,
    capped by ``DEQPOCS_THREADS``."""
    cap = os.environ.get("DEQPOCS_THREADS")
    workers = min(4, os.cpu_count() or 1)
    if cap:
        try:
            workers = min(workers, max(1, int(cap)))
        except ValueError:
            raise ConfigurationError(
                f"DEQPOCS_THREADS must be an integer, got {cap!r}"
            ) from None
    return workers


def _map_ordered(fn, items):
    """``[fn(it) for it in items]`` on up to ``worker_count()`` threads.

    The calling thread runs item 0; then it and ``worker_count() - 1`` pool
    threads each take the next unstarted item until none is left. After an
    item fails no further item starts, and the exception of the first failing
    item in item order is raised: items start in index order, so every item
    before it has run.
    """
    n = min(worker_count(), len(items))
    if n <= 1:
        return [fn(it) for it in items]
    outcomes: list = [None] * len(items)
    pending = iter(range(1, len(items)))
    failed = False
    lock = threading.Lock()

    def run(i):
        nonlocal failed
        try:
            outcomes[i] = (True, fn(items[i]))
        except Exception as exc:
            outcomes[i] = (False, exc)
            with lock:
                failed = True

    def drain():
        while True:
            with lock:
                i = None if failed else next(pending, None)
            if i is None:
                return
            run(i)

    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(n - 1)]
        run(0)
        drain()
        for helper in helpers:
            helper.result()
    for outcome in outcomes:
        if outcome is not None and not outcome[0]:
            raise outcome[1]
    return [value for _, value in outcomes]


# ---------------------------------------------------------------------------
# Convergence (geometric rate + uniqueness across initializations)
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRun:
    sample: int
    init_label: str
    converged: bool
    iterations: int
    rate_ok: bool
    final_residual: float


@dataclass
class ConvergenceReport:
    runs: list[ConvergenceRun]
    pairwise_max_distance: list[float]  # per sample
    agreement_threshold: list[float]  # per sample
    contraction: float
    slack: float

    # sample 0's solve from the measurement, with iterates (None without samples)
    clean: FixedPointResult | None = None

    @property
    def all_pass(self) -> bool:
        return (
            all(r.converged and r.rate_ok for r in self.runs)
            and all(
                d <= t
                for d, t in zip(self.pairwise_max_distance, self.agreement_threshold)
            )
        )

    def to_csv(self) -> str:
        lines = ["sample,init,converged,iterations,rate_ok,final_residual"]
        for r in self.runs:
            lines.append(
                f"{r.sample},{r.init_label},{int(r.converged)},{r.iterations},"
                f"{int(r.rate_ok)},{r.final_residual:.17g}"
            )
        for s, (d, t) in enumerate(zip(self.pairwise_max_distance, self.agreement_threshold)):
            lines.append(f"agreement,{s},{d:.17g},{t:.17g},,")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        verdict = "PASS" if self.all_pass else "FAIL"
        return (
            f"convergence: {verdict} ({len(self.runs)} runs, L={self.contraction:.6f}, "
            f"slack={self.slack})"
        )


def verify_convergence(
    params: ConsistencyNetParams,
    measurements: list[Measurement],
    inits_per_sample: int = 3,
    slack: float = 1.05,
    tol: float = 1e-5,
    seed: int = 0,
) -> ConvergenceReport:
    """Plain iteration from ``max(inits_per_sample, 2)`` starts per sample
    (the measurement, zero, then seeded random iterates): every run must
    converge, follow the geometric envelope of the certificate, and all
    equilibria of one sample must agree within ``10 * tol``.

    The report's ``clean`` is sample 0's run from the measurement with its
    iterates, the only run that records them: the clean solve that
    :func:`verify_robustness` and :func:`verify_init_independence` take as
    ``clean`` for the same model, measurement and ``tol``."""
    cert = certified_lipschitz(params)
    require_contractive(cert)
    L = cert.contraction_bound
    settings = SolverSettings(method="picard", tol=tol)
    runs: list[ConvergenceRun] = []
    pairwise, thresholds = [], []
    clean = None
    for s, meas in enumerate(measurements):
        inits = [("measurement", meas.y), ("zero", np.zeros_like(meas.y))]
        big = 10.0 * max(1.0, frob(meas.y))
        for j in range(inits_per_sample - 2):
            noise = gaussian_tensor(meas.y.shape, RandomStream(derive_seed(seed, s, j)))
            inits.append((f"random{j}", noise * (big / frob(noise))))

        def run_one(labeled):
            label, x0 = labeled
            res = reconstruct(
                params, meas, x0, settings, record_iterates=s == 0 and label == "measurement"
            )
            rate_ok = geometric_rate_check(
                res.residuals, L, slack, floor=numerical_floor(res.solution)
            )
            return res, ConvergenceRun(
                sample=s,
                init_label=label,
                converged=res.converged,
                iterations=res.iterations,
                rate_ok=rate_ok,
                final_residual=res.final_residual,
            )

        results = _map_ordered(run_one, inits)
        if s == 0:
            clean = results[0][0]
        solutions = [r.solution for r, _ in results]
        runs.extend(row for _, row in results)
        dmax = 0.0
        for a in range(len(solutions)):
            for b in range(a + 1, len(solutions)):
                dmax = max(dmax, frob(solutions[a] - solutions[b]))
        pairwise.append(dmax)
        thresholds.append(10.0 * tol * max(1.0, frob(solutions[0])))
    return ConvergenceReport(
        runs=runs,
        pairwise_max_distance=pairwise,
        agreement_threshold=thresholds,
        contraction=L,
        slack=slack,
        clean=clean,
    )


def _clean_solve(params, meas, tol: float, L: float, clean) -> FixedPointResult:
    """The Picard solve from ``meas.y`` with its iterates. A given ``clean``
    (``verify_convergence(...).clean``) is returned, or refused with
    ``ValueError`` when made for another tolerance or without iterates."""
    if clean is None:
        picard = SolverSettings("picard", tol)
        return reconstruct(params, meas, settings=picard, record_iterates=True)
    tol_eff = tol * (1.0 - L)
    if clean.method != "picard" or clean.tolerance != tol_eff:
        raise ValueError(
            f"clean solve is {clean.method} at tol {clean.tolerance:g}, "
            f"expected picard at {tol_eff:g}"
        )
    if clean.iterates is None:
        raise ValueError("clean solve has no recorded iterates")
    return clean


# ---------------------------------------------------------------------------
# Robustness to measurement noise (perturbation bound + contraction recursion)
# ---------------------------------------------------------------------------

@dataclass
class RobustnessTrial:
    delta_rel: float
    delta_abs: float
    observed: float
    bound: float
    margin: float


@dataclass
class RobustnessReport:
    trials: list[RobustnessTrial]
    recursion_checks: list[tuple[float, bool]]  # (delta_rel, holds at every iteration)
    contraction: float
    tolerance: float

    @property
    def all_within_bound(self) -> bool:
        return all(t.margin >= -1e-6 * t.bound for t in self.trials) and all(
            ok for _, ok in self.recursion_checks
        )

    def to_csv(self) -> str:
        lines = ["delta_rel,delta_abs,observed,bound,margin"]
        for t in self.trials:
            lines.append(
                f"{t.delta_rel:.17g},{t.delta_abs:.17g},{t.observed:.17g},"
                f"{t.bound:.17g},{t.margin:.17g}"
            )
        for level, ok in self.recursion_checks:
            lines.append(f"recursion,{level:.17g},{int(ok)},,")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        verdict = "PASS" if self.all_within_bound else "FAIL"
        return (
            f"robustness: {verdict} ({len(self.trials)} trials, L={self.contraction:.6f})"
        )


def verify_robustness(
    params: ConsistencyNetParams,
    meas: Measurement,
    delta_rels: tuple[float, ...] = (0.005, 0.01, 0.05, 0.1),
    trials_per_level: int = 20,
    seed: int = 0,
    tol: float = 1e-5,
    clean: FixedPointResult | None = None,
) -> RobustnessReport:
    """Noisy-vs-clean equilibrium distance against the ``delta / (1 - L)``
    bound on every trial, plus the per-iteration contraction recursion
    ``d_k <= L * d_{k-1} + delta`` checked on one synchronized pair of plain
    iterations per noise level (both runs share the starting point ``y``).
    The recursion's noisy run uses the measurement of the level's trial 0.

    The slack term ``20 * tol * max(1, ||x||)`` absorbs the inexactness of
    the two equilibrium solves (each within ``tol * max(1, ||x||)`` of its
    true fixed point under the tightened stop rule).

    ``clean``, when given, is the Picard solve from ``meas.y`` with its
    iterates (``verify_convergence(...).clean``) and is used instead of
    solving it again.
    """
    cert = certified_lipschitz(params)
    require_contractive(cert)
    L = cert.contraction_bound
    clean = _clean_solve(params, meas, tol, L, clean)
    x_clean = clean.solution
    slack_term = 20.0 * tol * max(1.0, frob(x_clean))
    jobs = []
    for li, level in enumerate(delta_rels):
        for t in range(trials_per_level):
            jobs.append((level, t, derive_seed(seed, li, t)))

    def run_trial(job):
        level, t, trial_seed = job
        noisy_meas = add_noise(meas, level, seed=trial_seed)
        noisy = reconstruct(params, noisy_meas, meas.y, SolverSettings("anderson", tol))
        bound = noisy_meas.delta / (1.0 - L) + slack_term
        observed = frob(noisy.solution - x_clean)
        trial = RobustnessTrial(
            delta_rel=level,
            delta_abs=noisy_meas.delta,
            observed=observed,
            bound=bound,
            margin=bound - observed,
        )
        return trial, (noisy_meas if t == 0 else None)

    results = _map_ordered(run_trial, jobs)
    trials = [trial for trial, _ in results]
    first_draws = [draw for _, draw in results if draw is not None]

    def run_recursion(li_level):
        li, level = li_level
        if first_draws:
            noisy_meas = first_draws[li]
        else:  # no trials: draw trial 0's measurement here
            noisy_meas = add_noise(meas, level, seed=derive_seed(seed, li, 0))
        noisy = reconstruct(
            params, noisy_meas, meas.y, SolverSettings("picard", tol), record_iterates=True
        )
        n = min(len(clean.iterates), len(noisy.iterates))
        eps_num = 1e-9 * max(1.0, frob(x_clean))
        d_prev = 0.0
        for k in range(1, n):
            d_k = frob(noisy.iterates[k] - clean.iterates[k])
            if d_k > L * d_prev + noisy_meas.delta + eps_num:
                return (level, False)
            d_prev = d_k
        return (level, True)

    recursion = _map_ordered(run_recursion, list(enumerate(delta_rels)))
    return RobustnessReport(
        trials=trials, recursion_checks=recursion, contraction=L, tolerance=tol
    )


# ---------------------------------------------------------------------------
# Independence from the initial iterate
# ---------------------------------------------------------------------------

@dataclass
class InitIndependenceReport:
    rows: list[tuple[float, int, float, float]]  # (level, trial, distance, threshold)
    contraction: float

    @property
    def all_pass(self) -> bool:
        return all(d <= t for _, _, d, t in self.rows)

    def to_csv(self) -> str:
        lines = ["level,trial,distance,threshold"]
        for level, t, d, thr in self.rows:
            lines.append(f"{level:.17g},{t},{d:.17g},{thr:.17g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        verdict = "PASS" if self.all_pass else "FAIL"
        return f"init-independence: {verdict} ({len(self.rows)} runs, L={self.contraction:.6f})"


def verify_init_independence(
    params: ConsistencyNetParams,
    meas: Measurement,
    levels: tuple[float, ...] = (0.5, 2.0),
    trials_per_level: int = 3,
    seed: int = 0,
    tol: float = 1e-5,
    clean: FixedPointResult | None = None,
) -> InitIndependenceReport:
    """Reconstructions from the measurement vs. Gaussian-perturbed starts
    (perturbation norm = level * ||y||) must agree within ``10 * tol``.

    ``clean``, when given, is the Picard solve from ``meas.y`` with its
    iterates (``verify_convergence(...).clean``) and is used as the
    reconstruction from the measurement instead of solving it again."""
    cert = certified_lipschitz(params)
    require_contractive(cert)
    base = _clean_solve(params, meas, tol, cert.contraction_bound, clean)
    scale = frob(meas.y)
    threshold = 10.0 * tol * max(1.0, frob(base.solution))
    jobs = []
    for li, level in enumerate(levels):
        for t in range(trials_per_level):
            jobs.append((level, t, derive_seed(seed, li, t)))

    def run_one(job):
        level, t, s = job
        if level == 0.0:
            x0 = meas.y
        else:
            noise = gaussian_tensor(meas.y.shape, RandomStream(s))
            x0 = meas.y + noise * (level * scale / frob(noise))
        res = reconstruct(params, meas, x0, SolverSettings("picard", tol))
        return (level, t, frob(res.solution - base.solution), threshold)

    return InitIndependenceReport(rows=_map_ordered(run_one, jobs), contraction=cert.contraction_bound)


# ---------------------------------------------------------------------------
# Sampling-pattern transfer
# ---------------------------------------------------------------------------

@dataclass
class MaskTransferReport:
    metrics: MetricsReport
    zero_fill_metrics: MetricsReport
    mask_kind: str
    accel: float

    def to_csv(self) -> str:
        lines = [f"# reconstruction under {self.mask_kind} R={self.accel}"]
        lines.append(self.metrics.to_csv().rstrip("\n"))
        lines.append("# zero-filled baseline")
        lines.append(self.zero_fill_metrics.to_csv().rstrip("\n"))
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        mean_psnr = self.metrics.mean_std(self.metrics.psnr_values)[0]
        zf_psnr = self.zero_fill_metrics.mean_std(self.zero_fill_metrics.psnr_values)[0]
        return (
            f"mask-transfer ({self.mask_kind}, R={self.accel}): "
            f"PSNR {mean_psnr:.2f} dB vs zero-fill {zf_psnr:.2f} dB"
        )


def verify_mask_transfer(
    params: ConsistencyNetParams,
    full_kspaces: list[np.ndarray],
    mask_kind: str = "1d-free",
    accel: float = 4.0,
    seed: int = 0,
    tol: float = 1e-5,
) -> MaskTransferReport:
    """Evaluate reconstruction under masks unseen in training (report only:
    the claim being exercised is comparative, not a hard threshold)."""
    settings = SolverSettings(tol=tol)
    recon_pairs, zf_pairs = [], []
    for i, x_full in enumerate(full_kspaces):
        H, W, _ = x_full.shape
        mask = make_mask(mask_kind, H, W, accel, seed=derive_seed(seed, i))
        meas = apply_sampling(x_full, mask)
        res = reconstruct(params, meas, settings=settings)
        recon_pairs.append((res.solution, x_full))
        zf_pairs.append((zero_fill(meas), x_full))
    return MaskTransferReport(
        metrics=evaluate_kspace_set(recon_pairs),
        zero_fill_metrics=evaluate_kspace_set(zf_pairs),
        mask_kind=mask_kind,
        accel=accel,
    )
