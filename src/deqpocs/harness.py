"""Executable certification of the operator's three guarantees: geometric
convergence to a unique fixed point, robustness to measurement noise, and
independence from the initial iterate.

All checks run against the certificate L of ``certified_lipschitz``:
convergence must follow the geometric envelope ``r_k <= 1.05 * L^k * r_0``;
noisy-vs-clean equilibria must stay within ``delta / (1 - L)``; equilibria
from different starting points must coincide. Slack terms of ``10 * tol`` / ``20 * tol``
(times ``max(1, ||x||)``, matching the solvers' relative stop rule) absorb
solver inexactness: each equilibrium is solved to within
``tol * max(1, ||x||)`` of the true fixed point, so compared pairs can
deviate by at most twice that. Every equilibrium is solved by
:func:`deqpocs.training.reconstruct`, which owns that stop rule, the
certificate gate and the iteration budget.

Trials are independent and seeded individually. Each check builds all of
its jobs first and runs them as one batch on ``worker_count()`` threads,
the calling thread included; ``DEQPOCS_THREADS`` caps that count.
``deqpocs verify`` solves each equilibrium once. The convergence check's
solve of sample 0 from the measurement, with its iterates, is handed to
the robustness and init-independence checks, which would otherwise solve
it again. The robustness check's trial 0 of each noise level is also its
recursion run, so that noisy equilibrium is solved once too.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigurationError
from .metrics import csv_text
from .network import ConsistencyNetParams, certified_lipschitz, require_contractive
from .rng import RandomStream, derive_seed
from .sampling import Measurement, add_noise
from .solvers import RATE_SLACK, FixedPointResult, geometric_rate_check, numerical_floor
from .solvers import picard_solve  # noqa: F401  (perfbench traces it under this name)
from .tensors import frob, gaussian_tensor
from .training import reconstruct


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
    clean: FixedPointResult  # sample 0's solve from the measurement, with iterates

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
        agreement = zip(self.pairwise_max_distance, self.agreement_threshold)
        return csv_text("sample,init,converged,iterations,rate_ok,final_residual", [
            *map(astuple, self.runs),
            *(("agreement", s, d, t, None, None) for s, (d, t) in enumerate(agreement)),
        ])

    def summary(self) -> str:
        verdict = "PASS" if self.all_pass else "FAIL"
        return (
            f"convergence: {verdict} ({len(self.runs)} runs, L={self.contraction:.6f}, "
            f"slack={RATE_SLACK})"
        )


def verify_convergence(
    params: ConsistencyNetParams,
    measurements: list[Measurement],
    inits_per_sample: int = 3,
    tol: float = 1e-5,
    seed: int = 0,
) -> ConvergenceReport:
    """Plain iteration from ``max(inits_per_sample, 2)`` starts per sample
    (the measurement, zero, then seeded random iterates): every run must
    converge, follow the certificate's geometric envelope
    ``r_k <= RATE_SLACK * L^k * r_0`` (``RATE_SLACK = 1.05``), and all
    equilibria of one sample must agree within ``10 * tol``.

    The report's ``clean`` is sample 0's run from the measurement with its
    iterates, the only run that records them: the clean solve that
    :func:`verify_robustness` and :func:`verify_init_independence` take as
    ``clean`` for the same model, measurement and ``tol``. Raises
    ``ValueError`` without measurements, which would check nothing."""
    if not measurements:
        raise ValueError("verify_convergence needs at least one measurement")
    cert = certified_lipschitz(params)
    require_contractive(cert)
    L = cert.contraction_bound
    jobs = []
    for s, meas in enumerate(measurements):
        jobs += [(s, meas, "measurement", meas.y), (s, meas, "zero", np.zeros_like(meas.y))]
        big = 10.0 * max(1.0, frob(meas.y))
        for j in range(inits_per_sample - 2):
            noise = gaussian_tensor(meas.y.shape, RandomStream(derive_seed(seed, s, j)))
            jobs.append((s, meas, f"random{j}", noise * (big / frob(noise))))

    def run_one(job):
        s, meas, label, x0 = job
        res = reconstruct(params, meas, x0, method="picard", tol=tol,
                          record_iterates=s == 0 and label == "measurement")
        rate_ok = geometric_rate_check(res.residuals, L, floor=numerical_floor(res.solution))
        return res, ConvergenceRun(
            sample=s,
            init_label=label,
            converged=res.converged,
            iterations=res.iterations,
            rate_ok=rate_ok,
            final_residual=res.final_residual,
        )

    results = _map_ordered(run_one, jobs)  # item 0, the one that records iterates, runs here
    clean = results[0][0]
    pairwise, thresholds = [], []
    for s in range(len(measurements)):
        solutions = [res.solution for res, row in results if row.sample == s]
        pairwise.append(max(frob(a - b) for a, b in itertools.combinations(solutions, 2)))
        thresholds.append(10.0 * tol * max(1.0, frob(solutions[0])))
    return ConvergenceReport(
        runs=[row for _, row in results],
        pairwise_max_distance=pairwise,
        agreement_threshold=thresholds,
        contraction=L,
        clean=clean,
    )


def _clean_solve(params, meas, tol: float, L: float, clean) -> FixedPointResult:
    """The Picard solve from ``meas.y`` with its iterates. A given ``clean``
    (``verify_convergence(...).clean``) is returned, or refused with
    ``ValueError`` when made for another tolerance or without iterates."""
    if clean is None:
        return reconstruct(params, meas, method="picard", tol=tol, record_iterates=True)
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

    @property
    def all_within_bound(self) -> bool:
        return all(t.margin >= -1e-6 * t.bound for t in self.trials) and all(
            ok for _, ok in self.recursion_checks
        )

    def to_csv(self) -> str:
        return csv_text("delta_rel,delta_abs,observed,bound,margin", [
            *map(astuple, self.trials),
            *(("recursion", level, ok, None, None) for level, ok in self.recursion_checks),
        ])

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
    Trial 0 of each level is that recursion run: its noisy measurement is
    solved once, by Picard with its iterates, and gives the level's
    recursion verdict and trial 0's bound row. Trials 1 and on are solved by
    Anderson. All of them run as one batch of independent jobs.

    The slack term ``20 * tol * max(1, ||x||)`` absorbs the inexactness of
    the two equilibrium solves (each within ``tol * max(1, ||x||)`` of its
    true fixed point under the tightened stop rule).

    ``clean``, when given, is the Picard solve from ``meas.y`` with its
    iterates (``verify_convergence(...).clean``) and is used instead of
    solving it again. No levels or a negative trial count is a
    ``ValueError``; zero trials still solve trial 0 of each level for the
    recursion, and report no trial rows.
    """
    if not delta_rels or trials_per_level < 0:
        raise ValueError("verify_robustness needs noise levels and trials_per_level >= 0")
    cert = certified_lipschitz(params)
    require_contractive(cert)
    L = cert.contraction_bound
    clean = _clean_solve(params, meas, tol, L, clean)
    x_clean = clean.solution
    slack_term = 20.0 * tol * max(1.0, frob(x_clean))
    eps_num = 1e-9 * max(1.0, frob(x_clean))
    jobs = [(li, level, t) for li, level in enumerate(delta_rels)
            for t in range(max(trials_per_level, 1))]

    def run_trial(job):
        li, level, t = job
        noisy_meas = add_noise(meas, level, seed=derive_seed(seed, li, t))
        first = t == 0  # the level's recursion run: Picard, with its iterates
        noisy = reconstruct(params, noisy_meas, meas.y, method="picard" if first else "anderson",
                            tol=tol, record_iterates=first)
        bound = noisy_meas.delta / (1.0 - L) + slack_term
        observed = frob(noisy.solution - x_clean)
        trial = RobustnessTrial(
            delta_rel=level,
            delta_abs=noisy_meas.delta,
            observed=observed,
            bound=bound,
            margin=bound - observed,
        )
        if not first:
            return trial, None
        d_prev = 0.0
        for k in range(1, min(len(clean.iterates), len(noisy.iterates))):
            d_k = frob(noisy.iterates[k] - clean.iterates[k])
            if d_k > L * d_prev + noisy_meas.delta + eps_num:
                return trial, (level, False)
            d_prev = d_k
        return trial, (level, True)

    results = _map_ordered(run_trial, jobs)
    trials = [trial for trial, _ in results] if trials_per_level else []
    recursion = [check for _, check in results if check is not None]
    return RobustnessReport(trials=trials, recursion_checks=recursion, contraction=L)


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
        return csv_text("level,trial,distance,threshold", self.rows)

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

    The reconstruction from the measurement is the Picard solve with its
    iterates; the perturbed starts are solved by Anderson. The check is on
    equilibria, not on a solver's path: the stop rule ``tol * (1 - L)``
    bounds the distance to the fixed point for any solver, as in
    :func:`verify_robustness`. ``clean``, when given, is that Picard solve
    (``verify_convergence(...).clean``) and is used instead of solving it
    again. No levels or fewer than one trial, which would compare nothing,
    is a ``ValueError``."""
    if not levels or trials_per_level < 1:
        raise ValueError("verify_init_independence needs levels and trials_per_level >= 1")
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
        res = reconstruct(params, meas, x0, method="anderson", tol=tol)
        return (level, t, frob(res.solution - base.solution), threshold)

    return InitIndependenceReport(rows=_map_ordered(run_one, jobs), contraction=cert.contraction_bound)
