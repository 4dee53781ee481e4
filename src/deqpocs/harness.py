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

Every check returns one :class:`CheckReport`: its ``name``, the ``header``
and ``rows`` of its CSV, the verdict ``passed`` and the ``detail`` that its
summary line ``<name>: PASS|FAIL (<detail>)`` quotes. A row is a plain
tuple of the CSV's fields, in its column order.

Trials are independent and seeded individually. Each check builds all of
its jobs first and runs them as one batch on ``worker_count()`` threads,
the calling thread included; ``DEQPOCS_THREADS`` caps that count.
``deqpocs verify`` solves each equilibrium once. The convergence check's
solve of sample 0 from the measurement, with its iterates, is returned
next to its report and handed to the robustness and init-independence
checks, which would otherwise solve it again. The robustness check's
trial 0 of each noise level is also its recursion run, so that noisy
equilibrium is solved once too.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


@dataclass(frozen=True)
class CheckReport:
    """One check's outcome: the ``rows`` of its CSV under ``header``, its
    verdict ``passed`` and the ``detail`` its summary line quotes."""

    name: str
    header: str
    rows: list[tuple]
    passed: bool
    detail: str

    def to_csv(self) -> str:
        return csv_text(self.header, self.rows)

    def summary(self) -> str:
        return f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.detail})"


def _certificate(params: ConsistencyNetParams) -> float:
    """The certified contraction bound ``L``; ``CertificateError`` unless ``L < 1``."""
    cert = certified_lipschitz(params)
    require_contractive(cert)
    return cert.contraction_bound


def _scaled_noise(shape, seed: int, norm: float) -> np.ndarray:
    """A seeded Gaussian tensor rescaled to Frobenius norm ``norm``."""
    noise = gaussian_tensor(shape, RandomStream(seed))
    return noise * (norm / frob(noise))


# ---------------------------------------------------------------------------
# Convergence (geometric rate + uniqueness across initializations)
# ---------------------------------------------------------------------------

def verify_convergence(
    params: ConsistencyNetParams,
    measurements: list[Measurement],
    inits_per_sample: int = 3,
    tol: float = 1e-5,
    seed: int = 0,
) -> tuple[CheckReport, FixedPointResult]:
    """Plain iteration from ``inits_per_sample`` starts per sample (the
    measurement, zero, then seeded random iterates): every run must
    converge, follow the certificate's geometric envelope
    ``r_k <= RATE_SLACK * L^k * r_0`` (``RATE_SLACK = 1.05``), and all
    equilibria of one sample must agree within ``10 * tol``.

    Returns the report, with one row per run and then one ``agreement`` row
    per sample, and the clean solve: sample 0's run from the measurement
    with its iterates, the only run that records them, which
    :func:`verify_robustness` and :func:`verify_init_independence` take as
    ``clean`` for the same model, measurement and ``tol``. Raises
    ``ValueError`` without measurements or with fewer than 2 starts, which
    would check nothing or compare nothing."""
    if not measurements:
        raise ValueError("verify_convergence needs at least one measurement")
    if inits_per_sample < 2:
        raise ValueError(f"verify_convergence needs at least 2 starts, got {inits_per_sample}")
    L = _certificate(params)
    jobs = []
    for s, meas in enumerate(measurements):
        jobs += [(s, meas, "measurement", meas.y), (s, meas, "zero", np.zeros_like(meas.y))]
        big = 10.0 * max(1.0, frob(meas.y))
        jobs += [(s, meas, f"random{j}", _scaled_noise(meas.y.shape, derive_seed(seed, s, j), big))
                 for j in range(inits_per_sample - 2)]

    def run_one(job):
        s, meas, label, x0 = job
        res = reconstruct(params, meas, x0, method="picard", tol=tol,
                          record_iterates=s == 0 and label == "measurement")
        rate_ok = geometric_rate_check(res.residuals, L, floor=numerical_floor(res.solution))
        return res, (s, label, res.converged, res.iterations, rate_ok, res.final_residual)

    results = _map_ordered(run_one, jobs)  # item 0, the one that records iterates, runs here
    runs = [row for _, row in results]
    agreement = []
    for s in range(len(measurements)):
        solutions = [res.solution for res, row in results if row[0] == s]
        distance = max(frob(a - b) for a, b in itertools.combinations(solutions, 2))
        threshold = 10.0 * tol * max(1.0, frob(solutions[0]))
        agreement.append(("agreement", s, distance, threshold, None, None))
    report = CheckReport(
        name="convergence",
        header="sample,init,converged,iterations,rate_ok,final_residual",
        rows=runs + agreement,
        passed=all(converged and rate_ok for _, _, converged, _, rate_ok, _ in runs)
        and all(d <= t for _, _, d, t, _, _ in agreement),
        detail=f"{len(runs)} runs, L={L:.6f}, slack={RATE_SLACK}",
    )
    return report, results[0][0]


def _clean_solve(params, meas, tol: float, L: float, clean) -> FixedPointResult:
    """The Picard solve from ``meas.y`` with its iterates. A given ``clean``
    (the second value :func:`verify_convergence` returns) is returned, or
    refused with ``ValueError`` when made for another tolerance or without
    iterates."""
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

def verify_robustness(
    params: ConsistencyNetParams,
    meas: Measurement,
    delta_rels: tuple[float, ...] = (0.005, 0.01, 0.05, 0.1),
    trials_per_level: int = 20,
    seed: int = 0,
    tol: float = 1e-5,
    clean: FixedPointResult | None = None,
) -> CheckReport:
    """Noisy-vs-clean equilibrium distance against the ``delta / (1 - L)``
    bound on every trial, plus the per-iteration contraction recursion
    ``d_k <= L * d_{k-1} + delta`` checked on one synchronized pair of plain
    iterations per noise level (both runs share the starting point ``y``).
    Trial 0 of each level is that recursion run: its noisy measurement is
    solved once, by Picard with its iterates, and gives the level's
    recursion verdict and trial 0's bound row. Trials 1 and on are solved by
    Anderson. All of them run as one batch of independent jobs.

    The report has one ``delta_rel,delta_abs,observed,bound,margin`` row per
    trial, then one ``recursion`` row per level; it passes when every margin
    is at least ``-1e-6 * bound`` and every recursion holds. The slack term
    ``20 * tol * max(1, ||x||)`` in the bound absorbs the inexactness of the
    two equilibrium solves (each within ``tol * max(1, ||x||)`` of its true
    fixed point under the tightened stop rule).

    ``clean``, when given, is the Picard solve from ``meas.y`` with its
    iterates (the second value :func:`verify_convergence` returns) and is
    used instead of solving it again. No levels or a negative trial count is
    a ``ValueError``; zero trials still solve trial 0 of each level for the
    recursion, and report no trial rows.
    """
    if not delta_rels or trials_per_level < 0:
        raise ValueError("verify_robustness needs noise levels and trials_per_level >= 0")
    L = _certificate(params)
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
        trial = (level, noisy_meas.delta, observed, bound, bound - observed)
        if not first:
            return trial, None
        d_prev = 0.0
        for k in range(1, min(len(clean.iterates), len(noisy.iterates))):
            d_k = frob(noisy.iterates[k] - clean.iterates[k])
            if d_k > L * d_prev + noisy_meas.delta + eps_num:
                return trial, ("recursion", level, False, None, None)
            d_prev = d_k
        return trial, ("recursion", level, True, None, None)

    results = _map_ordered(run_trial, jobs)
    trials = [trial for trial, _ in results] if trials_per_level else []
    recursion = [check for _, check in results if check is not None]
    return CheckReport(
        name="robustness",
        header="delta_rel,delta_abs,observed,bound,margin",
        rows=trials + recursion,
        passed=all(margin >= -1e-6 * bound for *_, bound, margin in trials)
        and all(holds for _, _, holds, _, _ in recursion),
        detail=f"{len(trials)} trials, L={L:.6f}",
    )


# ---------------------------------------------------------------------------
# Independence from the initial iterate
# ---------------------------------------------------------------------------

def verify_init_independence(
    params: ConsistencyNetParams,
    meas: Measurement,
    levels: tuple[float, ...] = (0.5, 2.0),
    trials_per_level: int = 3,
    seed: int = 0,
    tol: float = 1e-5,
    clean: FixedPointResult | None = None,
) -> CheckReport:
    """Reconstructions from the measurement vs. Gaussian-perturbed starts
    (perturbation norm = level * ||y||) must agree within ``10 * tol``: one
    ``level,trial,distance,threshold`` row per perturbed start.

    The reconstruction from the measurement is the Picard solve with its
    iterates; the perturbed starts are solved by Anderson. The check is on
    equilibria, not on a solver's path: the stop rule ``tol * (1 - L)``
    bounds the distance to the fixed point for any solver, as in
    :func:`verify_robustness`. ``clean``, when given, is that Picard solve
    (the second value :func:`verify_convergence` returns) and is used
    instead of solving it again. No levels or fewer than one trial, which
    would compare nothing, is a ``ValueError``."""
    if not levels or trials_per_level < 1:
        raise ValueError("verify_init_independence needs levels and trials_per_level >= 1")
    L = _certificate(params)
    base = _clean_solve(params, meas, tol, L, clean)
    scale = frob(meas.y)
    threshold = 10.0 * tol * max(1.0, frob(base.solution))
    jobs = [(level, t, derive_seed(seed, li, t))
            for li, level in enumerate(levels) for t in range(trials_per_level)]

    def run_one(job):
        level, t, s = job
        x0 = meas.y if level == 0.0 else meas.y + _scaled_noise(meas.y.shape, s, level * scale)
        res = reconstruct(params, meas, x0, method="anderson", tol=tol)
        return (level, t, frob(res.solution - base.solution), threshold)

    rows = _map_ordered(run_one, jobs)
    return CheckReport(
        name="init-independence",
        header="level,trial,distance,threshold",
        rows=rows,
        passed=all(d <= t for _, _, d, t in rows),
        detail=f"{len(rows)} runs, L={L:.6f}",
    )
