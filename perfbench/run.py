#!/usr/bin/env python3
"""deqpocs benchmark: training and certification.

    python3 perfbench/run.py --workload <train-desk|verify-desk>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ``src/`` of the
same checkout and driven only through its public functions. Each workload
repeats a fixed round of operations ``max(1, round(seconds / 10))`` times,
times each operation at its fastest repeat, checks every output against
``oracle.py``, and prints one JSON object as its last line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones from ``spans.py`` with ``--trace 1``).
See README.md for the workloads, the metrics and the reference figures.
"""

import os
import sys

# One BLAS/OpenMP thread, fixed before numpy loads: multithreaded OpenBLAS on
# a small shared machine made the timings drift between sets of runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# The harness pool keeps its default size, min(4, cpu_count).
os.environ.pop("DEQPOCS_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DESK = dict(height=32, width=32, coils=4, mask_kind="1d-calibrated", accel=4.0)

# train-desk: the README's example problem and model, fixed so that the
# epochs failing the certificate check are the same in every run.
TRAIN_DATA_SEED = 1
TRAIN_EPOCHS = 12
# Independent kernel-norm bounds: power iterations at init, then after every
# epoch both cold ones and ones warm-started from the previous epoch.
INIT_POWER_ITERS = 150
COLD_POWER_ITERS = 25
WARM_POWER_ITERS = 5

# verify-desk: `deqpocs verify` trimmed to a few seconds a command.
VERIFY_TOL = 1e-5
NOISE_LEVELS = (0.01, 0.1)
NOISE_TRIALS = 2
INIT_LEVELS = (0.5, 2.0)
INIT_TRIALS = 1
VERIFY_COMMANDS = 2  # per round, with harness seeds seed, seed + 1, ...
VERIFY_FLAGS = [
    "--samples", "2", "--inits", "2",
    "--noise-levels", ",".join(map(str, NOISE_LEVELS)), "--trials", str(NOISE_TRIALS),
    "--init-levels", ",".join(map(str, INIT_LEVELS)), "--init-trials", str(INIT_TRIALS),
    "--tol", str(VERIFY_TOL),
]

# A run makes one round per ROUND_SECONDS of --seconds. Three repeats of
# every operation keep the host's slow stretches out of op_p50_s (README).
ROUND_SECONDS = 10.0
SETUP_PASSES = {"train-desk": 3, "verify-desk": 3}


def use_checkout_source():
    """Import ``deqpocs`` from this checkout's ``src/``, never an installed copy."""
    if not (SRC / "deqpocs" / "__init__.py").is_file():
        sys.exit(f"error: no deqpocs package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


class Run:
    """Timings, counts and check results of one benchmark run."""

    def __init__(self, workload, seed, seconds, tracer, workdir):
        self.workload = workload
        self.seed = seed
        # A traced run needs an untraced and a traced round at least.
        self.rounds = max(1 if tracer is None else 2,
                          round(seconds / ROUND_SECONDS))
        self.tracer = tracer
        self.workdir = workdir
        self.setup_s: list[float] = []
        self.ops: list[tuple[float, bool, object]] = []  # (seconds, traced, key)
        self.op_rusage = [0, 0.0]  # minor faults, system seconds over traced ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)

    def trace(self, on, phase="op"):
        if self.tracer is not None:
            self.tracer.active = on
            self.tracer.phase = phase

    def setup(self, fn):
        """Run ``fn`` SETUP_PASSES times (traced in a traced run) and return
        the last result; each pass's wall time goes to ``setup_s``."""
        result = None
        for _ in range(SETUP_PASSES[self.workload]):
            self.trace(True, "setup")
            t0 = time.perf_counter()
            result = fn()
            self.setup_s.append(time.perf_counter() - t0)
            self.trace(False)
        return result

    def traced_round(self, index):
        """Every other round is traced in a traced run, so that the same
        operations are timed with tracing on and off."""
        return self.tracer is not None and index % 2 == 1

    def mark(self):
        ru = resource.getrusage(resource.RUSAGE_SELF)
        return time.perf_counter(), ru.ru_minflt, ru.ru_stime

    def record_op(self, start, end, traced, key):
        """Operations recorded with the same ``key`` are repeats of the
        same work; ``op_p50_s`` takes the fastest of them."""
        self.ops.append((end[0] - start[0], traced, key))
        if traced:
            self.op_rusage[0] += end[1] - start[1]
            self.op_rusage[1] += end[2] - start[2]

    def end_to_end(self):
        fastest = {}
        for s, _, key in self.ops:
            fastest[key] = min(s, fastest.get(key, s))
        return {
            "op_p50_s": (statistics.median(fastest.values()), "s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }


# ---------------------------------------------------------------------------
# train-desk
# ---------------------------------------------------------------------------

def _kernel_snapshot(params):
    """(alpha, c_k, c_i, k-space kernels, image kernels or None) per block."""
    return [
        (
            blk.alpha, blk.c_k, blk.c_i, list(blk.kspace_branch.kernels),
            list(blk.image_branch.kernels) if blk.image_branch is not None else None,
        )
        for blk in params.blocks
    ]


def _independent_certificate(snapshot, grid, vectors, warm_iters, cold_iters):
    """The certificate formula on independent lower bounds of every kernel
    norm. Each bound is the larger of a cold power iteration and one
    warm-started from ``vectors`` (updated in place; None: no warm start),
    since a kernel's top singular vector can move away from a warm start."""
    blocks, slot = [], 0
    for alpha, c_k, c_i, k_kernels, i_kernels in snapshot:
        norms = []
        for kernels in (k_kernels, i_kernels or []):
            row = []
            for k in kernels:
                runs = [oracle.norm_lower_bound(k, grid, cold_iters, seed=slot)]
                if vectors[slot] is not None:
                    runs.append(oracle.norm_lower_bound(k, grid, warm_iters, start=vectors[slot]))
                bound, vectors[slot] = max(runs, key=lambda r: r[0])
                row.append(bound)
                slot += 1
            norms.append(row)
        blocks.append((alpha, c_k, c_i, norms[0], norms[1] if i_kernels else None))
    return oracle.certificate_formula(blocks)


def train_desk(run, dq):
    import deqpocs.training as training

    def setup():
        spec = dq.DatasetSpec(n=4, seed=TRAIN_DATA_SEED, **DESK)
        pairs = [(s.kspace, m) for s, m in dq.make_dataset(spec)]
        return pairs, dq.init_params("hybrid", 1, 16, 4, seed=0, grid=(32, 32))

    pairs, p0 = run.setup(setup)
    config = dq.TrainConfig(epochs=TRAIN_EPOCHS, variant="hybrid", blocks=1, features=16)
    dq.train(pairs, replace(config, epochs=1), params=p0)  # warm-up

    snapshot, grid = _kernel_snapshot(p0), p0.cert_grid
    init_vectors = [None] * sum(len(k) + len(i or []) for *_, k, i in snapshot)
    init_bound = _independent_certificate(snapshot, grid, init_vectors, 0, INIT_POWER_ITERS)
    init_cert = dq.certified_lipschitz(p0).contraction_bound
    print(f"init: certificate {init_cert:.6f}, independent lower bound {init_bound:.6f}")

    # train() hands its progress callback the report, not the parameters;
    # the parameters behind each certificate are taken where it is computed.
    latest = {}
    certify = training.certified_lipschitz

    def capture(params):
        latest["params"] = params
        return certify(params)

    training.certified_lipschitz = capture
    try:
        first = None  # (epochs, verdicts) of the first round
        for r in range(run.rounds):
            traced = run.traced_round(r)
            marks = [run.mark()]
            epochs = []

            def progress(epoch, report):
                end = run.mark()
                run.trace(False)
                run.record_op(marks[-1], end, traced, key=epoch)
                epochs.append((_kernel_snapshot(latest["params"]),
                               report.epoch_certificate[-1], report.epoch_mean_loss[-1]))
                run.trace(traced)
                marks.append(run.mark())

            run.trace(traced)
            params, _ = dq.train(pairs, config, params=p0, progress=progress)
            run.trace(False)

            run.check(len(epochs) == config.epochs, f"{len(epochs)} epochs reported")
            # train() is deterministic from p0: a round equal to the first
            # bit for bit takes the first round's verdicts, the rest are
            # checked against the oracle afresh.
            if first is not None and _same_epochs(epochs, first[0]):
                verdicts = first[1]
            else:
                run.check(first is None, "a later round differs from the first")
                verdicts = _check_epochs(run, epochs, grid, init_vectors)
                first = first or (epochs, verdicts)
            run.attempted += len(verdicts)
            run.failed += verdicts.count(False)
            _checkpoint_round_trip(run, dq, params)
    finally:
        training.certified_lipschitz = certify


def _check_epochs(run, epochs, grid, init_vectors):
    """Per epoch, whether its certificate is at least the independent
    lower bound; every loss must be finite."""
    vectors, verdicts = list(init_vectors), []
    for epoch, (snap, cert, loss) in enumerate(epochs):
        bound = _independent_certificate(snap, grid, vectors, WARM_POWER_ITERS, COLD_POWER_ITERS)
        run.check(math.isfinite(loss), f"epoch {epoch}: loss {loss}")
        # 1e-9 absorbs float rounding between the two evaluations
        verdicts.append(bound <= cert + 1e-9)
        if not verdicts[-1]:
            print(f"epoch {epoch}: certificate {cert:.6f} < independent "
                  f"lower bound {bound:.6f}")
    return verdicts


def _same_epochs(a, b):
    """Whether two rounds reported the same certificates and losses and
    trained the same kernels, bit for bit."""
    def flat(epochs):
        for snap, cert, loss in epochs:
            yield cert
            yield loss
            for alpha, c_k, c_i, k_kernels, i_kernels in snap:
                yield from (alpha, c_k, c_i, *k_kernels, *(i_kernels or []))

    fa, fb = list(flat(a)), list(flat(b))
    return len(fa) == len(fb) and all(np.array_equal(x, y) for x, y in zip(fa, fb))


def _checkpoint_round_trip(run, dq, params):
    """One operation: save_checkpoint, then load_checkpoint with its
    certificate verification; the loaded kernels must be the float32
    rounding of the saved ones."""
    path = str(run.workdir / "trained.ck01")
    dq.save_checkpoint(path, params)
    run.attempted += 1
    try:
        loaded, _ = dq.load_checkpoint(path)
    except dq.CertificateError as exc:
        run.failed += 1
        print(f"checkpoint round trip: {exc}")
        return
    for got, want in zip(_kernel_snapshot(loaded), _kernel_snapshot(params)):
        for a, b in zip(got[3] + (got[4] or []), want[3] + (want[4] or [])):
            run.check(np.array_equal(a, b.astype(np.complex64).astype(np.complex128)),
                      "checkpoint round trip changed a kernel")


# ---------------------------------------------------------------------------
# verify-desk
# ---------------------------------------------------------------------------

def verify_desk(run, dq):
    import deqpocs.cli as cli

    data_dir, ckpt, out_dir = (str(run.workdir / n) for n in ("data", "model.ck01", "reports"))

    def setup():
        spec = dq.DatasetSpec(n=2, seed=run.seed, **DESK)
        dq.save_dataset(data_dir, spec, dq.make_dataset(spec))
        dq.save_checkpoint(ckpt, dq.init_params("hybrid", 1, 16, 4, seed=0, grid=(32, 32)))

    run.setup(setup)
    # A round is VERIFY_COMMANDS commands that differ in the harness seed.
    seeds = [run.seed + c for c in range(VERIFY_COMMANDS)]

    def verify(seed):
        argv = ["verify", "--ckpt", ckpt, "--data", data_dir, "--out", out_dir,
                "--seed", str(seed), *VERIFY_FLAGS]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    # Warm-up: the model and measurement the checks re-solve with, and one solve.
    params, _ = dq.load_checkpoint(ckpt)
    meas = dq.load_dataset(data_dir)[0].measurement
    dq.reconstruct(params, meas)
    first = {}  # seed -> reports of its first command
    for r in range(run.rounds):
        traced = run.traced_round(r)
        for seed in seeds:
            start = run.mark()
            run.trace(traced)
            code, stdout = verify(seed)
            run.trace(False)
            run.record_op(start, run.mark(), traced, key=seed)
            run.attempted += 1
            run.check(code == 0, f"verify exit code {code}")
            run.check("overall: PASS" in stdout.splitlines(),
                      "verify did not print 'overall: PASS'")
            reports = tuple(
                Path(out_dir, n).read_text()
                for n in ("convergence.csv", "robustness.csv", "init_independence.csv")
            )
            # The first command of a seed is checked against the oracle; a
            # repeat must write the same reports.
            if seed not in first:
                first[seed] = reports
                _check_verify_reports(run, dq, params, meas, out_dir, seed)
            else:
                run.check(reports == first[seed],
                          "verify reports differ between identical commands")


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _check_verify_reports(run, dq, params, meas, out_dir, seed):
    """Re-solve every robustness and init-independence trial with the
    oracle's own loop and compare the reported distances."""
    y, sampled = meas.y, meas.mask.grid

    def solve(y_meas, x0):
        x, iters = oracle.fixed_point(
            lambda v: dq.forward(params, v), y_meas, sampled, x0, stop=1e-3 * VERIFY_TOL
        )
        run.check(x is not None, f"oracle loop did not converge in {iters} steps")
        return x

    clean = solve(y, y)
    if clean is None:
        return
    slack = 20.0 * VERIFY_TOL * max(1.0, float(np.linalg.norm(clean)))
    y_norm = float(np.linalg.norm(y))

    rows = [r for r in _read_csv_rows(Path(out_dir, "robustness.csv")) if r[0] != "recursion"]
    run.check(len(rows) == len(NOISE_LEVELS) * NOISE_TRIALS,
              f"{len(rows)} robustness trials reported")
    for n, row in enumerate(rows):
        li, t = divmod(n, NOISE_TRIALS)
        delta_rel, delta_abs, observed = float(row[0]), float(row[1]), float(row[2])
        run.check(delta_rel == NOISE_LEVELS[li], f"robustness row {n}: level {delta_rel}")
        run.check(abs(delta_abs - delta_rel * y_norm) <= 1e-12 * delta_abs,
                  f"robustness row {n}: delta_abs {delta_abs} != {delta_rel} * {y_norm}")
        noisy = dq.add_noise(meas, delta_rel, seed=dq.derive_seed(seed, li, t))
        x = solve(noisy.y, y)
        if x is not None:
            mine = float(np.linalg.norm(x - clean))
            run.check(abs(mine - observed) <= slack,
                      f"robustness row {n}: reported {observed}, re-solved {mine}")

    rows = _read_csv_rows(Path(out_dir, "init_independence.csv"))
    run.check(len(rows) == len(INIT_LEVELS) * INIT_TRIALS, f"{len(rows)} init trials reported")
    for n, row in enumerate(rows):
        li, t = divmod(n, INIT_TRIALS)
        level, distance = float(row[0]), float(row[2])
        noise = dq.tensors.gaussian_tensor(
            y.shape, dq.RandomStream(dq.derive_seed(seed, li, t))
        )
        x = solve(y, y + noise * (level * y_norm / float(np.linalg.norm(noise))))
        if x is not None:
            mine = float(np.linalg.norm(x - clean))
            run.check(abs(mine - distance) <= slack,
                      f"init row {n}: reported {distance}, re-solved {mine}")


WORKLOADS = {"train-desk": train_desk, "verify-desk": verify_desk}


# ---------------------------------------------------------------------------
# Per-layer metrics of the traced run
# ---------------------------------------------------------------------------

# (metric, layer, field of Tracer.layer_totals, unit)
LAYER_METRICS = [
    ("rng.gaussians", "rng", "gaussians", "count"),
    ("rng.s", "rng", "s", "s"),
    ("tensors.conv.calls", "tensors.conv", "calls", "count"),
    ("tensors.conv.s", "tensors.conv", "s", "s"),
    ("tensors.conv.minflt", "tensors.conv", "minflt", "count"),
    ("tensors.conv.gflop", "tensors.conv", "gflop", "GFLOP"),
    ("tensors.conv.patch_mb", "tensors.conv", "patch_mb", "MB"),
    ("tensors.kernel_grad.s", "tensors.kernel_grad", "s", "s"),
    ("tensors.fft.s", "tensors.fft", "s", "s"),
    ("tensors.power_iter.calls", "tensors.power_iter", "calls", "count"),
    ("tensors.power_iter.s", "tensors.power_iter", "s", "s"),
    ("tensors.ct01.s", "tensors.ct01", "s", "s"),
    ("sampling.project.s", "sampling.project", "s", "s"),
    ("sampling.add_noise.s", "sampling.add_noise", "s", "s"),
    ("network.forward.calls", "network.forward", "calls", "count"),
    ("network.forward.s", "network.forward", "s", "s"),
    ("network.vjp.calls", "network.vjp", "calls", "count"),
    ("network.vjp.s", "network.vjp", "s", "s"),
    ("network.normalize.s", "network.normalize", "s", "s"),
    ("network.load.s", "network.load", "s", "s"),
    ("solvers.iters", "solvers", "iters", "count"),
    ("solvers.self_s", "solvers", "self_s", "s"),
    ("training.adjoint_iters", "training.backward", "adjoint_iters", "count"),
    ("training.backward.s", "training.backward", "s", "s"),
    ("training.adam.s", "training.adam", "s", "s"),
    ("harness.s", "harness", "s", "s"),
    ("phantom.s", "phantom", "s", "s"),
    ("metrics.s", "metrics", "s", "s"),
    ("cli.self_s", "cli", "self_s", "s"),
]
SETUP_LAYER_METRICS = [
    ("setup.rng.s", "rng"),
    ("setup.tensors.power_iter.s", "tensors.power_iter"),
    ("setup.network.init.s", "network.init"),
    ("setup.phantom.s", "phantom"),
    ("setup.tensors.ct01.s", "tensors.ct01"),
]


def per_layer(run):
    """Layer metrics per traced operation; ``setup.*`` per set-up pass."""
    tracer = run.tracer
    traced = [s for s, t, _ in run.ops if t]
    untraced = [s for s, t, _ in run.ops if not t]
    n = len(traced)
    ops = tracer.layer_totals("op")
    setup = tracer.layer_totals("setup")
    metrics = {
        name: (ops.get(layer, {}).get(key, 0) / n, unit)
        for name, layer, key, unit in LAYER_METRICS
    }
    metrics["harness.solves"] = (tracer.count_under("op", "solvers", "harness") / n, "count")
    metrics["proc.minflt"] = (run.op_rusage[0] / n, "count")
    metrics["proc.sys_s"] = (run.op_rusage[1] / n, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    for name, layer in SETUP_LAYER_METRICS:
        metrics[name] = (setup.get(layer, {}).get("s", 0.0) / len(run.setup_s), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")

    use_checkout_source()
    import deqpocs

    tracer = None
    if ns.trace:
        tracer = spans.Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{ns.workload}-{os.getpid()}"
    workdir.mkdir()
    run = Run(ns.workload, ns.seed, ns.seconds, tracer, workdir)
    try:
        WORKLOADS[ns.workload](run, deqpocs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    metrics = per_layer(run) if tracer is not None else run.end_to_end()
    print("op seconds: " + " ".join(f"{s:.3f}" for s, _, _ in run.ops), file=sys.stderr)
    print(f"{ns.workload}: {len(run.ops)} timed operations, {run.attempted} attempted, "
          f"{run.failed} failed, {len(run.errors)} failed checks, "
          f"harness workers {deqpocs.harness.worker_count()}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
