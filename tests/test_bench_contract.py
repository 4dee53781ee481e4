"""The benchmark under ``perfbench/`` reaches into the package by name: its
tracer wraps the functions listed in ``spans.PATCHES`` where the calling
module imported them, and ``run.py`` calls a few functions directly. These
tests fail when a rename would break the benchmark, instead of leaving the
failure to its traced runs, when a changed signature would break a call
``run.py`` makes, and when a verify report stops parsing the way ``run.py``
reads it. They only read ``perfbench/``."""

import ast
import csv
import importlib
import importlib.util
import inspect
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
PATCHES = SPANS.PATCHES


@pytest.mark.parametrize(
    "modname,attr", [(p[0], p[1]) for p in PATCHES], ids=[f"{p[0]}.{p[1]}" for p in PATCHES]
)
def test_traced_name_resolves(modname, attr):
    # the same walk as Tracer.install
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


# An import the module itself does not use, kept so the tracer finds the name.
KEEP_ALIVE = re.compile(r"(\w+),?\s*# noqa: F401\s+\(perfbench traces it under this name\)")


def test_keep_alive_imports_are_traced():
    # each such import must outlive no patch: drop it with its PATCHES row
    package = PERFBENCH.parent / "src" / "deqpocs"
    kept = [(f"deqpocs.{path.stem}", m.group(1))
            for path in sorted(package.glob("*.py"))
            for m in KEEP_ALIVE.finditer(path.read_text())]
    assert kept, "no keep-alive import found: has its comment changed?"
    traced = {(p[0], p[1]) for p in PATCHES}
    assert [k for k in kept if k not in traced] == []


# Every package name run.py calls outside spans.PATCHES.
CALLED_BY_RUN = [
    ("deqpocs.harness", "worker_count"),
    ("deqpocs.training", "certified_lipschitz"),
    ("deqpocs", "reconstruct"),
    ("deqpocs", "forward"),
    ("deqpocs", "add_noise"),
    ("deqpocs", "derive_seed"),
    ("deqpocs", "RandomStream"),
    ("deqpocs.tensors", "gaussian_tensor"),
    ("deqpocs", "DatasetSpec"),
    ("deqpocs", "make_dataset"),
    ("deqpocs", "save_dataset"),
    ("deqpocs", "load_dataset"),
    ("deqpocs", "init_params"),
    ("deqpocs", "TrainConfig"),
    ("deqpocs", "train"),
    ("deqpocs", "certified_lipschitz"),
    ("deqpocs", "save_checkpoint"),
    ("deqpocs", "load_checkpoint"),
    ("deqpocs", "CertificateError"),
]


@pytest.mark.parametrize("modname,attr", CALLED_BY_RUN)
def test_function_called_by_run_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


# How run.py calls them: (module, name, positional arguments, keyword arguments).
# Values are placeholders; binding checks only that the call shape fits.
CALL_FORMS = [
    ("deqpocs", "reconstruct", ("params", "meas"), {}),
    ("deqpocs", "TrainConfig", (), dict(epochs=12, variant="hybrid", blocks=1, features=16)),
    ("deqpocs", "train", ("pairs", "config"), dict(params="p0", progress="progress")),
    ("deqpocs", "init_params", ("hybrid", 1, 16, 4), dict(seed=0, grid=(32, 32))),
    ("deqpocs", "add_noise", ("meas", 0.01), dict(seed=0)),
    ("deqpocs.tensors", "gaussian_tensor", ((32, 32, 4), "stream"), {}),
    ("deqpocs", "save_checkpoint", ("path", "params"), {}),
    ("deqpocs", "load_checkpoint", ("path",), {}),
    ("deqpocs", "DatasetSpec", (), dict(n=2, seed=0, height=32, width=32, coils=4,
                                        mask_kind="1d-calibrated", accel=4.0)),
    ("deqpocs", "make_dataset", ("spec",), {}),
    ("deqpocs", "save_dataset", ("dir", "spec", "samples"), {}),
    ("deqpocs", "load_dataset", ("dir",), {}),
    ("deqpocs", "forward", ("params", "v"), {}),
    ("deqpocs", "derive_seed", (0, 1, 2), {}),
    ("deqpocs", "RandomStream", (0,), {}),
    ("deqpocs.harness", "worker_count", (), {}),
    ("deqpocs.cli", "main", (["verify"],), {}),
]


@pytest.mark.parametrize(
    "modname,attr,args,kwargs", CALL_FORMS, ids=[f"{m}.{a}" for m, a, *_ in CALL_FORMS]
)
def test_call_form_of_run_binds(modname, attr, args, kwargs):
    fn = getattr(importlib.import_module(modname), attr)
    inspect.signature(fn).bind(*args, **kwargs)


def test_attributes_read_by_run():
    import deqpocs as dq

    p = dq.init_params("hybrid", 1, 2, 2, grid=(8, 8))
    # what _kernel_snapshot reads
    for blk in p.blocks:
        assert isinstance(blk.alpha + blk.c_k + blk.c_i, float)
        assert all(k.ndim == 4 for k in blk.kspace_branch.kernels + blk.image_branch.kernels)
    assert 0.0 < dq.certified_lipschitz(p).contraction_bound < 1.0
    report = dq.TrainReport()
    assert report.epoch_certificate == [] and report.epoch_mean_loss == []
    config = dq.TrainConfig(epochs=12, variant="hybrid", blocks=1, features=16)
    assert replace(config, epochs=1).epochs == 1


def test_certificate_capture_reads_each_epochs_final_parameters(monkeypatch):
    # train_desk wraps training.certified_lipschitz to keep the parameters of
    # its last call; at each progress call it reads them as the epoch's own
    import numpy as np

    import deqpocs as dq
    import deqpocs.training as training

    latest = {}
    certify = training.certified_lipschitz

    def capture(params):
        latest["params"] = params
        return certify(params)

    monkeypatch.setattr(training, "certified_lipschitz", capture)
    spec = dq.DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=0)
    pairs = [(s.kspace, m) for s, m in dq.make_dataset(spec)]
    p0 = dq.init_params("hybrid", 1, 4, 2, seed=0, grid=(16, 16))
    config = dq.TrainConfig(epochs=2, variant="hybrid", blocks=1, features=4)
    seen = []

    def progress(epoch, report):
        seen.append((latest["params"], report.epoch_certificate[-1]))

    params, _ = dq.train(pairs, config, params=p0, progress=progress)
    assert len(seen) == 2
    for captured, cert in seen:
        assert certify(captured).contraction_bound == cert
    final = seen[-1][0]
    for got, want in zip(final.blocks, params.blocks):
        for a, b in zip(got.branches, want.branches):
            assert all(np.array_equal(x, y) for x, y in zip(a.kernels, b.kernels))


def test_gaussian_count_read_by_spans():
    # spans._gaussian_counts counts the draws of RandomStream.gaussians by len(result)
    from deqpocs import RandomStream

    assert len(RandomStream(0).gaussians(7)) == 7


def test_solver_and_adjoint_counts_read_by_spans():
    # spans._solver_counts reads result.iterations of a solve and
    # spans._adjoint_counts the iteration count that implicit_backward returns
    import numpy as np

    import deqpocs as dq
    from deqpocs.solvers import anderson_solve
    from deqpocs.training import implicit_backward

    result = anderson_solve(lambda x: 0.5 * x + 1.0, np.zeros((4, 4, 1), dtype=complex))
    assert SPANS._solver_counts((), {}, result) == {"iters": len(result.residuals)}
    p = dq.init_params("hybrid", 1, 2, 2, grid=(8, 8))
    x = dq.RandomStream(0).gaussians(2 * 8 * 8 * 2).view(complex).reshape(8, 8, 2)
    meas = dq.apply_sampling(x, dq.make_mask("1d-calibrated", 8, 8, 2, acs=2, seed=0))
    x_fixed = dq.reconstruct(p, meas).solution
    counts = SPANS._adjoint_counts((), {}, implicit_backward(p, x_fixed, meas, x_fixed - x))
    assert type(counts["adjoint_iters"]) is int and counts["adjoint_iters"] >= 1


def test_hot_path_calls_the_traced_names(monkeypatch):
    # spans.py times tensors.conv and tensors.fft by wrapping these names in
    # deqpocs.network; a forward that routes around them reads zero there.
    import deqpocs as dq
    import deqpocs.network as network

    counts = {}

    def counted(name):
        original = getattr(network, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    names = ("conv2d_complex", "fft2_centered", "ifft2_centered")
    for name in names:
        monkeypatch.setattr(network, name, counted(name))
    p = dq.init_params("hybrid", 1, 4, 2, grid=(8, 8))
    x = dq.RandomStream(0).gaussians(2 * 8 * 8 * 2).view(complex).reshape(8, 8, 2)
    counts.clear()
    dq.forward(p, x)
    assert counts == {"conv2d_complex": 10, "fft2_centered": 1, "ifft2_centered": 1}
    counts.clear()
    network.vjp(p, x, x)
    assert counts == {"conv2d_complex": 20, "fft2_centered": 2, "ifft2_centered": 2}


def _run_constants(*names):
    """Module-level literals of ``run.py``, read from its source: importing
    it would change this process's environment."""
    values = {}
    for node in ast.parse((PERFBENCH / "run.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                values[target.id] = ast.literal_eval(node.value)
    return [values[name] for name in names]


def test_verify_reports_parse_as_run_reads_them(tmp_path, capsys):
    # what verify_desk and _check_verify_reports read of a verify command
    import deqpocs as dq
    from deqpocs.cli import main

    levels, trials, init_levels, init_trials, tol = _run_constants(
        "NOISE_LEVELS", "NOISE_TRIALS", "INIT_LEVELS", "INIT_TRIALS", "VERIFY_TOL"
    )
    spec = dq.DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=0)
    dq.save_dataset(tmp_path / "data", spec, dq.make_dataset(spec))
    dq.save_checkpoint(tmp_path / "model.ck01", dq.init_params("hybrid", 1, 4, 2, grid=(16, 16)))
    out = tmp_path / "reports"
    code = main([
        "verify", "--ckpt", str(tmp_path / "model.ck01"), "--data", str(tmp_path / "data"),
        "--out", str(out), "--samples", "2", "--inits", "2",
        "--noise-levels", ",".join(map(str, levels)), "--trials", str(trials),
        "--init-levels", ",".join(map(str, init_levels)), "--init-trials", str(init_trials),
        "--tol", str(tol),
    ])
    assert code == 0
    assert "overall: PASS" in capsys.readouterr().out.splitlines()

    def rows(name):
        with open(out / name, newline="") as fh:
            return list(csv.reader(fh))[1:]

    trial_rows = [r for r in rows("robustness.csv") if r[0] != "recursion"]
    assert len(trial_rows) == len(levels) * trials
    for n, row in enumerate(trial_rows):
        delta_rel, delta_abs, observed = map(float, row[:3])
        assert delta_rel == levels[n // trials] and delta_abs > 0.0 and observed >= 0.0
    init_rows = rows("init_independence.csv")
    assert len(init_rows) == len(init_levels) * init_trials
    for n, row in enumerate(init_rows):
        level, distance = float(row[0]), float(row[2])
        assert level == init_levels[n // init_trials] and distance >= 0.0
