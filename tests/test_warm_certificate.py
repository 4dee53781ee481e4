"""Incremental certification inside ``train``: the per-kernel
``SymbolBounds`` that ``tensors.symbol_norm`` carries across Adam steps
bound every frequency's exact top singular value, computed here from an
independent symbol, and every ``(sigma, grad)`` it answers, carried or not,
is the full-grid oracle's, bit for bit. Paths without state
(``init_params``, ``read_ck01_bytes``, a plain ``normalize_params``) carry
no bounds."""

import numpy as np
import pytest

from deqpocs import network
from deqpocs.network import (
    SYMBOL_GRID,
    init_params,
    layer_widths,
    normalize_params,
    read_ck01_bytes,
    write_ck01_bytes,
)
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.tensors import symbol_norm
from deqpocs.training import TrainConfig, train
from oracles import symbol_norm_reference, symbol_top_singular_values


def _dataset():
    spec = DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=4)
    return [(s.kspace, m) for s, m in make_dataset(spec)]


def _record_calls(monkeypatch):
    """Wraps the ``symbol_norm`` that ``network`` calls; each call is kept
    as ``(kernel, prev, sigma, grad, bounds)``."""
    calls = []

    def recording(k, m, prev=None):
        sigma, grad, bounds = symbol_norm(k, m, prev)
        calls.append((np.array(k), prev, sigma, grad, bounds))
        return sigma, grad, bounds

    monkeypatch.setattr(network, "symbol_norm", recording)
    return calls


def _switches(calls):
    return sum(prev is not None and prev.j != bounds.j for _, prev, _, _, bounds in calls)


def _assert_oracles(k, sigma, grad, bounds):
    want_sigma, want_grad, want_j = symbol_norm_reference(k, SYMBOL_GRID)
    assert sigma == want_sigma
    assert grad.tobytes() == want_grad.tobytes()
    assert bounds.j == want_j
    assert np.all(bounds.bounds >= symbol_top_singular_values(k, SYMBOL_GRID))


@pytest.mark.parametrize("variant", ["kspace", "hybrid"])
def test_every_bound_is_sound_and_every_answer_is_the_oracles(monkeypatch, variant):
    calls = _record_calls(monkeypatch)
    config = TrainConfig(epochs=2, learning_rate=3e-2, variant=variant, blocks=2, features=4)
    train(_dataset(), config)
    kernels = 2 * (2 if variant == "hybrid" else 1) * len(layer_widths(2, 4))
    steps = 2 * 2  # epochs x samples
    # init_params certifies without state, and so does the first step, whose
    # kernels have no bounds yet; every later step carries them
    assert len(calls) == (1 + steps) * kernels
    assert sum(prev is None for _, prev, _, _, _ in calls) == 2 * kernels
    for k, prev, sigma, grad, bounds in calls:
        assert prev is None or prev.kernel.shape == k.shape
        _assert_oracles(k, sigma, grad, bounds)
        assert np.array_equal(bounds.kernel, k)


def test_frequency_switches_keep_the_checkpoint_bytes(monkeypatch):
    """At a high learning rate the chosen frequency moves between steps,
    and the trained checkpoint is the one that certification without state
    gives."""
    config = TrainConfig(epochs=3, learning_rate=3e-2, variant="kspace", blocks=2, features=4)
    with monkeypatch.context() as patch:
        calls = _record_calls(patch)
        warm_params, warm_report = train(_dataset(), config)
    assert _switches(calls) > 0
    monkeypatch.setattr(network, "symbol_norm", lambda k, m, prev=None: symbol_norm(k, m))
    plain_params, plain_report = train(_dataset(), config)
    assert write_ck01_bytes(warm_params) == write_ck01_bytes(plain_params)
    assert warm_report.to_csv() == plain_report.to_csv()


def test_real_kernel_near_tie_takes_the_lowest_index(monkeypatch):
    """A real kernel's symbol is conjugate-symmetric, so its maximum is
    attained at w and -w up to rounding; taps of zero sum keep it away from
    w = 0, the one frequency that is its own mirror image. A first call and
    two carried ones, each after a small real step, answer with the
    oracle's bytes, whichever of the pair rounds higher or comes first."""
    evaluated = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        evaluated.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    rng = np.random.default_rng(11)
    real = rng.standard_normal((3, 3, 4, 6))
    prev = None
    for step in range(3):
        if step:
            real = real + 1e-3 * rng.standard_normal(real.shape)
        real -= real.mean(axis=(0, 1))
        k = real.astype(np.complex128)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvalsh", counting)
            sigma, grad, bounds = symbol_norm(k, SYMBOL_GRID, prev)
        _assert_oracles(k, sigma, grad, bounds)
        j1, j2 = divmod(bounds.j, SYMBOL_GRID)
        mirror = (-j1 % SYMBOL_GRID) * SYMBOL_GRID + (-j2 % SYMBOL_GRID)
        assert mirror != bounds.j
        tops = symbol_top_singular_values(k, SYMBOL_GRID)
        assert tops[mirror] == pytest.approx(tops[bounds.j], rel=1e-12)
        prev = bounds
    assert 2 <= evaluated[-1] < SYMBOL_GRID**2  # the carried call evaluated the pair, not the grid


def test_paths_without_state_carry_no_bounds(monkeypatch):
    """``init_params``, ``read_ck01_bytes`` and ``normalize_params`` without
    state certify each kernel once, from no bounds, so set-up and loading
    cost what they did before bounds were carried."""
    calls = _record_calls(monkeypatch)
    kernels = 2 * 2 * len(layer_widths(4, 8))  # blocks x branches x layers
    params = init_params("hybrid", 2, 8, 4, seed=3, grid=(16, 16))
    assert len(calls) == kernels
    data = write_ck01_bytes(params)
    read_ck01_bytes(data)
    assert len(calls) == 2 * kernels
    normalize_params(params)
    assert len(calls) == 3 * kernels
    assert all(prev is None for _, prev, _, _, _ in calls)
