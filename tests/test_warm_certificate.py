"""Incremental certification inside ``train``: the per-kernel
``SymbolBounds`` that ``tensors.symbol_norm_warm`` carries across Adam
steps bound every frequency's exact top singular value, computed here from
an independent symbol, and every ``(sigma, grad)`` it answers is
``symbol_norm``'s, bit for bit. Paths without state (``init_params``,
``read_ck01_bytes``, a plain ``normalize_params``) never take it."""

import numpy as np
import pytest

from deqpocs import network, tensors
from deqpocs.network import (
    SYMBOL_GRID,
    init_params,
    layer_widths,
    normalize_params,
    read_ck01_bytes,
    write_ck01_bytes,
)
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.tensors import symbol_norm, symbol_norm_warm
from deqpocs.training import TrainConfig, train
from oracles import _phases_reference


def _dataset():
    spec = DatasetSpec(n=2, height=16, width=16, coils=2, accel=2.0, seed=4)
    return [(s.kspace, m) for s, m in make_dataset(spec)]


def _exact_top_singular_values(k, m):
    """The top singular value of the kernel's symbol at every grid
    frequency, from ``np.linalg.svd`` of a symbol built here."""
    kh, kw, cin, cout = k.shape
    sym = (_phases_reference(m, kh, kw) @ k.reshape(kh * kw, cin * cout)).reshape(m * m, cin, cout)
    return np.linalg.svd(sym, compute_uv=False)[:, 0]


def _record_warm_calls(monkeypatch):
    """Wraps the warm function that ``network`` calls; each call is kept as
    ``(kernel, prev, sigma, grad, bounds)``."""
    calls = []

    def recording(k, m, prev):
        sigma, grad, bounds = symbol_norm_warm(k, m, prev)
        calls.append((np.array(k), prev, sigma, grad, bounds))
        return sigma, grad, bounds

    monkeypatch.setattr(network, "symbol_norm_warm", recording)
    return calls


def _switches(calls):
    return sum(prev is not None and prev.j != bounds.j for _, prev, _, _, bounds in calls)


@pytest.mark.parametrize("variant", ["kspace", "hybrid"])
def test_every_carried_bound_is_sound_and_every_answer_is_symbol_norms(monkeypatch, variant):
    calls = _record_warm_calls(monkeypatch)
    config = TrainConfig(epochs=2, learning_rate=3e-2, variant=variant, blocks=2, features=4)
    train(_dataset(), config)
    branches = 2 if variant == "hybrid" else 1
    steps = 2 * 2  # epochs x samples
    assert len(calls) == steps * 2 * branches * len(layer_widths(2, 4))
    for k, prev, sigma, grad, bounds in calls:
        assert prev is None or prev.kernel.shape == k.shape
        assert np.all(bounds.bounds >= _exact_top_singular_values(k, SYMBOL_GRID))
        want_sigma, want_grad = symbol_norm(k, SYMBOL_GRID)
        assert sigma == want_sigma
        assert grad.tobytes() == want_grad.tobytes()
        assert np.array_equal(bounds.kernel, k)


def test_frequency_switches_keep_the_checkpoint_bytes(monkeypatch):
    """At a high learning rate the chosen frequency moves between steps,
    and the trained checkpoint is the one that plain ``symbol_norm`` gives."""
    config = TrainConfig(epochs=3, learning_rate=3e-2, variant="kspace", blocks=2, features=4)
    with monkeypatch.context() as patch:
        calls = _record_warm_calls(patch)
        warm_params, warm_report = train(_dataset(), config)
    assert _switches(calls) > 0
    monkeypatch.setattr(network, "symbol_norm_warm",
                        lambda k, m, prev: (*symbol_norm(k, m), None))
    plain_params, plain_report = train(_dataset(), config)
    assert write_ck01_bytes(warm_params) == write_ck01_bytes(plain_params)
    assert warm_report.to_csv() == plain_report.to_csv()


def test_real_kernel_ties_and_takes_symbol_norm(monkeypatch):
    """A real kernel's symbol is conjugate-symmetric, so its maximum is
    attained at w and -w; taps of zero sum keep it away from w = 0, the one
    frequency that is its own mirror image. Both a first and a later call
    hand the answer to ``symbol_norm``, with its bytes."""
    rng = np.random.default_rng(11)
    answered = []

    def counting(k, m):
        answered.append(k.shape)
        return symbol_norm(k, m)

    monkeypatch.setattr(tensors, "symbol_norm", counting)
    prev = None
    for step in range(3):
        k = rng.standard_normal((3, 3, 4, 6))
        k -= k.mean(axis=(0, 1))
        k = k.astype(np.complex128)
        sigma, grad, prev = symbol_norm_warm(k, SYMBOL_GRID, prev)
        assert len(answered) == step + 1
        want_sigma, want_grad = symbol_norm(k, SYMBOL_GRID)
        assert sigma == want_sigma and grad.tobytes() == want_grad.tobytes()
        assert np.all(prev.bounds >= _exact_top_singular_values(k, SYMBOL_GRID))


def test_paths_without_state_call_symbol_norm_once_per_kernel(monkeypatch):
    """``init_params``, ``read_ck01_bytes`` and ``normalize_params`` without
    state certify each kernel once with ``symbol_norm`` and never take the
    warm path, so set-up and loading cost what they did before it."""
    calls = []

    def counting(k, m):
        calls.append(k.shape)
        return symbol_norm(k, m)

    def refused(k, m, prev):
        raise AssertionError("the warm path ran without state")

    monkeypatch.setattr(network, "symbol_norm", counting)
    monkeypatch.setattr(network, "symbol_norm_warm", refused)
    kernels = 2 * 2 * len(layer_widths(4, 8))  # blocks x branches x layers
    params = init_params("hybrid", 2, 8, 4, seed=3, grid=(16, 16))
    assert len(calls) == kernels
    data = write_ck01_bytes(params)
    read_ck01_bytes(data)
    assert len(calls) == 2 * kernels
    normalize_params(params)
    assert len(calls) == 3 * kernels
