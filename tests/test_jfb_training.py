"""``train`` takes each step's gradient by Jacobian-free backpropagation
(JFB): one reverse pass at the equilibrium on the masked loss gradient, the
adjoint's first iterate. These tests check its direction against the exact
equilibrium gradient (:func:`implicit_backward` solved tightly), that a step
runs no adjoint solve, and that the reverse-pass trace is freed before Adam
runs, so that it does not stay alive through the next sample's solve."""

import weakref

import numpy as np
import pytest

from deqpocs import training
from deqpocs.network import normalize_vjp
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.training import TrainConfig, implicit_backward, train


def _dataset(n=3, size=16, seed=3, delta_rel=0.0):
    spec = DatasetSpec(n=n, height=size, width=size, coils=2, accel=2.0, seed=seed, acs=4,
                       delta_rel=delta_rel)
    return [(s.kspace, m) for s, m in make_dataset(spec)]


def _cosine(a, b):
    return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


@pytest.mark.parametrize("variant,blocks", [("hybrid", 1), ("kspace", 2)])
def test_jfb_direction_matches_exact_gradient(monkeypatch, variant, blocks):
    # per step: the equilibrium train solved and the gradient it hands Adam.
    # Noisy measurements make the loss gradient non-zero on sampled entries,
    # so a step that skipped the projection's mask would point elsewhere.
    dataset = _dataset(delta_rel=0.02)
    truth = {id(meas): x_full for x_full, meas in dataset}
    steps, solved = [], []
    reconstruct, adam = training.reconstruct, training.adam_step

    def spy_reconstruct(params, meas, **kwargs):
        result = reconstruct(params, meas, **kwargs)
        solved.append((params, meas, result.solution))
        return result

    def spy_adam(state, grads, **kwargs):
        steps.append((*solved[-1], grads))
        return adam(state, grads, **kwargs)

    monkeypatch.setattr(training, "reconstruct", spy_reconstruct)
    monkeypatch.setattr(training, "adam_step", spy_adam)
    epochs = 4
    config = TrainConfig(epochs=epochs, learning_rate=1e-2, variant=variant, blocks=blocks,
                         features=4)
    train(dataset, config)
    assert len(steps) == epochs * len(dataset)
    # the first epoch starts at init; the last runs on the parameters of 3 epochs
    checked = steps[: len(dataset)] + steps[-len(dataset):]
    for params, meas, x_fixed, jfb in checked:
        g = 2.0 * (x_fixed - truth[id(meas)])
        exact, _ = implicit_backward(params, x_fixed, meas, g, tol=1e-10, max_iter=5000)
        assert _cosine(jfb, normalize_vjp(params, exact)) >= 0.99


def test_train_step_runs_one_reverse_pass_and_no_adjoint(monkeypatch):
    calls = {"forward_with_trace": 0, "param_vjp": 0, "implicit_backward": 0, "jacobian_vjp": 0}

    def counted(name):
        original = getattr(training, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(training, name, spy)

    for name in calls:
        counted(name)
    dataset = _dataset(n=2, size=8)
    train(dataset, TrainConfig(epochs=2, blocks=1, features=4))
    steps = 2 * len(dataset)
    assert calls == {"forward_with_trace": steps, "param_vjp": steps,
                     "implicit_backward": 0, "jacobian_vjp": 0}


def test_trace_is_freed_before_adam(monkeypatch):
    # a layer multiplier is held by the trace alone (the traced input of the
    # first layer is the equilibrium itself, which train keeps)
    held = []
    forward_with_trace, adam = training.forward_with_trace, training.adam_step

    def spy_trace(params, x):
        out = forward_with_trace(params, x)
        held.append(weakref.ref(out[1][0]["k"]["mults"][0]))
        return out

    def spy_adam(state, grads, **kwargs):
        assert held and all(ref() is None for ref in held)
        return adam(state, grads, **kwargs)

    monkeypatch.setattr(training, "forward_with_trace", spy_trace)
    monkeypatch.setattr(training, "adam_step", spy_adam)
    dataset = _dataset(n=2, size=8)
    train(dataset, TrainConfig(epochs=2, blocks=1, features=4))
    assert len(held) == 2 * len(dataset)
