"""The staged ranking of ``tensors.symbol_norm`` against the one-stage
8-step ranking it replaced (``oracles.symbol_norm_reference``): the same
``(sigma, grad)`` bytes for every kernel, and ``sigma`` within
``SYMBOL_MARGIN`` of the full-grid maximum."""

import numpy as np
import pytest

from deqpocs.network import SYMBOL_GRID
from deqpocs.tensors import SYMBOL_MARGIN, _phases, kernel_symbol, symbol_norm
from oracles import symbol_norm_reference

# (kh, kw, C_in, C_out): the three layer shapes of an F=16, 4-coil branch,
# a 1x1 kernel and a non-square window
SHAPES = [(3, 3, 4, 16), (3, 3, 16, 16), (3, 3, 16, 4), (1, 1, 4, 4), (3, 5, 4, 6)]
KINDS = ["complex", "real", "zero"]


def _kernel(shape, kind, seed):
    """A complex Gaussian kernel, a real one (its symbol at -w is the
    conjugate of the one at w, so frequencies tie in pairs) or zeros."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(shape, dtype=np.complex128)
    k = rng.standard_normal(shape)
    if kind == "complex":
        k = k + 1j * rng.standard_normal(shape)
    return k.astype(np.complex128)


@pytest.fixture
def stages(monkeypatch):
    """Counts the SVDs of each call, one per candidate: 1 when the first
    stage's candidate is kept, 2 when the iterate ran on to the last stage,
    3 when the full-grid maximum replaced the last stage's candidate."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls[-1] += 1
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)

    def run(k, m):
        calls.append(0)
        out = symbol_norm(k, m)
        return out, calls[-1]

    return run


@pytest.mark.parametrize("m", [SYMBOL_GRID, 6], ids=lambda m: f"m{m}")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_bytes_match_one_stage_reference(stages, shape, kind, m):
    seen = set()
    for seed in range(6):
        k = _kernel(shape, kind, seed)
        (sigma, grad), n = stages(k, m)
        want_sigma, want_grad = symbol_norm_reference(k, m)
        assert sigma == want_sigma
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()
        seen.add(n)
    if kind == "zero":
        assert seen == {3}  # no candidate is proven: the full-grid maximum, 0


def test_both_stages_answer_on_the_desk_shapes(stages):
    """Among the kernels of the byte checks above, each kind has some that
    the first stage settles and some that run on to the last."""
    for kind in ("complex", "real"):
        counts = [stages(_kernel(shape, kind, seed), SYMBOL_GRID)[1]
                  for shape in SHAPES[:3] for seed in range(6)]
        assert 1 in counts and 2 in counts


@pytest.mark.parametrize("kind", ["complex", "real"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_sigma_is_the_grid_maximum_within_margin(shape, kind):
    for seed in range(6):
        k = _kernel(shape, kind, seed)
        sym = kernel_symbol(k, SYMBOL_GRID)
        grid_max = float(np.linalg.eigvalsh(sym @ sym.conj().transpose(0, 2, 1)).max())
        sigma = symbol_norm(k, SYMBOL_GRID)[0]
        assert grid_max / (1.0 + SYMBOL_MARGIN) <= sigma**2 <= grid_max * (1.0 + 1e-12)


def test_phase_table_is_cached_and_read_only():
    table = _phases(SYMBOL_GRID, 3, 3)
    assert table is _phases(SYMBOL_GRID, 3, 3)
    assert table.shape == (SYMBOL_GRID**2, 9)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0
    assert table[0, 4] == 1.0  # the centre tap at w = 0
