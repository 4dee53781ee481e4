"""``tensors.symbol_norm`` without state against the full-grid oracle
(``oracles.symbol_norm_reference``): the same ``(sigma, grad)`` bytes and
the same lowest-index maximum ``j`` for complex, real and zero kernels,
bounds that cover every frequency's exact top singular value, and a typed
refusal of a kernel whose symbol overflows."""

import numpy as np
import pytest

from deqpocs.errors import InvalidInputError
from deqpocs.network import SYMBOL_GRID, init_params, normalize_params
from deqpocs.tensors import SYMBOL_MARGIN, _phases, kernel_symbol, symbol_norm
from oracles import symbol_norm_reference, symbol_top_singular_values

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
    """Runs ``symbol_norm`` without state and counts its Cholesky proofs,
    one per ranking stage tried (1 when the first stage's candidates are
    proven, 2 when the iterate ran on to the last stage), and whether every
    frequency was evaluated because the last proof was refused too."""
    calls = []
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def counting_cholesky(a, *args, **kwargs):
        calls[-1][0] += 1
        return cholesky(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        calls[-1][1] += 1
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)

    def run(k, m):
        calls.append([0, 0])
        out = symbol_norm(k, m)
        proofs, evaluations = calls[-1]
        return out, proofs, evaluations > proofs

    return run


@pytest.mark.parametrize("m", [SYMBOL_GRID, 6], ids=lambda m: f"m{m}")
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_bytes_match_full_grid_oracle(stages, shape, kind, m):
    seen = set()
    for seed in range(6):
        k = _kernel(shape, kind, seed)
        (sigma, grad, bounds), proofs, full = stages(k, m)
        want_sigma, want_grad, want_j = symbol_norm_reference(k, m)
        assert sigma == want_sigma
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert grad.tobytes() == want_grad.tobytes()
        assert bounds.j == want_j
        assert np.all(bounds.bounds >= symbol_top_singular_values(k, m))
        assert np.array_equal(bounds.kernel, k)
        assert not bounds.kernel.flags.writeable and not bounds.bounds.flags.writeable
        seen.add((proofs, full))
    if kind == "zero":
        assert seen == {(2, True)}  # no proof holds: every frequency is evaluated


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


def test_overflowing_symbol_is_refused():
    """Finite taps of 1e300 overflow the symbol's Gram matrix, without state
    and with the bounds of a kernel of ordinary size; so does a step to
    such taps in ``normalize_params``."""
    k = _kernel((3, 3, 4, 6), "complex", 0)
    with pytest.raises(InvalidInputError, match="overflows"):
        symbol_norm(k * 1e300, SYMBOL_GRID)
    prev = symbol_norm(k, SYMBOL_GRID)[2]
    with pytest.raises(InvalidInputError, match="overflows"):
        symbol_norm(k * 1e300, SYMBOL_GRID, prev)
    params = init_params("kspace", 1, 4, 2, seed=0, grid=(16, 16))
    params.blocks[0].kspace_branch.kernels[1] *= 1e300
    with pytest.raises(InvalidInputError, match="overflows"):
        normalize_params(params)


def test_phase_table_is_cached_and_read_only():
    table = _phases(SYMBOL_GRID, 3, 3)
    assert table is _phases(SYMBOL_GRID, 3, 3)
    assert table.shape == (SYMBOL_GRID**2, 9)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0
    assert table[0, 4] == 1.0  # the centre tap at w = 0
