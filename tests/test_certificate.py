"""The Fourier-symbol certificate against dense oracles.

Each kernel bound must be at least the 2-norm of the kernel's zero-padded
convolution on every grid, and at least the symbol's largest singular value
anywhere on the torus; the grid maximum it starts from must equal the norm
of the circular convolution on that grid. Training's reverse product
through the normalization must match finite differences.
"""

import numpy as np
import pytest

from deqpocs.errors import CertificateError
from deqpocs.network import (
    SYMBOL_FACTOR,
    SYMBOL_GRID,
    BlockParams,
    BranchParams,
    ConsistencyNetParams,
    certified_lipschitz,
    forward,
    init_params,
    layer_widths,
    normalize_params,
    normalize_vjp,
    pack_params,
    unpack_params,
    vjp,
    write_ck01_bytes,
)
from deqpocs.phantom import DatasetSpec, make_dataset
from deqpocs.rng import RandomStream
from deqpocs.sampling import apply_sampling, make_mask
from deqpocs.tensors import conv2d_complex, frob, gaussian_tensor, inner_real, symbol_norm
from deqpocs.training import TrainConfig, reconstruct, train
from oracles import materialize_linear_operator

# (C_in, C_out, seed, dominant taps): random kernels from 1->1 to 16->16
KERNELS = [
    (1, 1, 1, 0), (1, 4, 2, 0), (4, 1, 3, 1), (2, 3, 4, 0), (3, 2, 5, 2),
    (4, 4, 6, 0), (4, 16, 7, 1), (16, 4, 8, 0), (16, 16, 9, 0), (16, 16, 10, 3),
]
# grids from 3 to 12 per side, square and not
GRIDS = [(3, 3), (3, 8), (5, 5), (7, 4), (8, 8), (12, 3), (10, 12), (12, 12)]


def random_kernel(cin, cout, seed, dominant=0):
    """Gaussian taps; ``dominant`` taps are then scaled up tenfold."""
    s = RandomStream(seed)
    k = gaussian_tensor((9, cin, cout), s).reshape(3, 3, cin, cout)
    for _ in range(dominant):
        k[s.randint(3), s.randint(3), s.randint(cin), s.randint(cout)] *= 10.0
    return k


def kernel_bound(k):
    return SYMBOL_FACTOR * symbol_norm(k, SYMBOL_GRID)[0]


def dense_norm(op, shape):
    return float(np.linalg.norm(materialize_linear_operator(op, shape), 2))


def zero_padded_norm(k, grid):
    return dense_norm(lambda v: conv2d_complex(v, k), (*grid, k.shape[2]))


def circular_conv(x, k):
    """``out[p] = sum_d x[(p + d) mod grid] k[d]``, written with rolls."""
    out = 0
    for dy in range(3):
        for dx in range(3):
            shifted = np.roll(x, (1 - dy, 1 - dx), axis=(0, 1))
            out = out + shifted @ k[dy, dx]
    return out


def trained_params():
    """A small hybrid model after a few training steps."""
    spec = DatasetSpec(n=2, height=8, width=8, coils=2, accel=2.0, seed=3, acs=2)
    data = [(s.kspace, m) for s, m in make_dataset(spec)]
    config = TrainConfig(epochs=3, variant="hybrid", blocks=1, features=4, learning_rate=1e-2)
    params, _ = train(data, config)
    return params


@pytest.mark.parametrize("cin, cout, seed, dominant", KERNELS)
def test_bound_covers_zero_padded_norm_on_every_grid(cin, cout, seed, dominant):
    k = random_kernel(cin, cout, seed, dominant)
    bound = kernel_bound(k)
    for grid in GRIDS:
        if grid[0] * grid[1] * max(cin, cout) > 1200:
            continue  # dense SVDs above this size take seconds each
        assert zero_padded_norm(k, grid) <= bound


def test_trained_kernel_bounds_cover_zero_padded_norms():
    params = trained_params()
    for blk in params.blocks:
        for br in blk.branches:
            for k, sigma in zip(br.kernels, br.sigmas, strict=True):
                assert sigma == pytest.approx(kernel_bound(k), rel=1e-9)
                for grid in GRIDS:
                    assert zero_padded_norm(k, grid) <= sigma


@pytest.mark.parametrize("cin, cout, seed, dominant", KERNELS)
def test_dense_torus_sampling_stays_under_bound(cin, cout, seed, dominant):
    k = random_kernel(cin, cout, seed, dominant)
    n = 256
    w = 2 * np.pi * (np.arange(n) + 0.5) / n  # no sample on the certificate's grid
    taps = np.array([-1, 0, 1])
    ex = np.exp(1j * np.outer(w, taps))  # (n, 3): phases along the second axis
    worst = 0.0
    for wy in w:
        ey = np.exp(1j * wy * taps)
        sym = np.einsum("a,jb,abio->jio", ey, ex, k)
        worst = max(worst, float(np.linalg.norm(sym, 2, axis=(1, 2)).max()))
    assert worst <= kernel_bound(k)


@pytest.mark.parametrize(
    "m, cin, cout, seed", [(3, 2, 2, 11), (5, 16, 16, 12), (7, 1, 1, 13), (12, 4, 3, 14),
                           (17, 2, 3, 15), (17, 1, 4, 16)],
)
def test_grid_maximum_equals_circular_convolution_norm(m, cin, cout, seed):
    k = random_kernel(cin, cout, seed, dominant=1)
    want = dense_norm(lambda v: circular_conv(v, k), (m, m, cin))
    assert symbol_norm(k, m)[0] == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("cin, cout, seed", [(1, 1, 21), (3, 5, 22), (6, 2, 23)])
def test_symbol_norm_gradient_matches_finite_differences(cin, cout, seed):
    k = random_kernel(cin, cout, seed)
    _, grad = symbol_norm(k, SYMBOL_GRID)
    d = random_kernel(cin, cout, seed + 100)
    h = 1e-6
    fd = (symbol_norm(k + h * d, SYMBOL_GRID)[0] - symbol_norm(k - h * d, SYMBOL_GRID)[0]) / (2 * h)
    assert fd == pytest.approx(inner_real(grad, d), rel=1e-6)


class TestGradientThroughNormalization:
    """``normalize_vjp`` is the reverse product of ``normalize_params``."""

    @pytest.fixture
    def raw(self):
        p = init_params("kspace", 1, 4, 2, seed=31, grid=(8, 8))
        s = RandomStream(32)
        br = p.blocks[0].kspace_branch
        for j, b in enumerate(br.biases):  # keep pre-activations off the kink
            br.biases[j] = 0.3 * gaussian_tensor((1, 1, b.size), s).reshape(b.shape)
        br.kernels[1] = 3.0 * br.kernels[1]  # bound about 3: divided, s > 1
        br.kernels[2] = 0.5 * br.kernels[2]  # bound about 0.5: left alone, s = 1
        return p

    @pytest.mark.parametrize("layer, divided", [(1, True), (2, False)])
    def test_matches_central_difference(self, raw, layer, divided):
        x = gaussian_tensor((8, 8, 2), RandomStream(33))
        cot = gaussian_tensor((8, 8, 2), RandomStream(34))

        def loss(vec):
            return inner_real(cot, forward(normalize_params(unpack_params(raw, vec)), x))

        params = normalize_params(raw)
        assert (params.blocks[0].kspace_branch.rescales[layer] is not None) == divided
        g_w, _ = vjp(params, x, cot)
        g_v = normalize_vjp(params, g_w)
        # a direction on this layer's kernel only
        mask = unpack_params(raw, np.zeros_like(g_v))
        k = raw.blocks[0].kspace_branch.kernels[layer]
        mask.blocks[0].kspace_branch.kernels[layer] = gaussian_tensor(
            (9, *k.shape[2:]), RandomStream(35 + layer)).reshape(k.shape)
        d = pack_params(mask)
        d /= np.linalg.norm(d)
        vec, h = pack_params(raw), 1e-5
        fd = (loss(vec + h * d) - loss(vec - h * d)) / (2 * h)
        assert fd == pytest.approx(float(g_v @ d), rel=1e-6)


class TestUncertifiedParamsRefused:
    """Parameters whose branches do not carry one bound per kernel have no
    certificate: treating a missing bound as norm 1 certified a model that
    expanded distances by 1e11."""

    @staticmethod
    def hand_built(sigmas):
        widths = layer_widths(2, 4)
        branch = BranchParams(
            kernels=[np.full((3, 3, cin, cout), 10.0, dtype=complex) for cin, cout in widths],
            biases=[np.zeros(cout, dtype=complex) for _, cout in widths],
            sigmas=sigmas,
        )
        block = BlockParams(kspace_branch=branch, alpha=0.5)
        return ConsistencyNetParams("kspace", [block], features=4, nc=2, cert_grid=(8, 8))

    @pytest.mark.parametrize("sigmas", [[], [0.5] * 4, [0.5] * 6], ids=["none", "short", "long"])
    def test_certificate_solve_and_save_refused(self, sigmas):
        params = self.hand_built(sigmas)
        meas = apply_sampling(gaussian_tensor((8, 8, 2), RandomStream(41)),
                              make_mask("1d-calibrated", 8, 8, 2, acs=2, seed=0))
        for call in (certified_lipschitz, lambda p: reconstruct(p, meas), write_ck01_bytes):
            with pytest.raises(CertificateError, match="kernel bounds"):
                call(params)

    def test_normalized_model_certifies_what_it_does(self):
        params = normalize_params(self.hand_built([]))
        L = certified_lipschitz(params).contraction_bound
        s = RandomStream(42)
        for _ in range(20):
            a, b = gaussian_tensor((8, 8, 2), s), gaussian_tensor((8, 8, 2), s)
            assert frob(forward(params, a) - forward(params, b)) <= L * frob(a - b)
