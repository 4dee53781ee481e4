import struct

import numpy as np
import pytest

from deqpocs.errors import CertificateError, InvalidInputError, ShapeError
import deqpocs.network as network
import deqpocs.tensors as tensors
from deqpocs.network import (
    _lrelu_with_mult,
    _scale_parts,
    certified_lipschitz,
    clone_params,
    forward,
    forward_with_trace,
    init_params,
    jacobian_vjp,
    load_checkpoint,
    normalize_params,
    num_params,
    pack_params,
    read_ck01_bytes,
    require_contractive,
    save_checkpoint,
    unpack_params,
    vjp,
    write_ck01_bytes,
)
from deqpocs.rng import RandomStream
from deqpocs.tensors import frob, gaussian_tensor, inner_real


def small_net(variant="kspace", blocks=2, features=4, nc=2, seed=0, grid=(8, 8)):
    return init_params(variant, blocks, features, nc, seed=seed, grid=grid)


def randomize_biases(params, seed=0, scale=0.3):
    """Shift activations away from the leaky-ReLU kink so finite differences
    at h=1e-4 stay clean (zero-bias nets park many pre-activations at 0)."""
    s = RandomStream(seed)
    for blk in params.blocks:
        branches = [blk.kspace_branch] + (
            [blk.image_branch] if blk.image_branch is not None else []
        )
        for br in branches:
            for j, b in enumerate(br.biases):
                br.biases[j] = scale * gaussian_tensor((1, 1, b.size), s).reshape(b.shape)
    return params


class TestInit:
    def test_parameter_count_matches_shape_arithmetic(self):
        p = init_params("kspace", 10, 32, 4, seed=0, grid=(8, 8))
        widths = [(4, 32), (32, 32), (32, 32), (32, 32), (32, 4)]
        kernel_reals = sum(9 * a * b * 2 for a, b in widths)
        bias_reals = sum(b * 2 for _, b in widths)
        expected = 10 * (kernel_reals + bias_reals + 1)  # + alpha per block
        assert num_params(p) == expected

    def test_determinism(self):
        a = small_net(seed=3)
        b = small_net(seed=3)
        assert np.array_equal(pack_params(a), pack_params(b))

    def test_fresh_init_certifies_below_ceiling(self):
        for variant in ("kspace", "hybrid"):
            p = small_net(variant=variant, seed=1)
            cert = certified_lipschitz(p)
            assert cert.contraction_bound <= 0.99 + 1e-12
            assert all(s <= 1 + 1e-6 for s in cert.kernel_bounds)

    def test_certification_grid_limit(self):
        """Training must not write a checkpoint that the reader refuses."""
        assert init_params("kspace", 1, 1, 1, grid=(256, 1)).cert_grid == (256, 1)
        for grid in [(257, 1), (1, 257)]:
            with pytest.raises(ShapeError):
                init_params("kspace", 1, 1, 1, grid=grid)

    def test_alpha_init(self):
        p = small_net(seed=2)
        assert all(b.alpha == 0.5 for b in p.blocks)


class TestForward:
    def test_alpha_zero_scales_input(self, rand_tensor):
        p = small_net(blocks=3, seed=4)
        for blk in p.blocks:
            blk.alpha = 0.0
        x = rand_tensor((8, 8, 2), 5)
        out = forward(p, x)
        assert frob(out - 0.99**3 * x) <= 1e-12 * frob(x)

    def test_zero_input_zero_bias(self, rand_tensor):
        p = small_net(seed=6)  # biases start at zero
        out = forward(p, np.zeros((8, 8, 2), dtype=complex))
        assert frob(out) == 0.0

    def test_contraction_under_certificate(self):
        p = small_net(blocks=3, seed=7, grid=(16, 16))
        L = certified_lipschitz(p).contraction_bound
        s = RandomStream(71)
        for _ in range(100):
            a = gaussian_tensor((16, 16, 2), s)
            b = gaussian_tensor((16, 16, 2), s)
            assert frob(forward(p, a) - forward(p, b)) <= L * frob(a - b)

    def test_channel_mismatch(self):
        p = small_net()
        with pytest.raises(ShapeError):
            forward(p, np.zeros((8, 8, 3), dtype=complex))

    def test_hybrid_with_zero_image_weight_matches_kspace_branch(self, rand_tensor):
        p = small_net(variant="hybrid", seed=8)
        for blk in p.blocks:
            blk.c_k, blk.c_i = 1.0, 0.0
        x = rand_tensor((8, 8, 2), 9)
        kspace_only = clone_params(p)
        kspace_only.variant = "kspace"
        for blk in kspace_only.blocks:
            blk.image_branch = None
        assert np.array_equal(forward(p, x), forward(kspace_only, x))

    @staticmethod
    def _weighted_hybrid_and_kspace_copy(seed):
        """A hybrid model with weights (1, 0) and its copy without image branches."""
        p = small_net(variant="hybrid", seed=seed)
        for blk in p.blocks:
            blk.c_k, blk.c_i = 1.0, 0.0
        kspace_only = clone_params(p)
        kspace_only.variant = "kspace"
        for blk in kspace_only.blocks:
            blk.image_branch = None
        return p, kspace_only

    def test_hybrid_with_zero_image_weight_matches_kspace_vjp(self, rand_tensor):
        p, kspace_only = self._weighted_hybrid_and_kspace_copy(48)
        x = rand_tensor((8, 8, 2), 49)
        cot = rand_tensor((8, 8, 2), 50)
        gp, gx = vjp(p, x, cot)
        gq, gy = vjp(kspace_only, x, cot)
        assert np.array_equal(gx, gy)
        hybrid, kspace = unpack_params(p, gp), unpack_params(kspace_only, gq)
        for a, b in zip(hybrid.blocks, kspace.blocks, strict=True):
            assert a.alpha == b.alpha
            for ka, kb in zip(a.kspace_branch.kernels, b.kspace_branch.kernels, strict=True):
                assert np.array_equal(ka, kb)
            for ba, bb in zip(a.kspace_branch.biases, b.kspace_branch.biases, strict=True):
                assert np.array_equal(ba, bb)

    def test_hybrid_with_zero_image_weight_matches_kspace_certificate(self):
        p, kspace_only = self._weighted_hybrid_and_kspace_copy(51)
        got, want = certified_lipschitz(p), certified_lipschitz(kspace_only)
        assert got.block_bounds == want.block_bounds
        assert got.contraction_bound == want.contraction_bound

    def test_deterministic(self, rand_tensor):
        p = small_net(variant="hybrid", seed=10)
        x = rand_tensor((8, 8, 2), 11)
        assert np.array_equal(forward(p, x), forward(p, x))


def _two_mask_lrelu(z):
    """The activation as two per-part masks and a complex recombination."""
    m_re = np.where(z.real >= 0, 1.0, 0.2)
    m_im = np.where(z.imag >= 0, 1.0, 0.2)
    return z.real * m_re + 1j * (z.imag * m_im), m_re, m_im


def _special_parts():
    """Every pairing of signed zeros, exact negatives and subnormals as
    (real, imag), in an (n, n, 1) tensor."""
    vals = np.array([0.0, -0.0, 1.5, -1.5, -2.0, -0.25, 3.0, 5e-324, -5e-324])
    re, im = np.meshgrid(vals, vals)
    z = np.empty(re.shape + (1,), dtype=np.complex128)
    z.real, z.imag = re[..., None], im[..., None]
    return z


class TestLeakyRelu:
    @pytest.mark.parametrize("case", ["random", "special"])
    def test_matches_two_mask_formula_bit_for_bit(self, rand_tensor, case):
        z = rand_tensor((8, 8, 6), 21) if case == "random" else _special_parts()
        want, m_re, m_im = _two_mask_lrelu(z)
        got, mult = _lrelu_with_mult(z)
        assert got.tobytes() == want.tobytes()
        assert mult.tobytes() == np.stack([m_re, m_im], axis=-1).tobytes()

    @pytest.mark.parametrize("case", ["random", "special"])
    def test_reverse_multiplier_matches_two_mask_formula(self, rand_tensor, case):
        if case == "random":
            z, cot = rand_tensor((8, 8, 6), 22), rand_tensor((8, 8, 6), 23)
        else:
            z = _special_parts()
            cot = np.ascontiguousarray(z.transpose(1, 0, 2))  # every part under every mask
        _, m_re, m_im = _two_mask_lrelu(z)
        want = cot.real * m_re + 1j * (cot.imag * m_im)
        _, mult = _lrelu_with_mult(z)
        assert _scale_parts(cot, mult).tobytes() == want.tobytes()


class TestCertificate:
    def test_alpha_zero_single_block(self):
        p = small_net(blocks=1, seed=12)
        p.blocks[0].alpha = 0.0
        assert certified_lipschitz(p).contraction_bound == pytest.approx(0.99)

    def test_alpha_zero_two_blocks_compose(self):
        p = small_net(blocks=2, seed=13)
        for blk in p.blocks:
            blk.alpha = 0.0
        assert certified_lipschitz(p).contraction_bound == pytest.approx(0.9801)

    def test_empirical_ratio_never_exceeds_certificate(self):
        p = init_params("kspace", 3, 4, 2, seed=14, grid=(8, 8))
        L = certified_lipschitz(p).contraction_bound
        s = RandomStream(15)
        worst = 0.0
        for _ in range(1000):
            a = gaussian_tensor((8, 8, 2), s)
            b = gaussian_tensor((8, 8, 2), s)
            worst = max(worst, frob(forward(p, a) - forward(p, b)) / frob(a - b))
        assert worst <= L

    @pytest.mark.parametrize("alpha", [1.2, -0.3, 1.5])
    def test_bound_holds_for_alpha_outside_range(self, alpha):
        # a stored alpha outside [0, 0.99] (a hand-edited or foreign CK01)
        # must still certify at least the measured local Lipschitz ratio
        p = init_params("kspace", 1, 4, 2, grid=(8, 8))
        p.blocks[0].alpha = alpha
        L = certified_lipschitz(p).contraction_bound
        s = RandomStream(17)
        worst = 0.0
        for _ in range(20):
            x = gaussian_tensor((8, 8, 2), s)
            d = 1e-3 * gaussian_tensor((8, 8, 2), s)
            worst = max(worst, frob(forward(p, x + d) - forward(p, x)) / frob(d))
        assert L >= worst

    def test_require_contractive(self):
        p = small_net(seed=16)
        require_contractive(certified_lipschitz(p))
        p.blocks[0].kspace_branch.sigmas[0] = 5.0
        p.blocks[0].alpha = 0.99
        with pytest.raises(CertificateError):
            require_contractive(certified_lipschitz(p))


class TestNormalize:
    def test_already_contractive_kernel_unchanged(self):
        p = small_net(seed=17)
        p.blocks[0].kspace_branch.kernels[0] *= 0.5
        q = normalize_params(normalize_params(p))
        r = normalize_params(q)
        assert np.array_equal(pack_params(q), pack_params(r))

    def test_oversized_kernel_rescaled(self):
        p = small_net(seed=18)
        p.blocks[0].kspace_branch.kernels[1] *= 4.0
        q = normalize_params(p)
        assert all(s <= 1 + 1e-6 for s in q.blocks[0].kspace_branch.sigmas)
        assert certified_lipschitz(q).contraction_bound <= 0.99

    def test_alpha_clamped(self):
        p = small_net(seed=19)
        p.blocks[0].alpha = 1.7
        p.blocks[1].alpha = -0.3
        q = normalize_params(p)
        assert q.blocks[0].alpha == 0.99
        assert q.blocks[1].alpha == 0.0

    def test_hybrid_weights_projected_to_simplex(self):
        p = small_net(variant="hybrid", seed=20)
        p.blocks[0].c_k, p.blocks[0].c_i = 3.0, 1.0
        q = normalize_params(p)
        assert q.blocks[0].c_k + q.blocks[0].c_i == pytest.approx(1.0)
        assert q.blocks[0].c_k == pytest.approx(0.75)

    def test_random_adam_steps_keep_certificate(self):
        from deqpocs.training import AdamState, adam_step

        p = small_net(seed=21)
        s = RandomStream(22)
        state = AdamState.init(pack_params(p))
        for _ in range(100):
            grads = np.array(s.gaussians(state.values.size))
            state = adam_step(state, grads, lr=1e-2)
            p = normalize_params(unpack_params(p, state.values))
            state.values = pack_params(p)  # projected parameters feed the next step
            assert certified_lipschitz(p).contraction_bound <= 0.99 + 1e-12


class TestVjp:
    def test_zero_cotangent(self, rand_tensor):
        p = small_net(seed=23)
        x = rand_tensor((8, 8, 2), 24)
        gp, gx = vjp(p, x, np.zeros_like(x))
        assert frob(gx) == 0.0 and np.all(gp == 0.0)

    def test_alpha_zero_linear_map(self, rand_tensor):
        p = small_net(blocks=2, seed=25)
        for blk in p.blocks:
            blk.alpha = 0.0
        x = rand_tensor((8, 8, 2), 26)
        cot = rand_tensor((8, 8, 2), 27)
        gp, gx = vjp(p, x, cot)
        assert frob(gx - 0.99**2 * cot) <= 1e-12 * frob(cot)
        # kernel and bias entries of the gradient vanish; only alpha reacts
        q = unpack_params(p, gp)
        for blk in q.blocks:
            assert all(np.abs(k).max() == 0 for k in blk.kspace_branch.kernels)
            assert all(np.abs(b).max() == 0 for b in blk.kspace_branch.biases)

    @pytest.mark.parametrize("variant", ["kspace", "hybrid"])
    def test_vjp_jvp_inner_product(self, variant, rand_tensor):
        p = randomize_biases(small_net(variant=variant, blocks=1, features=4, seed=28), 128)
        x = rand_tensor((8, 8, 2), 29)
        cot = rand_tensor((8, 8, 2), 30)
        u = rand_tensor((8, 8, 2), 31)
        _, gx = vjp(p, x, cot)
        h = 1e-6
        jvp = (forward(p, x + h * u) - forward(p, x - h * u)) / (2 * h)
        assert inner_real(gx, u) == pytest.approx(inner_real(cot, jvp), rel=1e-6)

    @pytest.mark.parametrize("variant", ["kspace", "hybrid"])
    def test_param_gradient_matches_finite_differences(self, variant, rand_tensor):
        p = randomize_biases(small_net(variant=variant, blocks=1, features=4, seed=32), 132)
        x = rand_tensor((8, 8, 2), 33)
        cot = rand_tensor((8, 8, 2), 34)
        gp, _ = vjp(p, x, cot)
        vec = pack_params(p)
        s = RandomStream(35)
        h = 1e-4
        for _ in range(5):
            d = np.array(s.gaussians(vec.size))
            d /= np.linalg.norm(d)
            up = inner_real(cot, forward(unpack_params(p, vec + h * d), x))
            dn = inner_real(cot, forward(unpack_params(p, vec - h * d), x))
            fd = (up - dn) / (2 * h)
            assert fd == pytest.approx(float(gp @ d), rel=1e-4, abs=1e-10)

    def test_jacobian_vjp_matches_full_vjp(self, rand_tensor):
        p = small_net(variant="hybrid", seed=36)
        x = rand_tensor((8, 8, 2), 37)
        cot = rand_tensor((8, 8, 2), 38)
        _, traces = forward_with_trace(p, x)
        gx_fast = jacobian_vjp(p, traces, cot)
        _, gx = vjp(p, x, cot)
        assert np.array_equal(gx_fast, gx)

    def test_bit_reproducible(self, rand_tensor):
        p = small_net(seed=39)
        x = rand_tensor((8, 8, 2), 40)
        cot = rand_tensor((8, 8, 2), 41)
        g1 = vjp(p, x, cot)
        g2 = vjp(p, x, cot)
        assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


class TestPacking:
    def test_pack_unpack_round_trip(self):
        for variant in ("kspace", "hybrid"):
            p = small_net(variant=variant, seed=42)
            vec = pack_params(p)
            q = unpack_params(p, vec)
            assert np.array_equal(pack_params(q), vec)

    def test_wrong_length_rejected(self):
        p = small_net(seed=43)
        with pytest.raises(ShapeError):
            unpack_params(p, np.zeros(3))


class TestCertificationCost:
    """Certification reads the kernels only: it runs no convolution and draws
    no random numbers, whatever grid a checkpoint declares."""

    @pytest.fixture
    def spies(self, monkeypatch):
        counts = {"convs": 0, "gaussians": 0}
        conv, gaussians = tensors.conv2d_complex, RandomStream.gaussians

        def counting_conv(*args, **kwargs):
            counts["convs"] += 1
            return conv(*args, **kwargs)

        def counting_gaussians(stream, n):
            counts["gaussians"] += n
            return gaussians(stream, n)

        monkeypatch.setattr(tensors, "conv2d_complex", counting_conv)
        monkeypatch.setattr(network, "conv2d_complex", counting_conv)
        monkeypatch.setattr(RandomStream, "gaussians", counting_gaussians)
        return counts

    def test_init_draws_exactly_the_kernel_values(self, spies):
        p = init_params("hybrid", 2, 4, 2, seed=0, grid=(8, 8))
        branches = [br for blk in p.blocks for br in blk.branches]
        assert spies == {"convs": 0, "gaussians": sum(2 * k.size for br in branches
                                                      for k in br.kernels)}

    @pytest.mark.parametrize("grid", [(8, 8), (256, 256)], ids=["8x8", "256x256"])
    def test_load_runs_no_conv_and_draws_nothing(self, spies, grid):
        raw = write_ck01_bytes(init_params("hybrid", 2, 4, 2, seed=0, grid=grid))
        spies.update(convs=0, gaussians=0)
        q, _ = read_ck01_bytes(raw)
        assert spies == {"convs": 0, "gaussians": 0}
        assert q.cert_grid == grid
        assert certified_lipschitz(q).contraction_bound <= 0.99 + 1e-6


class TestCheckpoint:
    @pytest.mark.parametrize("variant", ["kspace", "hybrid"])
    def test_round_trip(self, tmp_path, variant):
        p = small_net(variant=variant, seed=44)
        cert = certified_lipschitz(p).contraction_bound
        path = tmp_path / "net.ck01"
        save_checkpoint(path, p)
        q, stored = load_checkpoint(path)
        assert stored == pytest.approx(cert, abs=1e-6)
        assert q.variant == p.variant and q.nc == p.nc and q.cert_grid == p.cert_grid
        x = gaussian_tensor((8, 8, 2), RandomStream(45))
        assert frob(forward(q, x) - forward(p, x)) <= 1e-5 * max(frob(forward(p, x)), 1e-9)

    def test_corrupted_kernel_refused(self, tmp_path):
        p = small_net(seed=46)
        p.blocks[0].kspace_branch.kernels[2] *= 3.0  # break the stored certificate
        raw = bytearray(write_ck01_bytes(p))
        # forge the stored certificate: keep the one of the unbroken kernels
        raw[-4:] = struct.pack("<f", certified_lipschitz(small_net(seed=46)).contraction_bound)
        path = tmp_path / "bad.ck01"
        path.write_bytes(bytes(raw))
        with pytest.raises(CertificateError):
            load_checkpoint(path)

    @pytest.mark.parametrize("c_k, c_i", [(0.5, 0.0), (1.0, 0.25)])
    def test_kspace_weights_other_than_one_zero_refused(self, c_k, c_i):
        """A k-space block's formula reads its weights, and the writer only
        ever stores (1, 0) for them."""
        p = small_net(seed=52)
        p.blocks[1].c_k, p.blocks[1].c_i = c_k, c_i
        with pytest.raises(InvalidInputError, match=r"k-space block 1 has weights"):
            read_ck01_bytes(write_ck01_bytes(p))

    def test_save_is_deterministic(self, tmp_path):
        p = small_net(seed=47)
        assert write_ck01_bytes(p) == write_ck01_bytes(p)
