import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deqpocs.errors import InvalidInputError, ShapeError
from deqpocs.rng import RandomStream
from oracles import conv2d_reference, conv_kernel_grad_reference, dft2_reference
from deqpocs.tensors import (
    adjoint_kernel,
    as_tensor,
    conv2d_complex,
    conv2d_kernel_grad,
    fft2_centered,
    frob,
    gaussian_tensor,
    ifft2_centered,
    inner_real,
    load_ct01,
    read_ct01_bytes,
    save_ct01,
    spectral_norm_power_iter,
    window_rows,
    write_ct01_bytes,
)


class TestFFT:
    def test_dc_only_signal(self):
        x = np.ones((4, 4, 1), dtype=np.complex128)
        X = fft2_centered(x)
        assert X[2, 2, 0] == pytest.approx(4.0)
        off = X.copy()
        off[2, 2, 0] = 0
        assert frob(off) == 0.0

    def test_zeros(self):
        assert frob(fft2_centered(np.zeros((5, 3, 2), dtype=complex))) == 0.0

    def test_matches_direct_dft_double_sum(self):
        x = gaussian_tensor((8, 8, 2), RandomStream(3))
        got = fft2_centered(x)
        want = dft2_reference(x)
        assert frob(got - want) <= 1e-6 * frob(want)

    def test_parseval(self):
        x = gaussian_tensor((8, 8, 2), RandomStream(1))
        assert frob(fft2_centered(x)) == pytest.approx(frob(x), rel=1e-6)

    def test_non_finite_rejected(self):
        x = np.ones((4, 4, 1), dtype=complex)
        x[0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            fft2_centered(x)

    def test_centered_delta_gives_constant_image(self):
        X = np.zeros((4, 4, 1), dtype=complex)
        X[2, 2, 0] = 4.0
        img = ifft2_centered(X)
        assert np.allclose(img, 1.0, atol=1e-12)

    def test_round_trip(self):
        x = gaussian_tensor((16, 16, 4), RandomStream(2))
        back = ifft2_centered(fft2_centered(x))
        assert frob(back - x) <= 1e-6 * frob(x)

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_parseval_property(self, H, W, C, seed):
        x = gaussian_tensor((H, W, C), RandomStream(seed))
        assert frob(fft2_centered(x)) == pytest.approx(frob(x), rel=1e-6, abs=1e-12)


class TestConv:
    def test_identity_kernel(self):
        x = gaussian_tensor((6, 6, 3), RandomStream(0))
        k = np.zeros((1, 1, 3, 3), dtype=complex)
        k[0, 0] = np.eye(3)
        assert frob(conv2d_complex(x, k) - x) == 0.0

    def test_zero_input(self):
        k = gaussian_tensor((3, 3, 4), RandomStream(1)).reshape(3, 3, 2, 2)
        out = conv2d_complex(np.zeros((5, 5, 2), dtype=complex), k)
        assert frob(out) == 0.0

    def test_matches_materialized_matrix(self, materialize):
        x = gaussian_tensor((6, 6, 2), RandomStream(5))
        k = gaussian_tensor((9, 2, 3), RandomStream(6)).reshape(3, 3, 2, 3)
        dense = materialize(lambda v: conv2d_complex(v, k), (6, 6, 2))
        assert dense.shape == (108, 72)
        want = (dense @ x.ravel()).reshape(6, 6, 3)
        got = conv2d_complex(x, k)
        assert frob(got - want) <= 1e-6 * frob(want)

    def test_channel_mismatch(self):
        k = np.zeros((3, 3, 2, 2), dtype=complex)
        with pytest.raises(ShapeError):
            conv2d_complex(np.zeros((4, 4, 3), dtype=complex), k)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv2d_complex(
                np.zeros((4, 4, 1), dtype=complex), np.zeros((2, 2, 1, 1), dtype=complex)
            )

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, seed):
        s = RandomStream(seed)
        x = gaussian_tensor((5, 5, 2), s)
        y = gaussian_tensor((5, 5, 2), s)
        k = gaussian_tensor((9, 2, 2), s).reshape(3, 3, 2, 2)
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        lhs = conv2d_complex(a * x + b * y, k)
        rhs = a * conv2d_complex(x, k) + b * conv2d_complex(y, k)
        assert frob(lhs - rhs) <= 1e-6 * max(frob(rhs), 1e-12)

    def test_adjoint_identity(self):
        s = RandomStream(44)
        x = gaussian_tensor((6, 6, 2), s)
        g = gaussian_tensor((6, 6, 3), s)
        k = gaussian_tensor((9, 2, 3), s).reshape(3, 3, 2, 3)
        lhs = inner_real(conv2d_complex(x, k), g)
        rhs = inner_real(x, conv2d_complex(g, adjoint_kernel(k)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_kernel_grad_matches_directional_derivative(self):
        s = RandomStream(45)
        x = gaussian_tensor((6, 6, 2), s)
        g = gaussian_tensor((6, 6, 3), s)
        k = gaussian_tensor((9, 2, 3), s).reshape(3, 3, 2, 3)
        grad = conv2d_kernel_grad(x, g, 3, 3)
        dk = gaussian_tensor((9, 2, 3), s).reshape(3, 3, 2, 3)
        h = 1e-7
        fd = (
            inner_real(conv2d_complex(x, k + h * dk), g)
            - inner_real(conv2d_complex(x, k - h * dk), g)
        ) / (2 * h)
        assert fd == pytest.approx(inner_real(grad, dk), rel=1e-6)


# grids with a side of 1, sides below the kernel's extent, and non-square
CONV_GRIDS = [(1, 1), (1, 7), (6, 1), (2, 9), (4, 3), (5, 8)]
CONV_KERNELS = [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)]
CONV_WIDTHS = [(1, 3), (4, 16), (16, 4)]


@pytest.mark.parametrize("cin,cout", CONV_WIDTHS)
@pytest.mark.parametrize("kh,kw", CONV_KERNELS)
@pytest.mark.parametrize("H,W", CONV_GRIDS)
class TestConvOracles:
    """The row-band convolution and its kernel gradient against explicit
    per-sample sums, on every grid, kernel and channel-width combination."""

    @staticmethod
    def _operands(H, W, kh, kw, cin, cout):
        s = RandomStream(H * 1000 + W * 100 + kh * 10 + kw)
        x = gaussian_tensor((H, W, cin), s)
        k = gaussian_tensor((kh * kw, cin, cout), s).reshape(kh, kw, cin, cout)
        cot = gaussian_tensor((H, W, cout), s)
        return x, k, cot

    def test_conv_matches_shifted_sum(self, H, W, kh, kw, cin, cout):
        x, k, _ = self._operands(H, W, kh, kw, cin, cout)
        got = conv2d_complex(x, k)
        want = conv2d_reference(x, k)
        assert got.shape == (H, W, cout)
        assert frob(got - want) <= 1e-13 * frob(want)

    def test_kernel_grad_matches_double_sum(self, H, W, kh, kw, cin, cout):
        x, _, cot = self._operands(H, W, kh, kw, cin, cout)
        got = conv2d_kernel_grad(x, cot, kh, kw)
        want = conv_kernel_grad_reference(x, cot, kh, kw)
        assert got.shape == (kh, kw, cin, cout)
        assert frob(got - want) <= 1e-13 * frob(want)


FAULT_PROBE = """
import resource
from deqpocs import forward, init_params, vjp
from deqpocs.rng import RandomStream
from deqpocs.tensors import gaussian_tensor

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

params = init_params("hybrid", 1, 16, 4, seed=0, grid=(32, 32))
x = gaussian_tensor((32, 32, 4), RandomStream(1))
for _ in range(3):
    forward(params, x)
f0 = faults()
for _ in range(20):
    forward(params, x)
f1 = faults()
for _ in range(5):
    vjp(params, x, x)
print(f1 - f0, faults() - f1)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_hot_path_reuses_freed_pages():
    """After warm-up, desk forwards and VJPs take their arrays from the heap
    instead of faulting in fresh pages: importing the package raised glibc's
    dynamic mmap threshold above every desk-sized array."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    forward_faults, vjp_faults = map(int, out.split())
    assert forward_faults < 100, f"{forward_faults} minor faults over 20 forwards"
    assert vjp_faults < 1000, f"{vjp_faults} minor faults over 5 VJPs"


class TestWindowRows:
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (5, 5), (3, 5)])
    def test_matches_double_loop(self, kh, kw):
        x = gaussian_tensor((7, 9, 3), RandomStream(46))
        rows = []
        for py in range(7 - kh + 1):
            for px in range(9 - kw + 1):
                rows.append(x[py : py + kh, px : px + kw, :].ravel())
        want = np.array(rows)
        got = window_rows(x, kh, kw)
        assert got.shape == ((7 - kh + 1) * (9 - kw + 1), kh * kw * 3)
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(1, 9), w=st.integers(1, 9), c=st.integers(1, 5),
           kh=st.integers(1, 5), kw=st.integers(1, 5), step=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_matches_sliding_window_view(self, h, w, c, kh, kw, step, seed):
        # the former expression, on a strided (non-contiguous when step > 1) input
        H, W = h + kh - 1, w + kw - 1
        x = gaussian_tensor((H, W * step, c * step), RandomStream(seed))[:, ::step, ::step]
        view = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(0, 1))
        want = view.transpose(0, 1, 3, 4, 2).reshape(h * w, kh * kw * c)
        assert np.array_equal(window_rows(x, kh, kw), want)

    def test_column_order_is_dy_dx_channel(self):
        # x[y, x, c] = 100 y + 10 x + c, so each column's value in the first
        # row spells out its (dy, dx, channel) offset
        y, xx, c = np.meshgrid(np.arange(7), np.arange(9), np.arange(3), indexing="ij")
        x = (100 * y + 10 * xx + c).astype(np.complex128)
        first = window_rows(x, 3, 5)[0].real.astype(int)
        want = [100 * dy + 10 * dx + ch
                for dy in range(3) for dx in range(5) for ch in range(3)]
        assert first.tolist() == want


class TestSpectralNorm:
    def test_scalar_kernel(self):
        k = np.full((1, 1, 1, 1), 2.0 + 0.0j)
        start = gaussian_tensor((8, 8, 1), RandomStream(0))
        assert spectral_norm_power_iter(k, start, 10)[0] == pytest.approx(2.0, abs=1e-4)

    def test_zero_kernel(self):
        k = np.zeros((3, 3, 2, 2), dtype=complex)
        start = gaussian_tensor((6, 6, 2), RandomStream(0))
        assert spectral_norm_power_iter(k, start, 5)[0] == 0.0

    def test_matches_dense_svd(self, materialize):
        k = gaussian_tensor((9, 2, 2), RandomStream(12)).reshape(3, 3, 2, 2)
        dense = materialize(lambda v: conv2d_complex(v, k), (6, 6, 2))
        want = np.linalg.svd(dense, compute_uv=False)[0]
        got, _ = spectral_norm_power_iter(k, gaussian_tensor((6, 6, 2), RandomStream(0)), 50)
        assert got == pytest.approx(want, abs=1e-3)

    def test_nondecreasing_in_iters(self):
        k = gaussian_tensor((9, 3, 3), RandomStream(8)).reshape(3, 3, 3, 3)
        start = gaussian_tensor((8, 8, 3), RandomStream(0))
        estimates = [spectral_norm_power_iter(k, start, i)[0] for i in (1, 2, 5, 10, 30)]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    def test_start_checks_and_zero_start(self):
        k = gaussian_tensor((9, 2, 2), RandomStream(12)).reshape(3, 3, 2, 2)
        ones = np.ones((6, 6, 2), dtype=complex)
        with pytest.raises(ShapeError):
            spectral_norm_power_iter(k, np.ones((6, 6, 3), dtype=complex), 5)
        with pytest.raises(ValueError):
            spectral_norm_power_iter(k, ones, 0)
        zero_start, _ = spectral_norm_power_iter(k, 0 * ones, 5)
        assert zero_start == spectral_norm_power_iter(k, ones, 5)[0]

    def test_lipschitz_bound_on_random_pairs(self):
        k = gaussian_tensor((9, 2, 2), RandomStream(21)).reshape(3, 3, 2, 2)
        start = gaussian_tensor((6, 6, 2), RandomStream(0))
        sigma = spectral_norm_power_iter(k, start, 50)[0] * 1.01
        s = RandomStream(22)
        for _ in range(100):
            x = gaussian_tensor((6, 6, 2), s)
            y = gaussian_tensor((6, 6, 2), s)
            assert frob(conv2d_complex(x, k) - conv2d_complex(y, k)) <= sigma * frob(x - y)


class TestCT01:
    def test_round_trip(self, tmp_path):
        x = gaussian_tensor((5, 7, 3), RandomStream(9))
        path = tmp_path / "t.ct01"
        save_ct01(path, x)
        back = load_ct01(path)
        assert back.shape == x.shape
        assert frob(back - x) <= 1e-6 * frob(x)

    def test_layout(self):
        x = np.array([[[1 + 2j, 3 + 4j]]], dtype=complex)  # (1, 1, 2)
        raw = write_ct01_bytes(x)
        assert raw[:4] == b"CT01"
        dims = np.frombuffer(raw[4:16], dtype="<u4")
        assert list(dims) == [1, 1, 2]
        vals = np.frombuffer(raw[16:], dtype="<f4")
        assert list(vals) == [1.0, 2.0, 3.0, 4.0]

    def test_bad_magic(self):
        with pytest.raises(InvalidInputError):
            read_ct01_bytes(b"XXXX" + b"\0" * 16)


class TestValidation:
    def test_as_tensor_shape(self):
        with pytest.raises(ShapeError):
            as_tensor(np.zeros((3, 3)))

    def test_gaussian_tensor_deterministic(self):
        a = gaussian_tensor((4, 4, 2), RandomStream(3))
        b = gaussian_tensor((4, 4, 2), RandomStream(3))
        assert np.array_equal(a, b)
