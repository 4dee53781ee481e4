"""Every finiteness check on the forward path fires, whatever the layout of
its input: a NaN or an infinity in the real part only or in the imaginary
part only, in contiguous, transposed and strided arrays, and in complex64
and float64 inputs. Each check raises the error type and message it always
has."""

import numpy as np
import pytest

from deqpocs.errors import DivergenceError, InvalidInputError
from deqpocs.network import forward, init_params, vjp
from deqpocs.solvers import anderson_solve, picard_solve
from deqpocs.tensors import (
    as_tensor,
    conv2d_complex,
    fft2_centered,
    ifft2_centered,
    validate_kernel,
)

# (dtype, layout): float64 inputs carry no imaginary part
FORMS = [
    (np.complex128, "contiguous"),
    (np.complex128, "transposed"),
    (np.complex128, "strided"),
    (np.complex64, "contiguous"),
    (np.complex64, "transposed"),
    (np.float64, "contiguous"),
    (np.float64, "strided"),
]
BAD = [
    (part, value)
    for part in ("real", "imag")
    for value in (np.nan, np.inf, -np.inf)
]
CASES = [
    pytest.param(dtype, layout, part, value,
                 id=f"{np.dtype(dtype).name}-{layout}-{part}-{value}")
    for dtype, layout in FORMS
    for part, value in BAD
    if not (dtype is np.float64 and part == "imag")
]


def _array(shape, dtype, layout, seed=0):
    """A finite array of ``shape`` in the given memory layout: C order, a
    reversed-axes transpose (the last axis not contiguous), or every other
    element of a wider last axis."""
    rng = np.random.default_rng(seed)
    complex_out = np.issubdtype(dtype, np.complexfloating)

    def draw(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return (z if complex_out else z.real).astype(dtype)

    if layout == "transposed":
        return draw(shape[::-1]).transpose()
    if layout == "strided":
        return draw(shape[:-1] + (2 * shape[-1],))[..., ::2]
    return draw(shape)


def _poisoned(shape, dtype, layout, part, value):
    x = _array(shape, dtype, layout)
    target = x.real if part == "real" else x.imag
    target[tuple(d - 1 for d in shape)] = value  # the last element a scan reaches
    return x


@pytest.mark.parametrize("dtype,layout", FORMS)
def test_layouts_are_what_they_claim(dtype, layout):
    x = _array((4, 5, 3), dtype, layout)
    assert x.shape == (4, 5, 3) and x.dtype == dtype
    assert x.flags.c_contiguous == (x.strides[-1] == x.itemsize) == (layout == "contiguous")


class TestTensorChecks:
    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_as_tensor(self, dtype, layout, part, value):
        x = _poisoned((4, 5, 3), dtype, layout, part, value)
        with pytest.raises(InvalidInputError, match=r"^probe contains non-finite entries$"):
            as_tensor(x, "probe")

    @pytest.mark.parametrize("dtype,layout", FORMS)
    def test_as_tensor_accepts_finite_input_of_every_layout(self, dtype, layout):
        x = _array((4, 5, 3), dtype, layout)
        got = as_tensor(x)
        assert got.dtype == np.complex128
        assert np.ascontiguousarray(got).tobytes() == x.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_validate_kernel(self, dtype, layout, part, value):
        k = _poisoned((3, 3, 2, 3), dtype, layout, part, value)
        with pytest.raises(InvalidInputError, match=r"^kernel contains non-finite entries$"):
            validate_kernel(k)

    @pytest.mark.parametrize("dtype,layout", FORMS)
    def test_validate_kernel_accepts_finite_kernel_of_every_layout(self, dtype, layout):
        k = _array((3, 3, 2, 3), dtype, layout)
        assert validate_kernel(k).tobytes() == k.astype(np.complex128).tobytes()

    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_conv_input(self, dtype, layout, part, value):
        x = _poisoned((4, 5, 3), dtype, layout, part, value)
        k = _array((3, 3, 3, 2), np.complex128, "contiguous", seed=1)
        with pytest.raises(InvalidInputError, match=r"^conv input contains non-finite entries$"):
            conv2d_complex(x, k)

    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_conv_kernel(self, dtype, layout, part, value):
        x = _array((4, 5, 2), np.complex128, "contiguous", seed=1)
        k = _poisoned((3, 3, 2, 3), dtype, layout, part, value)
        with pytest.raises(InvalidInputError, match=r"^kernel contains non-finite entries$"):
            conv2d_complex(x, k)

    @pytest.mark.parametrize("dtype,layout", FORMS)
    def test_conv_of_every_layout_matches_contiguous(self, dtype, layout):
        x = _array((4, 5, 3), dtype, layout)
        k = _array((3, 3, 3, 2), dtype, layout, seed=1)
        want = conv2d_complex(np.ascontiguousarray(x), np.ascontiguousarray(k))
        assert conv2d_complex(x, k).tobytes() == want.tobytes()

    @pytest.mark.parametrize("fn,name", [(fft2_centered, "fft"), (ifft2_centered, "ifft")])
    @pytest.mark.parametrize("part,value", BAD)
    def test_fft_input(self, fn, name, part, value):
        x = _poisoned((4, 5, 3), np.complex128, "transposed", part, value)
        with pytest.raises(InvalidInputError, match=rf"^{name} input contains non-finite entries$"):
            fn(x)


def _net(variant):
    return init_params(variant, 1, 4, 2, seed=0, grid=(8, 8))


VARIANTS = ["kspace", "hybrid"]


class TestNetworkChecks:
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_forward_input(self, variant, dtype, layout, part, value):
        x = _poisoned((6, 5, 2), dtype, layout, part, value)
        with pytest.raises(InvalidInputError, match=r"^operator input contains non-finite"):
            forward(_net(variant), x)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_vjp_input_and_cotangent(self, variant, dtype, layout, part, value):
        p = _net(variant)
        good = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        bad = _poisoned((6, 5, 2), dtype, layout, part, value)
        with pytest.raises(InvalidInputError, match=r"^operator input contains non-finite"):
            vjp(p, bad, good)
        with pytest.raises(InvalidInputError, match=r"^cotangent contains non-finite entries$"):
            vjp(p, good, bad)

    @pytest.mark.parametrize("part,value", BAD)
    @pytest.mark.parametrize(
        "variant,branch",
        [("kspace", "kspace_branch"), ("hybrid", "kspace_branch"), ("hybrid", "image_branch")],
    )
    def test_kernel_in_params(self, variant, branch, part, value):
        p = _net(variant)
        k = getattr(p.blocks[0], branch).kernels[2]
        (k.real if part == "real" else k.imag)[2, 2, -1, -1] = value
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        with pytest.raises(InvalidInputError, match=r"^kernel contains non-finite entries$"):
            forward(p, x)
        with pytest.raises(InvalidInputError, match=r"^kernel contains non-finite entries$"):
            vjp(p, x, x)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("part,value", BAD)
    def test_inner_conv_input(self, variant, part, value):
        # biases are not validated; a non-finite one reaches the next conv's input scan
        p = _net(variant)
        b = p.blocks[0].kspace_branch.biases[1]
        (b.real if part == "real" else b.imag)[-1] = value
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        with pytest.raises(InvalidInputError, match=r"^conv input contains non-finite entries$"):
            forward(p, x)
        with pytest.raises(InvalidInputError, match=r"^conv input contains non-finite entries$"):
            vjp(p, x, x)

    @pytest.mark.parametrize("part,value", BAD)
    def test_image_branch_output_reaches_fft_scan(self, part, value):
        p = _net("hybrid")
        b = p.blocks[0].image_branch.biases[-1]
        (b.real if part == "real" else b.imag)[-1] = value
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        # alpha * inf in complex arithmetic makes 0 * inf: numpy warns, then the scan raises
        with np.errstate(invalid="ignore"), pytest.raises(
            InvalidInputError, match=r"^fft input contains non-finite entries$"
        ):
            forward(p, x)


def _poison_after(k_bad, dtype, layout, part, value):
    """A contraction whose iterate ``k_bad`` comes back non-finite, as a
    ``dtype`` array in ``layout``."""
    calls = []

    def T(x):
        calls.append(None)
        if len(calls) - 1 < k_bad:
            return 0.5 * x + 1.0
        return _poisoned(x.shape, dtype, layout, part, value)

    return T


SOLVES = [
    pytest.param(lambda T, x0: picard_solve(T, x0, tol=1e-12, max_iter=20), id="picard"),
    pytest.param(lambda T, x0: anderson_solve(T, x0, m=3, tol=1e-12, max_iter=20), id="anderson"),
]


class TestSolverChecks:
    @pytest.mark.parametrize("solve", SOLVES)
    @pytest.mark.parametrize("k_bad", [0, 2])
    @pytest.mark.parametrize("dtype,layout,part,value", CASES)
    def test_non_finite_iterate_is_divergence(self, solve, k_bad, dtype, layout, part, value):
        x0 = _array((4, 5, 3), np.complex128, "contiguous")
        T = _poison_after(k_bad, dtype, layout, part, value)
        with pytest.raises(
            DivergenceError, match=rf"^non-finite iterate or residual at iteration {k_bad}$"
        ) as err:
            solve(T, x0)
        assert err.value.iteration == k_bad
