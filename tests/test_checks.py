"""Every finiteness check on the forward path fires, whatever the layout of
its input: a NaN or an infinity in the real part only or in the imaginary
part only, in contiguous, transposed and strided arrays, and in complex64
and float64 inputs. Each check raises the error type and message it always
has. A non-finite bias or block scalar is refused by name before the
forward runs (``TestParameterChecks``)."""

import warnings

import numpy as np
import pytest

from deqpocs.errors import DivergenceError, InvalidInputError
from deqpocs.network import certified_lipschitz, forward, forward_with_trace, init_params, vjp
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
        # a non-finite bias is refused by name before it reaches the next conv
        p = _net(variant)
        b = p.blocks[0].kspace_branch.biases[1]
        (b.real if part == "real" else b.imag)[-1] = value
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        msg = r"^block 0 k-space branch layer 1 bias contains non-finite entries$"
        with pytest.raises(InvalidInputError, match=msg):
            forward(p, x)
        with pytest.raises(InvalidInputError, match=msg):
            vjp(p, x, x)

    @pytest.mark.parametrize("part,value", BAD)
    def test_image_branch_output_reaches_fft_scan(self, part, value):
        # refused before the forward runs: no "invalid value" warning from alpha * inf
        p = _net("hybrid")
        b = p.blocks[0].image_branch.biases[-1]
        (b.real if part == "real" else b.imag)[-1] = value
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidInputError,
                match=r"^block 0 image branch layer 4 bias contains non-finite entries$",
            ):
                forward(p, x)


# (variant, branch attribute, name in the message): every branch a model has
BRANCHES = [("kspace", "kspace_branch", "k-space"), ("hybrid", "kspace_branch", "k-space"),
            ("hybrid", "image_branch", "image")]
VALUES = [pytest.param(v, id=str(v)) for v in (np.nan, np.inf, -np.inf)]
CHECKED = {
    "forward": lambda p, x: forward(p, x),
    "forward_with_trace": lambda p, x: forward_with_trace(p, x),
    "vjp": lambda p, x: vjp(p, x, x),
    "certified_lipschitz": lambda p, x: certified_lipschitz(p),
}


class TestParameterChecks:
    """A non-finite bias, ``alpha``, ``c_k`` or ``c_i`` is refused by every
    entry point that reads the parameters, naming its block, branch and
    layer, before any arithmetic warns."""

    @staticmethod
    def _run(fn, p, msg):
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=msg):
                CHECKED[fn](p, x)

    @pytest.mark.parametrize("fn", list(CHECKED))
    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("layer", [0, 4])
    @pytest.mark.parametrize("variant,branch,name", BRANCHES)
    def test_bias(self, variant, branch, name, layer, part, value, fn):
        p = init_params(variant, 2, 4, 2, seed=0, grid=(8, 8))
        b = getattr(p.blocks[1], branch).biases[layer]
        (b.real if part == "real" else b.imag)[0] = value
        self._run(fn, p, rf"^block 1 {name} branch layer {layer} bias contains non-finite")

    @pytest.mark.parametrize("fn", list(CHECKED))
    @pytest.mark.parametrize("value", VALUES)
    @pytest.mark.parametrize("field", ["alpha", "c_k", "c_i"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_block_scalar(self, variant, field, value, fn):
        p = init_params(variant, 2, 4, 2, seed=0, grid=(8, 8))
        setattr(p.blocks[1], field, value)
        self._run(fn, p, rf"^block 1 {field} is not finite$")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_finite_parameters_pass(self, variant):
        p = _net(variant)
        x = _array((6, 5, 2), np.complex128, "contiguous", seed=2)
        assert np.array_equal(forward(p, x), forward_with_trace(p, x)[0])
        assert certified_lipschitz(p).is_contractive


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
