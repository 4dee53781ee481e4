"""Learnable self-consistency operator with a certified contraction bound.

The operator is a composition of residual blocks, each one formula:
``c_k * mix_k(a) + c_i * F(mix_i(F^-1 a))`` with convex weights ``(c_k, c_i)``,
where a branch's mix ``(0.99 - alpha) * a + alpha * cnn(a)`` (five-layer
complex CNN, ``alpha in [0, 0.99]``) is a contraction whenever every
convolution layer has spectral norm <= 1. The image branch works after an
inverse FFT and returns through a forward FFT. A ``kspace`` block has no
image branch and weights ``(1, 0)``; a ``hybrid`` block has both branches.
Activations are leaky ReLU (slope 0.2) applied separately to real and
imaginary parts, a 1-Lipschitz choice, on all but the final layer of each
branch. A plain :func:`forward` computes them directly and keeps nothing
for a reverse pass; only :func:`forward_with_trace` builds each layer's
reverse-pass multiplier and keeps the layer inputs.

Certification bounds each kernel's zero-padded convolution on every grid
size by the maximum of its Fourier symbol over a fixed ``SYMBOL_GRID`` x
``SYMBOL_GRID`` frequency grid divided by ``cos^2(pi / SYMBOL_GRID)``, multiplies
those bounds within a branch, mixes branches and multiplies across blocks.
:func:`normalize_params` divides each kernel whose bound breaches 1, and
training differentiates through that division (:func:`normalize_vjp`).
Exact reverse-mode products (:func:`vjp`) treat complex tensors as stacked
real pairs. :func:`init_params` draws all its kernels in one Gaussian draw.
Each kernel's symbol maximum is ``tensors.symbol_norm``'s exact grid
maximum; the training loop hands it the bounds of the kernel last certified
in the same slot, and other callers keep none.

:func:`forward`, :func:`forward_with_trace`, :func:`vjp` and
:func:`certified_lipschitz` refuse a non-finite bias or block scalar with
:class:`InvalidInputError` naming its block, branch and layer; kernels are
scanned by the convolutions that read them.

``forward`` and ``vjp`` never mutate parameters, so one parameter state can
serve many concurrent evaluations; ``normalize_params`` and optimizer
updates assume exclusive access (the training loop is the only writer).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CertificateError, InvalidInputError, ShapeError
from .rng import RandomStream
from .tensors import (
    SYMBOL_MARGIN,
    adjoint_kernel,
    all_finite,
    as_tensor,
    conv2d_complex,
    conv2d_kernel_grad,
    fft2_centered,
    ifft2_centered,
    inner_real,
    read_ct01_bytes,
    spectral_norm_power_iter,  # noqa: F401  (perfbench traces it under this name)
    symbol_norm,
    write_ct01_bytes,
)

VARIANTS = ("kspace", "hybrid")
CK01_MAGIC = b"CK01"

ALPHA_CEIL = 0.99
KERNEL_SIZE = 3
INIT_STD = 0.05
NORM_SLACK = 1e-3  # kernels divided by bound * (1 + NORM_SLACK) when above 1
NORM_DEADZONE = 1e-6  # rescale only when bound * (1 + slack) exceeds 1 + deadzone
# Side M of the frequency grid on which kernel symbols are maximized. For
# centered 3x3 taps, u^H K(w) v is a trigonometric polynomial of degree 1 per
# axis, so its supremum over the torus is at most its M-grid maximum over
# cos(pi / M) per axis; that bounds the zero-padded norm on every grid size.
SYMBOL_GRID = 17
SYMBOL_FACTOR = math.sqrt(1.0 + SYMBOL_MARGIN) / math.cos(math.pi / SYMBOL_GRID) ** 2
# How far a loaded checkpoint's recomputed certificate may exceed its stored one.
CERT_TOL = 1e-3


def layer_widths(nc: int, features: int) -> list[tuple[int, int]]:
    """(C_in, C_out) per layer for the Nc -> F -> F -> F -> F -> Nc stack."""
    widths = [nc, features, features, features, features, nc]
    return list(zip(widths[:-1], widths[1:]))


@dataclass
class BranchParams:
    """One five-layer CNN branch: kernels, biases, and normalization state
    (empty until :func:`_certify` fills it): each kernel's certified norm
    bound in ``sigmas``, and in ``rescales`` the ``(s, grad_bound)`` of each
    kernel that the last :func:`normalize_params` divided by ``s`` (None for
    the rest, and for every kernel of :func:`init_params`), which
    :func:`normalize_vjp` reads."""

    kernels: list[np.ndarray]
    biases: list[np.ndarray]
    sigmas: list[float] = field(default_factory=list)
    rescales: list[tuple[float, np.ndarray] | None] = field(default_factory=list)


@dataclass
class BlockParams:
    kspace_branch: BranchParams
    alpha: float
    image_branch: BranchParams | None = None
    c_k: float = 1.0
    c_i: float = 0.0

    @property
    def branches(self) -> list[BranchParams]:
        """The block's branches in parameter and checkpoint order: k-space, then image."""
        return [self.kspace_branch] + ([self.image_branch] if self.image_branch else [])


@dataclass
class ConsistencyNetParams:
    variant: str
    blocks: list[BlockParams]
    features: int
    nc: int
    cert_grid: tuple[int, int]  # stored in CK01 only; no computation uses it


@dataclass(frozen=True)
class LipschitzCertificate:
    """Contraction bound for the whole operator: the product bound of
    :func:`certified_lipschitz` over Fourier-symbol upper bounds of the
    per-kernel spectral norms, valid for inputs of every grid size."""

    contraction_bound: float
    block_bounds: tuple[float, ...]
    kernel_bounds: tuple[float, ...]

    @property
    def is_contractive(self) -> bool:
        return 0.0 <= self.contraction_bound < 1.0


def require_contractive(cert: LipschitzCertificate) -> None:
    if not cert.is_contractive:
        raise CertificateError(
            f"operator certificate {cert.contraction_bound:.6f} is not < 1"
        )


# ---------------------------------------------------------------------------
# Initialization and normalization
# ---------------------------------------------------------------------------

def _certify(params: ConsistencyNetParams, rescale: bool, warm: dict | None = None) -> None:
    """The one certification walk: bound every kernel's spectral norm by
    ``SYMBOL_FACTOR`` times its symbol maximum on the ``SYMBOL_GRID`` grid,
    filling ``sigmas`` and ``rescales`` in place. With ``rescale``, a kernel
    whose bound breaches 1 is divided by ``s = bound * (1 + NORM_SLACK)``.
    ``warm`` maps a kernel slot (block, branch, layer) to the
    ``SymbolBounds`` of the kernel last certified there, from which
    ``symbol_norm`` proves this one's maximum, and gets this kernel's;
    without it, each kernel's bounds are dropped at once."""
    for b, blk in enumerate(params.blocks):
        for r, br in enumerate(blk.branches):
            br.sigmas, br.rescales = [], []
            for i, k in enumerate(br.kernels):
                prev = warm.get((b, r, i)) if warm else None
                sigma, grad, bounds = symbol_norm(k, SYMBOL_GRID, prev)
                if warm is not None:
                    warm[b, r, i] = bounds
                bound = SYMBOL_FACTOR * sigma
                scale = bound * (1.0 + NORM_SLACK)
                if rescale and scale > 1.0 + NORM_DEADZONE:
                    br.kernels[i], bound = k / scale, bound / scale
                    br.rescales.append((scale, SYMBOL_FACTOR * grad))
                else:
                    br.rescales.append(None)
                br.sigmas.append(bound)


def init_params(
    variant: str,
    blocks: int,
    features: int,
    nc: int,
    seed: int = 0,
    grid: tuple[int, int] = (32, 32),
) -> ConsistencyNetParams:
    """Gaussian-initialized (std 0.05), spectrally normalized parameters.

    ``grid`` is only recorded (CK01 stores it as two uint32 sides, so each
    must lie in 1 ... 2**32 - 1): the certificate holds on every grid, and
    the model runs on any. Deterministic given the seed: one
    ``RandomStream(seed).gaussians`` call draws every kernel value and
    nothing else, sliced in block, branch (k-space first) and layer order.
    alpha starts at 0.5, branch combination at (0.5, 0.5) for the hybrid
    variant. The result is a normalized starting point and records no
    division (every ``rescales`` entry is None), so :func:`normalize_vjp`
    is the identity on it.
    """
    if variant not in VARIANTS:
        raise ShapeError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if blocks < 1 or features < 1 or nc < 1:
        raise ShapeError("blocks, features and coil count must be >= 1")
    if not all(1 <= side < 2**32 for side in grid):
        raise ShapeError(f"certification grid {grid} has a side outside 1 ... 2**32 - 1")
    widths = layer_widths(nc, features)
    shapes = [(KERNEL_SIZE, KERNEL_SIZE, cin, cout) for cin, cout in widths]
    shapes *= blocks * (2 if variant == "hybrid" else 1)
    sizes = [math.prod(shape) for shape in shapes]
    values = RandomStream(seed).gaussians(2 * sum(sizes)).view(np.complex128)
    chunks = np.split(values, np.cumsum(sizes)[:-1])
    kernels = iter(INIT_STD * c.reshape(shape) for c, shape in zip(chunks, shapes))

    def branch() -> BranchParams:
        return BranchParams(
            kernels=[next(kernels) for _ in widths],
            biases=[np.zeros(cout, dtype=np.complex128) for _, cout in widths],
        )

    # arguments are evaluated in order: a block's k-space kernels come first
    out_blocks = [
        BlockParams(kspace_branch=branch(), alpha=0.5, image_branch=branch(), c_k=0.5, c_i=0.5)
        if variant == "hybrid" else BlockParams(kspace_branch=branch(), alpha=0.5)
        for _ in range(blocks)
    ]
    params = ConsistencyNetParams(
        variant=variant, blocks=out_blocks, features=features, nc=nc, cert_grid=grid
    )
    _certify(params, rescale=True)
    for blk in params.blocks:
        for br in blk.branches:
            br.rescales = [None] * len(br.kernels)
    return params


def normalize_params(params: ConsistencyNetParams, warm: dict | None = None
                     ) -> ConsistencyNetParams:
    """Map raw parameters onto the certified-contractive set.

    Each kernel ``V`` becomes ``W = V / s`` with ``s = b(V) * (1 + 1e-3)``
    when its bound ``b(V)`` exceeds 1 (a dead zone of 1e-6 keeps the map a
    bitwise no-op on already-normalized kernels, whose bound is
    ``1 / (1 + 1e-3)``); :func:`normalize_vjp` is its reverse product.
    alpha is clamped to [0, 0.99] and ``(c_k, c_i)`` is projected onto the
    simplex (a k-space block's (1, 0) is a fixed point). The result always
    certifies at L <= 0.99.

    The map works on one copy of ``params`` built by :func:`unpack_params`,
    which carries no normalization state: the result shares no array with
    the input, whose kernels, biases, scalars, ``sigmas`` and ``rescales``
    stay bitwise as they were.

    ``warm`` is the training loop's map from kernel slot to the
    ``tensors.SymbolBounds`` of the kernel last certified there, updated in
    place (see :func:`_certify`); the result is bitwise the same without it.
    """
    params = unpack_params(params, pack_params(params))
    _certify(params, rescale=True, warm=warm)
    for blk in params.blocks:
        blk.alpha = float(min(max(blk.alpha, 0.0), ALPHA_CEIL))
        ck, ci = max(blk.c_k, 0.0), max(blk.c_i, 0.0)
        s = ck + ci
        if s == 0.0:
            ck = ci = 0.5
        else:
            ck, ci = ck / s, ci / s
        blk.c_k, blk.c_i = float(ck), float(ci)
    return params


def normalize_vjp(params: ConsistencyNetParams, grad: np.ndarray) -> np.ndarray:
    """Pull a gradient with respect to the parameters that
    :func:`normalize_params` returned back to the raw ones it was given.

    ``grad`` and the result are flat real vectors aligned with
    :func:`pack_params`. For a kernel divided by ``s``, with ``grad_b`` the
    gradient of its bound,
    ``g_V = (g_W - (1 + NORM_SLACK) * <g_W, W> * grad_b) / s``
    (``<., .>`` the real inner product); every other entry, alpha and
    ``(c_k, c_i)`` included, passes through unchanged.
    """
    out = unpack_params(params, grad)
    for blk, gblk in zip(params.blocks, out.blocks):
        for br, gbr in zip(blk.branches, gblk.branches):
            for i, (w, rescale) in enumerate(zip(br.kernels, br.rescales)):
                if rescale is not None:
                    s, grad_b = rescale
                    g = gbr.kernels[i]
                    gbr.kernels[i] = (g - (1.0 + NORM_SLACK) * inner_real(g, w) * grad_b) / s
    return pack_params(out)


def _check_params(params: ConsistencyNetParams) -> None:
    """Refuse a non-finite block scalar or bias, naming its block, branch
    and layer. A kernel is scanned by every conv that reads it; a bias or a
    scalar reaches no scan of its own and would pass a NaN on silently."""
    for b, blk in enumerate(params.blocks):
        for name in ("alpha", "c_k", "c_i"):
            if not math.isfinite(getattr(blk, name)):
                raise InvalidInputError(f"block {b} {name} is not finite")
        for branch, br in zip(("k-space", "image"), blk.branches):
            if all_finite(np.concatenate(br.biases)):  # a third of the cost of a scan per bias
                continue
            i = next(i for i, bias in enumerate(br.biases) if not all_finite(bias))
            raise InvalidInputError(
                f"block {b} {branch} branch layer {i} bias contains non-finite entries"
            )


def certified_lipschitz(params: ConsistencyNetParams) -> LipschitzCertificate:
    """Contraction bound from the stored per-kernel norm bounds.

    Per block: ``sum |w| * (|0.99 - alpha| + |alpha| * prod(layer bounds))``
    over its branches and their weights ``(c_k, c_i)`` (activation Lipschitz
    constant 1); bounds multiply across blocks. The absolute values keep the
    formula valid for any stored alpha or mixing weight; normalized
    parameters certify at <= 0.99. Each layer bound is a Fourier-symbol
    upper bound on the kernel's spectral norm for every grid size, so the
    result bounds the operator's Lipschitz constant on every input. A branch
    without exactly one stored bound per kernel raises
    :class:`CertificateError`, a non-finite bias or block scalar
    :class:`InvalidInputError`.
    """
    _check_params(params)
    block_bounds = []
    kernel_bounds: list[float] = []
    for blk in params.blocks:
        for br in blk.branches:
            if len(br.sigmas) != len(br.kernels):
                raise CertificateError(
                    f"branch has {len(br.sigmas)} kernel bounds for {len(br.kernels)} "
                    "kernels; certify the parameters first"
                )
        keep, mix = abs(ALPHA_CEIL - blk.alpha), abs(blk.alpha)
        bounds = [keep + mix * float(np.prod(br.sigmas)) for br in blk.branches]
        block_bounds.append(sum(abs(w) * b for w, b in zip((blk.c_k, blk.c_i), bounds)))
        kernel_bounds.extend(s for br in blk.branches for s in br.sigmas)
    total = float(np.prod(block_bounds))
    return LipschitzCertificate(
        contraction_bound=total,
        block_bounds=tuple(block_bounds),
        kernel_bounds=tuple(kernel_bounds),
    )


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _promoted(out: np.ndarray) -> np.ndarray:
    """Interleaved ``float64`` parts ``out`` as complex, bit for bit what
    complex promotion of ``re + 1j * im`` gives: it adds ``0 * im`` to the
    real part and ``+0.0`` to the imaginary part. That only changes the sign
    of a zero, so the fix-up runs only when ``out`` has a zero part."""
    if not out.all():
        c = out.view(np.complex128)
        c.real += 0.0 * c.imag
        c.imag += 0.0
    return out.view(np.complex128)


def _scale_parts(v: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``v.real * m_re + 1j * (v.imag * m_im)`` in one product over the
    ``float64`` view of a contiguous complex ``v``; ``mult`` interleaves
    ``m_re`` and ``m_im`` like that view. For finite ``v`` the bits match
    the expression."""
    return _promoted(v.view(np.float64) * mult)


def _lrelu(z: np.ndarray) -> np.ndarray:
    """Leaky ReLU (slope 0.2) of the real and imaginary parts of a
    contiguous complex ``z``: ``max(f, 0.2 * f)`` over its ``float64`` view
    ``f``. Bit for bit ``_scale_parts(z, _lrelu_mult(z))``: a negative part
    is multiplied by 0.2 either way and a zero keeps its sign. Three passes
    and one allocation, against five and three through the multiplier."""
    f = z.view(np.float64)
    out = np.multiply(f, 0.2)
    return _promoted(np.maximum(f, out, out=out))


def _lrelu_mult(z: np.ndarray) -> np.ndarray:
    """The per-part multiplier that the reverse pass of :func:`_lrelu`
    applies at pre-activation ``z``, interleaved like its ``float64`` view."""
    mult = (z.view(np.float64) >= 0) * 0.8
    mult += 0.2  # exactly 1.0 or 0.2; a quarter of np.where's time on mixed signs
    return mult


def _branch_forward(branch: BranchParams, alpha: float, a: np.ndarray, trace: dict | None):
    """The residual mix ``(0.99 - alpha) * a + alpha * cnn(a)``. Only a
    traced pass keeps each layer's input and activation multiplier."""
    h = a
    inputs, mults = [], []
    n = len(branch.kernels)
    for i, (k, b) in enumerate(zip(branch.kernels, branch.biases)):
        z = conv2d_complex(h, k)
        z += b
        if trace is not None:
            inputs.append(h)
            if i < n - 1:
                mults.append(_lrelu_mult(z))
        h = _lrelu(z) if i < n - 1 else z
    if trace is not None:
        trace["inputs"] = inputs
        trace["mults"] = mults
        trace["out"] = h
        trace["adj_kernels"] = [adjoint_kernel(k) for k in branch.kernels]
    return (ALPHA_CEIL - alpha) * a + alpha * h


def _block_forward(blk: BlockParams, a: np.ndarray, trace: dict | None) -> np.ndarray:
    """``c_k * mix_k(a)``, plus ``c_i * F(mix_i(F^-1 a))`` with an image branch."""
    ktrace = {} if trace is not None else None
    out_k = _branch_forward(blk.kspace_branch, blk.alpha, a, ktrace)
    out = blk.c_k * out_k
    if trace is not None:
        trace.update({"k": ktrace, "out_k": out_k})
    if blk.image_branch is not None:
        itrace = {} if trace is not None else None
        mix_i = _branch_forward(blk.image_branch, blk.alpha, ifft2_centered(a), itrace)
        out_img = fft2_centered(mix_i)
        out += blk.c_i * out_img
        if trace is not None:
            trace.update({"i": itrace, "out_img": out_img})
    return out


def _check_input(params: ConsistencyNetParams, x: np.ndarray) -> np.ndarray:
    x = as_tensor(x, "operator input")
    if x.shape[2] != params.nc:
        raise ShapeError(f"input has {x.shape[2]} channels, operator expects {params.nc}")
    _check_params(params)
    return x


def forward(params: ConsistencyNetParams, x: np.ndarray) -> np.ndarray:
    """Apply the composed operator to a k-space tensor."""
    x = _check_input(params, x)
    for blk in params.blocks:
        x = _block_forward(blk, x, None)
    return x


def forward_with_trace(params: ConsistencyNetParams, x: np.ndarray):
    """Forward pass that records every intermediate needed for reverse mode."""
    x = _check_input(params, x)
    traces = []
    for blk in params.blocks:
        t: dict = {}
        x = _block_forward(blk, x, t)
        traces.append(t)
    return x, traces


# ---------------------------------------------------------------------------
# Reverse-mode products
# ---------------------------------------------------------------------------

def _branch_backward(
    branch: BranchParams, alpha: float, trace: dict, cot: np.ndarray, grad: BranchParams | None
) -> np.ndarray:
    """Cotangent of the mix's input; optionally accumulate kernel/bias grads."""
    g = alpha * cot
    n = len(branch.kernels)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            g = _scale_parts(g, trace["mults"][i])
        if grad is not None:
            kh, kw = branch.kernels[i].shape[:2]
            grad.kernels[i] += conv2d_kernel_grad(trace["inputs"][i], g, kh, kw)
            grad.biases[i] += g.sum(axis=(0, 1))
        g = conv2d_complex(g, trace["adj_kernels"][i])
    return (ALPHA_CEIL - alpha) * cot + g


def _block_backward(
    blk: BlockParams,
    trace: dict,
    cot: np.ndarray,
    grad: BlockParams | None,
) -> np.ndarray:
    k = trace["k"]
    if grad is not None:
        # c_k after this inner product, c_i before its own: other orders round differently
        grad.alpha = blk.c_k * inner_real(cot, k["out"] - k["inputs"][0])
        grad.c_k = inner_real(cot, trace["out_k"])
    kgrad = None if grad is None else grad.kspace_branch
    grad_a = _branch_backward(blk.kspace_branch, blk.alpha, k, blk.c_k * cot, kgrad)
    if blk.image_branch is not None:
        i = trace["i"]
        cot_img = ifft2_centered(blk.c_i * cot)  # adjoint of the closing FFT
        if grad is not None:
            grad.alpha += inner_real(cot_img, i["out"] - i["inputs"][0])
            grad.c_i = inner_real(cot, trace["out_img"])
        igrad = None if grad is None else grad.image_branch
        gb_i = _branch_backward(blk.image_branch, blk.alpha, i, cot_img, igrad)
        grad_a += fft2_centered(gb_i)  # adjoint of the opening inverse FFT
    return grad_a


def _zero_grads(params: ConsistencyNetParams) -> ConsistencyNetParams:
    """A zero-filled parameter container that reverse passes accumulate into."""
    return unpack_params(params, np.zeros(num_params(params)))


def _reverse(
    params: ConsistencyNetParams,
    traces: list,
    cot: np.ndarray,
    grads: ConsistencyNetParams | None = None,
) -> np.ndarray:
    """The one reverse pass over the blocks: returns the input cotangent and,
    given a container from :func:`_zero_grads`, accumulates parameter
    cotangents into it."""
    g = cot
    for bidx in range(len(params.blocks) - 1, -1, -1):
        grad = None if grads is None else grads.blocks[bidx]
        g = _block_backward(params.blocks[bidx], traces[bidx], g, grad)
    return g


def jacobian_vjp(params: ConsistencyNetParams, traces: list, cot: np.ndarray) -> np.ndarray:
    """Input cotangent J^T v at the traced point (no parameter gradients)."""
    return _reverse(params, traces, cot)


def param_vjp(params: ConsistencyNetParams, traces: list, cot: np.ndarray) -> np.ndarray:
    """Parameter cotangent of one operator application, as a flat real vector
    aligned with :func:`pack_params`."""
    grads = _zero_grads(params)
    _reverse(params, traces, cot, grads)
    return pack_params(grads)


def vjp(params: ConsistencyNetParams, x: np.ndarray, cotangent: np.ndarray):
    """Exact reverse-mode products of one forward application.

    Returns ``(grad_params, grad_x)`` where complex tensors are treated as
    stacked real pairs; ``grad_params`` is a flat real vector aligned with
    :func:`pack_params`.
    """
    x = _check_input(params, x)
    cot = as_tensor(cotangent, "cotangent")
    if cot.shape != x.shape:
        raise ShapeError(f"cotangent shape {cot.shape} does not match input {x.shape}")
    _, traces = forward_with_trace(params, x)
    grads = _zero_grads(params)
    grad_x = _reverse(params, traces, cot, grads)
    return pack_params(grads), grad_x


# ---------------------------------------------------------------------------
# Flat real parameterization (used by the optimizer and gradient checks)
# ---------------------------------------------------------------------------

def pack_params(params: ConsistencyNetParams) -> np.ndarray:
    """Flatten all trainable parameters to one float64 vector.

    Complex arrays contribute interleaved (real, imag) pairs in C order;
    scalars contribute one entry. Order: per block, k-space kernels and
    biases layer by layer, then (hybrid) image kernels/biases, then alpha
    and (hybrid) the combination pair.
    """
    parts = []
    for blk in params.blocks:
        for br in blk.branches:
            for k, b in zip(br.kernels, br.biases):
                parts.append(np.ascontiguousarray(k).view(np.float64).ravel())
                parts.append(np.ascontiguousarray(b).view(np.float64).ravel())
        scalars = [blk.alpha] + ([blk.c_k, blk.c_i] if params.variant == "hybrid" else [])
        parts.append(np.array(scalars, dtype=np.float64))
    return np.concatenate(parts)


def unpack_params(params: ConsistencyNetParams, vec: np.ndarray) -> ConsistencyNetParams:
    """Inverse of :func:`pack_params`: the structure of ``params`` with the
    values of ``vec``, the one constructor of a container of new values.

    It walks ``params`` in :func:`pack_params` order and copies each kernel
    and bias out of ``vec`` once, into an array of its own, so no write
    through the result reaches ``vec`` or another array. A k-space block
    keeps the template's ``(c_k, c_i)``, which the vector does not hold. The
    kernels are new, so the result carries no normalization state; certify
    it (:func:`normalize_params`) before use."""
    expected = num_params(params)
    if vec.size != expected:
        raise ShapeError(f"parameter vector length {vec.size}, expected {expected}")
    pos = 0

    def take(like: np.ndarray) -> np.ndarray:
        nonlocal pos
        n = like.size * 2
        pos += n
        return vec[pos - n : pos].copy().view(np.complex128).reshape(like.shape)

    def branch(br: BranchParams | None) -> BranchParams | None:
        if br is None:
            return None
        kernels, biases = [], []
        for k, b in zip(br.kernels, br.biases):
            kernels.append(take(k))
            biases.append(take(b))
        return BranchParams(kernels=kernels, biases=biases)

    blocks = []
    for blk in params.blocks:
        # pack_params order: k-space, image, then the scalars
        kspace, image = branch(blk.kspace_branch), branch(blk.image_branch)
        alpha, c_k, c_i = float(vec[pos]), blk.c_k, blk.c_i
        pos += 1
        if params.variant == "hybrid":
            c_k, c_i = float(vec[pos]), float(vec[pos + 1])
            pos += 2
        blocks.append(BlockParams(kspace, alpha, image, c_k, c_i))
    return replace(params, blocks=blocks)


def num_params(params: ConsistencyNetParams) -> int:
    """Length of :func:`pack_params`, counted without packing: two reals per
    complex kernel and bias entry, plus alpha (and, hybrid, c_k and c_i) per
    block."""
    scalars = 3 if params.variant == "hybrid" else 1
    return len(params.blocks) * scalars + 2 * sum(
        k.size + b.size
        for blk in params.blocks
        for br in blk.branches
        for k, b in zip(br.kernels, br.biases)
    )


# ---------------------------------------------------------------------------
# CK01 checkpoint container
# ---------------------------------------------------------------------------

def write_ck01_bytes(params: ConsistencyNetParams) -> bytes:
    """Serialize parameters to the CK01 container.

    Layout: magic ``CK01``; variant byte (0 k-space, 1 hybrid); uint32 LE
    B, F, Nc, cert_H, cert_W; kernels in block/layer order as CT01 payloads
    with dims (kh, kw, C_in*C_out), each followed by its bias as a
    (1, 1, C_out) CT01 payload (image-branch payloads follow the k-space
    ones within each block); then per-block float32 alpha, c_k, c_i; then
    the float32 certificate L of :func:`certified_lipschitz`.
    """
    out = [CK01_MAGIC, struct.pack("<B", VARIANTS.index(params.variant))]
    out.append(
        struct.pack(
            "<IIIII",
            len(params.blocks),
            params.features,
            params.nc,
            params.cert_grid[0],
            params.cert_grid[1],
        )
    )
    for blk in params.blocks:
        for br in blk.branches:
            for k, b in zip(br.kernels, br.biases):
                kh, kw, cin, cout = k.shape
                out.append(write_ct01_bytes(k.reshape(kh, kw, cin * cout)))
                out.append(write_ct01_bytes(b.reshape(1, 1, cout)))
    for blk in params.blocks:
        out.append(struct.pack("<fff", blk.alpha, blk.c_k, blk.c_i))
    out.append(struct.pack("<f", certified_lipschitz(params).contraction_bound))
    return b"".join(out)


def _read_payload(data: bytes, pos: int, dims: tuple[int, int, int]):
    size = 16 + 8 * dims[0] * dims[1] * dims[2]
    payload = read_ct01_bytes(data[pos : pos + size])
    if payload.shape != dims:
        raise InvalidInputError(f"checkpoint payload has dims {payload.shape}, expected {dims}")
    return payload, pos + size


def read_ck01_bytes(data: bytes):
    """Deserialize a checkpoint; returns ``(params, stored_certificate)``.

    Any malformed input raises InvalidInputError: the header must be
    complete, the variant byte known, every count and the certification
    grid side at least 1 (the grid is recorded, not used), the length
    exactly what the header implies, every value finite, and a k-space
    block's weights exactly (1, 0), since the one block formula reads them.
    The kernel bounds are recomputed from the stored kernels, so the
    returned parameters carry a fresh, verifiable certificate.
    """
    if data[:4] != CK01_MAGIC:
        raise InvalidInputError("bad CK01 magic")
    if len(data) < 25:
        raise InvalidInputError("truncated CK01 header")
    if data[4] >= len(VARIANTS):
        raise InvalidInputError(f"CK01 variant byte {data[4]} out of range")
    variant = VARIANTS[data[4]]
    B, F, nc, gh, gw = struct.unpack("<IIIII", data[5:25])
    if min(B, F, nc, gh, gw) < 1:
        raise InvalidInputError(
            f"CK01 header out of range: {B} blocks, {F} features, {nc} coils, "
            f"certification grid {gh}x{gw}"
        )
    widths = layer_widths(nc, F)
    nbranch = 2 if variant == "hybrid" else 1
    # per layer: a kernel and a bias payload, 16-byte header each, 8 bytes a value
    branch_bytes = sum(32 + 8 * (KERNEL_SIZE**2 * cin + 1) * cout for cin, cout in widths)
    expected = 25 + B * (nbranch * branch_bytes + 12) + 4
    if len(data) != expected:
        raise InvalidInputError(f"CK01 of {len(data)} bytes, header promises {expected}")
    pos = 25
    blocks = []
    for _ in range(B):
        branches = []
        for _ in range(nbranch):
            kernels, biases = [], []
            for cin, cout in widths:
                payload, pos = _read_payload(data, pos, (KERNEL_SIZE, KERNEL_SIZE, cin * cout))
                kernels.append(payload.reshape(KERNEL_SIZE, KERNEL_SIZE, cin, cout))
                payload, pos = _read_payload(data, pos, (1, 1, cout))
                biases.append(payload.reshape(cout))
            branches.append(BranchParams(kernels=kernels, biases=biases))
        blocks.append(
            BlockParams(branches[0], alpha=0.0, image_branch=branches[1] if nbranch == 2 else None)
        )
    scalars = np.frombuffer(data, dtype="<f4", count=3 * B + 1, offset=pos)
    if not np.all(np.isfinite(scalars)):
        raise InvalidInputError("CK01 mixing weights or certificate not finite")
    for b, blk in enumerate(blocks):
        blk.alpha, blk.c_k, blk.c_i = (float(v) for v in scalars[3 * b : 3 * b + 3])
        if blk.image_branch is None and (blk.c_k, blk.c_i) != (1.0, 0.0):
            raise InvalidInputError(
                f"CK01 k-space block {b} has weights ({blk.c_k:g}, {blk.c_i:g}), not (1, 0)"
            )
    params = ConsistencyNetParams(
        variant=variant, blocks=blocks, features=F, nc=nc, cert_grid=(gh, gw)
    )
    _certify(params, rescale=False)  # only once the input is valid
    return params, float(scalars[-1])


def save_checkpoint(path, params: ConsistencyNetParams) -> None:
    """Write ``params`` as CK01, with their own certificate as the stored L."""
    with open(path, "wb") as fh:
        fh.write(write_ck01_bytes(params))


def load_checkpoint(path):
    """Load a CK01 checkpoint and return ``(params, stored_certificate)``.

    The certificate is always checked: the stored L and a fresh
    recomputation must both be < 1 (else "invalid"), and the recomputation
    may exceed the stored L by at most ``CERT_TOL`` (else "stale"). Either
    failure raises :class:`CertificateError`.
    """
    with open(path, "rb") as fh:
        params, stored_l = read_ck01_bytes(fh.read())
    cert = certified_lipschitz(params)
    if stored_l >= 1.0 or not cert.is_contractive:
        raise CertificateError(
            f"checkpoint certificate invalid: stored L={stored_l:.6f}, "
            f"recomputed L={cert.contraction_bound:.6f}"
        )
    if cert.contraction_bound > stored_l + CERT_TOL:
        raise CertificateError(
            f"checkpoint certificate stale: stored L={stored_l:.6f} but kernels "
            f"certify at {cert.contraction_bound:.6f}; refusing to run"
        )
    return params, stored_l
