"""Complex-tensor primitives: centered FFTs, same-padded complex convolution,
norms, spectral norms of convolution kernels (a power-iteration estimate on
one grid, and the maximum of the kernel's Fourier symbol over a frequency
grid), and the CT01 binary container.

Tensors are plain ``numpy`` arrays of shape (H, W, C) and dtype complex128;
convolution kernels are (kh, kw, C_in, C_out) with odd spatial extents.
All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InvalidInputError, ShapeError
from .rng import RandomStream

CT01_MAGIC = b"CT01"


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Validate and return ``x`` as a finite (H, W, C) complex128 array."""
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ShapeError(f"{name} must have shape (H, W, C), got {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ShapeError(f"{name} dimensions must be >= 1, got {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def frob(x: np.ndarray) -> float:
    """Frobenius norm of a complex array."""
    return float(np.linalg.norm(np.asarray(x).ravel()))


def inner_real(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product of complex arrays viewed as stacked real pairs."""
    return float(np.sum(a.real * b.real) + np.sum(a.imag * b.imag))


def gaussian_tensor(shape: tuple[int, int, int], stream: RandomStream) -> np.ndarray:
    """Complex tensor with i.i.d. standard-normal real and imaginary parts.

    Draw order is row-major with channel innermost, real part before
    imaginary part, so the layout is reproducible across platforms.
    """
    n = int(np.prod(shape))
    vals = stream.gaussians(2 * n)
    re = np.array(vals[0::2], dtype=np.float64).reshape(shape)
    im = np.array(vals[1::2], dtype=np.float64).reshape(shape)
    return re + 1j * im


# ---------------------------------------------------------------------------
# Centered orthonormal Fourier transforms
# ---------------------------------------------------------------------------

def fft2_centered(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D FFT per channel with the zero-frequency bin centered.

    Unitary: ``frob(fft2_centered(x)) == frob(x)`` up to rounding. The DC
    bin lands at (H//2, W//2).
    """
    x = as_tensor(x, "fft input")
    shifted = np.fft.ifftshift(x, axes=(0, 1))
    spec = np.fft.fft2(shifted, axes=(0, 1), norm="ortho")
    return np.fft.fftshift(spec, axes=(0, 1))


def ifft2_centered(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`fft2_centered` (also unitary)."""
    x = as_tensor(x, "ifft input")
    shifted = np.fft.ifftshift(x, axes=(0, 1))
    img = np.fft.ifft2(shifted, axes=(0, 1), norm="ortho")
    return np.fft.fftshift(img, axes=(0, 1))


# ---------------------------------------------------------------------------
# Same-padded complex convolution
# ---------------------------------------------------------------------------

def validate_kernel(k, name: str = "kernel") -> np.ndarray:
    k = np.asarray(k).astype(np.complex128, copy=False)
    if k.ndim != 4:
        raise ShapeError(f"{name} must have shape (kh, kw, C_in, C_out), got {k.shape}")
    kh, kw = k.shape[:2]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"{name} spatial extents must be odd, got {kh}x{kw}")
    if not np.all(np.isfinite(k)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return k


def window_rows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Every interior kh x kw window of an (H, W, C) array as one row.

    Returns a ((H-kh+1)*(W-kw+1), kh*kw*C) matrix, rows in row-major window
    order, columns in (dy, dx, channel) order: the layout of a kernel
    reshaped to (kh*kw*C_in, C_out).
    """
    x = np.ascontiguousarray(x)
    H, W, c = x.shape
    s0, s1, s2 = x.strides
    # built directly: sliding_window_view plus transpose cost ~20 us a call
    view = np.ndarray((H - kh + 1, W - kw + 1, kh, kw, c), x.dtype, x, 0, (s0, s1, s0, s1, s2))
    return view.reshape((H - kh + 1) * (W - kw + 1), kh * kw * c)


def _padded_rows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(H*W, kh*kw*C) window rows of ``x`` under zero same-padding."""
    H, W, c = x.shape
    # zeros plus a slice assignment: np.pad costs about 50 us a call
    xp = np.zeros((H + kh - 1, W + kw - 1, c), dtype=np.complex128)
    xp[kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W] = x
    return window_rows(xp, kh, kw)


def conv2d_complex(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Complex 2-D convolution with zero same-padding.

    ``out[p, co] = sum_{d, ci} x[p + d, ci] * k[d, ci, co]`` where ``d``
    ranges over kernel offsets centered on zero and out-of-grid samples of
    ``x`` are zero. Linear in ``x``; output shape (H, W, C_out).
    """
    x = as_tensor(x, "conv input")
    k = validate_kernel(k)
    kh, kw, cin, cout = k.shape
    if x.shape[2] != cin:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[2]} channels, kernel expects {cin}"
        )
    H, W, _ = x.shape
    out = _padded_rows(x, kh, kw) @ k.reshape(kh * kw * cin, cout)
    return out.reshape(H, W, cout)


def adjoint_kernel(k: np.ndarray) -> np.ndarray:
    """Kernel of the adjoint operator of ``conv2d_complex(., k)``.

    With A x = conv2d_complex(x, k), the adjoint under the complex inner
    product is A^H g = conv2d_complex(g, adjoint_kernel(k)): spatial flip,
    swapped channel axes, conjugated taps.
    """
    return np.ascontiguousarray(np.conj(k[::-1, ::-1].transpose(0, 1, 3, 2)))


def conv2d_kernel_grad(x: np.ndarray, cot: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Cotangent of the kernel for out = conv2d_complex(x, k).

    Returns ``grad[d, ci, co] = sum_p cot[p, co] * conj(x[p + d, ci])``, the
    Wirtinger-style gradient matching the real-pair parameterization.
    """
    H, W, cin = x.shape
    cout = cot.shape[2]
    grad = (_padded_rows(x, kh, kw).T @ cot.reshape(H * W, cout).conj()).conj()
    return grad.reshape(kh, kw, cin, cout)


# ---------------------------------------------------------------------------
# Spectral norm via power iteration
# ---------------------------------------------------------------------------

def spectral_norm_power_iter(k: np.ndarray, start: np.ndarray, iters: int):
    """``(sigma, v)``: power iteration on A^H A, A = ``conv2d_complex(., k)``
    on ``start``'s (H, W, C_in) shape, from ``start`` (all ones if zero).
    ``sigma`` is the running maximum of ``norm(A v)`` over unit ``v``, hence
    nondecreasing in ``iters`` and a lower bound on the 2-norm of A; ``v`` is
    the last unit iterate, a warm start for the next call."""
    k = validate_kernel(k)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    v = np.asarray(start, dtype=np.complex128)
    if v.ndim != 3 or v.shape[2] != k.shape[2]:
        raise ShapeError(f"start vector shape {v.shape} does not match kernel input width")
    nv = frob(v)
    if nv == 0.0:
        v = np.ones(v.shape, dtype=np.complex128)
        nv = frob(v)
    v = v / nv
    k_adj = adjoint_kernel(k)
    best = 0.0
    for _ in range(iters):
        u = conv2d_complex(v, k)
        sigma = frob(u)
        if sigma > best:
            best = sigma
        if sigma == 0.0:
            break
        w = conv2d_complex(u, k_adj)
        nw = frob(w)
        if nw == 0.0:
            break
        v = w / nw
    return best, v


# ---------------------------------------------------------------------------
# Spectral norm via the Fourier symbol
# ---------------------------------------------------------------------------

# Relative margin on the squared norm under which the Cholesky check proves
# that no grid frequency beats the candidate: far above its rounding error.
SYMBOL_MARGIN = 1e-9
# Batched power steps per frequency that pick the candidate. On trained
# kernels, 8 steps pick the grid maximum in 88-100% of certifications; a miss
# costs one eigvalsh over the grid, not a wrong bound.
SYMBOL_POWER_STEPS = 8


def _phases(m: int, kh: int, kw: int) -> np.ndarray:
    """``exp(i w.d)`` for ``w = 2 pi (j1, j2) / m`` in rows ``j1 * m + j2``
    and the centered offsets ``d`` of a kh x kw window in row-major columns."""
    w = 2.0 * np.pi * np.arange(m) / m
    ey = np.exp(1j * np.outer(w, np.arange(kh) - kh // 2))
    ex = np.exp(1j * np.outer(w, np.arange(kw) - kw // 2))
    return (ey[:, None, :, None] * ex[None, :, None, :]).reshape(m * m, kh * kw)


def kernel_symbol(k: np.ndarray, m: int) -> np.ndarray:
    """The kernel's Fourier symbol on the m x m frequency grid.

    Row ``j = j1 * m + j2`` is the (C_in, C_out) matrix
    ``K(w) = sum_d k[d] exp(i w.d)`` at ``w = 2 pi (j1, j2) / m``, with
    offsets ``d`` centered on zero. A plane wave ``x[p] = exp(i w.p) a`` maps
    to ``exp(i w.p) K(w)^T a`` under :func:`conv2d_complex` away from the
    border, so the singular values of the circular convolution on the m x m
    torus are exactly those of ``K(w)`` over the grid.
    """
    kh, kw, cin, cout = k.shape
    return (_phases(m, kh, kw) @ k.reshape(kh * kw, cin * cout)).reshape(m * m, cin, cout)


def symbol_norm(k: np.ndarray, m: int):
    """``(sigma, grad)``: the largest singular value of :func:`kernel_symbol`
    over the m x m grid, and its gradient with respect to ``k`` in the
    real-pair convention of :func:`conv2d_kernel_grad`.

    Every frequency's Gram matrix ``G(w)`` is formed on the smaller channel
    side. ``SYMBOL_POWER_STEPS`` batched power steps pick a candidate
    frequency; one batched Cholesky of ``sigma^2 (1 + SYMBOL_MARGIN) I - G``
    proves that no frequency exceeds it, else one batched ``eigvalsh`` finds
    the maximum. ``sigma`` comes from the SVD at the chosen frequency
    ``w*``, so it is within a factor ``1 + SYMBOL_MARGIN / 2`` of the grid
    maximum. With ``(u, v)`` the top singular pair there,
    ``grad[d, ci, co] = exp(-i w*.d) u[ci] conj(v[co])``.
    """
    k = validate_kernel(k)
    kh, kw, cin, cout = k.shape
    sym = kernel_symbol(k, m)
    sym_h = sym.conj().transpose(0, 2, 1)
    gram = sym @ sym_h if cin <= cout else sym_h @ sym
    v = np.ones((m * m, gram.shape[1], 1), dtype=np.complex128)
    for _ in range(SYMBOL_POWER_STEPS):
        v = gram @ v
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    j = int(np.argmax((v.conj().transpose(0, 2, 1) @ gram @ v).real))
    u, s, vh = np.linalg.svd(sym[j])
    try:
        np.linalg.cholesky(s[0] ** 2 * (1.0 + SYMBOL_MARGIN) * np.eye(gram.shape[1]) - gram)
    except np.linalg.LinAlgError:
        j = int(np.argmax(np.linalg.eigvalsh(gram)[:, -1]))
        u, s, vh = np.linalg.svd(sym[j])
    phase = np.conj(_phases(m, kh, kw)[j]).reshape(kh, kw, 1, 1)
    return float(s[0]), phase * np.multiply.outer(u[:, 0], vh[0])


# ---------------------------------------------------------------------------
# CT01 container
# ---------------------------------------------------------------------------

def write_ct01_bytes(x: np.ndarray) -> bytes:
    """Serialize an (H, W, C) complex tensor to the CT01 container.

    Layout: magic ``CT01``; three little-endian uint32 dims H, W, C; then
    H*W*C interleaved (real, imag) little-endian float32 values in row-major
    order with channel innermost.
    """
    x = as_tensor(x, "ct01 tensor")
    H, W, C = x.shape
    header = CT01_MAGIC + struct.pack("<III", H, W, C)
    interleaved = np.empty((H, W, C, 2), dtype="<f4")
    interleaved[..., 0] = x.real
    interleaved[..., 1] = x.imag
    return header + interleaved.tobytes()


def read_ct01_bytes(data: bytes) -> np.ndarray:
    """Parse a CT01 container; any malformed input raises InvalidInputError."""
    if data[:4] != CT01_MAGIC:
        raise InvalidInputError("bad CT01 magic")
    if len(data) < 16:
        raise InvalidInputError("truncated CT01 header")
    H, W, C = struct.unpack("<III", data[4:16])
    if min(H, W, C) < 1:
        raise InvalidInputError(f"CT01 dims {H}x{W}x{C} must be >= 1")
    count = H * W * C * 2
    if len(data) != 16 + 4 * count:
        raise InvalidInputError(
            f"CT01 payload of {len(data) - 16} bytes, header promises {4 * count}"
        )
    payload = np.frombuffer(data, dtype="<f4", count=count, offset=16)
    if not np.all(np.isfinite(payload)):
        raise InvalidInputError("CT01 payload contains non-finite values")
    pairs = payload.reshape(H, W, C, 2).astype(np.float64)
    return (pairs[..., 0] + 1j * pairs[..., 1]).astype(np.complex128)


def save_ct01(path, x: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(write_ct01_bytes(x))


def load_ct01(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_ct01_bytes(fh.read())
