"""Complex-tensor primitives: centered FFTs, same-padded complex convolution,
norms, spectral-norm estimation, and the CT01 binary container.

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

_PATCH_IDX_CACHE: dict[tuple[int, int, int, int], np.ndarray] = {}


def _patch_indices(H: int, W: int, kh: int, kw: int) -> np.ndarray:
    """Flat gather indices mapping a zero-padded (H+kh-1, W+kw-1) grid to
    (H*W, kh*kw) sliding-window patches. Cached per shape."""
    key = (H, W, kh, kw)
    idx = _PATCH_IDX_CACHE.get(key)
    if idx is None:
        Wp = W + kw - 1
        py, px = np.mgrid[0:H, 0:W]
        dy, dx = np.mgrid[0:kh, 0:kw]
        rows = py.reshape(H * W, 1) + dy.reshape(1, kh * kw)
        cols = px.reshape(H * W, 1) + dx.reshape(1, kh * kw)
        idx = (rows * Wp + cols).astype(np.intp)
        _PATCH_IDX_CACHE[key] = idx
    return idx


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


def _extract_patches(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """(H*W, kh*kw*C) patch matrix of ``x`` under zero same-padding."""
    H, W, c = x.shape
    xp = np.zeros((H + kh - 1, W + kw - 1, c), dtype=np.complex128)
    xp[kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W] = x
    idx = _patch_indices(H, W, kh, kw)
    return xp.reshape(-1, c)[idx].reshape(H * W, kh * kw * c)


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
    patches = _extract_patches(x, kh, kw)
    out = patches @ k.reshape(kh * kw * cin, cout)
    return out.reshape(H, W, cout)


def adjoint_kernel(k: np.ndarray) -> np.ndarray:
    """Kernel of the adjoint operator of ``conv2d_complex(., k)``.

    With A x = conv2d_complex(x, k), the adjoint under the complex inner
    product is A^H g = conv2d_complex(g, adjoint_kernel(k)): spatial flip,
    swapped channel axes, conjugated taps.
    """
    return np.ascontiguousarray(np.conj(k[::-1, ::-1].transpose(0, 1, 3, 2)))


def conv2d_adjoint(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Apply the adjoint of ``conv2d_complex(., k)`` to ``g``."""
    return conv2d_complex(g, adjoint_kernel(k))


def conv2d_kernel_grad(x: np.ndarray, cot: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Cotangent of the kernel for out = conv2d_complex(x, k).

    Returns ``grad[d, ci, co] = sum_p cot[p, co] * conj(x[p + d, ci])``, the
    Wirtinger-style gradient matching the real-pair parameterization.
    """
    H, W, cin = x.shape
    cout = cot.shape[2]
    patches = _extract_patches(x, kh, kw)  # (H*W, kh*kw*cin)
    grad = patches.conj().T @ cot.reshape(H * W, cout)
    return grad.reshape(kh, kw, cin, cout)


# ---------------------------------------------------------------------------
# Spectral norm via power iteration
# ---------------------------------------------------------------------------

def spectral_norm_power_iter(
    k: np.ndarray,
    input_shape: tuple[int, int],
    iters: int = 50,
    seed: int = 0,
    start: np.ndarray | None = None,
    return_vector: bool = False,
):
    """Estimate the operator 2-norm of ``conv2d_complex(., k)`` on H x W inputs.

    Power iteration on A^H A from a seeded Gaussian start vector (or a
    caller-provided warm start). The returned estimate is the running
    maximum of the Rayleigh quotients ``norm(A v)`` over unit ``v``, hence
    nondecreasing in ``iters`` and a lower bound on the true norm.
    """
    k = validate_kernel(k)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    H, W = input_shape
    cin = k.shape[2]
    if start is not None:
        v = start.astype(np.complex128, copy=True)
        if v.shape != (H, W, cin):
            raise ShapeError("warm-start vector shape mismatch")
    else:
        v = gaussian_tensor((H, W, cin), RandomStream(seed))
    nv = frob(v)
    if nv == 0.0:
        v = np.ones((H, W, cin), dtype=np.complex128)
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
    if return_vector:
        return best, v
    return best


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
