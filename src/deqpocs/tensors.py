"""Complex-tensor primitives: centered FFTs, same-padded complex convolution,
norms, spectral norms of convolution kernels (a power-iteration estimate on
one grid, and the maximum of the kernel's Fourier symbol over a frequency
grid), and the CT01 binary container.

The symbol maximum (:func:`symbol_norm`) evaluates a few candidate
frequencies exactly and proves every other one lower: without state the
candidates come from batched power steps in stages (``SYMBOL_POWER_STAGES``),
most kernels being settled after the first; with the :class:`SymbolBounds`
it returned for a nearby kernel, they come from per-frequency bounds carried
across the move. The caller keeps those bounds (the training loop carries one
per kernel across Adam steps), and the module keeps no state. The phase table
of each grid and window is built once and kept read-only.

Tensors are plain ``numpy`` arrays of shape (H, W, C) and dtype complex128;
convolution kernels are (kh, kw, C_in, C_out) with odd spatial extents.
All functions are pure and safe for concurrent use. Every tensor and kernel
that enters a transform or a convolution is checked to be finite, on each
call; the scan runs over the float64 view of a complex128 array, where the
complex scan would cost twice as much (:func:`all_finite`).

The convolution gathers one row band per call: the kw-wide window of every
position of every zero-padded row, ((H+kh-1)*W, kw*C_in), a kh-th of a full
patch matrix (0.8 MB for a 32x32, 16-channel input with a 3x3 kernel). The
output is then kh GEMMs on contiguous slices of the band, one per kernel
row, and the kernel gradient the kh transposed GEMMs. Importing this module
raises glibc's malloc mmap and trim thresholds for the whole process (see
the comment above :func:`_row_band`).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ShapeError
from .rng import RandomStream

CT01_MAGIC = b"CT01"


def all_finite(arr: np.ndarray) -> bool:
    """``np.all(np.isfinite(arr))``. A complex128 array is scanned as its
    float64 view (real and imaginary parts interleaved), which is the same
    predicate at under half the cost; an array without such a view (its
    last axis not contiguous) is scanned as it is."""
    if arr.dtype == np.complex128 and arr.ndim and arr.strides[-1] == 16:
        arr = arr.view(np.float64)
    return bool(np.isfinite(arr).all())


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Validate and return ``x`` as a finite (H, W, C) complex128 array."""
    arr = np.asarray(x)
    if arr.ndim != 3:
        raise ShapeError(f"{name} must have shape (H, W, C), got {arr.shape}")
    if any(d < 1 for d in arr.shape):
        raise ShapeError(f"{name} dimensions must be >= 1, got {arr.shape}")
    arr = arr.astype(np.complex128, copy=False)
    if not all_finite(arr):
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
    return stream.gaussians(2 * int(np.prod(shape))).view(np.complex128).reshape(shape)


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
    if not all_finite(k):
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


# glibc's malloc serves a block above its mmap threshold (128 KiB at start)
# with a fresh mmap and unmaps it on free, so every conv's band, output and
# temporaries (0.26-0.8 MB at 32x32 with 16 channels) would be faulted in
# anew on each call. Freeing one mmapped block raises the *dynamic*
# threshold to its size, and the trim threshold to twice that, for the whole
# process: with this 4.8 MB block the hot path's arrays are reused from the
# heap instead. Its pages are never touched; other allocators ignore it.
np.empty(300_000, dtype=np.complex128)


def _row_band(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """((H+kh-1)*W, kw*C) rows: the kw-wide window of every position of every
    row of ``x`` zero-padded for a kh x kw kernel. Rows ``dy*W`` to
    ``dy*W + H*W - 1`` are the windows of kernel row ``dy`` for all H*W
    outputs, in the (dx, channel) column order of ``k[dy]``."""
    H, W, c = x.shape
    # zeros plus a slice assignment: np.pad costs about 50 us a call
    xp = np.zeros((H + kh - 1, W + kw - 1, c), dtype=np.complex128)
    xp[kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W] = x
    return window_rows(xp, 1, kw)


def conv2d_complex(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Complex 2-D convolution with zero same-padding.

    ``out[p, co] = sum_{d, ci} x[p + d, ci] * k[d, ci, co]`` where ``d``
    ranges over kernel offsets centered on zero and out-of-grid samples of
    ``x`` are zero. Linear in ``x``; output shape (H, W, C_out). Computed as
    one GEMM per kernel row on contiguous slices of :func:`_row_band`.
    """
    x = as_tensor(x, "conv input")
    k = validate_kernel(k)
    kh, kw, cin, cout = k.shape
    if x.shape[2] != cin:
        raise ShapeError(
            f"channel mismatch: input has {x.shape[2]} channels, kernel expects {cin}"
        )
    H, W, _ = x.shape
    rows, taps, n = _row_band(x, kh, kw), k.reshape(kh, kw * cin, cout), H * W
    out = rows[:n] @ taps[0]
    for dy in range(1, kh):
        out += rows[dy * W : dy * W + n] @ taps[dy]
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
    rows, cot_c, n = _row_band(x, kh, kw), cot.reshape(H * W, cout).conj(), H * W
    grad = np.empty((kh, kw * cin, cout), dtype=np.complex128)
    for dy in range(kh):
        np.matmul(rows[dy * W : dy * W + n].T, cot_c, out=grad[dy])
    return grad.conj().reshape(kh, kw, cin, cout)


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
# that no frequency outside the candidates reaches their maximum: far above
# its rounding error.
SYMBOL_MARGIN = 1e-9
# Batched power steps per frequency after which the frequencies are ranked;
# a refused proof sends the same iterate on to the next stage. On kernels
# from the desk training run, 3 steps settle about 6 certifications in 7.
SYMBOL_POWER_STAGES = (3, 8)
# The best-ranked frequencies whose exact top eigenvalue is computed; a
# maximum outside them costs one eigvalsh over the grid, not a wrong bound.
SYMBOL_CANDIDATES = 8
# Relative round-up of the bounds in :func:`symbol_norm`: of each squared
# bound, on the squared grid maximum, and of each drift, on itself and on
# the sum of the absolute kernel change. It is hundreds of times the
# worst-case rounding of the symbol, its Gram matrix and ``eigvalsh`` at 16
# channels, and far below ``SYMBOL_MARGIN``.
SYMBOL_BOUND_SLACK = 1e-10


@functools.cache
def _phases(m: int, kh: int, kw: int) -> np.ndarray:
    """``exp(i w.d)`` for ``w = 2 pi (j1, j2) / m`` in rows ``j1 * m + j2``
    and the centered offsets ``d`` of a kh x kw window in row-major columns.
    Built once per ``(m, kh, kw)`` and read-only (threads that miss together
    build equal tables)."""
    w = 2.0 * np.pi * np.arange(m) / m
    ey = np.exp(1j * np.outer(w, np.arange(kh) - kh // 2))
    ex = np.exp(1j * np.outer(w, np.arange(kw) - kw // 2))
    table = (ey[:, None, :, None] * ex[None, :, None, :]).reshape(m * m, kh * kw)
    table.flags.writeable = False
    return table


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


def _gram(sym: np.ndarray) -> np.ndarray:
    """Each symbol row's Gram matrix, formed on its smaller channel side;
    a non-finite one raises :class:`InvalidInputError`."""
    sym_h = sym.conj().transpose(0, 2, 1)
    gram = sym @ sym_h if sym.shape[1] <= sym.shape[2] else sym_h @ sym
    if not all_finite(gram):
        raise InvalidInputError("kernel symbol overflows")
    return gram


@dataclass(frozen=True)
class SymbolBounds:
    """What :func:`symbol_norm` proved about one kernel: a read-only copy of
    the kernel, the grid row ``j`` it chose, and ``bounds[w]``, an upper
    bound on the top singular value of the kernel's symbol at every grid
    frequency ``w``."""

    kernel: np.ndarray
    j: int
    bounds: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, not warned of
def symbol_norm(k: np.ndarray, m: int, prev: SymbolBounds | None = None):
    """``(sigma, grad, bounds)``: the largest singular value of
    :func:`kernel_symbol` over the m x m grid, its gradient with respect to
    ``k`` in the real-pair convention of :func:`conv2d_kernel_grad`, and the
    :class:`SymbolBounds` of ``k``.

    Candidate frequencies get the exact top eigenvalue of their Gram matrix
    ``G(w)`` from one batched ``eigvalsh``; every other frequency is proven
    to lie below their maximum by the relative margin ``SYMBOL_MARGIN``.
    ``j`` is the lowest-index frequency attaining that maximum, and
    ``sigma`` comes from the SVD there; with ``(u, v)`` its top singular
    pair, ``grad[d, ci, co] = exp(-i w_j.d) u[ci] conj(v[co])``.

    Without ``prev``, the candidates are the ``SYMBOL_CANDIDATES`` best
    Rayleigh quotients of batched power steps after each stage of
    ``SYMBOL_POWER_STAGES``, and one batched Cholesky of
    ``top.max() (1 - SYMBOL_MARGIN) I - G``, with their rows set to ``I``,
    is the proof; when no stage is proven, every frequency is a candidate.
    The others are bounded by ``sqrt(top.max() (1 + SYMBOL_BOUND_SLACK))``.
    With ``prev``, the :class:`SymbolBounds` of a nearby kernel of the same
    shape, ``sigma_{V+D}(w) <= sigma_V(w) + ||K_D(w)||_F`` carries its
    bounds to ``k``, rounded up, and the candidates are the frequencies
    whose bound reaches ``s0 (1 - SYMBOL_MARGIN)``, ``s0`` the top singular
    value at ``prev.j``. A candidate's bound is its exact value, rounded
    up. A symbol that overflows raises :class:`InvalidInputError`.
    """
    k = validate_kernel(k)
    kh, kw = k.shape[:2]
    sym = kernel_symbol(k, m)
    if prev is None:
        gram = _gram(sym)
        eye = np.eye(gram.shape[1])
        v = np.ones((m * m, gram.shape[1], 1), dtype=np.complex128)
        steps = 0
        for stage in SYMBOL_POWER_STAGES:
            for _ in range(steps, stage):
                v = gram @ v
                v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
            steps = stage
            rayleigh = (v.conj().transpose(0, 2, 1) @ gram @ v).real.ravel()
            cand = np.sort(np.argsort(rayleigh, kind="stable")[-SYMBOL_CANDIDATES:])
            top = np.linalg.eigvalsh(gram[cand])[:, -1]
            gap = top.max() * (1.0 - SYMBOL_MARGIN) * eye - gram
            gap[cand] = eye
            try:
                np.linalg.cholesky(gap)
                break
            except np.linalg.LinAlgError:
                pass
        else:
            cand, top = np.arange(m * m), np.linalg.eigvalsh(gram)[:, -1]
        bounds = np.full(m * m, np.sqrt(top.max() * (1.0 + SYMBOL_BOUND_SLACK)))
    else:
        delta = k - prev.kernel
        parts = kernel_symbol(delta, m).reshape(m * m, -1).view(np.float64)
        drift = np.sqrt(np.einsum("ij,ij->i", parts, parts))  # per-row Frobenius norms
        bounds = (prev.bounds + drift * (1.0 + SYMBOL_BOUND_SLACK)
                  + SYMBOL_BOUND_SLACK * float(np.abs(delta).sum()))
        if not (all_finite(bounds) and all_finite(sym[prev.j])):  # an SVD of inf never returns
            raise InvalidInputError("kernel symbol overflows")
        u, s, vh = np.linalg.svd(sym[prev.j])
        cand = np.flatnonzero(bounds >= s[0] * (1.0 - SYMBOL_MARGIN))
        top = np.linalg.eigvalsh(_gram(sym[cand]))[:, -1]
    i = int(np.argmax(top))
    j = int(cand[i])
    bounds[cand] = np.sqrt(np.maximum(top, 0.0) + SYMBOL_BOUND_SLACK * top[i])
    if prev is None or j != prev.j:
        u, s, vh = np.linalg.svd(sym[j])
    phase = np.conj(_phases(m, kh, kw)[j]).reshape(kh, kw, 1, 1)
    kernel = k.copy()
    kernel.flags.writeable = False
    bounds.flags.writeable = False
    return float(s[0]), phase * np.multiply.outer(u[:, 0], vh[0]), SymbolBounds(kernel, j, bounds)


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
