"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls into ``deqpocs`` except where a function takes the
program's operator as an argument: the convolution, the power iteration,
the data-consistency masking, the fixed-point loop and the certificate
formula are written again, plainly, so that a fault in the program's own
versions cannot hide itself.
"""

from __future__ import annotations

import math

import numpy as np

# Block mixing ``(ALPHA_CEIL - alpha) * a + alpha * cnn(a)``, as the
# package README documents it.
ALPHA_CEIL = 0.99


def conv_same(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Zero same-padded complex convolution by shifted-slice GEMMs.

    ``x`` is (H, W, Cin), ``k`` is (kh, kw, Cin, Cout) with odd extents.
    The padded input is flattened row-major; for tap (dy, dx) the rows that
    feed every output pixel are one contiguous slice shifted by
    ``dy * Wp + dx``. Each output row carries ``kw - 1`` wrap-around columns,
    cut off at the end.
    """
    kh, kw, cin, cout = k.shape
    H, W, _ = x.shape
    Wp = W + kw - 1
    xp = np.zeros(((H + kh) * Wp, cin), dtype=np.complex128)
    xp.reshape(H + kh, Wp, cin)[kh // 2 : kh // 2 + H, kw // 2 : kw // 2 + W] = x
    n = H * Wp
    out = np.zeros((n, cout), dtype=np.complex128)
    for dy in range(kh):
        for dx in range(kw):
            s = dy * Wp + dx
            out += xp[s : s + n] @ k[dy, dx]
    return out.reshape(H, Wp, cout)[:, :W]


def conv_same_adjoint(g: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`conv_same`: flipped taps, swapped channels, conjugated."""
    return conv_same(g, np.conj(k[::-1, ::-1].transpose(0, 1, 3, 2)))


def norm_lower_bound(k, grid, iters, start=None, seed=0):
    """Power iteration on ``A^H A`` for ``A = conv_same(., k)`` on ``grid``.

    Returns ``(bound, v)``: the largest ``||A v|| / ||v||`` seen, which is a
    lower bound on ``||A||`` whatever the start, and the last unit vector,
    to warm-start the next call.
    """
    shape = (grid[0], grid[1], k.shape[2])
    if start is None:
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = start / np.linalg.norm(start)
    best = 0.0
    for _ in range(iters):
        u = conv_same(v, k)
        best = max(best, float(np.linalg.norm(u)))
        w = conv_same_adjoint(u, k)
        v = w / np.linalg.norm(w)
    return best, v


def branch_bound(alpha: float, norms) -> float:
    return (ALPHA_CEIL - alpha) + alpha * math.prod(norms)


def certificate_formula(blocks) -> float:
    """The program's documented product bound, from given kernel norms.

    ``blocks`` holds ``(alpha, c_k, c_i, kspace_norms, image_norms or None)``
    per block: per branch ``(0.99 - alpha) + alpha * prod(norms)``, the
    branches mixed by ``(c_k, c_i)``, the blocks multiplied.
    """
    total = 1.0
    for alpha, c_k, c_i, k_norms, i_norms in blocks:
        b = branch_bound(alpha, k_norms)
        if i_norms is not None:
            b = c_k * b + c_i * branch_bound(alpha, i_norms)
        total *= b
    return total


def fixed_point(op, y: np.ndarray, sampled: np.ndarray, x0: np.ndarray,
                stop: float, max_iter: int = 2000):
    """Plain iteration ``x <- where(sampled, y, op(x))`` from ``x0``.

    Stops once a step is at most ``stop * max(1, ||x||)``; returns the last
    iterate and the number of steps, or ``(None, max_iter)`` without
    convergence.
    """
    keep = sampled[:, :, None]
    x = x0
    for it in range(1, max_iter + 1):
        x_new = np.where(keep, y, op(x))
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if step <= stop * max(1.0, float(np.linalg.norm(x))):
            return x, it
    return None, max_iter
