"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (explicit
loops, dense matrices) and stays independent of the library code paths it
is used to check.
"""

import math

import numpy as np


class ScalarGaussians:
    """Box-Muller one variate at a time over ``stream.next_u64``, with its
    own pending second variate: the draw loop the stream spec describes."""

    def __init__(self, stream):
        self.stream = stream
        self.spare = None

    def gaussians(self, n):
        out = []
        for _ in range(n):
            if self.spare is not None:
                out.append(self.spare)
                self.spare = None
                continue
            u1 = ((self.stream.next_u64() >> 11) + 1) * (2.0 ** -53)  # in (0, 1]
            u2 = (self.stream.next_u64() >> 11) * (2.0 ** -53)
            r = math.sqrt(-2.0 * math.log(u1))
            theta = 2.0 * math.pi * u2
            self.spare = r * math.sin(theta)
            out.append(r * math.cos(theta))
        return out


def _phases_reference(m, kh, kw):
    w = 2.0 * np.pi * np.arange(m) / m
    ey = np.exp(1j * np.outer(w, np.arange(kh) - kh // 2))
    ex = np.exp(1j * np.outer(w, np.arange(kw) - kw // 2))
    return (ey[:, None, :, None] * ex[None, :, None, :]).reshape(m * m, kh * kw)


def symbol_norm_reference(k, m, steps=8, candidates=8, margin=1e-9):
    """``symbol_norm`` as it was with one ranking stage: ``steps`` batched
    power steps, the ``candidates`` best Rayleigh quotients re-ranked
    exactly, the Cholesky proof at ``margin``, else the full-grid maximum.
    Its phase table is built on every call."""
    k = np.asarray(k, dtype=np.complex128)
    kh, kw, cin, cout = k.shape
    sym = (_phases_reference(m, kh, kw) @ k.reshape(kh * kw, cin * cout)).reshape(
        m * m, cin, cout)
    sym_h = sym.conj().transpose(0, 2, 1)
    gram = sym @ sym_h if cin <= cout else sym_h @ sym
    v = np.ones((m * m, gram.shape[1], 1), dtype=np.complex128)
    for _ in range(steps):
        v = gram @ v
        v /= np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-300)
    rayleigh = (v.conj().transpose(0, 2, 1) @ gram @ v).real.ravel()
    best = np.argsort(rayleigh, kind="stable")[-candidates:]
    j = int(best[np.argmax(np.linalg.eigvalsh(gram[best])[:, -1])])
    u, s, vh = np.linalg.svd(sym[j])
    try:
        np.linalg.cholesky(s[0] ** 2 * (1.0 + margin) * np.eye(gram.shape[1]) - gram)
    except np.linalg.LinAlgError:
        j = int(np.argmax(np.linalg.eigvalsh(gram)[:, -1]))
        u, s, vh = np.linalg.svd(sym[j])
    phase = np.conj(_phases_reference(m, kh, kw)[j]).reshape(kh, kw, 1, 1)
    return float(s[0]), phase * np.multiply.outer(u[:, 0], vh[0])


def init_params_reference(variant, blocks, features, nc, seed=0, grid=(32, 32)):
    """``init_params`` with one ``gaussian_tensor`` draw per kernel, k-space
    branch before image branch within each block."""
    from deqpocs import network
    from deqpocs.rng import RandomStream
    from deqpocs.tensors import gaussian_tensor

    stream = RandomStream(seed)
    widths = network.layer_widths(nc, features)
    size = network.KERNEL_SIZE

    def branch():
        return network.BranchParams(
            kernels=[
                network.INIT_STD * gaussian_tensor((size**2, cin, cout), stream).reshape(
                    size, size, cin, cout)
                for cin, cout in widths
            ],
            biases=[np.zeros(cout, dtype=np.complex128) for _, cout in widths],
        )

    out = []
    for _ in range(blocks):
        if variant == "hybrid":
            kspace = branch()
            out.append(network.BlockParams(kspace, alpha=0.5, image_branch=branch(),
                                           c_k=0.5, c_i=0.5))
        else:
            out.append(network.BlockParams(branch(), alpha=0.5))
    params = network.ConsistencyNetParams(
        variant=variant, blocks=out, features=features, nc=nc, cert_grid=grid)
    network._certify(params, rescale=True)
    return params


def dft2_reference(x):
    """Direct DFT double sum, orthonormal and centered."""
    H, W, C = x.shape
    out = np.zeros_like(x, dtype=np.complex128)
    hs, ws = np.arange(H), np.arange(W)
    for u in range(H):
        for v in range(W):
            ph = np.exp(
                -2j
                * np.pi
                * np.add.outer(
                    (u - H // 2) * (hs - H // 2) / H,
                    (v - W // 2) * (ws - W // 2) / W,
                )
            )
            out[u, v, :] = np.tensordot(ph, x, axes=([0, 1], [0, 1]))
    return out / np.sqrt(H * W)


def materialize_linear_operator(op, in_shape):
    """Dense matrix of a complex-linear operator via unit impulses."""
    n = int(np.prod(in_shape))
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[j] = 1.0
        cols.append(np.asarray(op(e.reshape(in_shape))).ravel())
    return np.stack(cols, axis=1)


def conv2d_reference(x, k):
    """Zero same-padded convolution, one in-grid sample at a time:
    ``out[p] += x[p + d] @ k[d]`` for every output ``p`` and centered offset
    ``d`` with ``p + d`` inside the grid."""
    H, W, _ = x.shape
    kh, kw, _, cout = k.shape
    out = np.zeros((H, W, cout), dtype=np.complex128)
    for dy in range(kh):
        for dx in range(kw):
            for py in range(H):
                for px in range(W):
                    qy, qx = py + dy - kh // 2, px + dx - kw // 2
                    if 0 <= qy < H and 0 <= qx < W:
                        out[py, px] += x[qy, qx] @ k[dy, dx]
    return out


def conv_kernel_grad_reference(x, cot, kh, kw):
    """``grad[d, ci, co] = sum_p cot[p, co] * conj(x[p + d, ci])`` as a double
    sum over offsets and outputs, skipping samples outside the grid."""
    H, W, cin = x.shape
    cout = cot.shape[2]
    grad = np.zeros((kh, kw, cin, cout), dtype=np.complex128)
    for dy in range(kh):
        for dx in range(kw):
            for py in range(H):
                for px in range(W):
                    qy, qx = py + dy - kh // 2, px + dx - kw // 2
                    if 0 <= qy < H and 0 <= qx < W:
                        grad[dy, dx] += np.outer(np.conj(x[qy, qx]), cot[py, px])
    return grad


def ssim_reference(test, ref, win=11, sigma=1.5):
    """Naive per-window SSIM with explicit loops."""
    H, W = ref.shape
    half = (win - 1) / 2.0
    coords = np.arange(win) - half
    g = np.exp(-(coords**2) / (2 * sigma**2))
    w = np.outer(g, g)
    w /= w.sum()
    dr = ref.max() - ref.min()
    if dr == 0:
        dr = 1.0
    c1, c2 = (0.01 * dr) ** 2, (0.03 * dr) ** 2
    vals = []
    for i in range(H - win + 1):
        for j in range(W - win + 1):
            a = test[i : i + win, j : j + win]
            b = ref[i : i + win, j : j + win]
            mx, my = (w * a).sum(), (w * b).sum()
            vx = (w * a * a).sum() - mx * mx
            vy = (w * b * b).sum() - my * my
            vxy = (w * a * b).sum() - mx * my
            vals.append(
                ((2 * mx * my + c1) * (2 * vxy + c2))
                / ((mx * mx + my * my + c1) * (vx + vy + c2))
            )
    return float(np.mean(vals))


def dense_calibration_reference(acs, k, lam_rel):
    """Brute-force ridge least-squares calibration with explicit loops."""
    Ha, Wa, nc = acs.shape
    c = k // 2
    rows, targets = [], []
    for i in range(c, Ha - c):
        for j in range(c, Wa - c):
            row = []
            for dy in range(-c, c + 1):
                for dx in range(-c, c + 1):
                    for n in range(nc):
                        row.append(acs[i + dy, j + dx, n])
            rows.append(row)
            targets.append([acs[i, j, n] for n in range(nc)])
    A_full = np.array(rows, dtype=complex)
    B = np.array(targets, dtype=complex)
    taps = np.zeros((k, k, nc, nc), dtype=complex)
    for i in range(nc):
        self_col = (c * k + c) * nc + i
        keep = [j for j in range(A_full.shape[1]) if j != self_col]
        A = A_full[:, keep]
        normal = A.conj().T @ A
        mean_diag = float(np.real(np.trace(normal))) / normal.shape[0]
        lam = lam_rel * mean_diag if mean_diag > 0 else lam_rel
        w = np.linalg.solve(normal + lam * np.eye(len(keep)), A.conj().T @ B[:, i])
        full = np.zeros(k * k * nc, dtype=complex)
        full[keep] = w
        taps[:, :, :, i] = full.reshape(k, k, nc)
    return taps
