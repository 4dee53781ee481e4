"""Image-domain evaluation: SSoS coil combination, PSNR, NMSE, SSIM.

Reconstruction quality is always measured on magnitude images obtained as
``ssos(ifft2_centered(kspace))``; :func:`evaluate_kspace_pair` wraps that
pipeline.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, ShapeError
from .tensors import as_tensor, ifft2_centered

PSNR_CAP_DB = 99.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5


def csv_text(header: str, rows) -> str:
    """The one report CSV format: the ``header`` line, then one line per row.
    Floats are written as ``%.17g`` (they read back exactly), bools as 0/1,
    ``None`` as an empty field and anything else by ``str``."""

    def field(v) -> str:
        if v is None:
            return ""
        if isinstance(v, (bool, np.bool_)):
            return str(int(v))
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    lines = [header] + [",".join(map(field, row)) for row in rows]
    return "\n".join(lines) + "\n"


def ssos(coil_images: np.ndarray) -> np.ndarray:
    """Square-root of sum-of-squares magnitude combination across coils."""
    x = as_tensor(coil_images, "coil images")
    return np.sqrt(np.sum(np.abs(x) ** 2, axis=2))


def _check_pair(test: np.ndarray, ref: np.ndarray):
    test = np.asarray(test, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if test.shape != ref.shape:
        raise ShapeError(f"shape mismatch: {test.shape} vs {ref.shape}")
    return test, ref


def psnr(test: np.ndarray, ref: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB, peak taken from the reference.

    An exact match reports the capped sentinel value 99.0 dB.
    """
    test, ref = _check_pair(test, ref)
    peak = float(ref.max())
    if np.linalg.norm(ref) == 0:
        raise InvalidInputError("reference image is identically zero")
    if peak <= 0:
        raise InvalidInputError("reference peak must be positive")
    mse = float(np.mean((test - ref) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return min(10.0 * np.log10(peak * peak / mse), PSNR_CAP_DB)


def nmse(test: np.ndarray, ref: np.ndarray) -> float:
    """Normalized mean square error ``||test - ref||^2 / ||ref||^2``."""
    test, ref = _check_pair(test, ref)
    denom = float(np.sum(ref * ref))
    if denom == 0.0:
        raise InvalidInputError("reference image is identically zero")
    return float(np.sum((test - ref) ** 2)) / denom


def _gaussian_window(size: int, sigma: float) -> np.ndarray:
    half = (size - 1) / 2.0
    coords = np.arange(size) - half
    g1 = np.exp(-(coords**2) / (2.0 * sigma * sigma))
    win = np.outer(g1, g1)
    return win / win.sum()


def ssim(test: np.ndarray, ref: np.ndarray) -> float:
    """Mean local structural similarity.

    11x11 Gaussian window (sigma 1.5) slid over fully interior positions
    ('valid' windows), constants ``C1 = (0.01 * DR)**2`` and
    ``C2 = (0.03 * DR)**2`` with DR the reference dynamic range (a constant
    reference falls back to DR = 1 so identical images still score 1.0).
    """
    test, ref = _check_pair(test, ref)
    H, W = ref.shape
    if H < SSIM_WINDOW or W < SSIM_WINDOW:
        raise ShapeError(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM")
    dr = float(ref.max() - ref.min())
    if dr == 0.0:
        dr = 1.0
    c1 = (0.01 * dr) ** 2
    c2 = (0.03 * dr) ** 2
    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)

    def wmean(img: np.ndarray) -> np.ndarray:
        v = np.lib.stride_tricks.sliding_window_view(img, (SSIM_WINDOW, SSIM_WINDOW))
        return np.tensordot(v, win, axes=([2, 3], [0, 1]))

    mu_x = wmean(test)
    mu_y = wmean(ref)
    xx = wmean(test * test) - mu_x * mu_x
    yy = wmean(ref * ref) - mu_y * mu_y
    xy = wmean(test * ref) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def image_from_kspace(kspace: np.ndarray) -> np.ndarray:
    """Magnitude image of multi-coil k-space: SSoS of the inverse FFT."""
    return ssos(ifft2_centered(kspace))


def evaluate_kspace_pair(recon_k: np.ndarray, ref_k: np.ndarray) -> dict:
    """NMSE/PSNR/SSIM of SSoS images derived from two k-space tensors."""
    test_img = image_from_kspace(recon_k)
    ref_img = image_from_kspace(ref_k)
    return {
        "nmse": nmse(test_img, ref_img),
        "psnr": psnr(test_img, ref_img),
        "ssim": ssim(test_img, ref_img),
    }


def evaluate_kspace_set(pairs, sample_ids) -> str:
    """The metrics CSV of (reconstruction, reference) k-space pairs: one
    ``sample_id,nmse,psnr,ssim`` row per pair, labelled by ``sample_ids``,
    then each column's ``mean`` and ``std``."""
    results = [evaluate_kspace_pair(r, f) for r, f in pairs]
    columns = [[m[name] for m in results] for name in ("nmse", "psnr", "ssim")]
    arrays = [np.asarray(c, dtype=np.float64) for c in columns]
    rows = [
        *zip(sample_ids, *columns),
        ("mean", *(float(a.mean()) for a in arrays)),
        ("std", *(float(a.std()) for a in arrays)),
    ]
    return csv_text("sample_id,nmse,psnr,ssim", rows)
