"""Acquisition model: sampling masks, the sampling operator, noise injection,
and the data-consistency projection.

A mask is a boolean H x W grid shared by every coil; True marks acquired
locations. Four families are supported: ``2d-calibrated`` / ``2d-free``
sample individual points, and ``1d-calibrated`` / ``1d-free`` are their
one-row case, whole columns (readout direction fully sampled) drawn on a
single row and repeated down the grid. Calibrated families force a fully
sampled central auto-calibration (ACS) block; free families force none.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeError
from .rng import RandomStream
from .tensors import as_tensor, frob, gaussian_tensor

MASK_KINDS = ("1d-calibrated", "2d-calibrated", "1d-free", "2d-free")
_KIND_ALIASES = {"1d-cal": "1d-calibrated", "2d-cal": "2d-calibrated"}
MASK_NAMES = (*_KIND_ALIASES, *MASK_KINDS)  # every spelling canonical_kind accepts
MK01_MAGIC = b"MK01"


def canonical_kind(kind: str) -> str:
    k = kind.lower()
    k = _KIND_ALIASES.get(k, k)
    if k not in MASK_KINDS:
        raise ConfigurationError(f"unknown mask kind {kind!r}; expected one of {MASK_KINDS}")
    return k


@dataclass(frozen=True)
class SamplingMask:
    """Boolean sampling grid with its provenance descriptor."""

    grid: np.ndarray  # bool (H, W)
    kind: str
    accel: float
    acs: tuple[int, int]  # (lines, 0) for 1-D, (h, w) for 2-D, (0, 0) for free

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=bool)
        object.__setattr__(self, "grid", grid)
        if grid.ndim != 2:
            raise ShapeError("mask grid must be 2-D")
        if not grid.any():
            raise ConfigurationError("mask samples no locations")
        if not 1 <= self.accel < math.inf:
            raise ConfigurationError(f"acceleration must be finite and >= 1, got {self.accel}")
        H, W = grid.shape
        rows, cols = self.acs_slices()
        calibrated = (0 <= rows.start < rows.stop <= H and 0 <= cols.start < cols.stop <= W
                      and grid[rows, cols].all() and (self.acs[1] == 0 or "2d" in self.kind))
        if not (tuple(self.acs) == (0, 0) if self.kind.endswith("free") else calibrated):
            raise ConfigurationError(
                f"ACS descriptor {tuple(self.acs)} names no fully sampled block inside a {H}x{W} "
                f"{self.kind} mask ((0, 0) for free kinds, (lines, 0) for 1-D)"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def fraction_sampled(self) -> float:
        return float(self.grid.mean())

    def acs_slices(self) -> tuple[slice, slice]:
        """Row/column slices of the forced ACS block (empty for free kinds)."""
        H, W = self.grid.shape
        ah, aw = (H, self.acs[0]) if self.kind.startswith("1d") else self.acs  # 1-D: every row
        r0, c0 = H // 2 - ah // 2, W // 2 - aw // 2
        return slice(r0, r0 + ah), slice(c0, c0 + aw)


def default_acs_lines(W: int) -> int:
    """ACS line count scaled from 16 lines on a 384-wide grid."""
    return max(1, math.ceil(16 * W / 384))


def default_acs_region(H: int, W: int) -> tuple[int, int]:
    """ACS block scaled from 64x64 on 384-wide grids: ceil(dim/6), even."""

    def even_ceil(v: float) -> int:
        n = math.ceil(v)
        return n + (n % 2)

    return max(2, even_ceil(H / 6)), max(2, even_ceil(W / 6))


def make_mask(
    kind: str,
    H: int,
    W: int,
    R: float,
    acs: int | tuple[int, int] | None = None,
    seed: int = 0,
) -> SamplingMask:
    """Draw a sampling mask. Deterministic given (kind, H, W, R, acs, seed).

    The draw runs on a grid of cells: one row of W columns for 1-D kinds,
    repeated down every row of the mask, and the H x W points for 2-D kinds.
    Calibrated kinds fill a central ACS block of cells; the rest of the
    budget ``max(1, round(cells / R))`` is chosen uniformly without
    replacement among the free cells in row-major order. Pass ``acs`` to
    override the scaled default (a line count for 1-D, an (h, w) pair for
    2-D).
    """
    kind = canonical_kind(kind)
    if not 1 <= R < math.inf:
        raise ConfigurationError(f"acceleration must be finite and >= 1, got {R}")
    if H < 1 or W < 1:
        raise ConfigurationError("grid dimensions must be positive")
    stream = RandomStream(seed)
    one_d = kind.startswith("1d")
    cells = np.zeros((1 if one_d else H, W), dtype=bool)
    rows = len(cells)
    budget = max(1, round(cells.size / R))
    if kind.endswith("free"):
        ah = aw = 0
    elif acs is None:
        ah, aw = (1, default_acs_lines(W)) if one_d else default_acs_region(H, W)
    else:
        try:
            pair = (1, acs) if one_d else acs if isinstance(acs, (tuple, list)) else (acs, acs)
            ah, aw = map(operator.index, pair)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"acs must be an integer, or for a 2-D kind a pair of them; got {acs!r}"
            ) from None
    if kind.endswith("calibrated") and not (1 <= ah <= rows and 1 <= aw <= W):
        raise ConfigurationError(
            f"ACS block {ah}x{aw} does not fit the {rows}x{W} cells of a {H}x{W} {kind} mask"
        )
    if ah * aw > budget:
        raise ConfigurationError(
            f"ACS block ({ah}x{aw} cells) alone exceeds the sampling budget ({budget}) at R={R}"
        )
    r0, c0 = rows // 2 - ah // 2, W // 2 - aw // 2
    cells[r0 : r0 + ah, c0 : c0 + aw] = True
    free = np.flatnonzero(~cells.ravel())
    cells.flat[free[stream.choice_without_replacement(len(free), budget - ah * aw)]] = True

    grid = np.broadcast_to(cells, (H, W)).copy()
    mask = SamplingMask(grid=grid, kind=kind, accel=float(R), acs=(aw, 0) if one_d else (ah, aw))
    frac = mask.fraction_sampled()
    if abs(frac - 1.0 / R) > 0.1 / R:
        raise ConfigurationError(
            f"sampled fraction {frac:.4f} deviates more than 10% from 1/R={1.0 / R:.4f}"
        )
    return mask


@dataclass(frozen=True)
class Measurement:
    """Undersampled k-space: zeros off the sampled set, plus noise metadata.

    ``delta`` is the Frobenius norm of the additive noise (0 when clean).
    """

    y: np.ndarray  # complex (H, W, Nc), zero off the mask
    mask: SamplingMask
    delta: float = 0.0

    def __post_init__(self):
        y = as_tensor(self.y, "measurement")
        object.__setattr__(self, "y", y)
        if y.shape[:2] != self.mask.shape:
            raise ShapeError(
                f"measurement grid {y.shape[:2]} does not match mask {self.mask.shape}"
            )
        if np.any(y[~self.mask.grid] != 0):
            raise InvalidInputError("measurement has nonzero entries off the sampled set")
        if not 0 <= self.delta < math.inf:
            raise InvalidInputError(f"noise level must be finite and >= 0, got {self.delta!r}")


def apply_sampling(x_full: np.ndarray, mask: SamplingMask) -> Measurement:
    """Restrict full k-space to the sampled set (same mask for every coil)."""
    x_full = as_tensor(x_full, "k-space")
    if x_full.shape[:2] != mask.shape:
        raise ShapeError(f"k-space grid {x_full.shape[:2]} does not match mask {mask.shape}")
    y = np.where(mask.grid[:, :, None], x_full, 0.0 + 0.0j)
    return Measurement(y=y, mask=mask, delta=0.0)


def add_noise(meas: Measurement, delta_rel: float, seed: int = 0) -> Measurement:
    """Add complex Gaussian noise supported on the sampled set.

    The noise is rescaled so its Frobenius norm is exactly
    ``delta_rel * frob(y)``; the returned measurement records that norm as
    ``delta``. Deterministic given the seed; ``delta_rel = 0`` returns the
    input unchanged; a non-finite ``delta_rel`` is refused before any draw.
    """
    if not math.isfinite(delta_rel):
        raise InvalidInputError(f"delta_rel must be finite, got {delta_rel}")
    if delta_rel < 0:
        raise InvalidInputError("delta_rel must be nonnegative")
    if delta_rel == 0.0:
        return meas
    y = meas.y
    scale = frob(y)
    noise = gaussian_tensor(y.shape, RandomStream(seed))
    noise = np.where(meas.mask.grid[:, :, None], noise, 0.0 + 0.0j)
    nn = frob(noise)
    if scale == 0.0 or nn == 0.0:
        return meas
    noise *= delta_rel * scale / nn
    return Measurement(y=y + noise, mask=meas.mask, delta=delta_rel * scale)


def project_data_consistency(x: np.ndarray, meas: Measurement) -> np.ndarray:
    """Replace entries of ``x`` on ``meas.mask``'s sampled set with the
    measured values ``meas.y``.

    A pure selection (no arithmetic): idempotent bitwise, and the map
    ``x -> project(x)`` is 1-Lipschitz for fixed measurements.
    """
    x = as_tensor(x, "projection input")
    if x.shape != meas.y.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {meas.y.shape}")
    return np.where(meas.mask.grid[:, :, None], meas.y, x)


def mask_complement_multiply(x: np.ndarray, mask: SamplingMask) -> np.ndarray:
    """(I - M) x: zero the sampled locations. Jacobian of the projection."""
    return np.where(mask.grid[:, :, None], 0.0 + 0.0j, x)


# ---------------------------------------------------------------------------
# MK01 container
# ---------------------------------------------------------------------------

_KIND_BYTES = {k: i for i, k in enumerate(MASK_KINDS)}


def write_mk01_bytes(mask: SamplingMask) -> bytes:
    """Serialize a mask: magic ``MK01``; uint32 LE dims H, W; H*W bytes of
    0/1 row-major; kind byte; float32 LE acceleration; two uint16 LE ACS
    descriptor values."""
    H, W = mask.shape
    out = [MK01_MAGIC, struct.pack("<II", H, W)]
    out.append(mask.grid.astype(np.uint8).tobytes())
    out.append(struct.pack("<B", _KIND_BYTES[mask.kind]))
    out.append(struct.pack("<f", mask.accel))
    out.append(struct.pack("<HH", mask.acs[0], mask.acs[1]))
    return b"".join(out)


def read_mk01_bytes(data: bytes) -> SamplingMask:
    """Parse an MK01 container; any malformed input raises InvalidInputError."""
    if data[:4] != MK01_MAGIC:
        raise InvalidInputError("bad MK01 magic")
    if len(data) < 12:
        raise InvalidInputError("truncated MK01 header")
    H, W = struct.unpack("<II", data[4:12])
    n = H * W
    if len(data) != 12 + n + 9:
        raise InvalidInputError(f"MK01 of {len(data)} bytes, header promises {12 + n + 9}")
    cells = np.frombuffer(data, dtype=np.uint8, count=n, offset=12)
    if np.any(cells > 1):
        raise InvalidInputError("MK01 grid bytes must be 0 or 1")
    if not cells.any():
        raise InvalidInputError("MK01 mask samples no locations")
    off = 12 + n
    kind_byte = data[off]
    if kind_byte >= len(MASK_KINDS):
        raise InvalidInputError(f"MK01 kind byte {kind_byte} out of range")
    (accel,) = struct.unpack("<f", data[off + 1 : off + 5])
    acs = struct.unpack("<HH", data[off + 5 : off + 9])
    grid = cells.reshape(H, W).astype(bool)
    try:
        return SamplingMask(grid=grid, kind=MASK_KINDS[kind_byte], accel=float(accel), acs=acs)
    except ConfigurationError as exc:
        raise InvalidInputError(f"MK01 {exc}") from None


def save_mk01(path, mask: SamplingMask) -> None:
    with open(path, "wb") as fh:
        fh.write(write_mk01_bytes(mask))


def load_mk01(path) -> SamplingMask:
    with open(path, "rb") as fh:
        return read_mk01_bytes(fh.read())
