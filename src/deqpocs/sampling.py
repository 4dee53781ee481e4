"""Acquisition model: sampling masks, the sampling operator, noise injection,
and the data-consistency projection.

A mask is a boolean H x W grid shared by every coil; True marks acquired
locations. Four families are supported: ``1d-calibrated`` / ``1d-free``
sample whole columns (readout direction fully sampled), ``2d-calibrated`` /
``2d-free`` sample individual points. Calibrated families force a fully
sampled central auto-calibration (ACS) block; free families force none.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, ShapeError
from .rng import RandomStream
from .tensors import as_tensor, frob, gaussian_tensor

MASK_KINDS = ("1d-calibrated", "2d-calibrated", "1d-free", "2d-free")
_KIND_ALIASES = {
    "1d-cal": "1d-calibrated",
    "2d-cal": "2d-calibrated",
    "1d-free": "1d-free",
    "2d-free": "2d-free",
}
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

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    def fraction_sampled(self) -> float:
        return float(self.grid.mean())

    def acs_slices(self) -> tuple[slice, slice]:
        """Row/column slices of the forced ACS block (empty for free kinds)."""
        H, W = self.grid.shape
        if self.kind == "1d-calibrated":
            lines = self.acs[0]
            c0 = W // 2 - lines // 2
            return slice(0, H), slice(c0, c0 + lines)
        if self.kind == "2d-calibrated":
            ah, aw = self.acs
            r0 = H // 2 - ah // 2
            c0 = W // 2 - aw // 2
            return slice(r0, r0 + ah), slice(c0, c0 + aw)
        return slice(0, 0), slice(0, 0)


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

    1-D kinds choose whole columns; 2-D kinds choose points uniformly at
    random without replacement outside the ACS block. Calibrated kinds force
    the central ACS block to be fully sampled; pass ``acs`` to override the
    scaled default (a line count for 1-D, an (h, w) pair for 2-D).
    """
    kind = canonical_kind(kind)
    if R < 1:
        raise ConfigurationError(f"acceleration must be >= 1, got {R}")
    if H < 1 or W < 1:
        raise ConfigurationError("grid dimensions must be positive")
    stream = RandomStream(seed)
    grid = np.zeros((H, W), dtype=bool)

    if kind.startswith("1d"):
        budget = max(1, round(W / R))
        if kind == "1d-calibrated":
            if acs is None:
                lines = default_acs_lines(W)
            elif isinstance(acs, (tuple, list)):
                lines = int(acs[0])
            else:
                lines = int(acs)
            if lines < 1 or lines > W:
                raise ConfigurationError(f"ACS line count {lines} does not fit width {W}")
            if lines > budget:
                raise ConfigurationError(
                    f"ACS lines ({lines}) alone exceed the sampling budget ({budget}) at R={R}"
                )
            c0 = W // 2 - lines // 2
            forced = list(range(c0, c0 + lines))
            acs_desc = (lines, 0)
        else:
            forced = []
            acs_desc = (0, 0)
        free_cols = [c for c in range(W) if c not in set(forced)]
        extra = stream.choice_without_replacement(len(free_cols), budget - len(forced))
        cols = forced + [free_cols[i] for i in extra]
        grid[:, cols] = True
    else:
        budget = max(1, round(H * W / R))
        if kind == "2d-calibrated":
            if acs is None:
                ah, aw = default_acs_region(H, W)
            elif isinstance(acs, int):
                ah = aw = int(acs)
            else:
                ah, aw = int(acs[0]), int(acs[1])
            if ah < 1 or aw < 1 or ah > H or aw > W:
                raise ConfigurationError(f"ACS region {ah}x{aw} does not fit grid {H}x{W}")
            if ah * aw > budget:
                raise ConfigurationError(
                    f"ACS region ({ah}x{aw}) alone exceeds the sampling budget ({budget}) at R={R}"
                )
            r0, c0 = H // 2 - ah // 2, W // 2 - aw // 2
            grid[r0 : r0 + ah, c0 : c0 + aw] = True
            acs_desc = (ah, aw)
        else:
            acs_desc = (0, 0)
        flat_free = np.flatnonzero(~grid.ravel())
        remaining = budget - int(grid.sum())
        extra = stream.choice_without_replacement(len(flat_free), remaining)
        pick = flat_free[extra]
        flat = grid.ravel()
        flat[pick] = True

    mask = SamplingMask(grid=grid, kind=kind, accel=float(R), acs=acs_desc)
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
        if self.delta < 0:
            raise InvalidInputError("noise level must be nonnegative")


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
    input unchanged.
    """
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


def project_data_consistency(
    x: np.ndarray, mask: SamplingMask, y: Measurement | np.ndarray
) -> np.ndarray:
    """Replace entries on the sampled set with the measured values.

    A pure selection (no arithmetic): idempotent bitwise, and the map
    ``x -> project(x)`` is 1-Lipschitz for fixed measurements.
    """
    x = as_tensor(x, "projection input")
    ydata = y.y if isinstance(y, Measurement) else as_tensor(y, "measurement")
    if x.shape != ydata.shape:
        raise ShapeError(f"shape mismatch: {x.shape} vs {ydata.shape}")
    if x.shape[:2] != mask.shape:
        raise ShapeError(f"grid {x.shape[:2]} does not match mask {mask.shape}")
    return np.where(mask.grid[:, :, None], ydata, x)


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
    return SamplingMask(grid=grid, kind=MASK_KINDS[kind_byte], accel=float(accel), acs=acs)


def save_mk01(path, mask: SamplingMask) -> None:
    with open(path, "wb") as fh:
        fh.write(write_mk01_bytes(mask))


def load_mk01(path) -> SamplingMask:
    with open(path, "rb") as fh:
        return read_mk01_bytes(fh.read())
