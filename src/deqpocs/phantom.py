"""Synthetic multi-coil ground truth: ellipse phantoms, smooth complex coil
sensitivities with unit SSoS, full k-space synthesis, and dataset
persistence.

Every random draw comes from the package's fully specified stream
(:mod:`deqpocs.rng`), so datasets are byte-identical across runs for equal
seeds; per-sample seeds are derived with :func:`deqpocs.rng.derive_seed`,
which also makes per-sample generation safe to parallelize.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .metrics import ssos
from .rng import RandomStream, derive_seed
from .sampling import (
    Measurement,
    add_noise,
    apply_sampling,
    canonical_kind,
    load_mk01,
    make_mask,
    save_mk01,
)
from .tensors import fft2_centered, gaussian_tensor, load_ct01, save_ct01
from .tensors import ifft2_centered  # noqa: F401  (perfbench traces it under this name)

MIN_ELLIPSES = 6
MAX_ELLIPSES = 10
MIN_SIDE = 8  # smallest phantom grid side


def generate_phantom(H: int, W: int, seed: int = 0, edge_sigma: float = 1.0) -> np.ndarray:
    """Random superposition of 6-10 ellipses, clipped to [0, 1].

    Centers, semi-axes, orientation and intensity are drawn from the seeded
    stream in a fixed order, so the image is reproducible bit for bit.
    ``edge_sigma`` (pixels) band-limits the rendering with a Gaussian
    spectral envelope: acquired MR images have no infinitely sharp edges,
    and the envelope keeps the synthetic k-space tail realistic. Pass 0 for
    hard-edged ellipses.
    """
    if H < MIN_SIDE or W < MIN_SIDE:
        raise ConfigurationError(f"phantom grid must be at least {MIN_SIDE}x{MIN_SIDE}")
    if not 0 <= edge_sigma < math.inf:
        raise ConfigurationError(f"edge_sigma must be finite and nonnegative, got {edge_sigma}")
    stream = RandomStream(seed)
    n_ell = MIN_ELLIPSES + stream.randint(MAX_ELLIPSES - MIN_ELLIPSES + 1)
    ys = (np.arange(H) - H / 2 + 0.5) / H
    xs = (np.arange(W) - W / 2 + 0.5) / W
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    img = np.zeros((H, W), dtype=np.float64)
    for _ in range(n_ell):
        cx = (stream.uniform() - 0.5) * 0.7
        cy = (stream.uniform() - 0.5) * 0.7
        ax = 0.08 + 0.32 * stream.uniform()
        ay = 0.08 + 0.32 * stream.uniform()
        theta = math.pi * stream.uniform()
        amp = 0.1 + 0.8 * stream.uniform()
        ct, st = math.cos(theta), math.sin(theta)
        xr = (xx - cx) * ct + (yy - cy) * st
        yr = -(xx - cx) * st + (yy - cy) * ct
        img += amp * (((xr / ax) ** 2 + (yr / ay) ** 2) <= 1.0)
    if edge_sigma > 0:
        fy = np.fft.fftfreq(H)
        fx = np.fft.fftfreq(W)
        envelope = np.outer(
            np.exp(-2.0 * (np.pi * fy * edge_sigma) ** 2),
            np.exp(-2.0 * (np.pi * fx * edge_sigma) ** 2),
        )
        img = np.real(np.fft.ifft2(np.fft.fft2(img) * envelope))
    return np.clip(img, 0.0, 1.0)


@dataclass(frozen=True)
class CoilMaps:
    """Complex coil sensitivities with pixelwise unit SSoS."""

    maps: np.ndarray  # complex (H, W, Nc)

    def __post_init__(self):
        s = np.sqrt(np.sum(np.abs(self.maps) ** 2, axis=2))
        if not np.allclose(s, 1.0, atol=1e-6):
            raise ConfigurationError("coil maps must have pixelwise unit SSoS")


MAP_STYLES = ("localized", "quadrature")


def generate_coil_maps(H: int, W: int, nc: int, seed: int = 0, style: str = "localized") -> CoilMaps:
    """Smooth complex sensitivities with pixelwise unit SSoS.

    Two constructions:

    * ``localized`` (default): Gaussian bump profiles at equally spaced
      border positions modulated by a low-order complex polynomial, then
      SSoS-normalized. Looks like a physical coil array.
    * ``quadrature``: quadrature pairs of single-cycle integer phase ramps
      (axes alternating, plus a constant field for an odd coil) mixed by a
      seeded random unitary. The pair structure keeps the squared-magnitude
      sum exactly constant before normalization, so the maps stay
      band-limited to one frequency bin per axis and every k-space point is
      exactly linearly predictable from its 3x3 multi-coil neighborhood —
      the redundancy that k-space parallel-imaging baselines rely on. Ramps
      are dropped on axes shorter than 32 pixels to respect the
      pixel-jump bound of 0.2.
    """
    if nc < 1:
        raise ConfigurationError("need at least one coil")
    if style not in MAP_STYLES:
        raise ConfigurationError(f"unknown coil map style {style!r}; expected {MAP_STYLES}")
    stream = RandomStream(seed)
    ys = (np.arange(H) - H / 2 + 0.5) / H
    xs = (np.arange(W) - W / 2 + 0.5) / W
    yy, xx = np.meshgrid(ys, xs, indexing="ij")
    if style == "localized":
        z = xx + 1j * yy
        width = 0.55
        raw = np.empty((H, W, nc), dtype=np.complex128)
        for c in range(nc):
            angle = 2.0 * math.pi * (c + 0.5) / nc
            cx, cy = 0.5 * math.cos(angle), 0.5 * math.sin(angle)
            a = complex((stream.uniform() - 0.5) * 0.5, (stream.uniform() - 0.5) * 0.5)
            b = complex((stream.uniform() - 0.5) * 0.5, (stream.uniform() - 0.5) * 0.5)
            bump = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * width * width))
            raw[:, :, c] = bump * (1.0 + a * z + 0.5 * b * z * z)
    else:
        npairs = nc // 2
        amp = 1.0 / math.sqrt(npairs + nc % 2) if nc > 1 else 1.0
        fields = []
        for p in range(npairs):
            use_width_axis = p % 2 == 0
            n_axis = W if use_width_axis else H
            k = 1 if n_axis >= 32 else 0  # slope 2*pi*k/n_axis stays under 0.2
            phase = 2.0 * math.pi * stream.uniform()
            angle = 2.0 * math.pi * k * (xx if use_width_axis else yy) + phase
            fields.append(amp * np.cos(angle))
            fields.append(amp * np.sin(angle))
        if nc % 2 == 1:
            fields.append(amp * np.ones((H, W)))
        g = np.stack(fields, axis=2).astype(np.complex128)
        entries = gaussian_tensor((1, nc, nc), stream)[0]
        q, r = np.linalg.qr(entries)  # canonical-phase random unitary
        diag = np.diagonal(r)
        q = q * (diag / np.abs(diag))
        raw = g @ q.T
    norm = np.sqrt(np.sum(np.abs(raw) ** 2, axis=2))
    return CoilMaps(maps=raw / norm[:, :, None])


@dataclass(frozen=True)
class Sample:
    """Full k-space ground truth plus its reference magnitude image."""

    kspace: np.ndarray  # complex (H, W, Nc)
    reference: np.ndarray  # real (H, W) SSoS image
    phantom_seed: int
    coil_seed: int


@dataclass(frozen=True)
class DatasetSpec:
    n: int
    height: int = 32
    width: int = 32
    coils: int = 4
    mask_kind: str = "1d-calibrated"
    accel: float = 4.0
    acs: int | tuple[int, int] | None = None
    delta_rel: float = 0.0
    seed: int = 0
    edge_sigma: float = 1.0
    shared_mask: bool = False  # True: one trajectory for every sample
    coil_style: str = "localized"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError("dataset needs at least one sample")
        if not 0 <= self.delta_rel < math.inf:
            raise ConfigurationError(
                f"relative noise level must be finite and >= 0, got {self.delta_rel}"
            )
        object.__setattr__(self, "mask_kind", canonical_kind(self.mask_kind))
        if self.coil_style not in MAP_STYLES:
            raise ConfigurationError(f"unknown coil map style {self.coil_style!r}")


def make_sample(
    H: int,
    W: int,
    nc: int,
    phantom_seed: int,
    coil_seed: int,
    edge_sigma: float = 1.0,
    coil_style: str = "localized",
) -> Sample:
    image = generate_phantom(H, W, phantom_seed, edge_sigma=edge_sigma)
    maps = generate_coil_maps(H, W, nc, coil_seed, style=coil_style)
    coil_images = image[:, :, None] * maps.maps
    kspace = fft2_centered(coil_images)
    return Sample(
        kspace=kspace,
        reference=ssos(coil_images),
        phantom_seed=phantom_seed,
        coil_seed=coil_seed,
    )


def make_dataset(spec: DatasetSpec) -> list[tuple[Sample, Measurement]]:
    """Generate ``spec.n`` (ground truth, measurement) pairs.

    Per-sample streams: phantom, coil maps, mask and noise each get a seed
    derived from ``(spec.seed, index, slot)``; with ``shared_mask`` every
    sample reuses the first sample's trajectory (training a model for one
    fixed trajectory, the usual acquisition setting).
    """
    out = []
    for i in range(spec.n):
        sample = make_sample(
            spec.height,
            spec.width,
            spec.coils,
            derive_seed(spec.seed, i, 0),
            derive_seed(spec.seed, i, 1),
            edge_sigma=spec.edge_sigma,
            coil_style=spec.coil_style,
        )
        mask = make_mask(
            spec.mask_kind,
            spec.height,
            spec.width,
            spec.accel,
            acs=spec.acs,
            seed=derive_seed(spec.seed, 0 if spec.shared_mask else i, 2),
        )
        meas = apply_sampling(sample.kspace, mask)
        if spec.delta_rel > 0:
            meas = add_noise(meas, spec.delta_rel, seed=derive_seed(spec.seed, i, 3))
        out.append((sample, meas))
    return out


# ---------------------------------------------------------------------------
# On-disk layout: sample_%04d_{full,meas}.ct01, sample_%04d_mask.mk01,
# and a plain-text manifest with the spec and derived seeds.
# ---------------------------------------------------------------------------

def save_dataset(directory, spec: DatasetSpec, dataset) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = [
        f"n={spec.n}",
        f"height={spec.height}",
        f"width={spec.width}",
        f"coils={spec.coils}",
        f"mask_kind={spec.mask_kind}",
        f"accel={spec.accel!r}",
        f"acs={spec.acs if spec.acs is not None else 'auto'}",
        f"delta_rel={spec.delta_rel!r}",
        f"seed={spec.seed}",
        f"edge_sigma={spec.edge_sigma!r}",
        f"shared_mask={int(spec.shared_mask)}",
        f"coil_style={spec.coil_style}",
    ]
    for i, (sample, meas) in enumerate(dataset):
        stem = f"sample_{i:04d}"
        save_ct01(os.path.join(directory, stem + "_full.ct01"), sample.kspace)
        save_ct01(os.path.join(directory, stem + "_meas.ct01"), meas.y)
        save_mk01(os.path.join(directory, stem + "_mask.mk01"), meas.mask)
        lines.append(
            f"{stem}: phantom_seed={sample.phantom_seed} coil_seed={sample.coil_seed} "
            f"delta={meas.delta!r}"
        )
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class LoadedSample:
    kspace: np.ndarray
    measurement: Measurement


def load_dataset(directory) -> list[LoadedSample]:
    """Load every sample triple found in a dataset directory."""
    entries = sorted(
        f[: -len("_full.ct01")]
        for f in os.listdir(directory)
        if f.endswith("_full.ct01")
    )
    if not entries:
        raise ConfigurationError(f"no samples found in {directory}")
    manifest = os.path.join(directory, "manifest.txt")
    deltas = {}
    if os.path.exists(manifest):
        try:
            with open(manifest, encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{manifest} is not UTF-8 text: {exc}") from None
        for line in lines:
            if line.startswith("sample_") and "delta=" in line:
                stem = line.split(":")[0].strip()
                text = line.rsplit("delta=", 1)[1].strip()
                try:
                    delta = float(text)
                except ValueError:
                    delta = math.nan
                if not 0.0 <= delta < math.inf:  # also refuses nan
                    raise InvalidInputError(
                        f"{manifest}: {stem} has delta={text!r}; expected a finite number >= 0"
                    )
                deltas[stem] = delta
    out = []
    for stem in entries:
        kspace = load_ct01(os.path.join(directory, stem + "_full.ct01"))
        y = load_ct01(os.path.join(directory, stem + "_meas.ct01"))
        mask = load_mk01(os.path.join(directory, stem + "_mask.mk01"))
        meas = Measurement(y=y, mask=mask, delta=deltas.get(stem, 0.0))
        out.append(LoadedSample(kspace=kspace, measurement=meas))
    return out
