"""Certified-contractive fixed-point k-space interpolation for parallel MRI.

A learnable multi-coil consistency operator with a Fourier-symbol Lipschitz
certificate, sound on every grid size, is driven to a fixed point under the
data-consistency projection; training differentiates through the
equilibrium and through the spectral normalization. The package
also ships a classical SPIRiT baseline, synthetic phantom data, image
metrics, and a harness that certifies the convergence-rate and
noise-robustness guarantees numerically.
"""

from .errors import (
    CertificateError,
    ConfigurationError,
    DivergenceError,
    InvalidInputError,
    ShapeError,
    TrainingError,
)
from .harness import (
    verify_convergence,
    verify_init_independence,
    verify_mask_transfer,
    verify_robustness,
)
from .metrics import evaluate_kspace_pair, image_from_kspace, nmse, psnr, ssim, ssos
from .network import (
    ConsistencyNetParams,
    LipschitzCertificate,
    certified_lipschitz,
    forward,
    init_params,
    load_checkpoint,
    normalize_params,
    save_checkpoint,
    vjp,
)
from .phantom import (
    DatasetSpec,
    generate_coil_maps,
    generate_phantom,
    load_dataset,
    make_dataset,
    save_dataset,
)
from .rng import RandomStream, derive_seed
from .sampling import (
    Measurement,
    SamplingMask,
    add_noise,
    apply_sampling,
    make_mask,
    project_data_consistency,
)
from .solvers import (
    FixedPointResult,
    anderson_solve,
    geometric_rate_check,
    picard_solve,
)
from .spirit import SpiritKernels, calibrate_kernels, spirit_apply, spirit_pocs_recon
from .tensors import (
    conv2d_complex,
    fft2_centered,
    ifft2_centered,
    load_ct01,
    save_ct01,
    spectral_norm_power_iter,
)
from .training import (
    TrainConfig,
    TrainReport,
    adam_step,
    implicit_backward,
    reconstruct,
    train,
    zero_fill,
)

__version__ = "0.1.0"
