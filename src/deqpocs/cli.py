"""Command-line surface: ``deqpocs <gen-data|train|recon|baseline|verify|eval>``.

``recon`` applies a certified checkpoint and nothing else; the classical
baselines, zero-fill and SPIRiT, run under ``baseline --method``.

Every command is deterministic given its flags (all randomness is seeded
via flags), writes only the artifacts it names, and uses the exit-code
contract: 0 success, 1 check/quality failure, 2 usage or I/O error. Flags,
however abbreviated, override values from an optional ``--config`` file of
``key=value`` lines (each key names a flag of the command; ``#`` starts a
comment). Each numeric flag declares its domain where the parser adds it, so
a flag and a config line are checked alike at parse time. Every usage error,
argparse's own included, prints one ``error:`` line and exits 2. The
``DEQPOCS_THREADS`` environment variable caps the harness's threads, the
calling one included.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

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
    verify_robustness,
)
from .metrics import evaluate_kspace_pair, evaluate_kspace_set, image_from_kspace
from .network import load_checkpoint, save_checkpoint
from .phantom import MIN_SIDE, DatasetSpec, load_dataset, make_dataset, save_dataset
from .sampling import MASK_NAMES, Measurement, load_mk01
from .solvers import diagnostics_csv
from .spirit import calibrate_kernels, extract_acs, spirit_pocs_recon
from .tensors import load_ct01, save_ct01
from .training import TrainConfig, reconstruct, train

USAGE_ERROR = 2
CHECK_FAILURE = 1


def write_pgm16(path, image: np.ndarray) -> None:
    """16-bit binary PGM (big-endian sample words), scaled so max -> 65535."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ShapeError("PGM output expects a 2-D image")
    peak = float(img.max())
    scaled = img / peak if peak > 0 else np.zeros_like(img)
    words = np.round(np.clip(scaled, 0.0, 1.0) * 65535.0).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n65535\n".encode())
        fh.write(words.tobytes())


def _load_config(path) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"bad config line (expected key=value): {raw!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_gen_data(ns) -> int:
    try:
        acs = None if ns.acs in (None, "auto") else int(ns.acs)
    except ValueError:
        raise ConfigurationError(f"--acs must be an integer or 'auto', got {ns.acs!r}") from None
    spec = DatasetSpec(
        n=ns.n,
        height=ns.size,
        width=ns.size,
        coils=ns.coils,
        mask_kind=ns.mask,
        accel=ns.accel,
        acs=acs,
        delta_rel=ns.noise,
        seed=ns.seed,
        edge_sigma=ns.edge_sigma,
        shared_mask=bool(ns.shared_mask),
        coil_style=ns.coil_style,
    )
    dataset = make_dataset(spec)
    save_dataset(ns.out, spec, dataset)
    print(f"wrote {spec.n} samples to {ns.out}")
    return 0


def _load_training_pairs(directory):
    samples = load_dataset(directory)
    return [(s.kspace, s.measurement) for s in samples]


def cmd_train(ns) -> int:
    pairs = _load_training_pairs(ns.data)
    config = TrainConfig(
        epochs=ns.epochs,
        learning_rate=ns.lr,
        variant=ns.variant,
        blocks=ns.blocks,
        features=ns.features,
        init_seed=ns.seed,
        shuffle_seed=ns.shuffle_seed,
    )

    def progress(epoch, report):
        print(
            f"epoch {epoch}: loss={report.epoch_mean_loss[-1]:.6g} "
            f"fwd_iters={report.epoch_mean_fwd_iters[-1]:.1f} "
            f"bwd_iters={report.epoch_mean_bwd_iters[-1]:.1f} "
            f"L={report.epoch_certificate[-1]:.4f}"
        )

    params, report = train(pairs, config, progress=progress)
    save_checkpoint(ns.out, params)
    report_path = ns.report or ns.out + ".report.csv"
    with open(report_path, "w") as fh:
        fh.write(report.to_csv())
    print(f"checkpoint: {ns.out}")
    print(f"report: {report_path}")
    return 0


def _load_measurement(meas_path, mask_path) -> Measurement:
    y = load_ct01(meas_path)
    mask = load_mk01(mask_path)
    return Measurement(y=y, mask=mask, delta=0.0)


def _write_recon_outputs(outdir, stem, kspace, residual_result=None):
    os.makedirs(outdir, exist_ok=True)
    save_ct01(os.path.join(outdir, stem + ".ct01"), kspace)
    write_pgm16(os.path.join(outdir, stem + ".pgm"), image_from_kspace(kspace))
    if residual_result is not None:
        with open(os.path.join(outdir, stem + "_residuals.csv"), "w") as fh:
            fh.write(diagnostics_csv(residual_result))


def cmd_recon(ns) -> int:
    params, stored_l = load_checkpoint(ns.ckpt)
    meas = _load_measurement(ns.meas, ns.mask)
    result = reconstruct(params, meas, method=ns.method, tol=ns.tol)
    _write_recon_outputs(ns.out, "recon", result.solution, result)
    print(
        f"recon: {result.iterations} iterations, converged={result.converged}, "
        f"L={stored_l:.4f}"
    )
    if ns.ref:
        ref = load_ct01(ns.ref)
        m = evaluate_kspace_pair(result.solution, ref)
        zf = evaluate_kspace_pair(meas.y, ref)
        print(f"psnr: recon={m['psnr']:.4f} dB zero-fill={zf['psnr']:.4f} dB")
        print(f"nmse: recon={m['nmse']:.6g} zero-fill={zf['nmse']:.6g}")
        print(f"ssim: recon={m['ssim']:.6g} zero-fill={zf['ssim']:.6g}")
    return 0


def cmd_baseline(ns) -> int:
    """Zero-fill (the measurement itself) or SPIRiT, whose iteration has no
    certificate and writes its residuals next to the reconstruction."""
    meas = _load_measurement(ns.meas, ns.mask)
    if ns.method == "zerofill":
        base_k, result = meas.y, None
    else:
        kernels = calibrate_kernels(extract_acs(meas), k=ns.spirit_kernel,
                                    lam_rel=ns.spirit_ridge)
        print(f"spirit: calibrated {ns.spirit_kernel}x{ns.spirit_kernel} kernels")
        result = spirit_pocs_recon(kernels, meas, max_iter=ns.spirit_iters, tol=ns.tol)
        base_k = result.solution
    _write_recon_outputs(ns.out, f"baseline_{ns.method}", base_k, result)
    if ns.ref:
        ref = load_ct01(ns.ref)
        m = evaluate_kspace_pair(base_k, ref)
        print(f"psnr: {m['psnr']:.4f} dB nmse: {m['nmse']:.6g} ssim: {m['ssim']:.6g}")
    return 0


def cmd_verify(ns) -> int:
    params, stored_l = load_checkpoint(ns.ckpt)
    samples = load_dataset(ns.data)
    if ns.samples > len(samples):
        raise ConfigurationError(
            f"--samples {ns.samples} exceeds the {len(samples)} samples of {ns.data}"
        )
    measurements = [s.measurement for s in samples[: ns.samples]]
    os.makedirs(ns.out, exist_ok=True)
    conv, clean = verify_convergence(
        params,
        measurements,
        inits_per_sample=ns.inits,
        tol=ns.tol,
        seed=ns.seed,
    )
    # each check reuses sample 0's clean equilibrium instead of solving it again
    rob = verify_robustness(
        params,
        measurements[0],
        delta_rels=ns.noise_levels,
        trials_per_level=ns.trials,
        seed=ns.seed,
        tol=ns.tol,
        clean=clean,
    )
    init = verify_init_independence(
        params,
        measurements[0],
        levels=ns.init_levels,
        trials_per_level=ns.init_trials,
        seed=ns.seed,
        tol=ns.tol,
        clean=clean,
    )
    summary = ""
    for report in (conv, rob, init):
        with open(os.path.join(ns.out, report.name.replace("-", "_") + ".csv"), "w") as fh:
            fh.write(report.to_csv())
        summary += report.summary() + "\n"
    passed = conv.passed and rob.passed and init.passed
    summary += "overall: " + ("PASS" if passed else "FAIL") + "\n"
    with open(os.path.join(ns.out, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0 if passed else CHECK_FAILURE


def _collect_pairs(recon_path, ref_path):
    if os.path.isdir(recon_path) != os.path.isdir(ref_path):
        raise ConfigurationError("--recon and --ref must both be files or both directories")
    if os.path.isdir(recon_path):
        recon, ref = (
            {f[: -len(".ct01")]: os.path.join(d, f) for f in os.listdir(d) if f.endswith(".ct01")}
            for d in (recon_path, ref_path)
        )
        if not recon and not ref:
            raise ConfigurationError("no .ct01 files in --recon or --ref")
        unpaired = sorted(recon.keys() ^ ref.keys())
        if unpaired:
            side = "--recon" if unpaired[0] in recon else "--ref"
            raise ConfigurationError(
                f"{unpaired[0]}.ct01 is only in {side}; files are paired by name"
            )
        ids = sorted(recon)
        return ids, [(recon[i], ref[i]) for i in ids]
    return [os.path.splitext(os.path.basename(recon_path))[0]], [(recon_path, ref_path)]


def cmd_eval(ns) -> int:
    ids, file_pairs = _collect_pairs(ns.recon, ns.ref)
    pairs = [(load_ct01(r), load_ct01(f)) for r, f in file_pairs]
    csv = evaluate_kspace_set(pairs, ids)
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(csv)
    print(csv, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Sends argparse's usage errors down ``main``'s one path (an ``error:``
    line and exit 2) instead of a usage banner and ``SystemExit``."""

    def error(self, message):
        raise ConfigurationError(message)


def _domain(kind=float, low=-math.inf, *, above=False, many=False):
    """An argparse ``type``: a finite ``kind`` value at least ``low`` (above it
    with ``above``), or with ``many`` a comma-separated list of such values.
    Text that does not parse is refused with the same message."""
    rule = "an integer" if kind is int else "finite"
    if low > -math.inf:
        rule += f"{'' if kind is int else ' and'} {'>' if above else '>='} {low:g}"
    if many:
        rule = f"a comma-separated list of values, each {rule}"

    def parse(text):
        try:
            values = [kind(v) for v in text.split(",") if v.strip()] if many else [kind(text)]
        except ValueError:
            values = []
        if not values or not all(
            -math.inf < v < math.inf and (v > low if above else v >= low) for v in values
        ):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return tuple(values) if many else values[0]

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deqpocs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="key=value defaults file")

    def add_solve_flags(p):
        """The flags ``recon`` and ``baseline`` share."""
        p.add_argument("--meas", type=str, default=None, help="measurement .ct01")
        p.add_argument("--mask", type=str, default=None, help="mask .mk01")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--ref", type=str, default=None, help="reference full k-space .ct01")
        p.add_argument("--tol", type=_domain(low=0, above=True), default=1e-5)
        add_common(p)

    p = sub.add_parser("gen-data", help="generate a synthetic multi-coil dataset")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--n", type=_domain(int, 1), default=8, help="number of samples")
    p.add_argument("--size", type=_domain(int, MIN_SIDE), default=32, help="grid size (square)")
    p.add_argument("--coils", type=_domain(int, 1), default=4, help="number of coils")
    p.add_argument("--mask", type=str, default=DatasetSpec.mask_kind, choices=MASK_NAMES,
                   help="sampling pattern family")
    p.add_argument("--accel", type=_domain(low=1), default=4.0, help="acceleration factor R")
    p.add_argument("--acs", type=str, default="auto", help="ACS lines/size or 'auto'")
    p.add_argument("--noise", type=_domain(low=0), default=0.0, help="relative measurement noise")
    p.add_argument("--edge-sigma", type=_domain(low=0), default=1.0, help="phantom band-limit (px)")
    p.add_argument("--shared-mask", type=int, default=0, choices=[0, 1], help="1: one trajectory for all samples")
    p.add_argument("--coil-style", type=str, default="localized", choices=["localized", "quadrature"])
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train the equilibrium operator")
    p.add_argument("--data", type=str, default=None, help="dataset directory")
    p.add_argument("--out", type=str, default=None, help="checkpoint path (.ck01)")
    p.add_argument("--report", type=str, default=None, help="training report CSV path")
    p.add_argument("--epochs", type=_domain(int, 1), default=50)
    p.add_argument("--lr", type=_domain(low=0, above=True), default=1e-4)
    p.add_argument("--blocks", type=_domain(int, 1), default=10)
    p.add_argument("--features", type=_domain(int, 1), default=8)
    p.add_argument("--variant", type=str, default="kspace", choices=["kspace", "hybrid"])
    p.add_argument("--seed", type=int, default=0, help="weight init seed")
    p.add_argument("--shuffle-seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("recon", help="reconstruct one measurement with a checkpoint")
    p.add_argument("--ckpt", type=str, default=None)
    p.add_argument("--method", type=str, default="anderson", choices=["anderson", "picard"])
    add_solve_flags(p)
    p.set_defaults(handler=cmd_recon)

    p = sub.add_parser("baseline", help="run a classical baseline reconstruction")
    p.add_argument("--method", type=str, default=None, choices=["zerofill", "spirit"])
    p.add_argument("--spirit-kernel", type=_domain(int, 1), default=5)
    p.add_argument("--spirit-ridge", type=_domain(low=0), default=1e-2)
    p.add_argument("--spirit-iters", type=_domain(int, 1), default=100)
    add_solve_flags(p)
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("verify", help="run the convergence/robustness certification")
    p.add_argument("--ckpt", type=str, default=None)
    p.add_argument("--data", type=str, default=None, help="dataset directory")
    p.add_argument("--out", type=str, default=None, help="report directory")
    p.add_argument("--samples", type=_domain(int, 1), default=4, help="samples for the convergence check")
    p.add_argument("--inits", type=_domain(int, 2), default=3, help="initializations per sample")
    p.add_argument("--noise-levels", type=_domain(low=0, many=True), default="0.005,0.01,0.05,0.1")
    # --trials 0 still checks the recursion, which draws its own noise
    p.add_argument("--trials", type=_domain(int, 0), default=20, help="trials per noise level")
    p.add_argument("--init-levels", type=_domain(many=True), default="0.5,2.0")
    p.add_argument("--init-trials", type=_domain(int, 1), default=3)
    p.add_argument("--tol", type=_domain(low=0, above=True), default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("eval", help="NMSE/PSNR/SSIM of reconstructions vs references")
    p.add_argument("--recon", type=str, default=None, help=".ct01 file or directory")
    p.add_argument("--ref", type=str, default=None, help=".ct01 file or directory")
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    add_common(p)
    p.set_defaults(handler=cmd_eval)

    return parser


REQUIRED = {
    "gen-data": ("out",),
    "train": ("data", "out"),
    "recon": ("ckpt", "meas", "mask", "out"),
    "baseline": ("method", "meas", "mask", "out"),
    "verify": ("ckpt", "data", "out"),
    "eval": ("recon", "ref"),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # config lines become flags ahead of the given ones: argparse checks
            # both alike, and the given flags, however abbreviated, come last and win
            cfg = _load_config(ns.config)
            unknown = [k for k in cfg if k not in vars(ns) or k in ("config", "command", "handler")]
            if unknown:
                raise ConfigurationError(
                    f"config keys name no flag of {ns.command}: {', '.join(unknown)}"
                )
            at = argv.index(ns.command) + 1
            lines = [f"--{k.replace('_', '-')}={v}" for k, v in cfg.items()]
            ns = parser.parse_args(argv[:at] + lines + argv[at:])
        missing = [f"--{k.replace('_', '-')}" for k in REQUIRED[ns.command] if getattr(ns, k) is None]
        if missing:
            raise ConfigurationError(f"missing required arguments: {', '.join(missing)}")
        return ns.handler(ns)
    except (ConfigurationError, InvalidInputError, ShapeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CertificateError, TrainingError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
