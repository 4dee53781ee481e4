"""Command-line surface: ``deqpocs <gen-data|train|recon|baseline|verify|eval>``.

Every command is deterministic given its flags (all randomness is seeded
via flags), writes only the artifacts it names, and uses the exit-code
contract: 0 success, 1 check/quality failure, 2 usage or I/O error. Flags
override values from an optional ``--config`` file of ``key=value`` lines
(keys are flag names; ``#`` starts a comment). The ``DEQPOCS_THREADS``
environment variable caps the harness's threads, the calling one included.
"""

from __future__ import annotations

import argparse
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
from .phantom import DatasetSpec, load_dataset, make_dataset, save_dataset
from .sampling import Measurement, load_mk01
from .solvers import diagnostics_csv
from .spirit import calibrate_kernels, extract_acs, spirit_pocs_recon
from .tensors import load_ct01, save_ct01
from .training import SolverSettings, TrainConfig, reconstruct, train, zero_fill

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


def _apply_config(parser: argparse.ArgumentParser, ns: argparse.Namespace, argv) -> None:
    """Overlay config-file values beneath explicitly passed flags."""
    if not getattr(ns, "config", None):
        return
    cfg = _load_config(ns.config)
    passed = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    for action in parser._actions:
        key = action.dest
        if key in cfg and key not in passed:
            value = cfg[key]
            setattr(ns, key, action.type(value) if action.type else value)


def _parse_levels(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_gen_data(ns) -> int:
    if ns.accel < 1:
        raise ConfigurationError(f"--accel must be >= 1, got {ns.accel}")
    if ns.n < 1:
        raise ConfigurationError("--n must be >= 1")
    acs = None if ns.acs in (None, "auto") else int(ns.acs)
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
    if ns.epochs < 1:
        raise ConfigurationError(f"--epochs must be >= 1, got {ns.epochs}")
    if ns.lr <= 0:
        raise ConfigurationError(f"--lr must be positive, got {ns.lr}")
    for flag, value in (("--fwd-tol", ns.fwd_tol), ("--bwd-tol", ns.bwd_tol)):
        if not value > 0:
            raise ConfigurationError(f"{flag} must be positive, got {value}")
    pairs = _load_training_pairs(ns.data)
    config = TrainConfig(
        epochs=ns.epochs,
        learning_rate=ns.lr,
        variant=ns.variant,
        blocks=ns.blocks,
        features=ns.features,
        init_seed=ns.seed,
        shuffle_seed=ns.shuffle_seed,
        forward_solver=SolverSettings(method=ns.fwd_method, tol=ns.fwd_tol),
        backward_tol=ns.bwd_tol,
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
            fh.write(diagnostics_csv(residual_result, include_timing=False))


def _check_solve_flags(ns) -> None:
    """The ``recon`` and ``baseline`` flags that the solvers would refuse."""
    if not ns.tol > 0:
        raise ConfigurationError(f"--tol must be positive, got {ns.tol}")
    if ns.spirit_iters < 1:
        raise ConfigurationError(f"--spirit-iters must be >= 1, got {ns.spirit_iters}")


def _run_baseline(method, meas, ns):
    if method == "zerofill":
        return zero_fill(meas), None
    kernels = calibrate_kernels(extract_acs(meas), k=ns.spirit_kernel, lam_rel=ns.spirit_ridge)
    print(f"spirit: calibrated {ns.spirit_kernel}x{ns.spirit_kernel} kernels")
    result = spirit_pocs_recon(kernels, meas, max_iter=ns.spirit_iters, tol=ns.tol)
    return result.solution, result


def cmd_recon(ns) -> int:
    _check_solve_flags(ns)
    params, stored_l = load_checkpoint(ns.ckpt)
    meas = _load_measurement(ns.meas, ns.mask)
    settings = SolverSettings(method=ns.method, tol=ns.tol)
    result = reconstruct(params, meas, settings=settings)
    _write_recon_outputs(ns.out, "recon", result.solution, result)
    print(
        f"recon: {result.iterations} iterations, converged={result.converged}, "
        f"L={stored_l:.4f}"
    )
    if ns.baseline:
        base_k, _ = _run_baseline(ns.baseline, meas, ns)
        _write_recon_outputs(ns.out, f"baseline_{ns.baseline}", base_k)
    if ns.ref:
        ref = load_ct01(ns.ref)
        m = evaluate_kspace_pair(result.solution, ref)
        zf = evaluate_kspace_pair(zero_fill(meas), ref)
        print(f"psnr: recon={m['psnr']:.4f} dB zero-fill={zf['psnr']:.4f} dB")
        print(f"nmse: recon={m['nmse']:.6g} zero-fill={zf['nmse']:.6g}")
        print(f"ssim: recon={m['ssim']:.6g} zero-fill={zf['ssim']:.6g}")
    return 0


def cmd_baseline(ns) -> int:
    _check_solve_flags(ns)
    meas = _load_measurement(ns.meas, ns.mask)
    base_k, result = _run_baseline(ns.method, meas, ns)
    _write_recon_outputs(ns.out, f"baseline_{ns.method}", base_k, result)
    if ns.ref:
        ref = load_ct01(ns.ref)
        m = evaluate_kspace_pair(base_k, ref)
        print(f"psnr: {m['psnr']:.4f} dB nmse: {m['nmse']:.6g} ssim: {m['ssim']:.6g}")
    return 0


def cmd_verify(ns) -> int:
    if ns.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {ns.samples}")
    if not ns.slack >= 1:
        raise ConfigurationError(f"--slack must be >= 1, got {ns.slack}")
    if not ns.tol > 0:
        raise ConfigurationError(f"--tol must be positive, got {ns.tol}")
    params, stored_l = load_checkpoint(ns.ckpt)
    samples = load_dataset(ns.data)
    measurements = [s.measurement for s in samples[: ns.samples]]
    os.makedirs(ns.out, exist_ok=True)
    conv = verify_convergence(
        params,
        measurements,
        inits_per_sample=ns.inits,
        slack=ns.slack,
        tol=ns.tol,
        seed=ns.seed,
    )
    # each check reuses sample 0's clean equilibrium instead of solving it again
    rob = verify_robustness(
        params,
        measurements[0],
        delta_rels=_parse_levels(ns.noise_levels),
        trials_per_level=ns.trials,
        seed=ns.seed,
        tol=ns.tol,
        clean=conv.clean,
    )
    init = verify_init_independence(
        params,
        measurements[0],
        levels=_parse_levels(ns.init_levels),
        trials_per_level=ns.init_trials,
        seed=ns.seed,
        tol=ns.tol,
        clean=conv.clean,
    )
    for name, report in (("convergence", conv), ("robustness", rob), ("init_independence", init)):
        with open(os.path.join(ns.out, name + ".csv"), "w") as fh:
            fh.write(report.to_csv())
    lines = [conv.summary(), rob.summary(), init.summary()]
    all_pass = conv.all_pass and rob.all_within_bound and init.all_pass
    lines.append("overall: " + ("PASS" if all_pass else "FAIL"))
    summary = "\n".join(lines) + "\n"
    with open(os.path.join(ns.out, "summary.txt"), "w") as fh:
        fh.write(summary)
    print(summary, end="")
    return 0 if all_pass else CHECK_FAILURE


def _collect_pairs(recon_path, ref_path):
    if os.path.isdir(recon_path) != os.path.isdir(ref_path):
        raise ConfigurationError("--recon and --ref must both be files or both directories")
    if os.path.isdir(recon_path):
        recon_files = sorted(
            os.path.join(recon_path, f) for f in os.listdir(recon_path) if f.endswith(".ct01")
        )
        ref_files = sorted(
            os.path.join(ref_path, f) for f in os.listdir(ref_path) if f.endswith(".ct01")
        )
        if len(recon_files) != len(ref_files) or not recon_files:
            raise ConfigurationError(
                f"directory mismatch: {len(recon_files)} reconstructions vs "
                f"{len(ref_files)} references"
            )
        ids = [os.path.splitext(os.path.basename(f))[0] for f in recon_files]
        return ids, list(zip(recon_files, ref_files))
    return [os.path.splitext(os.path.basename(recon_path))[0]], [(recon_path, ref_path)]


def cmd_eval(ns) -> int:
    ids, file_pairs = _collect_pairs(ns.recon, ns.ref)
    pairs = [(load_ct01(r), load_ct01(f)) for r, f in file_pairs]
    report = evaluate_kspace_set(pairs, sample_ids=ids)
    csv = report.to_csv()
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(csv)
    print(csv, end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deqpocs",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="key=value defaults file")

    p = sub.add_parser("gen-data", help="generate a synthetic multi-coil dataset")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--n", type=int, default=8, help="number of samples")
    p.add_argument("--size", type=int, default=32, help="grid size (square)")
    p.add_argument("--coils", type=int, default=4, help="number of coils")
    p.add_argument(
        "--mask",
        type=str,
        default="1d-cal",
        choices=["1d-cal", "2d-cal", "1d-free", "2d-free",
                 "1d-calibrated", "2d-calibrated"],
        help="sampling pattern family",
    )
    p.add_argument("--accel", type=float, default=4.0, help="acceleration factor R")
    p.add_argument("--acs", type=str, default="auto", help="ACS lines/size or 'auto'")
    p.add_argument("--noise", type=float, default=0.0, help="relative measurement noise")
    p.add_argument("--edge-sigma", type=float, default=1.0, help="phantom band-limit (px)")
    p.add_argument("--shared-mask", type=int, default=0, help="1: one trajectory for all samples")
    p.add_argument("--coil-style", type=str, default="localized", choices=["localized", "quadrature"])
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(handler=cmd_gen_data)

    p = sub.add_parser("train", help="train the equilibrium operator")
    p.add_argument("--data", type=str, default=None, help="dataset directory")
    p.add_argument("--out", type=str, default=None, help="checkpoint path (.ck01)")
    p.add_argument("--report", type=str, default=None, help="training report CSV path")
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--features", type=int, default=8)
    p.add_argument("--variant", type=str, default="kspace", choices=["kspace", "hybrid"])
    p.add_argument("--seed", type=int, default=0, help="weight init seed")
    p.add_argument("--shuffle-seed", type=int, default=0)
    p.add_argument("--fwd-method", type=str, default="anderson", choices=["anderson", "picard"])
    p.add_argument("--fwd-tol", type=float, default=1e-4)
    p.add_argument("--bwd-tol", type=float, default=1e-4)
    add_common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("recon", help="reconstruct one measurement with a checkpoint")
    p.add_argument("--ckpt", type=str, default=None)
    p.add_argument("--meas", type=str, default=None, help="measurement .ct01")
    p.add_argument("--mask", type=str, default=None, help="mask .mk01")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--ref", type=str, default=None, help="reference full k-space .ct01")
    p.add_argument("--baseline", type=str, default=None, choices=["zerofill", "spirit"])
    p.add_argument("--method", type=str, default="anderson", choices=["anderson", "picard"])
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--spirit-kernel", type=int, default=5)
    p.add_argument("--spirit-ridge", type=float, default=1e-2)
    p.add_argument("--spirit-iters", type=int, default=100)
    add_common(p)
    p.set_defaults(handler=cmd_recon)

    p = sub.add_parser("baseline", help="run a classical baseline reconstruction")
    p.add_argument("--method", type=str, default=None, choices=["zerofill", "spirit"])
    p.add_argument("--meas", type=str, default=None)
    p.add_argument("--mask", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--ref", type=str, default=None)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--spirit-kernel", type=int, default=5)
    p.add_argument("--spirit-ridge", type=float, default=1e-2)
    p.add_argument("--spirit-iters", type=int, default=100)
    add_common(p)
    p.set_defaults(handler=cmd_baseline)

    p = sub.add_parser("verify", help="run the convergence/robustness certification")
    p.add_argument("--ckpt", type=str, default=None)
    p.add_argument("--data", type=str, default=None, help="dataset directory")
    p.add_argument("--out", type=str, default=None, help="report directory")
    p.add_argument("--samples", type=int, default=4, help="samples for the convergence check")
    p.add_argument("--inits", type=int, default=3, help="initializations per sample")
    p.add_argument("--slack", type=float, default=1.05, help="geometric-rate slack")
    p.add_argument("--noise-levels", type=str, default="0.005,0.01,0.05,0.1")
    p.add_argument("--trials", type=int, default=20, help="trials per noise level")
    p.add_argument("--init-levels", type=str, default="0.5,2.0")
    p.add_argument("--init-trials", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-5)
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
    ns = parser.parse_args(argv)
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = sub_actions[0].choices[ns.command]
    try:
        _apply_config(subparser, ns, argv)
        missing = [f"--{k.replace('_', '-')}" for k in REQUIRED[ns.command] if getattr(ns, k) is None]
        if missing:
            print(f"error: missing required arguments: {', '.join(missing)}", file=sys.stderr)
            return USAGE_ERROR
        return ns.handler(ns)
    except (ConfigurationError, InvalidInputError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CertificateError, TrainingError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
