"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Heavy artifacts (the
certified harness operator and the desk-scale training run) are built once
per session and shared across criteria; criterion 9 re-runs the producing
pipelines with identical seeds and compares raw bytes.
"""

import time

import numpy as np
import pytest

from deqpocs.harness import verify_convergence, verify_robustness
from deqpocs.metrics import image_from_kspace, nmse, psnr, ssim, ssos
from deqpocs.network import (
    certified_lipschitz,
    init_params,
    pack_params,
    unpack_params,
    write_ck01_bytes,
)
from deqpocs.phantom import DatasetSpec, make_dataset, save_dataset
from deqpocs.rng import RandomStream, derive_seed
from deqpocs.sampling import apply_sampling, make_mask
from deqpocs.solvers import picard_solve
from deqpocs.spirit import calibrate_kernels
from deqpocs.tensors import (
    conv2d_complex,
    fft2_centered,
    frob,
    gaussian_tensor,
    spectral_norm_power_iter,
)
from deqpocs.training import (
    TrainConfig,
    implicit_backward,
    make_pocs_operator,
    reconstruct,
    train,
)
from oracles import (
    dense_calibration_reference,
    dft2_reference,
    materialize_linear_operator,
    ssim_reference,
)

TOL = 1e-5


def verdict(number, label, ok, extra=""):
    print(f"\nACCEPTANCE {number} [{label}]: {'PASS' if ok else 'FAIL'} {extra}")
    return ok


# ---------------------------------------------------------------------------
# Shared artifacts
# ---------------------------------------------------------------------------

HARNESS_DATA = DatasetSpec(
    n=4, height=32, width=32, coils=4, mask_kind="1d-calibrated", accel=4.0, seed=11
)

TRAIN_DATA = DatasetSpec(
    n=8,
    height=16,
    width=16,
    coils=2,
    mask_kind="1d-calibrated",
    accel=2.0,
    seed=1,
    edge_sigma=1.8,
    shared_mask=True,
)
TEST_DATA = DatasetSpec(
    n=4,
    height=16,
    width=16,
    coils=2,
    mask_kind="1d-calibrated",
    accel=2.0,
    seed=2,
    edge_sigma=1.8,
    shared_mask=True,
)
TRAIN_CONFIG = TrainConfig(epochs=50, blocks=1, features=16, variant="hybrid")


@pytest.fixture(scope="module")
def harness_problem():
    params = init_params("kspace", 10, 16, 4, seed=0, grid=(32, 32))
    measurements = [m for _, m in make_dataset(HARNESS_DATA)]
    return params, measurements


@pytest.fixture(scope="module")
def shared_reports():
    # CSVs produced by criteria 1 and 3, compared bytewise by criterion 9
    return {}


def run_convergence(params, measurements):
    return verify_convergence(
        params, measurements, inits_per_sample=3, slack=1.05, tol=TOL, seed=3
    )


def run_robustness(params, measurements):
    return verify_robustness(
        params,
        measurements[0],
        delta_rels=(0.005, 0.01, 0.05, 0.1),
        trials_per_level=20,
        seed=5,
        tol=TOL,
    )


@pytest.fixture(scope="module")
def trained():
    dataset = [(s.kspace, m) for s, m in make_dataset(TRAIN_DATA)]
    t0 = time.perf_counter()
    params, report = train(dataset, TRAIN_CONFIG)
    elapsed = time.perf_counter() - t0
    return {
        "params": params,
        "report": report,
        "seconds": elapsed,
        "test_set": make_dataset(TEST_DATA),
    }


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_convergence_rate(harness_problem, shared_reports):
    """Plain iteration under a certified operator follows the geometric
    envelope r_k <= 1.05 * L^k * r_0 for >= 3 starts on >= 4 samples."""
    params, measurements = harness_problem
    t0 = time.perf_counter()
    cert = certified_lipschitz(params)
    assert cert.contraction_bound <= 0.99
    report = run_convergence(params, measurements)
    shared_reports["convergence_csv"] = report.to_csv()
    elapsed = time.perf_counter() - t0
    ok = report.all_pass and elapsed < 120.0
    assert verdict(
        1,
        "convergence rate",
        ok,
        f"(L={cert.contraction_bound:.4f}, {len(report.runs)} runs, {elapsed:.1f}s)",
    )


def test_criterion_2_initialization_independence(trained):
    """Equilibria from y, y + 50% noise, and y + 200% noise pairwise agree
    within 10 * tol."""
    t0 = time.perf_counter()
    params = trained["params"]
    _, meas = trained["test_set"][0][0], trained["test_set"][0][1]
    scale = frob(meas.y)
    solutions = []
    for i, level in enumerate((0.0, 0.5, 2.0)):
        if level == 0.0:
            x0 = meas.y
        else:
            noise = gaussian_tensor(meas.y.shape, RandomStream(derive_seed(21, i)))
            x0 = meas.y + noise * (level * scale / frob(noise))
        solutions.append(reconstruct(params, meas, x0=x0).solution)
    threshold = 10.0 * TOL * max(1.0, frob(solutions[0]))
    worst = max(
        frob(solutions[a] - solutions[b])
        for a in range(3)
        for b in range(a + 1, 3)
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= threshold and elapsed < 120.0
    assert verdict(
        2,
        "initialization independence",
        ok,
        f"(max pairwise {worst:.3g} <= {threshold:.3g}, {elapsed:.1f}s)",
    )


def test_criterion_3_perturbation_bound(harness_problem, shared_reports):
    """Noisy-vs-clean equilibrium distance stays within delta/(1-L) plus
    solver slack for four noise levels, 20 trials each."""
    params, measurements = harness_problem
    t0 = time.perf_counter()
    report = run_robustness(params, measurements)
    shared_reports["robustness_csv"] = report.to_csv()
    elapsed = time.perf_counter() - t0
    ok = (
        report.all_within_bound
        and len(report.trials) == 80
        and all(t.observed <= t.bound for t in report.trials)
        and elapsed < 600.0
    )
    worst_margin = min(t.margin / t.bound for t in report.trials)
    assert verdict(
        3,
        "perturbation bound",
        ok,
        f"(80 trials, min relative margin {worst_margin:.3f}, {elapsed:.1f}s)",
    )


def test_criterion_4_implicit_gradient():
    """Equilibrium gradient matches central finite differences through the
    full solve with relative error < 1e-3 over 20+ random directions."""
    t0 = time.perf_counter()
    x_full = gaussian_tensor((8, 8, 2), RandomStream(2024))
    mask = make_mask("1d-calibrated", 8, 8, 2, acs=2, seed=5)
    meas = apply_sampling(x_full, mask)
    params = init_params("kspace", 1, 4, 2, seed=9, grid=(8, 8))
    bias_stream = RandomStream(77)
    for blk in params.blocks:  # move pre-activations off the leaky-ReLU kink
        for j, b in enumerate(blk.kspace_branch.biases):
            blk.kspace_branch.biases[j] = 0.3 * gaussian_tensor(
                (1, 1, b.size), bias_stream
            ).reshape(b.shape)

    def tight_solve(p):  # untightened Picard from the measurement
        return picard_solve(make_pocs_operator(p, meas), meas.y, tol=1e-11, max_iter=8000)

    def pipeline_loss(vec):
        return frob(tight_solve(unpack_params(params, vec)).solution - x_full) ** 2

    base = tight_solve(params)
    grad, _ = implicit_backward(
        params, base.solution, meas, 2.0 * (base.solution - x_full), tol=1e-11, max_iter=8000
    )
    vec = pack_params(params)
    stream = RandomStream(123)
    h = 1e-4
    worst = 0.0
    for _ in range(20):
        d = np.array(stream.gaussians(vec.size))
        d /= np.linalg.norm(d)
        fd = (pipeline_loss(vec + h * d) - pipeline_loss(vec - h * d)) / (2 * h)
        worst = max(worst, abs(fd - float(grad @ d)) / max(abs(fd), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 300.0
    assert verdict(
        4, "implicit gradient", ok, f"(worst rel err {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_5_training_efficacy(trained):
    """Desk-scale training halves the first-epoch loss and beats the
    zero-filled baseline on every held-out sample."""
    report = trained["report"]
    params = trained["params"]
    ratio = report.epoch_mean_loss[-1] / report.epoch_mean_loss[0]
    margins = []
    for sample, meas in trained["test_set"]:
        res = reconstruct(params, meas)
        p_rec = psnr(image_from_kspace(res.solution), sample.reference)
        p_zf = psnr(image_from_kspace(meas.y), sample.reference)
        margins.append(p_rec - p_zf)
    ok = (
        ratio < 0.5
        and all(m > 0 for m in margins)
        and trained["seconds"] < 1800.0
    )
    assert verdict(
        5,
        "training efficacy",
        ok,
        f"(loss ratio {ratio:.3f}, PSNR margins "
        f"{['%+.2f' % m for m in margins]} dB, {trained['seconds']:.0f}s)",
    )


def test_criterion_6_spirit_oracle():
    """Calibration matches the dense brute-force ridge solve and recovers the
    shifted-coil-pair construction."""
    t0 = time.perf_counter()
    acs = gaussian_tensor((24, 24, 3), RandomStream(3))
    got = calibrate_kernels(acs, k=5, lam_rel=1e-2)
    want = dense_calibration_reference(acs, 5, 1e-2)
    rel = frob(got.taps - want) / frob(want)

    base = gaussian_tensor((24, 24, 1), RandomStream(5))[:, :, 0]
    pair = np.zeros((24, 24, 2), dtype=complex)
    pair[:, :, 0] = base
    pair[:, 1:, 1] = base[:, :-1]
    kern = calibrate_kernels(pair, k=3, lam_rel=1e-8)
    w = kern.taps[:, :, 0, 1]
    tap_err = abs(w[1, 0] - 1.0)
    rest = w.copy()
    rest[1, 0] = 0.0
    tap_err = max(tap_err, float(np.abs(rest).max()))
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and tap_err < 1e-4 and elapsed < 60.0
    assert verdict(
        6,
        "calibration oracle",
        ok,
        f"(dense rel err {rel:.2e}, shifted-pair tap err {tap_err:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_7_numerical_core_oracles():
    """FFT, convolution, spectral norm and image metrics match their
    independent oracles at the stated tolerances."""
    t0 = time.perf_counter()
    # FFT vs direct DFT double sum on 8x8
    x = gaussian_tensor((8, 8, 2), RandomStream(31))
    fft_err = frob(fft2_centered(x) - dft2_reference(x)) / frob(x)

    # convolution vs materialized matrix multiply
    xc = gaussian_tensor((6, 6, 2), RandomStream(32))
    k = gaussian_tensor((9, 2, 3), RandomStream(33)).reshape(3, 3, 2, 3)
    dense = materialize_linear_operator(lambda v: conv2d_complex(v, k), (6, 6, 2))
    conv_err = frob(conv2d_complex(xc, k) - (dense @ xc.ravel()).reshape(6, 6, 3))

    # power iteration vs dense SVD on a 6x6 grid
    k2 = gaussian_tensor((9, 2, 2), RandomStream(40)).reshape(3, 3, 2, 2)
    dense2 = materialize_linear_operator(lambda v: conv2d_complex(v, k2), (6, 6, 2))
    svd_top = np.linalg.svd(dense2, compute_uv=False)[0]
    power = spectral_norm_power_iter(k2, (6, 6), iters=50, seed=0)
    sigma_err = abs(power - svd_top)

    # metrics vs scalar-loop oracles
    gen_a = np.abs(gaussian_tensor((16, 16, 1), RandomStream(35))[:, :, 0])
    gen_b = np.abs(gaussian_tensor((16, 16, 1), RandomStream(36))[:, :, 0])
    ssim_err = abs(ssim(gen_a, gen_b) - ssim_reference(gen_a, gen_b))
    mse = float(np.mean((gen_a - gen_b) ** 2))
    psnr_err = abs(psnr(gen_a, gen_b) - 10 * np.log10(gen_b.max() ** 2 / mse))
    nmse_err = abs(
        nmse(gen_a, gen_b) - float(np.sum((gen_a - gen_b) ** 2) / np.sum(gen_b**2))
    )
    coil = gaussian_tensor((8, 8, 3), RandomStream(37))
    ssos_want = np.sqrt(sum(np.abs(coil[:, :, c]) ** 2 for c in range(3)))
    ssos_err = float(np.abs(ssos(coil) - ssos_want).max())

    elapsed = time.perf_counter() - t0
    checks = {
        "fft": fft_err <= 1e-6,
        "conv": conv_err <= 1e-6,
        "sigma": sigma_err <= 1e-3,
        "ssim": ssim_err <= 1e-6,
        "psnr": psnr_err <= 1e-6,
        "nmse": nmse_err <= 1e-9,
        "ssos": ssos_err <= 1e-6,
    }
    ok = all(checks.values()) and elapsed < 60.0
    assert verdict(
        7,
        "numerical core oracles",
        ok,
        f"({', '.join(k for k, v in checks.items() if v)} ok, {elapsed:.1f}s)",
    )


def test_criterion_8_certificate_maintenance(trained):
    """Every optimizer step of the training run kept the certificate
    at or below 0.99."""
    report = trained["report"]
    steps = len(report.step_certificates)
    worst = max(report.step_certificates)
    violations = sum(1 for l in report.step_certificates if l > 0.99 + 1e-12)
    ok = steps == TRAIN_CONFIG.epochs * TRAIN_DATA.n and violations == 0
    assert verdict(
        8,
        "certificate maintenance",
        ok,
        f"({steps} steps, max L {worst:.4f}, {violations} violations)",
    )


def test_criterion_9_determinism(tmp_path, trained, harness_problem, shared_reports):
    """Re-running each artifact-producing pipeline with identical seeds
    yields byte-identical datasets, checkpoints and CSV reports."""
    t0 = time.perf_counter()
    # datasets: generate the harness dataset twice and compare all bytes
    dirs = [tmp_path / "d1", tmp_path / "d2"]
    for d in dirs:
        save_dataset(d, HARNESS_DATA, make_dataset(HARNESS_DATA))
    dataset_ok = all(
        (dirs[0] / f.name).read_bytes() == (dirs[1] / f.name).read_bytes()
        for f in sorted(dirs[0].iterdir())
    )

    # checkpoint + training report: rerun criterion 5's training end to end
    dataset = [(s.kspace, m) for s, m in make_dataset(TRAIN_DATA)]
    params2, report2 = train(dataset, TRAIN_CONFIG)
    ckpt_ok = write_ck01_bytes(trained["params"]) == write_ck01_bytes(params2)
    report_ok = trained["report"].to_csv() == report2.to_csv()

    # harness CSVs: rerun criteria 1 and 3 and compare to their stored output
    params, measurements = harness_problem
    conv_first = shared_reports.get("convergence_csv") or run_convergence(
        params, measurements
    ).to_csv()
    rob_first = shared_reports.get("robustness_csv") or run_robustness(
        params, measurements
    ).to_csv()
    conv_ok = conv_first == run_convergence(params, measurements).to_csv()
    rob_ok = rob_first == run_robustness(params, measurements).to_csv()

    elapsed = time.perf_counter() - t0
    ok = dataset_ok and ckpt_ok and report_ok and conv_ok and rob_ok
    assert verdict(
        9,
        "determinism",
        ok,
        f"(datasets {dataset_ok}, checkpoint {ckpt_ok}, train report {report_ok}, "
        f"harness reports {conv_ok and rob_ok}, {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# Supporting integration checks on the trained operator (not numbered
# criteria, but the remaining end-to-end claims about trained checkpoints)
# ---------------------------------------------------------------------------

def test_trained_operator_convergence_and_uniqueness(trained):
    from deqpocs.harness import verify_init_independence

    params = trained["params"]
    measurements = [m for _, m in trained["test_set"]]
    conv = verify_convergence(params, measurements, inits_per_sample=3, slack=1.05, tol=TOL)
    assert conv.all_pass
    init = verify_init_independence(
        params, measurements[0], levels=(0.5, 2.0), trials_per_level=2, tol=TOL
    )
    assert init.all_pass


def test_trained_operator_mask_transfer(trained):
    from deqpocs.harness import verify_mask_transfer

    params = trained["params"]
    fulls = [s.kspace for s, _ in trained["test_set"]]
    report = verify_mask_transfer(params, fulls, mask_kind="1d-free", accel=4.0, seed=9)
    for p_rec, p_zf in zip(report.metrics.psnr_values, report.zero_fill_metrics.psnr_values):
        assert p_rec > p_zf
    wide = verify_mask_transfer(params, fulls[:1], mask_kind="2d-free", accel=10.0, seed=3)
    for vals in (wide.metrics.psnr_values, wide.metrics.nmse_values, wide.metrics.ssim_values):
        assert all(np.isfinite(v) for v in vals)
