"""Smoke runs of the end-to-end study scripts at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_desk_study(tmp_path):
    done = run_script("run_desk_study.py", "--out", "desk", "--epochs", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    out = tmp_path / "desk"
    for mask in ("1d-cal", "1d-free", "2d-free"):
        for method in ("model", "zerofill"):
            lines = (out / f"metrics_{mask}_{method}.csv").read_text().splitlines()
            assert lines[0] == "sample_id,nmse,psnr,ssim"
            assert [line.split(",")[0] for line in lines[1:]] == [
                *(f"sample_{i:04d}" for i in range(4)), "mean", "std"
            ]
    for check in ("robustness.csv", "init_independence.csv"):
        assert (out / "verify" / check).exists()


def test_snapshot_outputs(tmp_path):
    done = run_script("snapshot_outputs.py", "--out", "snap", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    log = (tmp_path / "snap" / "log.txt").read_text()
    codes = [line for line in log.splitlines() if line.startswith("exit ")]
    # every model loads, the trained one included, and runs on a larger grid
    # than it records; training from given parameters, an API call, logs exit
    # 0 too; the last four are usage errors
    assert codes == ["exit 0"] * 25 + ["exit 2"] * 4
    for report in ("trained.ck01.report.csv", "given.ck01", "given.ck01.report.csv",
                   "verify_seed2_threads1/robustness.csv", "recon_init/recon_residuals.csv",
                   "recon_48/recon.ct01",
                   "baseline_spirit/baseline_spirit.ct01", "mask_2d-cal/sample_0001_mask.mk01",
                   "mask_2d-free/sample_0001_mask.mk01", "noisy64/sample_0000_meas.ct01",
                   "init_hybrid3.ck01", "kspace_lr003.ck01", "eval_file.csv", "eval_dir.csv"):
        assert (tmp_path / "snap" / report).exists()
