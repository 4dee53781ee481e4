"""Smoke runs of the end-to-end study scripts at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INTERFERENCE_FLAGS = [
    "--epochs", "1", "--trials", "1", "--noise-levels", "0.01", "--init-levels", "0.5",
]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def test_interference_study_trains_then_loads(tmp_path):
    first = run_script("run_interference_study.py", "--out", "a", *INTERFERENCE_FLAGS,
                       cwd=tmp_path)
    assert first.returncode == 0, first.stdout + first.stderr
    ckpt = tmp_path / "a" / "model.ck01"
    assert ckpt.exists()
    second = run_script("run_interference_study.py", "--out", "b", "--ckpt", str(ckpt),
                        *INTERFERENCE_FLAGS, cwd=tmp_path)
    assert second.returncode == 0, second.stdout + second.stderr
    assert f"loaded {ckpt}" in second.stdout


def test_desk_study(tmp_path):
    done = run_script("run_desk_study.py", "--out", "desk", "--epochs", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert (tmp_path / "desk" / "metrics_model.csv").exists()


def test_snapshot_outputs(tmp_path):
    done = run_script("snapshot_outputs.py", "--out", "snap", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    log = (tmp_path / "snap" / "log.txt").read_text()
    codes = [line for line in log.splitlines() if line.startswith("exit ")]
    # every model loads, the trained one included; the last four are usage errors
    assert codes == ["exit 0"] * 17 + ["exit 2"] * 4
    for report in ("trained.ck01.report.csv", "verify_seed2_threads1/robustness.csv",
                   "recon_init/recon_residuals.csv", "baseline_spirit/baseline_spirit.ct01",
                   "mask_2d-cal/sample_0001_mask.mk01", "mask_2d-free/sample_0001_mask.mk01"):
        assert (tmp_path / "snap" / report).exists()
