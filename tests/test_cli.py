import os
import struct

import numpy as np
import pytest

from deqpocs.cli import main, write_pgm16
from deqpocs.network import init_params, load_checkpoint, save_checkpoint
from deqpocs.tensors import load_ct01


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "ds"
    code = run(
        "gen-data", "--out", str(d), "--n", "3", "--size", "16", "--coils", "2",
        "--mask", "1d-cal", "--accel", "2", "--seed", "1",
    )
    assert code == 0
    return d


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    ck = tmp_path_factory.mktemp("ck") / "net.ck01"
    code = run(
        "train", "--data", str(dataset_dir), "--out", str(ck),
        "--epochs", "2", "--blocks", "1", "--features", "4", "--seed", "0",
    )
    assert code == 0
    return ck


@pytest.fixture(scope="module")
def small_grid_checkpoint(tmp_path_factory):
    """An untrained model certified on 8x8, smaller than the 16x16 dataset."""
    ck = tmp_path_factory.mktemp("ck8") / "net8.ck01"
    save_checkpoint(ck, init_params("kspace", 1, 4, 2, seed=0, grid=(8, 8)))
    return ck


class TestGenData:
    def test_writes_expected_files(self, dataset_dir):
        names = sorted(os.listdir(dataset_dir))
        assert "manifest.txt" in names
        assert sum(n.endswith("_full.ct01") for n in names) == 3
        assert sum(n.endswith("_meas.ct01") for n in names) == 3
        assert sum(n.endswith("_mask.mk01") for n in names) == 3

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(
                "gen-data", "--out", str(d), "--n", "2", "--size", "16",
                "--coils", "2", "--mask", "2d-free", "--accel", "4", "--seed", "9",
            ) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_accel_exits_2(self, tmp_path):
        assert run("gen-data", "--out", str(tmp_path / "x"), "--accel", "0.5") == 2

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("gen-data", "--out", str(tmp_path / "x"), "--bogus", "1")
        assert err.value.code == 2


class TestTrain:
    def test_checkpoint_and_report(self, checkpoint):
        assert checkpoint.exists()
        report = checkpoint.with_name(checkpoint.name + ".report.csv")
        lines = report.read_text().strip().split("\n")
        assert lines[0] == "epoch,mean_loss,mean_fwd_iters,mean_bwd_iters,L"
        assert len(lines) == 1 + 2 + 1
        params, stored = load_checkpoint(checkpoint)
        assert stored < 1.0

    def test_zero_epochs_exits_2(self, dataset_dir, tmp_path):
        assert run(
            "train", "--data", str(dataset_dir), "--out", str(tmp_path / "x.ck01"),
            "--epochs", "0",
        ) == 2

    def test_rerun_identical_checkpoint(self, dataset_dir, tmp_path):
        outs = []
        for name in ("r1.ck01", "r2.ck01"):
            path = tmp_path / name
            assert run(
                "train", "--data", str(dataset_dir), "--out", str(path),
                "--epochs", "1", "--blocks", "1", "--features", "4",
            ) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestRecon:
    def test_outputs_and_metrics(self, dataset_dir, checkpoint, tmp_path, capsys):
        out = tmp_path / "recon"
        code = run(
            "recon", "--ckpt", str(checkpoint),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--ref", str(dataset_dir / "sample_0000_full.ct01"),
            "--baseline", "zerofill",
            "--out", str(out),
        )
        assert code == 0
        assert (out / "recon.ct01").exists()
        assert (out / "recon.pgm").exists()
        assert (out / "recon_residuals.csv").read_text().startswith("iteration,residual")
        assert (out / "baseline_zerofill.ct01").exists()
        printed = capsys.readouterr().out
        assert "psnr:" in printed

    def test_missing_checkpoint_exits_2(self, dataset_dir, tmp_path):
        assert run(
            "recon", "--ckpt", str(tmp_path / "nope.ck01"),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--out", str(tmp_path / "o"),
        ) == 2

    def test_corrupted_checkpoint_refused(self, dataset_dir, checkpoint, tmp_path):
        from deqpocs.network import write_ck01_bytes

        params, stored = load_checkpoint(checkpoint)
        params.blocks[0].kspace_branch.kernels[1] *= 3.0
        bad = tmp_path / "bad.ck01"
        raw = bytearray(write_ck01_bytes(params))
        raw[-4:] = struct.pack("<f", stored)  # forge the stored certificate
        bad.write_bytes(bytes(raw))
        code = run(
            "recon", "--ckpt", str(bad),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--out", str(tmp_path / "o2"),
        )
        assert code == 1

    def test_truncated_checkpoint_exits_2(self, dataset_dir, checkpoint, tmp_path):
        cut = tmp_path / "cut.ck01"
        cut.write_bytes(checkpoint.read_bytes()[:-5])
        assert run(
            "recon", "--ckpt", str(cut),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--out", str(tmp_path / "o3"),
        ) == 2

    def test_grid_beyond_certified_grid_exits_1(
        self, dataset_dir, small_grid_checkpoint, tmp_path, capsys
    ):
        code = run(
            "recon", "--ckpt", str(small_grid_checkpoint),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--out", str(tmp_path / "o4"),
        )
        assert code == 1
        assert "exceeds the certified grid 8x8" in capsys.readouterr().err

    def test_fully_sampled_recon_matches_input(self, checkpoint, tmp_path):
        from deqpocs.phantom import DatasetSpec, make_dataset, save_dataset

        spec = DatasetSpec(n=1, height=16, width=16, coils=2, accel=1.0, acs=2, seed=3)
        ds_dir = tmp_path / "full"
        save_dataset(ds_dir, spec, make_dataset(spec))
        out = tmp_path / "ro"
        assert run(
            "recon", "--ckpt", str(checkpoint),
            "--meas", str(ds_dir / "sample_0000_meas.ct01"),
            "--mask", str(ds_dir / "sample_0000_mask.mk01"),
            "--out", str(out),
        ) == 0
        recon = load_ct01(out / "recon.ct01")
        want = load_ct01(ds_dir / "sample_0000_meas.ct01")
        assert np.linalg.norm((recon - want).ravel()) <= 1e-4 * np.linalg.norm(want.ravel())


class TestBaseline:
    def test_spirit_baseline_runs(self, tmp_path):
        d = tmp_path / "wide_acs"
        assert run(
            "gen-data", "--out", str(d), "--n", "1", "--size", "16", "--coils", "2",
            "--mask", "1d-cal", "--accel", "2", "--acs", "6", "--seed", "4",
        ) == 0
        out = tmp_path / "base"
        code = run(
            "baseline", "--method", "spirit",
            "--meas", str(d / "sample_0000_meas.ct01"),
            "--mask", str(d / "sample_0000_mask.mk01"),
            "--ref", str(d / "sample_0000_full.ct01"),
            "--out", str(out), "--spirit-kernel", "3",
        )
        assert code == 0
        assert (out / "baseline_spirit.ct01").exists()
        assert (out / "baseline_spirit.pgm").exists()

    @staticmethod
    def _spirit_on_desk_data(tmp_path, *gen_flags):
        d = tmp_path / "desk"
        assert run(
            "gen-data", "--out", str(d), "--n", "1", "--size", "32", "--coils", "4",
            *gen_flags,
        ) == 0
        return run(
            "baseline", "--method", "spirit",
            "--meas", str(d / "sample_0000_meas.ct01"),
            "--mask", str(d / "sample_0000_mask.mk01"),
            "--ref", str(d / "sample_0000_full.ct01"),
            "--out", str(tmp_path / "base"),
        )

    def test_spirit_on_auto_acs_desk_data_exits_2(self, tmp_path, capsys):
        # the automatic ACS block of a 32x32 R=4 mask is 2 lines wide,
        # narrower than the default 5x5 SPIRiT kernel
        assert self._spirit_on_desk_data(tmp_path, "--seed", "1") == 2
        assert "ACS block 32x2 smaller than kernel 5x5" in capsys.readouterr().err

    def test_spirit_on_wide_acs_desk_data_runs(self, tmp_path, capsys):
        assert self._spirit_on_desk_data(tmp_path, "--seed", "3", "--acs", "6") == 0
        assert "psnr:" in capsys.readouterr().out
        assert (tmp_path / "base" / "baseline_spirit.ct01").exists()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("verify", "--samples", "0"),
        ("verify", "--slack", "0.5"),
        ("verify", "--tol", "0"),
        ("recon", "--tol", "0"),
        ("recon", "--spirit-iters", "0"),
        ("baseline", "--tol", "0"),
        ("baseline", "--spirit-iters", "0"),
        ("train", "--fwd-tol", "0"),
        ("train", "--bwd-tol", "0"),
    ],
)
def test_bad_solver_flag_exits_2(command, flag, value, dataset_dir, checkpoint, tmp_path, capsys):
    """A usage error names its flag on stderr and exits 2; an exception
    escaping ``main`` (a traceback for the user) fails the test."""
    meas = ("--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"))
    required = {
        "verify": ("--ckpt", str(checkpoint), "--data", str(dataset_dir)),
        "recon": ("--ckpt", str(checkpoint), *meas),
        "baseline": ("--method", "spirit", *meas),
        "train": ("--data", str(dataset_dir), "--epochs", "1", "--blocks", "1",
                  "--features", "4"),
    }[command]
    out = tmp_path / ("net.ck01" if command == "train" else "out")
    assert run(command, *required, "--out", str(out), flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err


class TestVerify:
    def test_grid_beyond_certified_grid_exits_1(
        self, dataset_dir, small_grid_checkpoint, tmp_path
    ):
        assert run(
            "verify", "--ckpt", str(small_grid_checkpoint), "--data", str(dataset_dir),
            "--out", str(tmp_path / "verify"), "--samples", "1",
        ) == 1

    def test_bad_thread_cap_exits_2(self, dataset_dir, checkpoint, tmp_path, monkeypatch):
        monkeypatch.setenv("DEQPOCS_THREADS", "abc")
        assert run(
            "verify", "--ckpt", str(checkpoint), "--data", str(dataset_dir),
            "--out", str(tmp_path / "verify"), "--samples", "1",
        ) == 2

    def test_fresh_init_passes(self, dataset_dir, checkpoint, tmp_path):
        out = tmp_path / "verify"
        code = run(
            "verify", "--ckpt", str(checkpoint), "--data", str(dataset_dir),
            "--out", str(out), "--samples", "2", "--inits", "3",
            "--noise-levels", "0.01,0.05", "--trials", "2",
            "--init-levels", "0.5", "--init-trials", "1",
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "overall: PASS" in summary
        for name in ("convergence.csv", "robustness.csv", "init_independence.csv"):
            assert (out / name).exists()


# The flags of the benchmark's verify-desk commands.
VERIFY_DESK_FLAGS = (
    "--samples", "2", "--inits", "2", "--noise-levels", "0.01,0.1", "--trials", "2",
    "--init-levels", "0.5,2.0", "--init-trials", "1",
)
VERIFY_REPORTS = ("convergence.csv", "robustness.csv", "init_independence.csv")


class TestVerifySharedSolve:
    def _verify(self, dataset_dir, checkpoint, out):
        assert run(
            "verify", "--ckpt", str(checkpoint), "--data", str(dataset_dir),
            "--out", str(out), "--seed", "3", *VERIFY_DESK_FLAGS,
        ) == 0
        return [(out / name).read_text() for name in VERIFY_REPORTS]

    def test_solves_each_clean_equilibrium_once(
        self, dataset_dir, checkpoint, tmp_path, monkeypatch
    ):
        import deqpocs.harness as harness
        import deqpocs.training as training

        solves = []

        def counting(module, name):
            solve = getattr(module, name)

            def wrapped(*args, **kwargs):
                solves.append(name)
                return solve(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counting(harness, "picard_solve")
        counting(training, "picard_solve")
        counting(training, "anderson_solve")
        self._verify(dataset_dir, checkpoint, tmp_path / "verify")
        # convergence 2 samples x 2 starts, 4 noisy trials + 2 recursion runs,
        # 2 perturbed starts; the clean solve of sample 0 is shared
        assert len(solves) == 12

    def test_reports_match_separate_checks(self, dataset_dir, checkpoint, tmp_path):
        from deqpocs.harness import (
            verify_convergence,
            verify_init_independence,
            verify_robustness,
        )
        from deqpocs.phantom import load_dataset

        got = self._verify(dataset_dir, checkpoint, tmp_path / "verify")
        params, _ = load_checkpoint(checkpoint)
        measurements = [s.measurement for s in load_dataset(dataset_dir)[:2]]
        want = [
            verify_convergence(params, measurements, inits_per_sample=2, seed=3).to_csv(),
            verify_robustness(
                params, measurements[0], delta_rels=(0.01, 0.1), trials_per_level=2, seed=3
            ).to_csv(),
            verify_init_independence(
                params, measurements[0], levels=(0.5, 2.0), trials_per_level=1, seed=3
            ).to_csv(),
        ]
        assert got == want

    def test_reports_independent_of_thread_count(
        self, dataset_dir, checkpoint, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("DEQPOCS_THREADS", raising=False)
        default = self._verify(dataset_dir, checkpoint, tmp_path / "default")
        monkeypatch.setenv("DEQPOCS_THREADS", "1")
        assert self._verify(dataset_dir, checkpoint, tmp_path / "one") == default


class TestEval:
    def test_eval_identical_files(self, dataset_dir, tmp_path, capsys):
        ref = dataset_dir / "sample_0000_full.ct01"
        out_csv = tmp_path / "m.csv"
        code = run("eval", "--recon", str(ref), "--ref", str(ref), "--out", str(out_csv))
        assert code == 0
        text = out_csv.read_text()
        assert text.splitlines()[0] == "sample_id,nmse,psnr,ssim"
        row = text.splitlines()[1].split(",")
        assert float(row[1]) == 0.0 and float(row[2]) == 99.0

    def test_eval_directory_mismatch_exits_2(self, dataset_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("eval", "--recon", str(empty), "--ref", str(dataset_dir)) == 2


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=5\nsize=16\ncoils=2\naccel=2\n")
        out = tmp_path / "ds"
        assert run(
            "gen-data", "--out", str(out), "--config", str(cfg), "--n", "2",
        ) == 0
        files = os.listdir(out)
        assert sum(f.endswith("_full.ct01") for f in files) == 2  # flag wins over config

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=4\nsize=16\ncoils=2\naccel=2\nseed=3\n")
        out = tmp_path / "ds2"
        assert run("gen-data", "--out", str(out), "--config", str(cfg)) == 0
        files = os.listdir(out)
        assert sum(f.endswith("_full.ct01") for f in files) == 4


class TestPGM:
    def test_pgm_header_and_scale(self, tmp_path):
        img = np.array([[0.0, 0.5], [0.25, 2.0]])
        path = tmp_path / "i.pgm"
        write_pgm16(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n65535\n")
        vals = np.frombuffer(raw[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert vals.tolist() == [0, 16384, 8192, 65535]

    def test_config_can_supply_required_paths(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"out={tmp_path / 'ds'}\nn=1\nsize=16\ncoils=2\naccel=2\n")
        assert run("gen-data", "--config", str(cfg)) == 0
        assert run("gen-data") == 2  # still rejected without the config
