import os
import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from deqpocs.cli import REQUIRED, build_parser, main, write_pgm16
from deqpocs.network import init_params, load_checkpoint, save_checkpoint, write_ck01_bytes
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


@pytest.fixture(scope="module", params=[(8, 8), (4_000_000_000, 16)], ids=["8x8", "4e9x16"])
def other_grid_checkpoint(request, tmp_path_factory):
    """An untrained model that records a grid other than the 16x16 dataset's."""
    ck = tmp_path_factory.mktemp("ck") / "net.ck01"
    save_checkpoint(ck, init_params("kspace", 1, 4, 2, seed=0, grid=request.param))
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

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        assert run("gen-data", "--out", str(tmp_path / "x"), "--bogus", "1") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--bogus" in err

    @pytest.mark.parametrize("flag, value", [
        ("--acs", "abc"), ("--noise", "-1"), ("--noise", "inf"), ("--accel", "nan"),
        ("--edge-sigma", "nan"), ("--n", "1.5"), ("--shared-mask", "5"),
        ("--size", "4"), ("--coils", "0"),
    ])
    def test_bad_value_exits_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        assert run("gen-data", "--out", str(out), "--size", "8", flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "Traceback" not in err
        assert not out.exists()


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

    @pytest.mark.parametrize("delta", ["abc", "nan", "inf", "-0.5"])
    def test_corrupt_manifest_delta_exits_2(self, dataset_dir, tmp_path, capsys, delta):
        data = tmp_path / "data"
        data.mkdir()
        for f in dataset_dir.iterdir():
            (data / f.name).write_bytes(f.read_bytes())
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        lines = [ln.rsplit("delta=", 1)[0] + f"delta={delta}" if ln.startswith("sample_0001")
                 else ln for ln in lines]
        manifest.write_text("\n".join(lines) + "\n")
        assert run(
            "train", "--data", str(data), "--out", str(tmp_path / "x.ck01"),
            "--epochs", "1", "--blocks", "1", "--features", "4",
        ) == 2
        err = capsys.readouterr().err
        assert "manifest.txt" in err and "sample_0001" in err
        assert not (tmp_path / "x.ck01").exists()

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
        sample = (
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--ref", str(dataset_dir / "sample_0000_full.ct01"),
            "--out", str(out),
        )
        assert run("recon", "--ckpt", str(checkpoint), *sample) == 0
        assert (out / "recon.ct01").exists()
        assert (out / "recon.pgm").exists()
        assert (out / "recon_residuals.csv").read_text().startswith("iteration,residual")
        assert "psnr:" in capsys.readouterr().out
        # the zero-filled baseline is the measurement itself, with no residuals
        assert run("baseline", "--method", "zerofill", *sample) == 0
        assert (out / "baseline_zerofill.ct01").read_bytes() == (
            dataset_dir / "sample_0000_meas.ct01").read_bytes()
        assert (out / "baseline_zerofill.pgm").exists()
        assert not (out / "baseline_zerofill_residuals.csv").exists()
        assert "psnr:" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "offset, fmt, value",
        [(25 + 16, "<f", float("nan")), (5, "<I", 0), (-16, "<f", float("nan")),
         (-12, "<f", float("inf")), (-4, "<f", float("nan"))],
        ids=["kernel-nan", "zero-blocks", "alpha-nan", "weight-inf", "stored-L-nan"],
    )
    def test_non_finite_or_zero_count_checkpoint_exits_2(
        self, dataset_dir, tmp_path, capsys, offset, fmt, value
    ):
        """The CK01 reader's refusals of a non-finite payload, a zero count and
        a non-finite alpha, mixing weight or stored L reach the user as exit 2."""
        data = bytearray(write_ck01_bytes(init_params("kspace", 1, 4, 2, seed=0, grid=(16, 16))))
        struct.pack_into(fmt, data, offset % len(data), value)
        bad = tmp_path / "bad.ck01"
        bad.write_bytes(bytes(data))
        assert run(
            "recon", "--ckpt", str(bad),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--out", str(tmp_path / "o5"),
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CK01") or err.startswith("error: CT01")
        assert not (tmp_path / "o5").exists()

    def test_any_recorded_grid_exits_0(self, dataset_dir, other_grid_checkpoint, tmp_path):
        """The certificate holds on every grid, so the recorded one limits nothing."""
        code = run(
            "recon", "--ckpt", str(other_grid_checkpoint),
            "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(dataset_dir / "sample_0000_mask.mk01"),
            "--out", str(tmp_path / "o4"),
        )
        assert code == 0
        assert (tmp_path / "o4" / "recon.ct01").exists()

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

    def test_spirit_on_unsampled_acs_descriptor_exits_2(self, dataset_dir, tmp_path, capsys):
        raw = (dataset_dir / "sample_0000_mask.mk01").read_bytes()
        mask = tmp_path / "wrapped.mk01"
        mask.write_bytes(raw[:-4] + struct.pack("<HH", 40, 0))  # block wraps a 16-wide grid
        assert run(
            "baseline", "--method", "spirit", "--meas", str(dataset_dir / "sample_0000_meas.ct01"),
            "--mask", str(mask), "--out", str(tmp_path / "base"),
        ) == 2
        assert "ACS descriptor (40, 0)" in capsys.readouterr().err
        assert not (tmp_path / "base").exists()

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
        ("verify", "--tol", "0"),
        ("recon", "--tol", "0"),
        ("baseline", "--tol", "0"),
        ("baseline", "--spirit-iters", "0"),
        ("train", "--lr", "nan"),
        ("train", "--lr", "inf"),
        ("verify", "--tol", "inf"),
        ("verify", "--noise-levels", "inf"),
        ("verify", "--noise-levels", "-0.1"),
        ("verify", "--init-levels", "inf"),
        ("recon", "--tol", "inf"),
        ("baseline", "--tol", "inf"),
        ("baseline", "--spirit-ridge", "inf"),
        ("verify", "--trials", "-1"),
        ("verify", "--init-trials", "-2"),
        ("verify", "--init-trials", "0"),
        ("verify", "--noise-levels", ","),
        ("verify", "--noise-levels", "0.1,abc"),
        ("verify", "--init-levels", ","),
        ("verify", "--inits", "0"),
        ("verify", "--inits", "1"),
        ("verify", "--inits", "-5"),
        ("train", "--blocks", "0"),
        ("train", "--features", "0"),
        ("baseline", "--spirit-kernel", "0"),
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


@pytest.fixture(scope="module")
def kspace_weights_checkpoint(tmp_path_factory):
    """A k-space CK01 whose block stores weights (0.5, 0), which no writer makes."""
    params = init_params("kspace", 1, 4, 2, seed=0, grid=(16, 16))
    params.blocks[0].c_k = 0.5
    ck = tmp_path_factory.mktemp("ckw") / "weights.ck01"
    ck.write_bytes(write_ck01_bytes(params))
    return ck


@pytest.mark.parametrize("command", ["verify", "recon"])
def test_kspace_weights_other_than_one_zero_exit_2(
    command, dataset_dir, kspace_weights_checkpoint, tmp_path, capsys
):
    inputs = {
        "verify": ("--data", str(dataset_dir), "--samples", "1"),
        "recon": ("--meas", str(dataset_dir / "sample_0000_meas.ct01"),
                  "--mask", str(dataset_dir / "sample_0000_mask.mk01")),
    }[command]
    out = tmp_path / "out"
    assert run(command, "--ckpt", str(kspace_weights_checkpoint), *inputs, "--out", str(out)) == 2
    assert "k-space block 0 has weights (0.5, 0), not (1, 0)" in capsys.readouterr().err
    assert not out.exists()


class TestVerify:
    def test_any_recorded_grid_exits_0(self, dataset_dir, other_grid_checkpoint, tmp_path):
        assert run(
            "verify", "--ckpt", str(other_grid_checkpoint), "--data", str(dataset_dir),
            "--out", str(tmp_path / "verify"), "--samples", "1",
        ) == 0

    def test_bad_thread_cap_exits_2(self, dataset_dir, checkpoint, tmp_path, monkeypatch):
        monkeypatch.setenv("DEQPOCS_THREADS", "abc")
        assert run(
            "verify", "--ckpt", str(checkpoint), "--data", str(dataset_dir),
            "--out", str(tmp_path / "verify"), "--samples", "1",
        ) == 2

    def test_samples_beyond_dataset_exits_2(self, dataset_dir, checkpoint, tmp_path, capsys):
        out = tmp_path / "verify"
        assert run(
            "verify", "--ckpt", str(checkpoint), "--data", str(dataset_dir),
            "--out", str(out), "--samples", "4",
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --samples 4 exceeds the 3 samples")
        assert not out.exists()

    def test_zero_certificate_passes(self, dataset_dir, tmp_path, capsys):
        """A hybrid block with weights (0, 0) certifies at L = 0: its every
        check holds, and the rate envelope ``1.05 * 0**k * r_0`` is met."""
        params = init_params("hybrid", 1, 4, 2)
        params.blocks[0].c_k = params.blocks[0].c_i = 0.0
        ck = tmp_path / "zero.ck01"
        save_checkpoint(ck, params)
        assert load_checkpoint(ck)[1] == 0.0
        assert run(
            "verify", "--ckpt", str(ck), "--data", str(dataset_dir),
            "--out", str(tmp_path / "verify"), "--samples", "2", "--trials", "2",
        ) == 0
        out, err = capsys.readouterr()
        assert "overall: PASS" in out.splitlines()
        assert "Traceback" not in err

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
        # convergence 2 samples x 2 starts, 4 noisy trials (trial 0 of each
        # level is also its recursion run), 2 perturbed starts; the clean
        # solve of sample 0 is shared
        assert len(solves) == 10

    def test_runs_one_batch_per_check(self, dataset_dir, checkpoint, tmp_path, monkeypatch):
        import deqpocs.harness as harness

        batches = []
        map_ordered = harness._map_ordered

        def counting(fn, items):
            batches.append(len(items))
            return map_ordered(fn, items)

        monkeypatch.setattr(harness, "_map_ordered", counting)
        self._verify(dataset_dir, checkpoint, tmp_path / "verify")
        assert batches == [4, 4, 2]  # convergence, robustness, init-independence

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
            verify_convergence(params, measurements, inits_per_sample=2, seed=3)[0].to_csv(),
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

    @staticmethod
    def _dirs(dataset_dir, tmp_path, recon_names, ref_names):
        """``recon`` and ``ref`` directories holding samples 0 and 1 as named."""
        dirs = []
        for side, names in (("recon", recon_names), ("ref", ref_names)):
            d = tmp_path / side
            d.mkdir()
            for i, name in enumerate(names):
                (d / f"{name}.ct01").write_bytes(
                    (dataset_dir / f"sample_000{i}_full.ct01").read_bytes()
                )
            dirs.append(str(d))
        return dirs

    def test_eval_pairs_directory_files_by_name(self, dataset_dir, tmp_path, capsys):
        recon, ref = self._dirs(dataset_dir, tmp_path, ["a", "b"], ["a", "b"])
        assert run("eval", "--recon", recon, "--ref", ref) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
        assert [(r[0], float(r[1])) for r in rows[:2]] == [("a", 0.0), ("b", 0.0)]

    def test_eval_unpaired_name_exits_2(self, dataset_dir, tmp_path, capsys):
        recon, ref = self._dirs(dataset_dir, tmp_path, ["a", "b"], ["a", "zzz"])
        assert run("eval", "--recon", recon, "--ref", ref) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "b.ct01" in err[0]


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

    def test_abbreviated_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n=1\nsize=16\ncoils=2\naccel=2\n")
        out = tmp_path / "ds"
        assert run("gen-data", "--out", str(out), "--config", str(cfg), "--siz", "8") == 0
        assert load_ct01(out / "sample_0000_full.ct01").shape == (8, 8, 2)

    @pytest.mark.parametrize("line", ["n=abc", "mask=bogus", "noise=inf"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"size=8\n{line}\n")
        assert run("gen-data", "--out", str(tmp_path / "ds"), "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        key, value = line.split("=")
        assert err.startswith("error: ") and f"--{key}" in err and value in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("key", ["bogus", "siz", "config", "command", "handler"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"size=8\n{key}=1\n")
        assert run("gen-data", "--out", str(tmp_path / "ds"), "--config", str(cfg)) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [("train", "--fwd-method", "picard"), ("train", "--fwd-tol", "1e-4"),
     ("train", "--bwd-tol", "1e-4"), ("verify", "--slack", "1.05"),
     ("recon", "--baseline", "zerofill"), ("recon", "--spirit-kernel", "3"),
     ("recon", "--spirit-ridge", "1e-2"), ("recon", "--spirit-iters", "0")],
)
def test_deleted_flag_exits_2(tmp_path, capsys, command, flag, value):
    """Training solves one way, verify checks one envelope and baselines run
    only under ``baseline``: the flags that chose otherwise are gone, on the
    command line and in a config file."""
    assert run(command, flag, value) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unrecognized arguments: " + flag)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{flag[2:]}={value}\n")
    assert run(command, "--config", str(cfg)) == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def _readme_commands():
    """Every ``deqpocs`` command in the bash blocks of README.md's CLI
    section, backslash-continued lines joined, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    script = "".join(re.findall(r"```bash\n(.*?)```", section, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("deqpocs ")]


def test_readme_commands_parse():
    """The README names only flags the parser has, for every command."""
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(REQUIRED)
    for argv in commands:
        build_parser().parse_args(argv)


def _subparsers():
    (sub,) = (a for a in build_parser()._actions if a.choices and a.dest == "command")
    return sub.choices


def _domain_flags():
    """(command, flag) of every flag whose type is the parser's domain check."""
    return [
        (command, action.option_strings[0])
        for command, parser in _subparsers().items()
        for action in parser._actions
        if getattr(action.type, "__qualname__", "").startswith("_domain.")
    ]


class TestParser:
    def test_no_bare_float_flag(self):
        """A float flag without a domain would take nan and inf."""
        bare = [(command, a.option_strings) for command, p in _subparsers().items()
                for a in p._actions if a.type is float]
        assert bare == []

    def test_no_bare_int_flag(self):
        """An int flag without a domain would take 0 and negative counts; only
        seeds, which take any integer, and flags with choices may be bare."""
        bare = [(command, a.option_strings) for command, p in _subparsers().items()
                for a in p._actions if a.type is int and a.choices is None
                and a.dest not in ("seed", "shuffle_seed")]
        assert bare == []

    @pytest.mark.parametrize("command, flag", _domain_flags())
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_exits_2(self, capsys, command, flag, value):
        assert run(command, flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(_subparsers()))
    def test_help_exits_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: deqpocs {command}")

    def test_no_command_exits_2(self, capsys):
        assert run() == 2
        assert capsys.readouterr().err.startswith("error: ")


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
