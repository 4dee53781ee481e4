#!/usr/bin/env python3
"""Write every artifact, stdout, stderr and exit code of a fixed command set
into one directory, so that two checkouts compare with a single ``diff -r``:

    python scripts/snapshot_outputs.py --out /tmp/snap-old   # in one checkout
    python scripts/snapshot_outputs.py --out /tmp/snap-new   # in the other
    diff -r /tmp/snap-old /tmp/snap-new

The commands run in this process on the package of the checkout that holds
this script, from inside ``--out`` with relative paths, so no output names
the directory. ``log.txt`` records each command with its exit code, stdout
and stderr, in order:

* ``gen-data --n 4 --size 32 --coils 4 --seed 1``, then the README's desk
  ``train`` (12 epochs, hybrid, 1 block, F=16) to ``trained.ck01``;
* ``init_params("hybrid", 3, 8, 4, seed=7, grid=(16, 16))`` saved as
  ``init_hybrid3.ck01``, so that the order in which one draw fills the
  kernels of several blocks and both branches is in the snapshot;
* ``verify`` at the flags of the benchmark's verify-desk workload on
  ``init_params("hybrid", 1, 16, 4, seed=0, grid=(32, 32))`` saved as
  ``init.ck01``, at ``--seed 1`` and ``--seed 2``, each with
  ``DEQPOCS_THREADS=1`` and with the default thread count, then once more
  at ``--seed 1`` with ``--trials 0``, which solves only each noise level's
  trial 0 (the recursion run) and writes no trial rows;
* ``recon --ref`` with ``init.ck01``, then ``baseline --method zerofill
  --ref`` on the same sample into the same directory;
* ``baseline --method spirit`` on ``gen-data --n 1 --size 32 --coils 4
  --acs 6 --seed 3``;
* ``gen-data --n 2 --size 16 --coils 2 --accel 4`` with ``--mask 2d-cal``
  and with ``--mask 2d-free``, so the 2-D mask draw is in the snapshot too;
* the k-space block path, which every model above skips: ``gen-data --n 2
  --size 16 --coils 2 --accel 2 --seed 4``, ``train --variant kspace
  --blocks 2 --features 4 --epochs 3`` on it to ``kspace.ck01``, then
  ``verify --samples 2 --trials 1 --init-trials 1`` and ``recon --method
  picard --ref`` with that checkpoint;
* the same ``train`` with ``--lr 0.03`` to ``kspace_lr003.ck01``, at which
  the frequency where a kernel's symbol peaks moves between Adam steps, so
  the certificate that training carries across steps is in the snapshot
  where it has to re-locate the peak;
* ``recon`` with ``trained.ck01``, so the README's desk model is loaded,
  re-certified and applied too;
* ``eval --out`` on a file pair (``init.ck01``'s reconstruction of sample 0
  against its reference) and on a directory pair (the ``init.ck01`` and
  ``trained.ck01`` reconstructions of sample 0, each against a copy of that
  reference under the same name);
* ``recon`` with ``init.ck01``, which records a 32x32 grid, on sample 0 of
  ``gen-data --n 1 --size 48 --coils 4 --seed 6``: the certificate holds on
  every grid, so a model runs on a larger one;
* ``gen-data --n 1 --size 64 --coils 8 --noise 0.05 --seed 7``, whose seeded
  measurement noise is one draw of 65,536 Gaussians;
* four usage errors, each exit 2: ``gen-data --bogus 1``, ``gen-data`` with
  a ``--config`` line ``n=abc``, ``verify --tol inf`` and ``gen-data``
  without ``--out``.
"""

import argparse
import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

# the package of this checkout, not an installed one: a snapshot is of its code
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deqpocs import init_params, save_checkpoint  # noqa: E402
from deqpocs.cli import main as cli  # noqa: E402

VERIFY_FLAGS = [
    "--samples", "2", "--inits", "2", "--noise-levels", "0.01,0.1", "--trials", "2",
    "--init-levels", "0.5,2.0", "--init-trials", "1", "--tol", "1e-05",
]


def sample(data):
    """The flags that name sample 0 of dataset ``data`` for ``recon`` and
    ``baseline``."""
    return ["--meas", f"{data}/sample_0000_meas.ct01", "--mask", f"{data}/sample_0000_mask.mk01",
            "--ref", f"{data}/sample_0000_full.ct01"]


def run(log, *argv, threads=None):
    """One CLI command with ``DEQPOCS_THREADS`` set to ``threads`` (None:
    unset), logged as its argv, exit code, stdout and stderr."""
    if threads is not None:
        os.environ["DEQPOCS_THREADS"] = threads
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli(list(argv))
        except SystemExit as exc:  # a CLI whose argparse errors exit instead of returning 2
            code = exc.code
    os.environ.pop("DEQPOCS_THREADS", None)
    env = "" if threads is None else f"DEQPOCS_THREADS={threads} "
    log.write(f"$ {env}deqpocs {' '.join(argv)}\nexit {code}\n")
    log.write(f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", required=True, help="directory to create and fill")
    ns = p.parse_args()
    os.environ.pop("DEQPOCS_THREADS", None)  # "default" means the harness's own count
    os.makedirs(ns.out)
    os.chdir(ns.out)
    with open("log.txt", "w") as log:
        run(log, "gen-data", "--out", "data", "--n", "4", "--size", "32", "--coils", "4",
            "--seed", "1")
        run(log, "train", "--data", "data", "--out", "trained.ck01", "--blocks", "1",
            "--features", "16", "--variant", "hybrid", "--epochs", "12")
        save_checkpoint("init_hybrid3.ck01", init_params("hybrid", 3, 8, 4, seed=7, grid=(16, 16)))
        save_checkpoint("init.ck01", init_params("hybrid", 1, 16, 4, seed=0, grid=(32, 32)))
        for seed in ("1", "2"):
            for threads in ("1", None):
                out = f"verify_seed{seed}_threads{threads or 'default'}"
                run(log, "verify", "--ckpt", "init.ck01", "--data", "data", "--out", out,
                    "--seed", seed, *VERIFY_FLAGS, threads=threads)
        run(log, "verify", "--ckpt", "init.ck01", "--data", "data", "--out", "verify_trials0",
            "--seed", "1", *VERIFY_FLAGS, "--trials", "0")
        run(log, "recon", "--ckpt", "init.ck01", *sample("data"), "--out", "recon_init")
        run(log, "baseline", "--method", "zerofill", *sample("data"), "--out", "recon_init")
        run(log, "gen-data", "--out", "acs6", "--n", "1", "--size", "32", "--coils", "4",
            "--acs", "6", "--seed", "3")
        run(log, "baseline", "--method", "spirit", "--meas", "acs6/sample_0000_meas.ct01",
            "--mask", "acs6/sample_0000_mask.mk01", "--ref", "acs6/sample_0000_full.ct01",
            "--out", "baseline_spirit")
        for kind in ("2d-cal", "2d-free"):
            run(log, "gen-data", "--out", f"mask_{kind}", "--n", "2", "--size", "16",
                "--coils", "2", "--accel", "4", "--mask", kind, "--seed", "5")
        run(log, "gen-data", "--out", "kdata", "--n", "2", "--size", "16", "--coils", "2",
            "--accel", "2", "--seed", "4")
        run(log, "train", "--data", "kdata", "--out", "kspace.ck01", "--variant", "kspace",
            "--blocks", "2", "--features", "4", "--epochs", "3")
        run(log, "train", "--data", "kdata", "--out", "kspace_lr003.ck01", "--variant", "kspace",
            "--blocks", "2", "--features", "4", "--epochs", "3", "--lr", "0.03")
        run(log, "verify", "--ckpt", "kspace.ck01", "--data", "kdata", "--out", "verify_kspace",
            "--samples", "2", "--trials", "1", "--init-trials", "1")
        run(log, "recon", "--ckpt", "kspace.ck01", *sample("kdata"), "--method", "picard",
            "--out", "recon_kspace")
        run(log, "recon", "--ckpt", "trained.ck01", *sample("data"), "--out", "recon_trained")
        run(log, "eval", "--recon", "recon_init/recon.ct01", "--ref", "data/sample_0000_full.ct01",
            "--out", "eval_file.csv")
        for name in ("init", "trained"):
            for side, src in (("recon", f"recon_{name}/recon.ct01"),
                              ("ref", "data/sample_0000_full.ct01")):
                os.makedirs(f"eval_{side}", exist_ok=True)
                shutil.copyfile(src, f"eval_{side}/{name}.ct01")
        run(log, "eval", "--recon", "eval_recon", "--ref", "eval_ref", "--out", "eval_dir.csv")
        run(log, "gen-data", "--out", "data48", "--n", "1", "--size", "48", "--coils", "4",
            "--seed", "6")
        run(log, "recon", "--ckpt", "init.ck01", *sample("data48"), "--out", "recon_48")
        run(log, "gen-data", "--out", "noisy64", "--n", "1", "--size", "64", "--coils", "8",
            "--noise", "0.05", "--seed", "7")
        run(log, "gen-data", "--bogus", "1")
        Path("bad.cfg").write_text("n=abc\n")
        run(log, "gen-data", "--out", "bad_config", "--config", "bad.cfg")
        run(log, "verify", "--ckpt", "init.ck01", "--data", "data", "--out", "verify_tol_inf",
            "--tol", "inf")
        run(log, "gen-data")
    print(f"snapshot written to {ns.out}")


if __name__ == "__main__":
    main()
