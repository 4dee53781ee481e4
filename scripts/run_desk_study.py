#!/usr/bin/env python3
"""Desk-scale end-to-end study driven through the CLI.

Generates train/test datasets, trains the equilibrium operator on the
calibrated 1-D mask, certifies its convergence, robustness and
init-independence guarantees (``verify/``), then reconstructs every
held-out sample next to the zero-filled baseline under three test masks:
the training mask (1d-cal), and two the model never saw, 1d-free at the
training acceleration and 2d-free at R=10. The test images are the same
under every mask. Each mask's metric tables land in
``metrics_<mask>_model.csv`` and ``metrics_<mask>_zerofill.csv``. SPIRiT is
not run: the default 16x16 data at R=2 has a single ACS line, too few to
calibrate the 5x5 SPIRiT kernel. Every artifact lands under --out;
rerunning with the same flags reproduces it byte for byte.

    python scripts/run_desk_study.py --out runs/desk
"""

import argparse
import os
import shutil
import sys

from deqpocs.cli import main as cli


def sh(*args) -> None:
    code = cli([str(a) for a in args])
    if code != 0:
        print(f"step failed ({code}): {' '.join(str(a) for a in args)}", file=sys.stderr)
        raise SystemExit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="runs/desk")
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--coils", type=int, default=2)
    p.add_argument("--accel", type=float, default=2.0)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--features", type=int, default=16)
    p.add_argument("--variant", default="hybrid")
    p.add_argument("--edge-sigma", type=float, default=1.8)
    p.add_argument("--seed", type=int, default=1)
    return p.parse_args()


def run():
    ns = parse_args()
    out = ns.out
    ckpt = os.path.join(out, "model.ck01")
    common = ["--size", ns.size, "--coils", ns.coils, "--edge-sigma", ns.edge_sigma,
              "--shared-mask", 1]

    train_dir = os.path.join(out, "train")
    sh("gen-data", "--out", train_dir, "--n", 8, "--seed", ns.seed,
       "--mask", "1d-cal", "--accel", ns.accel, *common)
    sh(
        "train", "--data", train_dir, "--out", ckpt,
        "--epochs", ns.epochs, "--blocks", ns.blocks, "--features", ns.features,
        "--variant", ns.variant,
    )

    for mask, accel in (("1d-cal", ns.accel), ("1d-free", ns.accel), ("2d-free", 10.0)):
        test_dir = os.path.join(out, "test", mask)
        sh("gen-data", "--out", test_dir, "--n", 4, "--seed", ns.seed + 1,
           "--mask", mask, "--accel", accel, *common)
        if mask == "1d-cal":
            sh("verify", "--ckpt", ckpt, "--data", test_dir, "--out", os.path.join(out, "verify"))

        # recon and baseline write one directory per sample; eval pairs flat
        # directories of .ct01 files by name
        recon_dir = os.path.join(out, "recon", mask)
        flat = {name: os.path.join(out, "flat", mask, name) for name in ("model", "zerofill", "ref")}
        for path in flat.values():
            os.makedirs(path, exist_ok=True)
        for i in range(4):
            stem = f"sample_{i:04d}"
            sample = [
                "--meas", os.path.join(test_dir, stem + "_meas.ct01"),
                "--mask", os.path.join(test_dir, stem + "_mask.mk01"),
                "--ref", os.path.join(test_dir, stem + "_full.ct01"),
                "--out", os.path.join(recon_dir, stem),
            ]
            sh("recon", "--ckpt", ckpt, *sample)
            sh("baseline", "--method", "zerofill", *sample)
            for name, src in (
                ("model", os.path.join(recon_dir, stem, "recon.ct01")),
                ("zerofill", os.path.join(recon_dir, stem, "baseline_zerofill.ct01")),
                ("ref", os.path.join(test_dir, stem + "_full.ct01")),
            ):
                shutil.copyfile(src, os.path.join(flat[name], stem + ".ct01"))
        for name in ("model", "zerofill"):
            sh("eval", "--recon", flat[name], "--ref", flat["ref"],
               "--out", os.path.join(out, f"metrics_{mask}_{name}.csv"))
    print(f"\nstudy complete; artifacts under {out}/")


if __name__ == "__main__":
    run()
