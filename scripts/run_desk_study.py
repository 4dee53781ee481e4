#!/usr/bin/env python3
"""Desk-scale end-to-end study driven through the CLI.

Generates train/test datasets, trains the equilibrium operator, certifies
its convergence and robustness guarantees, reconstructs every held-out
sample next to the zero-filled baseline, and tabulates metrics. SPIRiT is
not run: the default 16x16 data at R=2 has a single ACS line, too few to
calibrate the 5x5 SPIRiT kernel. Every artifact lands under --out;
rerunning with the same flags reproduces it byte for byte.

    python scripts/run_desk_study.py --out runs/desk
"""

import argparse
import os
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
    train_dir = os.path.join(out, "train")
    test_dir = os.path.join(out, "test")
    ckpt = os.path.join(out, "model.ck01")

    common = [
        "--size", ns.size, "--coils", ns.coils, "--mask", "1d-cal",
        "--accel", ns.accel, "--edge-sigma", ns.edge_sigma, "--shared-mask", 1,
    ]
    sh("gen-data", "--out", train_dir, "--n", 8, "--seed", ns.seed, *common)
    sh("gen-data", "--out", test_dir, "--n", 4, "--seed", ns.seed + 1, *common)

    sh(
        "train", "--data", train_dir, "--out", ckpt,
        "--epochs", ns.epochs, "--blocks", ns.blocks, "--features", ns.features,
        "--variant", ns.variant,
    )

    sh("verify", "--ckpt", ckpt, "--data", test_dir, "--out", os.path.join(out, "verify"))

    recon_dir = os.path.join(out, "recon")
    for i in range(4):
        stem = f"sample_{i:04d}"
        sh(
            "recon", "--ckpt", ckpt,
            "--meas", os.path.join(test_dir, stem + "_meas.ct01"),
            "--mask", os.path.join(test_dir, stem + "_mask.mk01"),
            "--ref", os.path.join(test_dir, stem + "_full.ct01"),
            "--baseline", "zerofill",
            "--out", os.path.join(recon_dir, stem),
        )

    # side-by-side metric tables for the equilibrium model and zero-fill
    flat = os.path.join(out, "flat")
    os.makedirs(os.path.join(flat, "recon"), exist_ok=True)
    os.makedirs(os.path.join(flat, "zf"), exist_ok=True)
    os.makedirs(os.path.join(flat, "ref"), exist_ok=True)
    for i in range(4):
        stem = f"sample_{i:04d}"
        for src, dst in (
            (os.path.join(recon_dir, stem, "recon.ct01"), os.path.join(flat, "recon", stem + ".ct01")),
            (os.path.join(recon_dir, stem, "baseline_zerofill.ct01"), os.path.join(flat, "zf", stem + ".ct01")),
            (os.path.join(test_dir, stem + "_full.ct01"), os.path.join(flat, "ref", stem + ".ct01")),
        ):
            with open(src, "rb") as fin, open(dst, "wb") as fout:
                fout.write(fin.read())
    sh("eval", "--recon", os.path.join(flat, "recon"), "--ref", os.path.join(flat, "ref"),
       "--out", os.path.join(out, "metrics_model.csv"))
    sh("eval", "--recon", os.path.join(flat, "zf"), "--ref", os.path.join(flat, "ref"),
       "--out", os.path.join(out, "metrics_zerofill.csv"))
    print(f"\nstudy complete; artifacts under {out}/")


if __name__ == "__main__":
    run()
