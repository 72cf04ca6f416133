#!/usr/bin/env python3
"""Run the standard experiment battery on one dataset directory.

Per feature mode (fbt, dft, fused): repeated-split identification error,
then a CMC and a verification ROC on the first split.  Each experiment
is one `polarface experiment` run, so the output directory receives the
usual hash-tagged CSVs and config copies, and the console one summary
line per experiment.

Usage:
    python3 scripts/run_face_experiments.py DATASET_DIR [OUT_DIR]
        [--layout orl|flat-manifest] [--k-train K] [--reps N] [--seed S]
"""

import argparse
import sys

from polarface.cli import main as cli_main

MODES = ("fbt", "dft", "fused")
EXPERIMENTS = ("error-rate", "cmc", "roc")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dataset")
    ap.add_argument("out", nargs="?", default="runs/battery")
    ap.add_argument("--layout", default="orl", choices=("orl", "flat-manifest"))
    ap.add_argument("--k-train", type=int, default=5)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    common = [
        "--dataset", args.dataset, "--layout", args.layout,
        "--k-train", str(args.k_train), "--reps", str(args.reps),
        "--seed", str(args.seed), "--out", args.out,
    ]
    for mode in MODES:
        for experiment in EXPERIMENTS:
            code = cli_main(["experiment", experiment, "--mode", mode, *common])
            if code != 0:
                return code
    print(f"CSV written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
