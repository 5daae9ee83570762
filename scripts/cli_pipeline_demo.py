#!/usr/bin/env python3
"""Drive the full file-based CLI pipeline in a scratch directory.

synth -> train -> score -> metrics, using the same entry points as the
installed ``freqattn`` command. Useful as executable documentation and as a
quick end-to-end smoke check (a couple of minutes at the default budget).

Example:
    python scripts/cli_pipeline_demo.py --workdir /tmp/freqattn-demo --epochs 12
"""

import argparse
import sys
from pathlib import Path

from freqattn import cli
from freqattn import config as cfgmod


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--variant", default="mfsc",
                        choices=["se", "sfsc", "mfsc"])
    parser.add_argument("--aggregation", default="avg_max")
    parser.add_argument("--speakers", type=int, default=10)
    parser.add_argument("--utts", type=int, default=12)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    work = Path(args.workdir)
    corpus = work / "corpus"

    steps = [["synth", "--out", str(corpus), "--speakers", str(args.speakers),
              "--utts", str(args.utts), "--test-utts", "3",
              "--trials", "200", "--seed", str(args.seed)]]

    cfg = cfgmod.RunConfig()
    cfg.seed = args.seed
    cfg.network.attention_variant = args.variant
    cfg.network.aggregation = args.aggregation
    cfg.train.epochs = args.epochs
    cfg.train_list = str(corpus / "train.txt")
    cfg.features_dir = str(corpus / "feats")
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "run.cfg"
    cfg_path.write_text(cfgmod.serialize_config(cfg))

    ckpt = work / "model.ckpt"
    scores = work / "scores.txt"
    steps += [
        ["train", "--config", str(cfg_path), "--out", str(ckpt)],
        ["score", "--checkpoint", str(ckpt), "--trials", str(corpus / "trials.txt"),
         "--features", str(corpus / "feats"), "--out", str(scores)],
        ["metrics", "--scores", str(scores)],
    ]

    for step in steps:
        print(f"$ freqattn {' '.join(step)}")
        rc = cli.main(step)
        if rc != 0:
            print(f"step failed with exit code {rc}", file=sys.stderr)
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
