#!/usr/bin/env python3
"""SE / SFSC / MFSC side by side, through the `freqattn` command.

`synth` once, then `train`, `score` and `metrics` per variant, each echoed as a
`$ freqattn ...` line, then one table: EER, minDCF, first and last epoch loss,
parameters and training seconds. The defaults are acceptance criterion 7's
corpus and budget. A failed step ends the script with its exit code and error.

    python scripts/toy_experiment.py --epochs 30 --seed 7
    python scripts/toy_experiment.py --variants se,mfsc:max --epochs 10 --workdir run
"""

import argparse
import contextlib
import io
import re
import shlex
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from freqattn import cli
from freqattn import config as cfgmod
from freqattn import speakernet as sn


def freqattn(*argv):
    """Run one CLI step and return what it printed; exit the script if it fails."""
    argv = [str(a) for a in argv]
    print(f"$ freqattn {shlex.join(argv)}", flush=True)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    print(out.getvalue(), end="", flush=True)
    if rc != 0:
        sys.exit(rc)
    return out.getvalue()


def run(args, work):
    """Yield one table row per variant."""
    corpus = work / "corpus"
    freqattn("synth", "--out", corpus, "--speakers", args.speakers, "--utts", args.utts,
             "--test-utts", args.test_utts, "--trials", args.trials, "--seed", args.seed)
    for name in args.variants.split(","):
        variant, _, aggregation = name.partition(":")
        cfg = cfgmod.RunConfig(seed=args.seed, train_list=str(corpus / "train.txt"),
                               features_dir=str(corpus / "feats"))
        cfg.network.attention_variant = variant
        cfg.network.aggregation = aggregation or "avg"
        cfg.train.epochs, cfg.train.batch_size = args.epochs, args.batch
        stem = str(work / name.replace(":", "_"))
        Path(f"{stem}.cfg").write_text(cfgmod.serialize_config(cfg))
        start = time.time()
        log = freqattn("train", "--config", f"{stem}.cfg", "--out", f"{stem}.ckpt")
        seconds = time.time() - start
        freqattn("score", "--checkpoint", f"{stem}.ckpt", "--features", corpus / "feats",
                 "--trials", corpus / "trials.txt", "--out", f"{stem}.scores")
        metrics = freqattn("metrics", "--scores", f"{stem}.scores")
        eer, min_dcf = (float(v) for v in re.findall(r"=(\S+)", metrics))
        losses = [float(v) for v in re.findall(r"^epoch=\d+ loss=(\S+)", log, re.M)]
        net = sn.SpeakerNet(cfg.network, np.random.default_rng(cfg.seed))
        yield (name, eer, min_dcf, losses[0], losses[-1], sn.num_parameters(net), seconds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", help="default: a temporary directory")
    parser.add_argument("--speakers", type=int, default=20)
    parser.add_argument("--utts", type=int, default=20)
    parser.add_argument("--test-utts", type=int, default=5, dest="test_utts")
    parser.add_argument("--trials", type=int, default=400)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--variants", default="se,sfsc,mfsc:avg_max",
                        help="comma list; mfsc takes :avg, :max or :avg_max")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        rows = list(run(args, Path(args.workdir or tmp)))
    print(f"\n{'variant':<14}{'EER%':>8}{'minDCF':>10}{'loss(1)':>10}"
          f"{'loss(end)':>11}{'params':>9}{'sec':>7}")
    for name, eer, min_dcf, loss0, loss_end, params, seconds in rows:
        print(f"{name:<14}{eer:>8.2f}{min_dcf:>10.3f}{loss0:>10.3f}{loss_end:>11.4f}"
              f"{params:>9}{seconds:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
