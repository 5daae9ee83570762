#!/usr/bin/env python3
"""Benchmark of the freqattn CLI: train/score workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-mfsc --seed 1 --seconds 30 --trace 0

The benchmark writes a seeded corpus under ``.perfbench_work/`` and drives
the real ``freqattn`` CLI on it (``freqattn.cli.main``, in-process) as a
closed loop: one job at a time, each in a fresh interpreter with BLAS pinned
to one thread, so the program's caches start cold as for every real
command. It repeats the workload's jobs while ``--seconds`` allow and
reports throughput over all of them and medians of the rest. With
``--trace 0`` training and scoring are jobs of their own, and a job that
stops at the first forward pass samples set-up time.

* ``--trace 0`` reports the end-to-end metrics of untraced runs.
* ``--trace 1`` runs the pipeline untraced and traced, and reports the
  per-layer metrics of the traced run plus the tracing overhead.

Every command's exit code, the training log, the scores file and the EER
are checked; each failed check counts in ``failed``. The last line of
standard output is the result as one JSON object; the line before it is a
record of the run (environment, sample counts, scores sha256, quality).
Metric names and units are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corpus import BATCH, CorpusSpec, write_config, write_corpus
from worker import parse_scores_file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER_TIMEOUT_S = 150
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    variant: str
    aggregation: str
    corpus: CorpusSpec
    epochs: int
    score_only: bool    # True: reps only score; the checkpoint is trained in the run


_TRAIN_CORPUS = CorpusSpec(train_speakers=20, train_utts=15, train_frames=(200, 300),
                           test_speakers=60, test_utts=8, test_frames=(200, 300),
                           nontarget_trials=10000)
_SCORE_CORPUS = CorpusSpec(train_speakers=20, train_utts=11, train_frames=(200, 300),
                           test_speakers=50, test_utts=8, test_frames=(100, 600),
                           nontarget_trials=25000)
_TINY_CORPUS = CorpusSpec(train_speakers=4, train_utts=6, train_frames=(200, 240),
                          test_speakers=4, test_utts=3, test_frames=(100, 300),
                          nontarget_trials=40)

WORKLOADS = {
    "train-se": Workload("se", "avg", _TRAIN_CORPUS, 3, False),
    "train-mfsc": Workload("mfsc", "avg_max", _TRAIN_CORPUS, 3, False),
    "score-sfsc": Workload("sfsc", "avg", _SCORE_CORPUS, 3, True),
}


def tiny(w: Workload) -> Workload:
    """The same workload at a budget that runs in seconds (benchmark self-test)."""
    return Workload(w.variant, w.aggregation, _TINY_CORPUS, 3, w.score_only)


class Tally:
    """Operations attempted and failed: commands, steps, scored trials, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, work: Path):
        self.work = work
        self.jobs = 0
        self.env = {k: v for k, v in os.environ.items() if k != "FREQATTN_SEED"}
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def job(self, commands, mode="run", trace=False, scores=None) -> dict:
        """Run commands in a fresh interpreter; a crash returns a report with rc 1."""
        self.jobs += 1
        job_path = self.work / f"job{self.jobs}.json"
        report_path = self.work / f"report{self.jobs}.json"
        job_path.write_text(json.dumps({"src": str(SRC), "commands": commands,
                                        "mode": mode, "trace": trace,
                                        "scores": str(scores) if scores else None}))
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(job_path), str(report_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=WORKER_TIMEOUT_S)
            detail = proc.stderr[-2000:]
            ok = proc.returncode == 0 and report_path.exists()
        except subprocess.TimeoutExpired:
            ok, detail = False, f"worker timed out after {WORKER_TIMEOUT_S}s"
        if not ok:
            return {"commands": [{"command": commands[0][0], "rc": 1, "wall_s": 0.0,
                                  "stdout": "", "stderr": detail}],
                    "setup_s": None, "step_times": [], "peak_rss_mb": None}
        return json.loads(report_path.read_text())


def cycle(deadline: float, jobs: list) -> dict:
    """Call the (name, fn) pairs of ``jobs`` in turn, each at least once, and
    again while another call of its name's last duration ends by ``deadline``
    (a ``time.perf_counter`` value). A job too long for the time left is
    skipped, so shorter ones fill the end of the run. Returns name -> list of
    results."""
    results = {name: [] for name, _ in jobs}
    last = {}
    ran = True
    while ran:
        ran = False
        for name, fn in jobs:
            if name in last and time.perf_counter() + last[name] > deadline:
                continue
            t = time.perf_counter()
            results[name].append(fn())
            last[name] = time.perf_counter() - t
            ran = True
    return results


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

EPOCH_RE = re.compile(r"^epoch=(\d+) loss=(\S+) acc=(\S+)$", re.M)
METRICS_RE = re.compile(r"^EER=(\S+) minDCF=(\S+)$", re.M)


def command(report, name):
    return next((c for c in report["commands"] if c["command"] == name), None)


def check_commands(tally: Tally, report: dict, expected: list) -> None:
    for name in expected:
        c = command(report, name)
        detail = "not run" if c is None else f"exit {c['rc']} {c['stderr'].strip()[-300:]}"
        tally.check(c is not None and c["rc"] == 0, f"freqattn {name}: {detail}")


def check_train(tally: Tally, report: dict, w: Workload, examples: int) -> list:
    """Epoch log and step count of one ``train`` command; returns the losses."""
    c = command(report, "train")
    out = c["stdout"] if c else ""
    losses = [float(m.group(2)) for m in EPOCH_RE.finditer(out)]
    tally.check(len(losses) == w.epochs, f"epoch lines: {len(losses)} for {w.epochs} epochs")
    finite = bool(losses) and all(math.isfinite(x) for x in losses)
    tally.check(finite, f"finite losses: {losses}")
    tally.check(finite and losses[-1] < losses[0], f"last loss below first: {losses}")
    expected_steps = w.epochs * math.ceil(examples / BATCH)
    tally.ops(expected_steps, max(0, expected_steps - len(report["step_times"])),
              "training steps")
    return losses


def check_scores(tally: Tally, report: dict, trials_path: Path, scores_path: Path):
    """One finite score per trial, in order; metrics' EER equals compute_eer."""
    trials = [line.split() for line in trials_path.read_text().splitlines() if line.strip()]
    rows = parse_scores_file(scores_path) if scores_path.exists() else []
    good = sum(1 for t, r in zip(trials, rows)
               if r is not None and [str(r[0]), r[1], r[2]] == t and math.isfinite(r[3]))
    tally.ops(len(trials), len(trials) - good, "scored trials")
    tally.check(len(rows) == len(trials), f"scores lines: {len(rows)} for {len(trials)} trials")
    c = command(report, "metrics")
    m = METRICS_RE.search(c["stdout"]) if c else None
    eer, min_dcf = (float(m.group(1)), float(m.group(2))) if m else (None, None)
    oracle = report.get("oracle_eer_pct")
    tally.check(eer is not None and oracle is not None and abs(eer - oracle) <= 5e-7,
                f"metrics EER {eer} equals compute_eer {oracle}")
    digest = hashlib.sha256(scores_path.read_bytes()).hexdigest() if scores_path.exists() else None
    return eer, min_dcf, digest


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def step_intervals_ms(reports) -> list:
    out = []
    for r in reports:
        out.extend(np.diff(r["step_times"]) * 1e3)
    return out


def end_to_end(w, counts, setups, train_reports, score_reports, quality, tally) -> tuple:
    # throughputs are all the work of the run over all its time, which
    # averages the host's slow and fast phases instead of picking one
    examples = counts["train_examples"] * w.epochs
    train_walls = [command(r, "train")["wall_s"] for r in train_reports
                   if command(r, "train") and command(r, "train")["rc"] == 0]
    steps = step_intervals_ms(train_reports)
    score_walls = []
    for r in score_reports:
        s, m = command(r, "score"), command(r, "metrics")
        if s and m and s["rc"] == 0 and m["rc"] == 0:
            score_walls.append(s["wall_s"] + m["wall_s"])
    # the peak of the workload's commands: the larger of the median train job
    # and the median score job (score jobs only, where training is set-up)
    kinds = [score_reports] if w.score_only else [train_reports, score_reports]
    rss = [statistics.median(r["peak_rss_mb"] for r in reports if r["peak_rss_mb"])
           for reports in kinds if any(r["peak_rss_mb"] for r in reports)]
    p50, p90 = (np.percentile(steps, [50, 90]) if steps else (None, None))
    values = {
        "setup_s": statistics.median(setups) if setups else None,
        "train_examples_per_s": (examples * len(train_walls) / sum(train_walls)
                                 if train_walls else None),
        "train_step_ms_p50": p50,
        "train_step_ms_p90": p90,
        "score_utts_per_s": (counts["test_utts"] * len(score_walls) / sum(score_walls)
                             if score_walls else None),
        "peak_rss_mb": max(rss) if len(rss) == len(kinds) else None,
        "final_loss": quality.get("final_loss"),
        "success_pct": 100.0 * (1.0 - tally.failed / max(tally.attempted, 1)),
    }
    samples = {"setup_s": setups,
               "train_examples_per_s": [examples / t for t in train_walls],
               "train_steps": len(steps),
               "score_utts_per_s": [counts["test_utts"] / t for t in score_walls]}
    return values, samples


LAYER_STATS = {
    "tensor.conv2d": ("self_ms", "calls", "gflop", "gflop_per_s"),
    "tensor.conv2d_backward": ("self_ms", "calls", "gflop", "gflop_per_s"),
    "tensor.relu": ("self_ms",),
    "tensor.relu_backward": ("self_ms",),
    "attention.forward": ("self_ms", "calls"),
    "attention.attention_backward": ("self_ms", "calls"),
    "dct.select_frequency_indices": ("self_ms", "calls", "repeat_share"),
    "dct.dct_basis": ("self_ms", "calls", "repeat_share"),
    "speakernet.forward_train": ("self_ms",),
    "speakernet.backward": ("self_ms",),
    "speakernet.forward_embed": ("self_ms",),
    "speakernet.aam_loss": ("self_ms", "calls"),
    "speakernet.Adam.step": ("self_ms", "calls"),
    "speakernet.load_checkpoint": ("self_ms",),
    "speakernet.save_checkpoint": ("self_ms",),
    "features.read_feat": ("self_ms", "calls"),
    "features.crop": ("self_ms",),
    "metrics.cosine_score": ("self_ms", "calls"),
    "metrics.evaluate_trials": ("self_ms",),
    "cli.main": ("self_ms",),
}


def per_layer(traced: list, untraced: list, quality: dict) -> dict:
    values = {}
    for layer, stats in LAYER_STATS.items():
        spans = [r["trace"][layer] for r in traced if "trace" in r]
        if not spans:
            continue
        self_ms = statistics.median(s["self_ms"] for s in spans)
        gflop = spans[0]["flop"] / 1e9
        derived = {"self_ms": self_ms, "calls": spans[0]["calls"], "gflop": gflop,
                   "gflop_per_s": gflop / (self_ms / 1e3) if self_ms > 0 else 0.0,
                   "repeat_share": spans[0]["repeat_share"]}
        for stat in stats:
            values[f"{layer}.{stat}"] = derived[stat]
    walls, base = ([sum(c["wall_s"] for c in r["commands"]) for r in reports
                    if all(c["rc"] == 0 for c in r["commands"])] for reports in (traced, untraced))
    if walls and base:
        values["trace_overhead_pct"] = 100.0 * (statistics.median(walls)
                                                / statistics.median(base) - 1.0)
    values.update(quality)
    return values


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "freqattn").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas, "threads": THREAD_ENV,
            "git_commit": commit, "src_sha256": src_hash.hexdigest()}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(args, work: Path):
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = tiny(w)
    corpus = work / "corpus"
    counts = write_corpus(corpus, w.corpus, args.seed)
    cfg, ckpt, scores = work / "run.cfg", work / "model.ckpt", work / "scores.txt"
    write_config(cfg, corpus, args.seed, w.variant, w.aggregation, w.epochs)
    trials = corpus / "trials.txt"
    train = ["train", "--config", str(cfg), "--out", str(ckpt)]
    score = ["score", "--checkpoint", str(ckpt), "--trials", str(trials),
             "--features", str(corpus / "feats"), "--out", str(scores)]
    metrics = ["metrics", "--scores", str(scores)]
    pipeline = [score, metrics] if w.score_only else [train, score, metrics]
    names = [c[0] for c in pipeline]

    runner = Runner(work)
    tally = Tally()
    digests, ckpt_digests, quality = [], [], {}

    def trained(report):
        losses = check_train(tally, report, w, counts["train_examples"])
        quality["final_loss"] = losses[-1] if losses else None
        ckpt_digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest()
                            if ckpt.exists() else None)

    def train_job():
        report = runner.job([train])
        check_commands(tally, report, ["train"])
        trained(report)
        return report

    def scored(report):
        eer, min_dcf, digest = check_scores(tally, report, trials, scores)
        quality["metrics.evaluate_trials.eer_pct"] = eer
        quality["metrics.evaluate_trials.min_dcf"] = min_dcf
        digests.append(digest)

    def score_job():
        report = runner.job([score, metrics], scores=scores)
        check_commands(tally, report, ["score", "metrics"])
        scored(report)
        return report

    def rep(trace):
        report = runner.job(pipeline, trace=trace, scores=scores)
        check_commands(tally, report, names)
        if not w.score_only:
            trained(report)
        scored(report)
        if trace:
            tally.check(report.get("trace_restored", False), "tracer restored every function")
        return report

    # score-only workloads train their checkpoint first and, with --trace 0,
    # once more in the run's last seconds, so that their train_* metrics
    # sample two moments
    deadline = time.perf_counter() + args.seconds
    setup_train = []
    if w.score_only:
        start = time.perf_counter()
        setup_train.append(train_job())
        if not args.trace:
            deadline -= time.perf_counter() - start
    if args.trace:
        jobs = cycle(deadline, [("untraced", lambda: rep(False)),
                                ("traced", lambda: rep(True))])
    else:
        # each command as a user runs it, in a fresh interpreter; the probe
        # stops the workload's first command at its first forward pass.
        # Scoring is short next to training, so it runs twice per cycle.
        probe = ("probe", lambda: runner.job([pipeline[0]], mode="setup"))
        scoring = ("score", score_job)
        if w.score_only:
            jobs = cycle(deadline, [probe, scoring])
            setup_train.append(train_job())
        else:
            jobs = cycle(deadline, [probe, ("train", train_job), scoring, scoring])
    for later in digests[1:]:
        tally.check(later == digests[0], "scores file identical across runs of one seed")
    for later in ckpt_digests[1:]:
        tally.check(later == ckpt_digests[0], "checkpoint identical across runs of one seed")

    if args.trace:
        values = per_layer(jobs["traced"], jobs["untraced"], quality)
        samples = {"traced_runs": len(jobs["traced"]), "untraced_runs": len(jobs["untraced"])}
    else:
        timed = jobs["score"] if w.score_only else jobs["train"]
        setups = [r["setup_s"] for r in jobs["probe"] + timed if r["setup_s"] is not None]
        train_reports = setup_train if w.score_only else jobs["train"]
        values, samples = end_to_end(w, counts, setups, train_reports, jobs["score"],
                                     quality, tally)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "tiny": args.tiny, "corpus": counts,
              "epochs": w.epochs, "samples": samples, "scores_sha256": digests,
              "checkpoint_sha256": ckpt_digests,
              "quality": quality, "failures": tally.failures,
              "environment": environment()}
    return values, tally, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="seconds-long budget for the benchmark's self-test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "freqattn" / "__init__.py").exists():
        print(f"error: no freqattn sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        values, tally, record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()         # only if no other run is using it

    missing = [m["name"] for m in declared if values.get(m["name"]) is None]
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    if missing:
        print(f"error: no value for {missing}; failures: {tally.failures}", file=sys.stderr)
        return 1
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
