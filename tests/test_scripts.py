"""The example script at a tiny budget, and the benchmark self-test."""

import os
import subprocess
import sys
from pathlib import Path

import freqattn

ROOT = Path(__file__).resolve().parents[1]
TINY = ["--speakers", "3", "--utts", "5", "--trials", "10", "--epochs", "1"]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(freqattn.__file__).parents[1])] + sys.path))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)


def test_toy_experiment(tmp_path):
    work = tmp_path / "work"
    proc = run_script("toy_experiment.py", *TINY, "--test-utts", "2",
                      "--workdir", str(work), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    commands = [line.split()[2] for line in lines if line.startswith("$ freqattn ")]
    assert commands == ["synth"] + ["train", "score", "metrics"] * 3
    for stem in ("se", "sfsc", "mfsc_avg_max"):
        assert (work / f"{stem}.ckpt").read_bytes()[:4] == b"FAMC"
    header, *rows = lines[-4:]
    assert header.split() == ["variant", "EER%", "minDCF", "loss(1)", "loss(end)",
                              "params", "sec"]
    assert [row.split()[0] for row in rows] == ["se", "sfsc", "mfsc:avg_max"]


def test_toy_experiment_stops_at_a_failed_step(tmp_path):
    # one held-out utterance per speaker gives no target trial, which metrics rejects
    proc = run_script("toy_experiment.py", *TINY, "--test-utts", "1", "--variants", "se",
                      cwd=tmp_path)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "at least one target" in proc.stderr


def test_benchmark_selftest():
    # the benchmark calls and traces freqattn functions by name; a rename must fail here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
