"""Smoke runs of the two example scripts and the benchmark self-test at a tiny budget."""

import os
import re
import subprocess
import sys
from pathlib import Path

import freqattn

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(freqattn.__file__).parents[1])] + sys.path))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_cli_pipeline_demo(tmp_path):
    lines = run_script("cli_pipeline_demo.py", "--workdir", str(tmp_path / "demo"),
                       "--speakers", "3", "--utts", "5", "--epochs", "1", cwd=tmp_path)
    assert re.fullmatch(r"EER=\d+\.\d{6} minDCF=\d+\.\d{6}", lines[-1]), lines[-1]
    assert (tmp_path / "demo" / "model.ckpt").read_bytes()[:4] == b"FAMC"


def test_toy_experiment(tmp_path):
    lines = run_script("toy_experiment.py", "--speakers", "3", "--utts", "5",
                       "--test-utts", "2", "--trials", "10", "--epochs", "1", cwd=tmp_path)
    header, *rows = lines[-4:]
    assert header.split()[:3] == ["variant", "EER%", "minDCF"]
    assert [row.split()[0] for row in rows] == ["se", "sfsc", "mfsc:avg_max"]


def test_benchmark_selftest():
    # the benchmark calls and traces freqattn functions by name; a rename must fail here
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
