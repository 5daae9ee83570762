import os

import numpy as np
import pytest

from freqattn import cli
from freqattn import config as cfgmod
from freqattn import speakernet as sn

_ACCEPTANCE_LINES = []


@pytest.fixture
def acceptance_report():
    """Record one PASS/FAIL line per acceptance criterion.

    Lines print immediately (visible with -s) and are replayed in the
    terminal summary so they survive pytest's output capture.
    """
    def _report(num, name, ok, detail=""):
        line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}"
        print(line)
        _ACCEPTANCE_LINES.append(line)
        assert ok, f"criterion {num} ({name}) failed: {detail}"
    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def tiny_run_config():
    cfg = cfgmod.RunConfig()
    cfg.seed = 7
    cfg.network.stages = ((8, 3, 2), (16, 3, 2))
    cfg.network.embedding_dim = 16
    cfg.network.attention_variant = "mfsc"
    cfg.network.attention_k = (2, 4)
    cfg.network.aggregation = "avg_max"
    cfg.network.reduction = 4
    cfg.train.epochs = 2
    return cfg


def save_untrained_checkpoint(path, cfg):
    net = sn.SpeakerNet(cfg.network, np.random.default_rng(0))
    head = sn.AamHead(cfg.network.num_speakers, cfg.network.embedding_dim, cfg.margin,
                      cfg.scale, np.random.default_rng(0))
    sn.save_checkpoint(path, cfgmod.serialize_config(cfg),
                       net.parameters() + head.parameters())


def run_score(ckpt, trials, features_dir, out):
    return cli.main(["score", "--checkpoint", str(ckpt), "--trials", str(trials),
                     "--features", str(features_dir), "--out", str(out)])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    rc = cli.main(["synth", "--out", str(out), "--speakers", "4", "--utts", "6",
                   "--test-utts", "2", "--trials", "20", "--seed", "3"])
    assert rc == 0
    return out


@pytest.fixture
def cpus(monkeypatch):
    """Set the affinity mask this process sees to n CPUs; returns the list of
    pids it forks from then on."""
    forks = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks
    return set_cpus


def assert_reaped(pids):
    # waitpid(-1) would also see children that other tests leave
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
