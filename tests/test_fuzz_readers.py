"""Damaged files: every reader either parses or raises a FreqattnError.

Each reader gets one small valid file, cut at every offset and, through
Hypothesis, cut at a random offset or with a few random bytes flipped. Text
files are read the way the CLI reads them, inside `naming`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from wavfile import write_wav

from freqattn import config as cfgmod
from freqattn import features as feats
from freqattn import metrics as mt
from freqattn import speakernet as sn
from freqattn.errors import FreqattnError, naming


def _read_text(parse):
    def read(path):
        with naming(path):
            return parse(path.read_text())
    return read


def _read_checkpoint(path):
    cfg_text, _ = sn.load_checkpoint(path)
    with naming(path):
        cfgmod.parse_config(cfg_text)


READERS = {
    "feat": lambda path: feats.read_feat(path, 4),     # the valid file's bin count
    "checkpoint": _read_checkpoint,
    "wav": feats.read_wav,
    "config": _read_text(cfgmod.parse_config),
    "trials": _read_text(mt.parse_trials),
    "scores": _read_text(lambda text: mt.evaluate_trials(mt.parse_scores(text))),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid file per reader, as bytes."""
    work = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    feats.write_feat(work / "feat", rng.standard_normal((4, 3)))
    write_wav(work / "wav", rng.uniform(-0.5, 0.5, 16))
    cfg = cfgmod.RunConfig()
    cfg.network.stages = ((2, 3, 2),)
    cfg.network.embedding_dim = 2
    cfg.network.attention_k = (2,)
    cfg.network.reduction = 2
    text = cfgmod.serialize_config(cfg)
    (work / "config").write_text(text)
    net = sn.SpeakerNet(cfg.network, np.random.default_rng(0))
    sn.save_checkpoint(work / "checkpoint", text, net.parameters())
    (work / "trials").write_text("1 a.feat b.feat\n0 a.feat c.feat\n")
    (work / "scores").write_text("1 a b 0.900000\n1 c d 0.200000\n"
                                 "0 e f 0.800000\n0 g h -0.100000\n")
    for name in READERS:
        READERS[name](work / name)      # each valid file parses
    return {name: (work / name).read_bytes() for name in READERS}


@pytest.fixture(scope="module")
def damaged_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "input"


def parses_or_raises_package_error(reader, path, blob):
    path.write_bytes(blob)
    try:
        READERS[reader](path)
    except FreqattnError:
        pass


@pytest.mark.parametrize("reader", sorted(READERS))
def test_cut_at_every_offset(reader, valid, damaged_path):
    blob = valid[reader]
    for size in range(len(blob)):
        parses_or_raises_package_error(reader, damaged_path, blob[:size])


def damage(blob):
    """`blob` cut at a random offset, or with one to eight bytes XOR-flipped."""
    cut = st.integers(0, len(blob)).map(lambda size: blob[:size])
    flips = st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                     min_size=1, max_size=8)

    def flipped(changes):
        out = bytearray(blob)
        for at, mask in changes:
            out[at] ^= mask
        return bytes(out)
    return st.one_of(cut, flips.map(flipped))


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_damaged_file(reader, valid, damaged_path, data):
    parses_or_raises_package_error(reader, damaged_path, data.draw(damage(valid[reader])))
