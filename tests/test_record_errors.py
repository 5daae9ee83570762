"""Every named error of the FEAT and checkpoint readers, one case each.

Each case damages one small valid file. The reader must raise its package
error type, with the path in front exactly once, and a fragment that names
the field with its byte offset, or the bad cell.
"""

import struct

import numpy as np
import pytest

from freqattn import features as feats
from freqattn import speakernet as sn
from freqattn.errors import FormatError, NumericError


def feat_bytes(values, version=1):
    """A FEAT file built field by field, independent of the writer under test."""
    values = np.asarray(values, dtype="<f8")
    return (b"FEAT" + struct.pack(f"<{2 + values.ndim}I", version, values.ndim,
                                  *values.shape) + values.tobytes())


def feat_with_nan():
    values = np.arange(6.0).reshape(2, 3)
    values[1, 2] = np.nan
    return feat_bytes(values)


# 2 x 3 matrix: magic 0-4, version 4-8, rank 8-12, dims 12-20, values 20-68
VALID_FEAT = feat_bytes(np.arange(6.0).reshape(2, 3))

# name -> (file bytes, n_mels asked for, error type, fragment)
FEAT_CASES = {
    "bad_magic": (b"NOPE" + VALID_FEAT[4:], 2, FormatError, "not a FEAT file"),
    "version_2": (feat_bytes(np.zeros((2, 3)), version=2), 2, FormatError,
                  "unsupported FEAT version 2"),
    "cut_in_magic": (VALID_FEAT[:2], 2, FormatError, "not a FEAT file"),
    "cut_in_version": (VALID_FEAT[:6], 2, FormatError,
                       "truncated at byte offset 4: version needs 4 bytes, 2 left"),
    "cut_in_rank": (VALID_FEAT[:10], 2, FormatError, "truncated at byte offset 8: "
                    "rank of feature matrix needs 4 bytes, 2 left"),
    "cut_in_dims": (VALID_FEAT[:15], 2, FormatError, "truncated at byte offset 12: "
                    "shape of feature matrix needs 8 bytes, 3 left"),
    "cut_in_values": (VALID_FEAT[:30], 2, FormatError, "truncated at byte offset 20: "
                      "values of feature matrix needs 48 bytes, 10 left"),
    "trailing_bytes": (VALID_FEAT + bytes(8), 2, FormatError,
                       "8 bytes after the feature matrix, at byte offset 68"),
    "rank_3": (feat_bytes(np.zeros((2, 3, 1))), 2, FormatError, "expected rank 2, got 3"),
    "empty_dim": (feat_bytes(np.zeros((2, 0))), 2, FormatError,
                  "empty 2x0 feature matrix"),
    "wrong_n_mels": (VALID_FEAT, 64, FormatError,
                     "2 mel bins, config has features.n_mels = 64"),
    "nan_cell": (feat_with_nan(), 2, NumericError,
                 "non-finite value nan in feature matrix at [1, 2] (1 in all)"),
}


def set_bytes(at, data):
    def damage(blob):
        return blob[:at] + data + blob[at + len(data):]
    return damage


def cut(size):
    return lambda blob: blob[:size]


# config text "seed = 7\n", then stage0.conv.w of shape 2x1x3x3 first: magic 0-4,
# version 4-8, config length 8-12, config text 12-21, name length 21-25,
# name 25-38, rank 38-42, shape 42-58, values 58-202
CHECKPOINT_CASES = {
    "bad_magic": (set_bytes(0, b"XXXX"), FormatError, "not a checkpoint file (bad magic)"),
    "version_2": (set_bytes(4, struct.pack("<I", 2)), FormatError,
                  "unsupported checkpoint version 2"),
    "cut_in_version": (cut(6), FormatError,
                       "truncated at byte offset 4: version needs 4 bytes, 2 left"),
    "cut_in_config_length": (cut(10), FormatError, "truncated at byte offset 8: "
                             "length of config text needs 4 bytes, 2 left"),
    "cut_in_config_text": (cut(15), FormatError, "truncated at byte offset 12: "
                           "config text needs 9 bytes, 3 left"),
    "cut_in_name_length": (cut(23), FormatError, "truncated at byte offset 21: "
                           "length of parameter name needs 4 bytes, 2 left"),
    "cut_in_name": (cut(30), FormatError, "truncated at byte offset 25: "
                    "parameter name needs 13 bytes, 5 left"),
    "cut_in_rank": (cut(40), FormatError, "truncated at byte offset 38: "
                    "rank of stage0.conv.w needs 4 bytes, 2 left"),
    "cut_in_shape": (cut(50), FormatError, "truncated at byte offset 42: "
                     "shape of stage0.conv.w needs 16 bytes, 8 left"),
    "cut_in_values": (cut(100), FormatError, "truncated at byte offset 58: "
                      "values of stage0.conv.w needs 144 bytes, 42 left"),
    "non_utf8_config": (set_bytes(12, b"\xff"), FormatError,
                        "config text at byte offset 12 is not UTF-8"),
    "non_utf8_name": (set_bytes(25, b"\xff"), FormatError,
                      "parameter name at byte offset 25 is not UTF-8"),
    "nan_cell": (set_bytes(58 + 8 * 4, struct.pack("<d", np.nan)), NumericError,
                 "non-finite value nan in stage0.conv.w at [0, 0, 1, 1] (1 in all)"),
}


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    cfg = sn.NetworkConfig(stages=((2, 3, 2),), attention_k=(2,), embedding_dim=2,
                           reduction=2)
    path = tmp_path_factory.mktemp("valid") / "m.ckpt"
    net = sn.SpeakerNet(cfg, np.random.default_rng(0))
    sn.save_checkpoint(path, "seed = 7\n", net.parameters())
    return path.read_bytes()


def expect_named(read, path, error, fragment):
    with pytest.raises(error) as info:
        read(path)
    message = str(info.value)
    assert type(info.value) is error
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1, message
    assert fragment in message


@pytest.mark.parametrize("case", sorted(FEAT_CASES))
def test_feat_error_is_named(tmp_path, case):
    blob, n_mels, error, fragment = FEAT_CASES[case]
    path = tmp_path / "x.feat"
    path.write_bytes(blob)
    expect_named(lambda p: feats.read_feat(p, n_mels), path, error, fragment)


@pytest.mark.parametrize("case", sorted(CHECKPOINT_CASES))
def test_checkpoint_error_is_named(tmp_path, valid_checkpoint, case):
    damage, error, fragment = CHECKPOINT_CASES[case]
    path = tmp_path / "x.ckpt"
    path.write_bytes(damage(valid_checkpoint))
    expect_named(sn.load_checkpoint, path, error, fragment)
