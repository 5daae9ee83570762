"""Run configuration: the runtime config objects and their flat key=value text.

The on-disk form is one dotted key per line (``attention.variant = mfsc``),
serialized in sorted key order so a parse/serialize round trip is canonical.
Conv stages encode as ``channels:kernel:stride`` triples joined by commas.
Each key names one field of a runtime object (``_KEYS``); parsing builds
those objects, so every value is range-checked by its owner when the text
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParseError, naming
from .features import MelConfig
from .speakernet import NetworkConfig, TrainOptions, min_frames

# 10 minutes of 10 ms frames: a one-epoch `train` of the default network
# peaks at about 1.6 GB RSS per process there (crop rows, conv temporaries)
MAX_CROP_FRAMES = 60_000


def check_seed(value, source: str) -> int:
    """`value` as an rng seed, or a ConfigError naming `source`."""
    try:
        if int(value) >= 0:
            return int(value)
    except ValueError:
        pass
    raise ConfigError(f"{source} must be a non-negative integer, got {value!r}")


@dataclass
class RunConfig:
    seed: int = 7
    mel: MelConfig = field(default_factory=MelConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    train: TrainOptions = field(default_factory=TrainOptions)
    crop_seconds: float = 2.0
    mvn: bool = True
    margin: float = 0.2
    scale: float = 30.0
    train_list: str = ""
    features_dir: str = ""

    def __post_init__(self):
        check_seed(self.seed, "seed")
        if self.network.in_channels != 1:     # the CLI feeds one feature plane
            raise ConfigError(f"network.in_channels must be 1 for log-mel features, "
                              f"got {self.network.in_channels}")
        if not (self.margin >= 0.0 and self.scale > 0.0):
            raise ConfigError(f"margin must be >= 0 and scale > 0, got "
                              f"{self.margin} and {self.scale}")
        need = min_frames(self.network, self.mel.n_mels)
        try:
            frames = self.crop_frames
        except OverflowError:           # an infinite number of frames
            frames = math.copysign(math.inf, self.crop_seconds)
        if frames < need:
            raise ConfigError(f"crop_seconds={self.crop_seconds} must give a crop of >= "
                              f"{need} frames at frame_shift_ms="
                              f"{self.mel.frame_shift_ms}, the fewest that network.stages "
                              f"and attention.k need")
        if frames > MAX_CROP_FRAMES:
            raise ConfigError(f"crop_seconds={self.crop_seconds} gives {frames} frames at "
                              f"frame_shift_ms={self.mel.frame_shift_ms}, above the limit "
                              f"of {MAX_CROP_FRAMES}")

    @property
    def crop_frames(self) -> int:
        """Length in frames of every training crop."""
        return round(self.crop_seconds * (1000.0 / self.mel.frame_shift_ms))


# on-disk key -> (RunConfig attribute holding the field, or None for RunConfig
# itself; field name)
_KEYS = {
    "seed": (None, "seed"),
    "features.sample_rate": ("mel", "sample_rate"),
    "features.n_mels": ("mel", "n_mels"),
    "features.frame_len_ms": ("mel", "frame_len_ms"),
    "features.frame_shift_ms": ("mel", "frame_shift_ms"),
    "features.n_fft": ("mel", "n_fft"),
    "features.fmin": ("mel", "fmin"),
    "features.fmax": ("mel", "fmax"),
    "features.log_floor": ("mel", "log_floor"),
    "features.crop_seconds": (None, "crop_seconds"),
    "features.mvn": (None, "mvn"),
    "features.specaug": ("train", "augment"),
    "network.in_channels": ("network", "in_channels"),
    "network.stages": ("network", "stages"),
    "network.embedding_dim": ("network", "embedding_dim"),
    "network.num_speakers": ("network", "num_speakers"),
    "attention.variant": ("network", "attention_variant"),
    "attention.k": ("network", "attention_k"),
    "attention.aggregation": ("network", "aggregation"),
    "attention.reduction": ("network", "reduction"),
    "loss.margin": (None, "margin"),
    "loss.scale": (None, "scale"),
    "optimizer.lr": ("train", "lr"),
    "optimizer.epochs": ("train", "epochs"),
    "optimizer.batch": ("train", "batch_size"),
    "paths.train_list": (None, "train_list"),
    "paths.features_dir": (None, "features_dir"),
}

_DEFAULTS = RunConfig()   # read only: the type of each key's value


def _field_value(cfg: RunConfig, key: str):
    owner, name = _KEYS[key]
    return getattr(cfg if owner is None else getattr(cfg, owner), name)


def _format_value(key, value):
    if key == "network.stages":
        return ",".join(":".join(str(n) for n in stage) for stage in value)
    if key == "attention.k":
        return ",".join(str(n) for n in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(key, text, target_type):
    try:
        if key == "network.stages":
            stages = []
            for part in text.split(","):
                nums = [int(n) for n in part.split(":")]
                if len(nums) != 3:
                    raise ValueError("stage needs channels:kernel:stride")
                stages.append(tuple(nums))
            return tuple(stages)
        if key == "attention.k":
            return tuple(int(n) for n in text.split(","))
        if target_type is bool:
            if text not in ("true", "false"):
                raise ValueError(f"expected true/false, got {text!r}")
            return text == "true"
        if target_type is float and not math.isfinite(float(text)):
            raise ValueError("not a finite number")
        return target_type(text)   # int, float or str
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {text!r} ({exc})") from exc


def serialize_config(cfg: RunConfig) -> str:
    return "".join(f"{key} = {_format_value(key, _field_value(cfg, key))}\n"
                   for key in sorted(_KEYS))


def parse_config(text: str) -> RunConfig:
    """Parse config text; keys left out keep their defaults. The runtime
    objects are built, and range-check themselves, once every line is read."""
    values = {None: {}, "mel": {}, "network": {}, "train": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        owner, name = _KEYS[key]
        target = type(_field_value(_DEFAULTS, key))
        try:
            values[owner][name] = _parse_value(key, value.strip(), target)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return RunConfig(mel=MelConfig(**values["mel"]),
                     network=NetworkConfig(**values["network"]),
                     train=TrainOptions(**values["train"]), **values[None])


def env_seed(env, default: int) -> int:
    """FREQATTN_SEED from `env` if it is set there, else `default`."""
    return check_seed(env.get("FREQATTN_SEED", default), "FREQATTN_SEED")


def load_config(path) -> RunConfig:
    """Read a config file, naming it in any parse or range error."""
    with naming(path):
        return parse_config(Path(path).read_text())
