"""Trial scoring and detection metrics: cosine similarity, EER, minDCF.

Conventions: a trial is accepted when score >= threshold, so at threshold
theta the miss rate is the fraction of target scores below theta and the
false-alarm rate is the fraction of nontarget scores at or above it. EER
interpolates linearly between the two operating points that bracket the
miss = false-alarm crossing. minDCF uses p_target = 0.05 and
C_miss = C_fa = 1, normalized by the cost of the best uninformative
decision, min(p_target, 1 - p_target).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, NumericError, ParseError

P_TARGET = 0.05


@dataclass
class Trial:
    label: int                 # 1 = target, 0 = nontarget
    enroll: str
    test: str
    score: Optional[float] = None


@dataclass
class EvalMetrics:
    eer: float
    eer_threshold: float
    min_dcf: float


def embedding_norm(emb: np.ndarray) -> float:
    """L2 norm of an embedding that can be scored: finite, not all zero, and
    small enough that its norm does not overflow (a cosine over an infinite
    norm reads 0 or nan)."""
    if not np.all(np.isfinite(emb)):
        raise NumericError("non-finite embedding")
    norm = np.linalg.norm(emb)
    if norm == 0.0:
        raise NumericError("zero-norm embedding")
    if not np.isfinite(norm):
        raise NumericError("embedding norm overflows")
    return norm


def cosine_score(a: np.ndarray, norm_a: float, b: np.ndarray, norm_b: float) -> float:
    """Cosine similarity of a and b, given their `embedding_norm`s."""
    return float(np.dot(a, b) / (norm_a * norm_b))


def _split_scores(trials):
    if any(t.score is None for t in trials):
        raise ConfigError("all trials must be scored")
    for t in trials:
        if not math.isfinite(t.score):
            raise NumericError(f"non-finite score {t.score} for trial {t.enroll} {t.test}")
    tgt = np.array([t.score for t in trials if t.label == 1], dtype=np.float64)
    non = np.array([t.score for t in trials if t.label == 0], dtype=np.float64)
    if tgt.size == 0 or non.size == 0:
        raise ConfigError("need at least one target and one nontarget trial")
    return tgt, non


def _roc(tgt, non):
    """(thresholds, p_miss, p_fa) at every distinct score.

    The first point has (p_miss, p_fa) = (0, 1); a final point one step past
    the maximum pins down (1, 0).
    """
    tgt, non = np.sort(tgt), np.sort(non)     # float64, from _split_scores
    levels = np.unique(np.concatenate([tgt, non]))
    thresholds = np.append(levels, levels[-1] + 1.0)
    p_miss = np.searchsorted(tgt, thresholds, side="left") / tgt.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    return thresholds, p_miss, p_fa


def _eer(thresholds, p_miss, p_fa):
    # first index with miss >= false alarm; never 0, where (p_miss, p_fa) = (0, 1)
    i = int(np.argmax(p_miss >= p_fa))
    if p_miss[i] == p_fa[i]:
        return float(p_miss[i]), float(thresholds[i])
    th0, th1 = thresholds[i - 1:i + 1].tolist()
    m0, m1 = p_miss[i - 1:i + 1].tolist()
    f0, f1 = p_fa[i - 1:i + 1].tolist()
    # diff = miss - fa is nondecreasing; interpolate its zero crossing
    t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
    return m0 + t * (m1 - m0), th0 + t * (th1 - th0)


def _min_dcf(p_miss, p_fa) -> float:
    best = float(np.min(P_TARGET * p_miss + (1.0 - P_TARGET) * p_fa))
    return best / min(P_TARGET, 1.0 - P_TARGET)


def compute_eer(trials):
    """(EER, threshold) by linear interpolation at the miss/false-alarm crossing."""
    return _eer(*_roc(*_split_scores(trials)))


def evaluate_trials(trials) -> EvalMetrics:
    thresholds, p_miss, p_fa = _roc(*_split_scores(trials))
    eer, threshold = _eer(thresholds, p_miss, p_fa)
    return EvalMetrics(eer=eer, eer_threshold=threshold, min_dcf=_min_dcf(p_miss, p_fa))


# ---------------------------------------------------------------------------
# trial list and scores file formats
# ---------------------------------------------------------------------------

def _parse_lines(text: str, scored: bool) -> List[Trial]:
    """Trials from '<0|1> <enroll> <test>' lines, each with a fourth field, the
    score, if `scored`; blank lines are skipped."""
    n_fields = 4 if scored else 3
    trials = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != n_fields:
            raise ParseError(f"line {lineno}: expected {n_fields} fields, got {len(parts)}")
        if parts[0] not in ("0", "1"):
            raise ParseError(f"line {lineno}: label must be 0 or 1, got {parts[0]!r}")
        trial = Trial(label=int(parts[0]), enroll=parts[1], test=parts[2])
        if scored:
            try:
                trial.score = float(parts[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad score {parts[3]!r}") from exc
        trials.append(trial)
    return trials


def parse_trials(text: str) -> List[Trial]:
    """One trial per line: '<0|1> <enroll> <test>', 1 = target."""
    return _parse_lines(text, scored=False)


def format_scores(trials) -> str:
    lines = [f"{t.label} {t.enroll} {t.test} {t.score:.6f}" for t in trials]
    return "\n".join(lines) + "\n"


def parse_scores(text: str) -> List[Trial]:
    """One scored trial per line: '<0|1> <enroll> <test> <score>'."""
    return _parse_lines(text, scored=True)
