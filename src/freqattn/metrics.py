"""Trial scoring and detection metrics: cosine similarity, EER, minDCF.

Conventions: a trial is accepted when score >= threshold, so at threshold
theta the miss rate is the fraction of target scores below theta and the
false-alarm rate is the fraction of nontarget scores at or above it. EER
interpolates linearly between the two operating points that bracket the
miss = false-alarm crossing. minDCF is normalized by the cost of the best
uninformative decision, min(c_miss * p_target, c_fa * (1 - p_target)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import NumericError, ParseError


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
    operating_points: list     # (threshold, p_miss, p_fa)


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise NumericError("cosine_score: zero-norm vector")
    return float(np.dot(a, b) / (na * nb))


def _split_scores(trials):
    if any(t.score is None for t in trials):
        raise ValueError("all trials must be scored")
    for t in trials:
        if not math.isfinite(t.score):
            raise NumericError(f"non-finite score {t.score} for trial {t.enroll} {t.test}")
    tgt = np.array([t.score for t in trials if t.label == 1], dtype=np.float64)
    non = np.array([t.score for t in trials if t.label == 0], dtype=np.float64)
    if tgt.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one nontarget trial")
    return tgt, non


def roc_points(target_scores, nontarget_scores):
    """Operating points (threshold, p_miss, p_fa) at every distinct score.

    A final point one step past the maximum pins down (p_miss, p_fa) = (1, 0).
    """
    tgt = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    all_scores = np.unique(np.concatenate([tgt, non]))
    thresholds = np.append(all_scores, all_scores[-1] + 1.0)
    p_miss = np.searchsorted(tgt, thresholds, side="left") / tgt.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    return list(zip(thresholds.tolist(), p_miss.tolist(), p_fa.tolist()))


def eer_from_scores(target_scores, nontarget_scores):
    """(EER, threshold) by linear interpolation at the miss/false-alarm crossing."""
    points = roc_points(target_scores, nontarget_scores)
    prev = points[0]
    for cur in points:
        miss, fa = cur[1], cur[2]
        if miss >= fa:
            if miss == fa:
                return miss, cur[0]
            th0, m0, f0 = prev
            th1, m1, f1 = cur
            # diff = miss - fa is nondecreasing; interpolate its zero crossing
            t = (f0 - m0) / ((m1 - m0) - (f1 - f0))
            return m0 + t * (m1 - m0), th0 + t * (th1 - th0)
        prev = cur
    raise AssertionError("no miss/false-alarm crossing found")  # unreachable


def min_dcf_from_scores(target_scores, nontarget_scores, p_target: float = 0.05,
                        c_miss: float = 1.0, c_fa: float = 1.0) -> float:
    points = roc_points(target_scores, nontarget_scores)
    best = min(c_miss * p_target * m + c_fa * (1.0 - p_target) * f
               for _, m, f in points)
    return best / min(c_miss * p_target, c_fa * (1.0 - p_target))


def compute_eer(trials):
    tgt, non = _split_scores(trials)
    return eer_from_scores(tgt, non)


def compute_min_dcf(trials, p_target: float = 0.05, c_miss: float = 1.0,
                    c_fa: float = 1.0) -> float:
    tgt, non = _split_scores(trials)
    return min_dcf_from_scores(tgt, non, p_target, c_miss, c_fa)


def evaluate_trials(trials, p_target: float = 0.05) -> EvalMetrics:
    tgt, non = _split_scores(trials)
    eer, threshold = eer_from_scores(tgt, non)
    return EvalMetrics(
        eer=eer,
        eer_threshold=threshold,
        min_dcf=min_dcf_from_scores(tgt, non, p_target),
        operating_points=roc_points(tgt, non))


# ---------------------------------------------------------------------------
# trial list and scores file formats
# ---------------------------------------------------------------------------

def parse_trials(text: str) -> List[Trial]:
    """One trial per line: '<0|1> <enroll> <test>', 1 = target."""
    trials = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        if parts[0] not in ("0", "1"):
            raise ParseError(f"line {lineno}: label must be 0 or 1, got {parts[0]!r}")
        trials.append(Trial(label=int(parts[0]), enroll=parts[1], test=parts[2]))
    return trials


def format_scores(trials) -> str:
    lines = [f"{t.label} {t.enroll} {t.test} {t.score:.6f}" for t in trials]
    return "\n".join(lines) + "\n"


def parse_scores(text: str) -> List[Trial]:
    """One scored trial per line: '<0|1> <enroll> <test> <score>'."""
    trials = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"line {lineno}: expected 4 fields, got {len(parts)}")
        if parts[0] not in ("0", "1"):
            raise ParseError(f"line {lineno}: label must be 0 or 1, got {parts[0]!r}")
        try:
            score = float(parts[3])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad score {parts[3]!r}") from exc
        trials.append(Trial(label=int(parts[0]), enroll=parts[1], test=parts[2],
                            score=score))
    return trials
