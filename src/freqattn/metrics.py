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

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ConfigError, NumericError, ParseError

P_TARGET = 0.05


@dataclass
class Trials:
    """A trial list as columns. Trial i compares ids[enroll[i]] with
    ids[test[i]]; labels[i] is 1 for a target trial, 0 for a nontarget one.
    The parsers list each distinct id once, in order of first use."""
    labels: np.ndarray              # int8
    ids: List[str]
    enroll: np.ndarray              # intp, indices into ids
    test: np.ndarray
    scores: Optional[np.ndarray] = None     # float64


@dataclass
class Trial:
    """One trial as an object: the input of `compute_eer`."""
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


# trials per gather in cosine_score: two (CHUNK, dim) blocks, not two (n, dim)
CHUNK = 1024


def cosine_score(embeddings: np.ndarray, norms: np.ndarray, enroll: np.ndarray,
                 test: np.ndarray) -> np.ndarray:
    """Cosine similarity of rows enroll[i] and test[i] of `embeddings` for
    every i, given the rows' `embedding_norm`s.

    Each score is bitwise float(np.dot(a, b) / (norm_a * norm_b)): a stacked
    1 x dim by dim x 1 matmul takes numpy's vector dot, as np.dot does, where
    einsum or a row sum of products adds in another order.
    """
    scores = np.empty(len(enroll))
    for start in range(0, len(enroll), CHUNK):
        e, t = enroll[start:start + CHUNK], test[start:start + CHUNK]
        dots = np.matmul(embeddings[e][:, None, :], embeddings[t][:, :, None])
        scores[start:start + CHUNK] = dots[:, 0, 0] / (norms[e] * norms[t])
    return scores


def _split_scores(trials: Trials):
    if trials.scores is None:
        raise ConfigError("all trials must be scored")
    bad = np.flatnonzero(~np.isfinite(trials.scores))
    if bad.size:
        i = bad[0]
        raise NumericError(f"non-finite score {float(trials.scores[i])} for trial "
                           f"{trials.ids[trials.enroll[i]]} {trials.ids[trials.test[i]]}")
    tgt = trials.scores[trials.labels == 1]
    non = trials.scores[trials.labels == 0]
    if tgt.size == 0 or non.size == 0:
        raise ConfigError("need at least one target and one nontarget trial")
    return tgt, non


def _roc(tgt, non):
    """(thresholds, p_miss, p_fa) at every distinct score.

    The first point has (p_miss, p_fa) = (0, 1); a final point one step past
    the maximum pins down (1, 0).
    """
    tgt, non = np.sort(tgt), np.sort(non)     # float64, from _split_scores
    both = np.sort(np.concatenate([tgt, non]))
    # the distinct scores as np.unique gives them, without its import of numpy.ma
    levels = both[np.append(True, both[1:] != both[:-1])]
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


def compute_eer(trials: List[Trial]):
    """(EER, threshold) of a list of `Trial`s, by linear interpolation at the
    miss/false-alarm crossing."""
    if any(t.score is None for t in trials):
        raise ConfigError("all trials must be scored")
    ids = [tid for t in trials for tid in (t.enroll, t.test)]
    columns = Trials(labels=np.array([t.label for t in trials], dtype=np.int8), ids=ids,
                     enroll=np.arange(0, len(ids), 2), test=np.arange(1, len(ids), 2),
                     scores=np.array([t.score for t in trials], dtype=np.float64))
    return _eer(*_roc(*_split_scores(columns)))


def evaluate_trials(trials: Trials) -> EvalMetrics:
    thresholds, p_miss, p_fa = _roc(*_split_scores(trials))
    eer, threshold = _eer(thresholds, p_miss, p_fa)
    return EvalMetrics(eer=eer, eer_threshold=threshold, min_dcf=_min_dcf(p_miss, p_fa))


# ---------------------------------------------------------------------------
# trial list and scores file formats
# ---------------------------------------------------------------------------

def _line_error(lineno: int, parts: List[str], n_fields: int) -> Optional[ParseError]:
    """What is wrong with one nonblank line split into `parts`, if anything."""
    if len(parts) != n_fields:
        return ParseError(f"line {lineno}: expected {n_fields} fields, got {len(parts)}")
    if parts[0] not in ("0", "1"):
        return ParseError(f"line {lineno}: label must be 0 or 1, got {parts[0]!r}")
    if n_fields == 4:
        try:
            float(parts[3])
        except ValueError:
            return ParseError(f"line {lineno}: bad score {parts[3]!r}")
    return None


def _parse_lines(text: str, scored: bool) -> Trials:
    """Trials from '<0|1> <enroll> <test>' lines, each with a fourth field, the
    score, if `scored`; blank lines are skipped.

    Once every line is known to hold 0 or n_fields fields, the fields of the
    whole text, in order, are the columns interleaved. Only when a check
    fails are the lines walked again, to name the first bad one.
    """
    n_fields = 4 if scored else 3
    try:
        if set(map(len, map(str.split, text.splitlines()))) - {0, n_fields}:
            raise ValueError
        fields = text.split()
        labels = fields[0::n_fields]
        if set(labels) - {"0", "1"}:
            raise ValueError
        scores = (np.fromiter(map(float, fields[3::4]), np.float64, len(labels))
                  if scored else None)
    except ValueError:
        for lineno, line in enumerate(text.splitlines(), start=1):
            parts = line.split()
            error = parts and _line_error(lineno, parts, n_fields)
            if error:
                raise error from None
        raise
    names = [None] * (2 * len(labels))
    names[0::2], names[1::2] = fields[1::n_fields], fields[2::n_fields]
    index = {tid: i for i, tid in enumerate(dict.fromkeys(names))}
    codes = np.fromiter(map(index.__getitem__, names), np.intp, len(names))
    return Trials(labels=np.frombuffer("".join(labels).encode(), np.int8) - ord("0"),
                  ids=list(index), enroll=codes[0::2], test=codes[1::2], scores=scores)


def parse_trials(text: str) -> Trials:
    """One trial per line: '<0|1> <enroll> <test>', 1 = target."""
    return _parse_lines(text, scored=False)


def format_scores(trials: Trials) -> str:
    """One '<label> <enroll> <test> <score>' line per trial, the score to six
    decimals, formatted in one pass over all fields."""
    n = len(trials.labels)
    fields = [None] * (4 * n)
    fields[0::4] = trials.labels.tolist()
    fields[1::4] = map(trials.ids.__getitem__, trials.enroll.tolist())
    fields[2::4] = map(trials.ids.__getitem__, trials.test.tolist())
    fields[3::4] = trials.scores.tolist()
    return ("%d %s %s %.6f\n" * n) % tuple(fields)


def parse_scores(text: str) -> Trials:
    """One scored trial per line: '<0|1> <enroll> <test> <score>'."""
    return _parse_lines(text, scored=True)
