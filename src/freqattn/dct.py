"""2D DCT basis planes, spectra, reconstruction, and frequency-index selection.

The basis plane for index (f, t) on an F x T grid is the cosine product

    D[i, j] = cos(pi*f/F * (i + 1/2)) * cos(pi*t/T * (j + 1/2))

Direct O(N^2) summation only; desk-scale grids never need a fast transform.
The (0, 0) plane is constant 1, so its normalized form (divided by F*T)
reduces a map to its global average: global average pooling is the lowest
frequency component of this decomposition.

Planes are rebuilt on every call, never memoized: a stack of k planes is one
outer product of a (k, F) and a (k, T) cosine table, about 0.1 ms at the
network's stage shapes (the conv before it takes milliseconds), and memory
stays flat over any number of input lengths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError
from .tensor import tensor


def _cos_table(freqs, n_pos: int) -> np.ndarray:
    """Rows indexed by frequency, columns by position: cos(pi*f/N * (i+1/2))."""
    return np.cos(np.pi * np.asarray(freqs)[:, None] / n_pos * (np.arange(n_pos) + 0.5))


def _planes(f_dim: int, t_dim: int, indices) -> np.ndarray:
    """(k, F, T) unnormalized planes as one outer product of two cosine tables."""
    for f, t in indices:
        if not (0 <= f < f_dim and 0 <= t < t_dim):
            raise IndexError(
                f"frequency index {(f, t)} out of range for grid {f_dim}x{t_dim}")
    f, t = np.array(indices, dtype=np.intp).reshape(-1, 2).T
    return _cos_table(f, f_dim)[:, :, None] * _cos_table(t, t_dim)[:, None, :]


def dct_basis(f_dim: int, t_dim: int, indices) -> np.ndarray:
    """Read-only (k, F, T) plane stack for the given index list, every plane
    divided by F*T, so that the (0, 0) plane is the constant 1/(F*T) and
    reducing with it equals the global mean."""
    planes = _planes(f_dim, t_dim, indices)
    planes /= f_dim * t_dim
    planes.setflags(write=False)
    return planes


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def dct2d(x: np.ndarray) -> np.ndarray:
    """Full spectrum SP[f,t] = sum_ij x[i,j] * cos(pi*f/F*(i+1/2)) * cos(pi*t/T*(j+1/2)).

    Plain cosine sums without scale constants, so SP[0,0] equals F*T times
    the global mean of x.
    """
    x = tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"dct2d: expected a 2D map, got shape {x.shape}")
    f_dim, t_dim = x.shape
    a = _cos_table(np.arange(f_dim), f_dim)
    b = _cos_table(np.arange(t_dim), t_dim)
    return a @ x @ b.T


def _ortho_matrix(n: int) -> np.ndarray:
    a = _cos_table(np.arange(n), n) * np.sqrt(2.0 / n)
    a[0] *= np.sqrt(0.5)
    return a


def dct2d_orthonormal(x: np.ndarray) -> np.ndarray:
    """Spectrum with orthonormal scale constants, exactly invertible by idct2d."""
    x = tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"dct2d_orthonormal: expected a 2D map, got shape {x.shape}")
    a = _ortho_matrix(x.shape[0])
    b = _ortho_matrix(x.shape[1])
    return a @ x @ b.T


def idct2d(sp: np.ndarray) -> np.ndarray:
    """Rebuild a map as the weighted sum of its frequency components.

    Inverse of ``dct2d_orthonormal``; round-trip reconstruction error stays
    below 1e-10 because the scale constants make the basis orthonormal.
    """
    sp = tensor(sp)
    if sp.ndim != 2:
        raise DimensionError(f"idct2d: expected a 2D spectrum, got shape {sp.shape}")
    a = _ortho_matrix(sp.shape[0])
    b = _ortho_matrix(sp.shape[1])
    return a.T @ sp @ b


def gap(x: np.ndarray) -> np.ndarray:
    """Global average pooling: per-channel mean over the (F, T) axes."""
    x = tensor(x)
    if x.ndim != 3:
        raise DimensionError(f"gap: expected a C x F x T map, got shape {x.shape}")
    return x.mean(axis=(1, 2))


def select_frequency_indices(f_dim: int, t_dim: int, k: int) -> list:
    """Pick the k lowest-frequency indices, as (f, t) tuples, in zigzag order.

    Indices rank by f+t, breaking ties by smaller f then smaller t, so the
    first index is always (0, 0). The anti-diagonals d = f + t are walked in
    ascending f and the walk stops after k indices.
    """
    if k > f_dim * t_dim:
        raise CapacityError(
            f"cannot select k={k} frequency components from a {f_dim}x{t_dim} grid "
            f"({f_dim * t_dim} available)")
    zigzag = ((f, d - f)
              for d in range(f_dim + t_dim - 1)
              for f in range(max(0, d - t_dim + 1), min(d, f_dim - 1) + 1))
    return list(itertools.islice(zigzag, k))


# ---------------------------------------------------------------------------
# self-verification (backs the `verify-dct` CLI subcommand)
# ---------------------------------------------------------------------------

@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


def run_verification() -> list:
    """Check the documented basis properties and report per-property results."""
    rng = np.random.default_rng(0)
    results = []

    # pairwise orthogonality of distinct planes, brute force on every grid
    worst = 0.0
    for f_dim in range(1, 9):
        for t_dim in range(1, 9):
            planes = _planes(f_dim, t_dim, list(np.ndindex(f_dim, t_dim)))
            mat = planes.reshape(f_dim * t_dim, -1)
            g = mat @ mat.T
            off = g - np.diag(np.diag(g))
            worst = max(worst, float(np.max(np.abs(off))))
    results.append(PropertyResult(
        "orthogonality", worst < 1e-9,
        f"max |<Di,Dj>| over distinct pairs = {worst:.3e} (grids up to 8x8)"))

    # lowest component equals F*T times the global mean
    worst = 0.0
    for _ in range(100):
        c = int(rng.integers(1, 9))
        f_dim = int(rng.integers(1, 17))
        t_dim = int(rng.integers(1, 21))
        x = rng.standard_normal((c, f_dim, t_dim))
        sp00 = np.array([dct2d(x[i])[0, 0] for i in range(c)])
        worst = max(worst, float(np.max(np.abs(sp00 - f_dim * t_dim * gap(x)))))
    results.append(PropertyResult(
        "gap_equivalence", worst < 1e-9,
        f"max |SP[0,0] - F*T*gap| = {worst:.3e} over 100 random tensors"))

    # normalized (0,0) plane reduces a map to its global mean
    worst = 0.0
    for _ in range(20):
        f_dim = int(rng.integers(1, 9))
        t_dim = int(rng.integers(1, 9))
        x = rng.standard_normal((3, f_dim, t_dim))
        plane = dct_basis(f_dim, t_dim, [(0, 0)])[0]
        z = np.einsum("ij,cij->c", plane, x)
        worst = max(worst, float(np.max(np.abs(z - gap(x)))))
    results.append(PropertyResult(
        "normalized_gap_reduction", worst < 1e-12,
        f"max |normalized (0,0) reduction - gap| = {worst:.3e}"))

    # orthonormal round trip
    worst = 0.0
    for shape in [(4, 6), (8, 8), (5, 3), (1, 7), (6, 1)]:
        x = rng.standard_normal(shape)
        rec = idct2d(dct2d_orthonormal(x))
        worst = max(worst, float(np.max(np.abs(rec - x))))
    results.append(PropertyResult(
        "orthonormal_round_trip", worst < 1e-10,
        f"max |idct2d(dct2d_orthonormal(x)) - x| = {worst:.3e}"))

    # repeated basis construction is bitwise identical
    same = bool(np.array_equal(dct_basis(7, 5, [(2, 3)]), dct_basis(7, 5, [(2, 3)])))
    results.append(PropertyResult(
        "determinism", same, "repeated basis generation is bitwise identical"))

    return results
