import math

import numpy as np
import pytest

from freqattn import dct
from freqattn.errors import CapacityError, DimensionError


def plane_naive(f_dim, t_dim, f, t):
    """Explicit double-loop cosine-product oracle."""
    out = np.empty((f_dim, t_dim))
    for i in range(f_dim):
        for j in range(t_dim):
            out[i, j] = math.cos(math.pi * f / f_dim * (i + 0.5)) * \
                math.cos(math.pi * t / t_dim * (j + 0.5))
    return out


def dct2d_naive(x):
    f_dim, t_dim = x.shape
    sp = np.empty((f_dim, t_dim))
    for f in range(f_dim):
        for t in range(t_dim):
            sp[f, t] = np.sum(x * plane_naive(f_dim, t_dim, f, t))
    return sp


def raw_plane(f_dim, t_dim, f, t):
    """dct_basis's normalized (f, t) plane scaled back by F*T."""
    return dct.dct_basis(f_dim, t_dim, [(f, t)])[0] * (f_dim * t_dim)


class TestBasisPlane:
    def test_lowest_plane_is_ones(self):
        assert np.array_equal(raw_plane(4, 4, 0, 0), np.ones((4, 4)))

    def test_two_point_column(self):
        p = raw_plane(2, 1, 1, 0)
        expected = [[0.7071067811865476], [-0.7071067811865476]]
        assert np.allclose(p, expected, atol=1e-15)

    def test_transpose_symmetry_on_square_grids(self):
        for n in (2, 3, 5):
            for f in range(n):
                for t in range(n):
                    a = raw_plane(n, n, f, t)
                    b = raw_plane(n, n, t, f)
                    assert np.allclose(a, b.T, atol=1e-15)

    def test_matches_naive_oracle(self):
        for f_dim, t_dim in [(3, 4), (8, 5), (1, 6)]:
            for f in range(f_dim):
                for t in range(t_dim):
                    got = raw_plane(f_dim, t_dim, f, t)
                    assert np.allclose(got, plane_naive(f_dim, t_dim, f, t), atol=1e-14)

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            dct.dct_basis(4, 4, [(4, 0)])
        with pytest.raises(IndexError):
            dct.dct_basis(4, 4, [(0, -1)])

    def test_plane_is_readonly_and_bitwise_stable(self):
        a = dct.dct_basis(6, 6, [(2, 1)])
        b = dct.dct_basis(6, 6, [(2, 1)])
        assert not a.flags.writeable and not b.flags.writeable
        assert a.tobytes() == b.tobytes()


class TestDct2d:
    def test_lowest_component_hand_value(self):
        sp = dct.dct2d([[1.0, 2.0], [3.0, 4.0]])
        assert sp[0, 0] == pytest.approx(10.0, abs=1e-12)

    def test_lowest_component_is_scaled_gap(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 4, 6))
        for c in range(3):
            assert dct.dct2d(x[c])[0, 0] == pytest.approx(
                4 * 6 * dct.gap(x)[c], abs=1e-9)

    def test_constant_input_has_only_lowest_component(self):
        x = np.full((5, 7), 2.75)
        sp = dct.dct2d(x)
        mask = np.ones_like(sp, dtype=bool)
        mask[0, 0] = False
        assert np.max(np.abs(sp[mask])) < 1e-12

    def test_zero_input(self):
        assert np.array_equal(dct.dct2d(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 4))
        assert np.allclose(dct.dct2d(x), dct2d_naive(x), atol=1e-12)

    def test_rejects_non_2d(self):
        with pytest.raises(DimensionError):
            dct.dct2d(np.zeros((2, 2, 2)))


class TestRoundTrip:
    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        rec = dct.idct2d(dct.dct2d_orthonormal(x))
        assert np.max(np.abs(rec - x)) < 1e-10

    def test_zero_spectrum(self):
        assert np.array_equal(dct.idct2d(np.zeros((3, 5))), np.zeros((3, 5)))

    def test_dc_only_spectrum_is_constant(self):
        sp = np.zeros((4, 4))
        sp[0, 0] = 8.0
        rec = dct.idct2d(sp)
        assert np.allclose(rec, rec[0, 0])
        assert rec[0, 0] == pytest.approx(8.0 / 4.0)  # 1/sqrt(F*T) scale


class TestGap:
    def test_constant(self):
        x = np.full((3, 2, 5), 3.0)
        assert np.allclose(dct.gap(x), 3.0)

    def test_hand_mean(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert dct.gap(x)[0] == pytest.approx(2.5)

    def test_proportionality_many_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            f_dim = int(rng.integers(1, 17))
            t_dim = int(rng.integers(1, 21))
            x = rng.standard_normal((int(rng.integers(1, 9)), f_dim, t_dim))
            z = dct.gap(x)
            for c in range(x.shape[0]):
                assert abs(dct.dct2d(x[c])[0, 0] - f_dim * t_dim * z[c]) < 1e-9


class TestSelectFrequencyIndices:
    def test_single_component_is_lowest(self):
        assert dct.select_frequency_indices(8, 8, 1) == [(0, 0)]

    def test_rank_order_with_tie_break(self):
        # ranked by f+t, then smaller f, then smaller t
        got = dct.select_frequency_indices(8, 8, 6)
        assert got == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_exhaustive_small_grid(self):
        got = dct.select_frequency_indices(2, 2, 4)
        assert sorted(got) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert got[0] == (0, 0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            dct.select_frequency_indices(2, 2, 5)

    def test_matches_brute_force_ranking(self):
        for f_dim, t_dim, k in [(3, 5, 7), (8, 8, 16), (4, 2, 8)]:
            ranked = sorted(((f + t, f, t) for f in range(f_dim) for t in range(t_dim)))
            expected = [(f, t) for _, f, t in ranked[:k]]
            assert dct.select_frequency_indices(f_dim, t_dim, k) == expected

    def test_every_grid_and_k_up_to_12x12_matches_sorted_ranking(self):
        for f_dim in range(1, 13):
            for t_dim in range(1, 13):
                ranked = [(f, t) for _, f, t in sorted(
                    (f + t, f, t) for f in range(f_dim) for t in range(t_dim))]
                for k in range(f_dim * t_dim + 1):
                    got = dct.select_frequency_indices(f_dim, t_dim, k)
                    assert got == ranked[:k], (f_dim, t_dim, k)
                    assert all(type(i) is tuple for i in got)
                with pytest.raises(CapacityError, match=f"{f_dim}x{t_dim} grid"):
                    dct.select_frequency_indices(f_dim, t_dim, f_dim * t_dim + 1)


class TestDctBasis:
    def test_normalized_lowest_plane_is_uniform(self):
        planes = dct.dct_basis(4, 6, [(0, 0), (1, 2)])
        assert np.allclose(planes[0], 1.0 / 24.0)
        assert planes.shape == (2, 4, 6)

    def test_normalized_reduction_reproduces_gap(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 4, 6))
        plane = dct.dct_basis(4, 6, [(0, 0)])[0]
        z = np.einsum("ij,cij->c", plane, x)
        assert np.max(np.abs(z - dct.gap(x))) < 1e-12

    def test_planes_are_readonly_and_bitwise_stable(self):
        a = dct.dct_basis(3, 3, [(0, 0), (0, 1)])
        b = dct.dct_basis(3, 3, [(0, 0), (0, 1)])
        assert not a.flags.writeable and not b.flags.writeable
        assert a.tobytes() == b.tobytes()


def worst_inner_product(f_dim, t_dim):
    """Largest |<Di, Dj>| over distinct planes of dct_basis on an F x T grid,
    every plane scaled back by F*T."""
    planes = dct.dct_basis(f_dim, t_dim, list(np.ndindex(f_dim, t_dim)))
    flat = planes.reshape(f_dim * t_dim, -1) * (f_dim * t_dim)
    gram = flat @ flat.T
    return float(np.max(np.abs(gram - np.diag(np.diag(gram)))))


class TestOrthogonality:
    def test_all_distinct_pairs_on_small_grids(self):
        for f_dim in range(1, 9):
            for t_dim in range(1, 9):
                assert worst_inner_product(f_dim, t_dim) < 1e-9, (f_dim, t_dim)

    def test_plane_perturbed_by_dct_basis_fails(self, monkeypatch):
        dct_basis = dct.dct_basis

        def perturbed(f_dim, t_dim, indices):
            out = dct_basis(f_dim, t_dim, indices).copy()
            if out.shape[0] > 1:
                out[1] += 1e-3
            return out

        monkeypatch.setattr(dct, "dct_basis", perturbed)
        assert worst_inner_product(3, 4) > 1e-9


def build_in_threads(n_threads=8):
    """The same 16 planes of dct_basis, built in each of n_threads threads;
    the first exception a thread raised is raised here."""
    import threading

    results, errors = [None] * n_threads, []

    def worker(i):
        try:
            results[i] = np.stack([dct.dct_basis(11, 9, [(f, t)])[0]
                                   for f in range(4) for t in range(4)])
        except Exception as exc:    # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


class TestThreadedPlanes:
    def test_parallel_plane_builds_are_bitwise_equal(self):
        results = build_in_threads()
        for r in results:
            assert isinstance(r, np.ndarray) and r.shape == (16, 11, 9)
            assert np.array_equal(r, results[0])

    def test_builder_that_raises_fails(self, monkeypatch):
        def broken(f_dim, t_dim, indices):
            raise AttributeError("broken builder")

        monkeypatch.setattr(dct, "dct_basis", broken)
        with pytest.raises(AttributeError, match="broken builder"):
            build_in_threads()


def perturb_second_plane(monkeypatch):
    """Make every multi-plane stack built by dct._planes non-orthogonal."""
    planes = dct._planes

    def perturbed(f_dim, t_dim, indices):
        out = planes(f_dim, t_dim, indices)
        if out.shape[0] > 1:
            out[1] += 1e-3
        return out

    monkeypatch.setattr(dct, "_planes", perturbed)


class TestVerificationReport:
    def test_all_properties_pass(self):
        results = dct.run_verification()
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        names = {r.name for r in results}
        assert {"orthogonality", "gap_equivalence", "orthonormal_round_trip",
                "normalized_gap_reduction", "determinism"} <= names

    def test_perturbed_basis_fails(self, monkeypatch):
        perturb_second_plane(monkeypatch)
        results = dct.run_verification()
        failed = [r.name for r in results if not r.passed]
        assert "orthogonality" in failed

    def test_basis_divided_by_f_alone_fails(self, monkeypatch):
        # the network's normalized planes, not a copy of their rule, are checked
        def by_f_alone(f_dim, t_dim, indices):
            planes = dct._planes(f_dim, t_dim, indices) / f_dim
            planes.setflags(write=False)
            return planes
        monkeypatch.setattr(dct, "dct_basis", by_f_alone)
        failed = [r.name for r in dct.run_verification() if not r.passed]
        assert failed == ["normalized_gap_reduction"]
