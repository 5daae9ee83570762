import pytest
import test_cli
from test_cli import assert_reaped

from freqattn import shares


def square(x):
    return x * x


def fail_at_3_and_4(x):
    if x in (3, 4):
        raise ValueError(f"item {x}")
    return x


class TestMapItems:
    """map_items is [fn(x) for x in items] over one share per CPU."""

    cpus = test_cli.TestScoreSplit.cpus

    @pytest.mark.parametrize("count", [0, 1, 2, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_the_list_comprehension(self, cpus, n, count):
        split = shares.openblas_threads() is not None
        forks = cpus(n)
        items = list(range(count))
        assert shares.map_items(square, items) == [square(x) for x in items]
        assert len(forks) == (max(min(n, count) - 1, 0) if split else 0)
        assert_reaped(forks)

    def test_no_fork_without_the_blas_calls(self, cpus, monkeypatch):
        monkeypatch.setattr(shares, "openblas_threads", lambda: None)
        forks = cpus(3)
        assert shares.map_items(square, list(range(7))) == [x * x for x in range(7)]
        assert forks == []

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_earliest_failing_item_is_raised(self, cpus, n):
        # items 3 and 4 fall in different shares at 2 and 3 CPUs: at 2 the
        # earlier is a child's, at 3 this process's
        forks = cpus(n)
        with pytest.raises(ValueError, match="^item 3$"):
            shares.map_items(fail_at_3_and_4, list(range(7)))
        assert_reaped(forks)
