"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import nearest_rank, tail_percentile  # noqa: E402
from tracing import Tracer, relative_duality_gap, self_times  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile(list(range(20))) == (50.0, 9)
    assert tail_percentile(list(range(100))) == (90.0, 89)
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    # Ties at the tail do not count as beyond the percentile.
    assert tail_percentile([1.0] * 95 + [2.0] * 5) is None


def test_nearest_rank():
    assert nearest_rank([3, 1, 2], 50) == 2
    assert nearest_rank([5], 99.9) == 5


def test_self_time_subtracts_child_coverage():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping, as two pool
    # workers would) and [9, 12], which runs past the root's end.
    starts = [0.0, 1.0, 2.0, 9.0, 2.5]
    ends = [10.0, 3.0, 5.0, 12.0, 3.5]
    parents = [-1, 0, 0, 0, 2]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)


def test_tracer_records_nesting_and_failures():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped_leaf = tracer.wrap("m.leaf", leaf)
    outer = tracer.wrap("m.outer", lambda: [wrapped_leaf(1), wrapped_leaf(2)])
    assert outer() == [1, 2]
    with pytest.raises(ValueError):
        wrapped_leaf(-1)
    assert tracer.names == ["m.outer", "m.leaf", "m.leaf", "m.leaf"]
    assert tracer.parents == [-1, 0, 0, -1]
    assert tracer.failed == [False, False, False, True]
    assert tracer.stack == []


def test_duality_gap_of_hand_solved_two_point_dual():
    # x = +1 (y = +1) and x = -1 (y = -1), linear kernel, C = 1. The dual
    # max a1 + a2 - (a1 + a2)^2 / 2 with a1 = a2 peaks at a = 1/2: w = 1,
    # b = 0, both points on the margin, primal = dual = 1/2.
    K = np.array([[1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, -1.0])
    assert relative_duality_gap(K, y, 1.0, np.array([0.5, -0.5]), 0.0) == pytest.approx(0.0, abs=1e-15)
    # At a = 1/4: w = 1/2, each hinge is 1/2, so primal = 1/8 + 1 and
    # dual = 1/2 - 1/8; the gap is 3/4 of the primal 9/8.
    assert relative_duality_gap(K, y, 1.0, np.array([0.25, -0.25]), 0.0) == pytest.approx(2.0 / 3.0)
