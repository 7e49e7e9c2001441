from fractions import Fraction

import numpy as np
import pytest

from treecap import (
    SphericallySymmetric,
    TreeTooLargeError,
    build_tree,
    capacity_of_set,
    compact_set_of_capacity,
    greedy_digits,
    homogeneous_capacity,
    lambda_digits,
    subdyadic_tree_of_capacity,
    symmetric_capacity,
)


def test_greedy_digits_exact_over_fractions():
    exp = greedy_digits(Fraction(11, 4), Fraction(1, 2), 6)
    assert exp.digits == (2, 1, 1, 0, 0, 0)
    assert exp.value() + exp.remainder == Fraction(11, 4)
    assert exp.remainder == 0
    exp = greedy_digits(0.0, 0.5, 4)
    assert exp.digits == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        greedy_digits(-1.0, 0.5, 4)
    with pytest.raises(ValueError):
        greedy_digits(1.0, 1.5, 4)


def test_greedy_digits_remainder_bound():
    rng = np.random.default_rng(51)
    for _ in range(20):
        base = float(rng.uniform(0.3, 0.9))
        val = float(rng.uniform(0, 10))
        exp = greedy_digits(val, base, 25)
        assert 0 <= exp.remainder < base ** 24
        assert exp.value() + exp.remainder == pytest.approx(val, abs=1e-12)


def test_subdyadic_exact_third():
    res = subdyadic_tree_of_capacity(Fraction(1, 3), 2)
    assert res.digits[0] == 1 and set(res.digits[1:]) == {0}
    assert res.achieved.contains(1 / 3)
    assert res.error <= 1e-12


def test_subdyadic_respects_range():
    cap2 = homogeneous_capacity(2, 2)
    for bad in (0.0, -0.1, cap2, cap2 + 0.1, 1.0):
        with pytest.raises(ValueError):
            subdyadic_tree_of_capacity(bad, 2)


def test_subdyadic_hits_targets():
    rng = np.random.default_rng(52)
    for p in (2.0, 2.5, 3.0):
        hi = homogeneous_capacity(2, p)
        for _ in range(5):
            target = float(rng.uniform(0.05, 0.95) * hi)
            res = subdyadic_tree_of_capacity(target, p, digit_count=30)
            assert res.error <= 1e-4, (p, target, res.error)
            assert res.achieved.lower <= target + 1e-4


def test_subdyadic_spec_builds():
    res = subdyadic_tree_of_capacity(0.3, 2, digit_count=8)
    t = build_tree(res.spec, depth=6, layout="explicit")
    # degree sequence alternates the prescribed unary runs and branchings
    degs = []
    for r in res.digits:
        degs.extend([1] * r)
        degs.append(2)
    assert t.level_degrees == degs[:6]
    iv = symmetric_capacity(degs, 2, tail_degree=2)
    assert abs(iv.midpoint - res.achieved.midpoint) <= 1e-12
    assert res.error == abs(res.achieved.midpoint - 0.3)


def test_lambda_digits():
    t = build_tree(SphericallySymmetric([2, 3]))
    z = t.true_leaves()[-1]
    assert lambda_digits(t, z) == [1, 2]
    assert lambda_digits(t, 0) == []


def test_compact_set_reaches_targets():
    res = compact_set_of_capacity(2, 2, 0.25, tol=1e-3, depth=10)
    assert res.error <= 1e-3
    assert res.leaves == list(range(res.leaves[0],
                                    res.leaves[0] + len(res.leaves)))
    # independent check of the reported capacity
    check = capacity_of_set(res.tree, res.leaves, 2)
    assert check.capacity.midpoint == pytest.approx(res.capacity, rel=1e-10)


def test_compact_set_monotone_in_target():
    sizes = []
    for target in (0.1, 0.2, 0.3):
        res = compact_set_of_capacity(2, 2, target, tol=5e-3, depth=10)
        sizes.append(len(res.leaves))
    assert sizes == sorted(sizes)


def test_compact_set_edge_cases():
    res = compact_set_of_capacity(2, 2, 0.0, tol=1e-3, depth=6)
    assert res.leaves == [] and res.capacity == 0.0
    with pytest.raises(ValueError):
        compact_set_of_capacity(2, 2, 0.9, tol=1e-3, depth=6)  # above full
    with pytest.raises(ValueError):
        compact_set_of_capacity(2, 2, 0.26, tol=1e-9, depth=3)  # too coarse
    with pytest.raises(ValueError):
        compact_set_of_capacity(1, 2, 0.1)
    with pytest.raises(ValueError):
        compact_set_of_capacity(2, 2, -0.5)


def test_compact_set_refuses_depth_beyond_the_explicit_budget():
    # 2^21 - 1 edges: refused by the size check, before any arena exists
    with pytest.raises(TreeTooLargeError, match="explicit budget"):
        compact_set_of_capacity(2, 2, 0.3, depth=20)


def test_subdyadic_tree_needs_a_digit():
    for count in (0, -1):
        with pytest.raises(ValueError, match="digit_count"):
            subdyadic_tree_of_capacity(0.3, 2, digit_count=count)
    assert len(subdyadic_tree_of_capacity(0.3, 2, digit_count=1).digits) == 1
