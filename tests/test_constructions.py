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


# ---------------------------------------------------------------------------
# the path walk against whole-tree sweeps

WALK_PS = (1.2, 1.5, 2.0, 3.0, 8.0)


class PrefixSweeps:
    """Capacities of leading-leaf prefixes of tree, each one
    capacity_of_set sweep over the whole tree, memoized."""

    def __init__(self, tree, p):
        self.tree, self.p = tree, p
        self.leaves = tree.true_leaves()
        self.total = len(self.leaves)
        self.memo = {0: 0.0}

    def __call__(self, m):
        if m not in self.memo:
            res = capacity_of_set(self.tree, self.leaves[:m], self.p)
            self.memo[m] = res.capacity.lower
        return self.memo[m]

    def is_selection(self, m, target):
        """Whether the bisection over a monotone prefix capacity picks
        m.  It finds a, the smallest count whose capacity reaches
        target (the total when none does), and keeps whichever of a - 1
        and a is closer, the smaller on a tie.  a is m or m + 1."""
        def is_a(a):
            return ((a == self.total or self(a) >= target)
                    and (a == 0 or self(a - 1) < target))

        for a in (m, m + 1):
            if 0 <= a <= self.total and is_a(a):
                counts = [k for k in (a - 1, a) if k >= 0]
                return m == min(counts,
                                key=lambda k: (abs(self(k) - target), k))
        return False


def walk_cases(n, shallow, deep):
    """(depth, exponents, target count): every exponent with 30 targets
    up to depth shallow, then one exponent per depth and 4 targets."""
    for depth in range(1, deep + 1):
        if depth <= shallow:
            yield depth, WALK_PS, 30
        else:
            yield depth, (WALK_PS[depth % len(WALK_PS)],), 4


@pytest.mark.parametrize("n, shallow, deep", [(2, 10, 16), (3, 6, 10)])
def test_path_walk_picks_the_sweep_selection(n, shallow, deep):
    for depth, ps, count in walk_cases(n, shallow, deep):
        tree = build_tree(SphericallySymmetric([n] * depth),
                          layout="explicit")
        for p in ps:
            sweeps = PrefixSweeps(tree, p)
            full = sweeps(sweeps.total)
            for target in np.linspace(0.0, full, count):
                res = compact_set_of_capacity(n, p, float(target),
                                              tol=np.inf, depth=depth)
                m = len(res.leaves)
                assert sweeps.is_selection(m, target), (n, depth, p, target)
                assert res.capacity == pytest.approx(sweeps(m), rel=1e-13,
                                                     abs=0.0)
                first = tree.n_edges - sweeps.total
                assert res.leaves == list(range(first, first + m))


@pytest.mark.filterwarnings("error")
def test_path_walk_overflows_like_the_sweep_at_large_p():
    # (1 + S^(p'-1))^(p-1) overflows for every S > 0 at p = 2000: every
    # prefix then has capacity 0, and a float ** would raise instead
    for depth in (1, 4, 9):
        tree = build_tree(SphericallySymmetric([2] * depth))
        sweeps = PrefixSweeps(tree, 2000.0)
        for target in (0.0, 1e-300, 0.2):
            res = compact_set_of_capacity(2, 2000.0, target, tol=np.inf,
                                          depth=depth)
            assert sweeps.is_selection(len(res.leaves), target)
            assert res.capacity == sweeps(len(res.leaves)) == 0.0
        with pytest.raises(ValueError, match="exceeds the full boundary"):
            compact_set_of_capacity(2, 2000.0, 0.2, tol=1e-3, depth=depth)


def test_compact_set_sweeps_only_the_quotient(monkeypatch):
    from treecap.trees import Tree
    swept = []
    sweep_up = Tree.sweep_up

    def counted(self, step):
        swept.append(self.n_edges)
        return sweep_up(self, step)

    monkeypatch.setattr(Tree, "sweep_up", counted)
    res = compact_set_of_capacity(2, 2, 0.3, tol=1e-3, depth=16)
    assert res.error <= 1e-3 and res.tree.n_edges == 2 ** 17 - 1
    assert swept and max(swept) <= 16 + 1


@pytest.mark.parametrize("target", [float("nan"), float("inf"),
                                    float("-inf")])
def test_compact_set_refuses_a_target_that_is_not_finite(target):
    with pytest.raises(ValueError, match="finite"):
        compact_set_of_capacity(2, 2, target, depth=6)


@pytest.mark.parametrize("name, value", [("n", 2.0), ("n", 2.5),
                                         ("depth", 6.0), ("depth", 2.5)])
def test_compact_set_refuses_non_integer_sizes(name, value):
    kwargs = {"n": 2, "depth": 6, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        compact_set_of_capacity(kwargs["n"], 2, 0.3, depth=kwargs["depth"])
