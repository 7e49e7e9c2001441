"""The bottom-up steps that run only on edges with children against the
whole-level steps they replaced, kept here as references."""

import numpy as np
import pytest

from treecap import (Homogeneous, SphericallySymmetric, Subdyadic, Tree,
                     build_tree, capacity_equation_check, capacity_of_set,
                     capacity_recursive, tent, total_resistance)
from treecap import capacity, characterization
from helpers import random_tree

P_VALUES = (1.05, 1.5, 2.0, 2.5, 3.0, 30.0)
EPS = np.finfo(float).eps


def reference_tent_capacities(tree, pe, boundary_values):
    """The one-step map on every edge, leaves then overwritten."""
    leaf = tree.n_children == 0
    inv_D = np.ones(tree.n_edges)

    def step(a, b, S):
        if b == tree.n_edges:  # the deepest level holds leaves only
            return boundary_values[a:b]
        c, inv_D[a:b] = capacity._one_step(S, pe)
        np.copyto(c, boundary_values[a:b], where=leaf[a:b])
        return c

    c, _ = tree.sweep_up(step)
    return c, inv_D


def reference_resistance_explicit(tree, seeds):
    R = np.where(tree.tail, seeds, 0.0)
    inner = tree.n_children > 0

    def step(a, b, G):
        with np.errstate(divide="ignore"):
            R[a:b] = np.where(inner[a:b], 1.0 / G, R[a:b])
        return 1.0 / (1.0 + R[a:b])

    tree.sweep_up(step)
    return R


def reference_capacity_equation(tree, c, pe, tol):
    """Boolean masks on every level and c^q as its own power."""
    q = pe.conjugate
    W = np.where(tree.tail, c - c ** q, 0.0)
    inner = tree.n_children > 0

    def step(a, b, S):
        m = inner[a:b]
        W[a:b][m] = (1.0 - c[a:b][m] ** (q - 1.0)) ** pe.p * S[m]
        return c[a:b] ** q + W[a:b]

    tree.sweep_up(step)
    residuals = np.abs(c * (1.0 - c ** (q - 1.0)) - W)
    ok = float(residuals.max()) <= tol * max(float(c[tree.root]), 1e-12)
    return characterization.EquationReport(
        ok=bool(ok), max_residual=float(residuals.max()),
        residuals=residuals, skipped_tails=int(np.count_nonzero(tree.tail)))


def leafy_tree(rng, depth, mult=False):
    """A random tree with a leaf and an edge with children on every level
    from 1 to depth - 1, about half its leaves tails, and random
    multiplicities when mult is set."""
    parent, level = [-1], [0]
    for k in range(depth):
        n = len(level)
        inner = ([0] if n == 1 else
                 rng.choice(n, int(rng.integers(1, n)), replace=False))
        nxt = []
        for j in sorted(inner):  # the first gets two or more children
            for _ in range(int(rng.integers(1, 4)) + (len(nxt) == 0)):
                nxt.append(len(parent))
                parent.append(level[j])
        level = nxt
    n_children = np.bincount(parent[1:], minlength=len(parent))
    tail = (n_children == 0) & (rng.random(len(parent)) < 0.5)
    m = rng.integers(1, 4, len(parent)) if mult else None
    return Tree(parent, tail=tail, mult=m)


def explicit_trees():
    rng = np.random.default_rng(2024)
    out = [leafy_tree(rng, d) for d in (3, 5, 8)]
    out += [leafy_tree(rng, d, mult=True) for d in (4, 7)]
    out.append(random_tree(rng, max_edges=120))
    out.append(build_tree(Homogeneous(3), depth=4, layout="explicit"))
    out.append(build_tree(Subdyadic([1, 0, 2]), depth=7))
    out.append(build_tree(SphericallySymmetric([2, 3, 1, 2])))
    return out


TREES = explicit_trees()
COMPACT = build_tree(Homogeneous(2), depth=60)  # beyond the explicit budget


def policies(tree):
    out = ["interval", "pessimistic", "optimistic", 0.3]
    tails = tree.tail_ids() if isinstance(tree, Tree) else []
    if len(tails):
        out.append({z: (0.2, 0.6) if k % 2 else 0.4
                    for k, z in enumerate(tails)})
    return out


def assert_same_result(new, ref):
    assert new.capacity == ref.capacity
    for x, y in [(new.c_of_alpha, ref.c_of_alpha),
                 (new.measure.M, ref.measure.M),
                 (new.equilibrium_function, ref.equilibrium_function)]:
        assert np.array_equal(x, y)
    assert (new.upper_run is None) == (ref.upper_run is None)
    if new.upper_run is not None:
        assert np.array_equal(new.upper_run[0], ref.upper_run[0])
        assert np.array_equal(new.upper_run[1].M, ref.upper_run[1].M)


def test_every_test_tree_has_leaves_beside_inner_edges():
    for tree in TREES[:5]:
        for k in range(1, tree.depth):
            a, b = tree.level_slice(k)
            kids = tree.n_children[a:b]
            assert np.any(kids == 0) and np.any(kids > 0)


@pytest.mark.parametrize("tree", TREES + [COMPACT.quotient, Tree([-1])],
                         ids=lambda t: f"{t.n_edges}e")
def test_inner_positions_are_the_edges_with_children(tree):
    for k in range(tree.depth + 1):
        a, b = tree.level_slice(k)
        j = tree.inner_positions(a)
        assert np.array_equal(np.arange(b - a)[j],
                              np.flatnonzero(tree.n_children[a:b]))
    assert tree.inner_positions(0) is tree.inner_positions(0)  # cached


@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("tree", TREES + [COMPACT],
                         ids=lambda t: f"{t.n_edges}e")
def test_leaf_skipping_changes_no_capacity_result(monkeypatch, tree, p):
    for policy in policies(tree):
        new = capacity_recursive(tree, p, tail_policy=policy)
        with monkeypatch.context() as m:
            m.setattr(capacity, "_tent_capacities", reference_tent_capacities)
            ref = capacity_recursive(tree, p, tail_policy=policy)
        assert_same_result(new, ref)


@pytest.mark.parametrize("tree", TREES + [COMPACT],
                         ids=lambda t: f"{t.n_edges}e")
def test_leaf_skipping_changes_no_resistance(monkeypatch, tree):
    for policy in policies(tree):
        new = total_resistance(tree, tail_policy=policy)
        with monkeypatch.context() as m:
            m.setattr(capacity, "_resistance_explicit",
                      reference_resistance_explicit)
            ref = total_resistance(tree, tail_policy=policy)
        assert (new.lower, new.upper) == (ref.lower, ref.upper)
        assert np.array_equal(new.below_lower, ref.below_lower)
        assert np.array_equal(new.below_upper, ref.below_upper)


@pytest.mark.parametrize("p", P_VALUES)
def test_leaf_skipping_changes_no_set_capacity(monkeypatch, p):
    # edges off the set reach the one-step map with S = 0 inside the tree
    rng = np.random.default_rng(int(p * 100))
    for tree in TREES[:5]:  # each has a leaf on level 1
        # the set misses the tent of the last inner edge x of level 1
        a, b = tree.level_slice(1)
        x = a + int(np.flatnonzero(tree.n_children[a:b])[-1])
        off = np.zeros(tree.n_edges, dtype=bool)
        off[tent(tree, x).orig_ids] = True
        leaves = np.flatnonzero(tree.true_leaf_mask() & ~off)
        if not leaves.size:  # tails only, outside x: make them true leaves
            tree = Tree(tree.parent, mult=tree.mult)
            leaves = np.flatnonzero(tree.true_leaf_mask() & ~off)
        E = rng.choice(leaves, max(1, len(leaves) // 2), replace=False)
        new = capacity_of_set(tree, E.tolist(), p)
        with monkeypatch.context() as m:
            m.setattr(capacity, "_tent_capacities", reference_tent_capacities)
            ref = capacity_of_set(tree, E.tolist(), p)
        assert new.c_of_alpha[x] == 0.0
        assert_same_result(new, ref)


@pytest.mark.parametrize("p", P_VALUES)
def test_one_power_moves_equation_residuals_by_ulps_only(monkeypatch, p):
    """c^q taken as c c^(q-1) is within about 1.5 ulp of c ** q, and W
    adds such errors once per level below an edge; with c and W in
    [0, 1] a residual moves by at most 4 (depth + 1) ulps of 1."""
    for tree in TREES:
        for policy in policies(tree):
            r = capacity_recursive(tree, p, tail_policy=policy)
            new = capacity_equation_check(tree, r, p)
            with monkeypatch.context() as m:
                m.setattr(characterization, "_capacity_equation",
                          reference_capacity_equation)
                ref = capacity_equation_check(tree, r, p)
            assert (new.ok, new.skipped_tails) == (ref.ok, ref.skipped_tails)
            bound = 4 * (tree.depth + 1) * EPS
            assert np.max(np.abs(new.residuals - ref.residuals)) <= bound


def test_the_one_step_map_sees_only_edges_with_children(monkeypatch):
    """Leaves reach the map with S = 0, where numpy's power leaves its
    vector path; one run must hand it exactly the inner edges."""
    seen = []
    one_step = capacity._one_step

    def counted(S, pe):
        seen.append(np.size(S))
        return one_step(S, pe)

    monkeypatch.setattr(capacity, "_one_step", counted)
    tree = random_tree(np.random.default_rng(5), max_edges=2000)
    assert tree.quotient is None and not tree.tail.any()
    capacity_recursive(tree, 2.5)
    assert sum(seen) == np.count_nonzero(tree.n_children > 0)


@pytest.mark.parametrize("tree", TREES + [COMPACT.quotient, Tree([-1])],
                         ids=lambda t: f"{t.n_edges}e")
def test_inner_positions_are_int_arrays(tree):
    for k in range(tree.depth + 1):
        j = tree.inner_positions(tree.level_slice(k)[0])
        assert isinstance(j, np.ndarray) and j.dtype.kind == "i"
