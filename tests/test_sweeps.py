"""Tree.sweep_up and Tree.push_down against naive per-edge loops."""

import numpy as np
import pytest

from treecap import (Homogeneous, SphericallySymmetric, Tree,
                     TreeStructureError, build_tree, capacity_recursive,
                     energy_all, is_forward_additive, potential_all, tent,
                     total_resistance)
from helpers import random_tree


def naive_children(tree):
    kids = [[] for _ in range(tree.n_edges)]
    for i in range(1, tree.n_edges):
        kids[int(tree.parent[i])].append(i)
    return kids


def naive_sweep_up(tree, step):
    """Per-edge reference: children have larger ids than their parent,
    so descending ids see every child before its parent; children are
    summed in id order."""
    kids = naive_children(tree)
    out = np.zeros(tree.n_edges)
    S = np.zeros(tree.n_edges)
    for i in range(tree.n_edges - 1, -1, -1):
        S[i] = sum(out[c] for c in kids[i])
        out[i] = step(i, S[i])
    return out, S


def naive_push_down(tree, values, op):
    out = np.array(values, dtype=float)
    for i in range(1, tree.n_edges):
        out[i] = op(out[int(tree.parent[i])], values[i])
    return out


def trees():
    rng = np.random.default_rng(11)
    out = [random_tree(rng, max_edges=80) for _ in range(10)]
    out.append(random_tree(rng, max_edges=60, branching_only=True))
    out.append(build_tree(SphericallySymmetric([])))  # single edge
    out.append(build_tree(SphericallySymmetric([10_000])))  # star
    out.append(build_tree(SphericallySymmetric([1] * 4999)))  # path
    return out


@pytest.mark.parametrize("tree", trees(), ids=lambda t: f"{t.n_edges}e")
def test_sweeps_match_naive_loops(tree):
    rng = np.random.default_rng(tree.n_edges)
    w = rng.uniform(0.1, 1.0, tree.n_edges)
    leaf = np.array([not k for k in naive_children(tree)])

    def step(a, b, S):
        return np.where(leaf[a:b], w[a:b], S / (1.0 + S) + 0.5 * w[a:b])

    calls = []

    def recorded(a, b, S):
        calls.append((a, b))
        return step(a, b, S)

    out, S = tree.sweep_up(recorded)
    ref_out, ref_S = naive_sweep_up(
        tree, lambda i, s: step(i, i + 1, np.array([s]))[0])
    assert np.array_equal(out, ref_out)
    assert np.array_equal(S, ref_S)
    # one call per level, deepest first, covering every id once
    assert [tree.level_slice(k) for k in range(tree.depth, -1, -1)] == calls
    assert calls[-1] == (0, 1) and calls[0][1] == tree.n_edges
    for a, b in calls:
        assert len(set(tree.level[a:b].tolist())) == 1

    for op in (np.add, np.multiply, lambda up, v: np.maximum(up, v) - 0.25):
        assert np.array_equal(tree.push_down(w, op),
                              naive_push_down(tree, w, op))


@pytest.mark.parametrize("tree", trees()[:12], ids=lambda t: f"{t.n_edges}e")
def test_csr_arrays_match_parent(tree):
    kids = naive_children(tree)
    for i in range(tree.n_edges):
        assert tree.children_of(i) == kids[i]
        assert tree.n_children[i] == len(kids[i])
        expect = 0 if i == 0 else tree.level[tree.parent[i]] + 1
        assert tree.level[i] == expect
    assert not hasattr(tree, "children")


def test_unary_path_worst_case():
    """5000 levels of one edge each: one numpy call per edge per pass."""
    n = 5000
    path = build_tree(SphericallySymmetric([1] * (n - 1)))
    assert path.n_edges == n and path.depth == n - 1
    for p in (1.5, 2.0, 3.0):
        res = capacity_recursive(path, p)
        assert res.capacity.lower == pytest.approx(n ** (1.0 - p), rel=1e-9)
        pot = potential_all(path, res.equilibrium_function)
        assert pot.at_end(n - 1) == pytest.approx(1.0, rel=1e-9)
    rr = total_resistance(path)
    assert rr.lower == rr.upper == pytest.approx(n - 1, rel=1e-12)


def test_push_down_keeps_input():
    t = Tree([-1, 0, 0, 1])
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert t.push_down(v, np.add).tolist() == [1.0, 3.0, 4.0, 7.0]
    assert v.tolist() == [1.0, 2.0, 3.0, 4.0]


def expand(q):
    """The explicit tree a weighted quotient stands for: mult[c] copies
    of node c under every copy of its parent.  Returns the tree and the
    quotient node of each of its edges."""
    node, parent = [0], [-1]
    head = 0
    while head < len(node):
        for c in q.children_of(node[head]):
            node.extend([c] * int(q.mult[c]))
            parent.extend([head] * int(q.mult[c]))
        head += 1
    return Tree(parent, tail=q.tail[node]), np.array(node)


def test_weighted_quotient_sweeps_match_expanded_tree():
    q = Tree([-1, 0, 0, 1, 1, 2, 5], tail=[0, 0, 0, 1, 0, 0, 0],
             mult=[1, 2, 3, 1, 4, 2, 5])
    t, node = expand(q)
    assert t.n_edges == 1 + 2 + 3 + 2 + 8 + 6 + 30
    w = np.random.default_rng(5).uniform(0.1, 1.0, q.n_edges)
    leaf = q.n_children == 0

    def step_on(nodes):  # the same step, read through each edge's node
        def step(a, b, S):
            i = nodes[a:b]
            return np.where(leaf[i], w[i], S / (1.0 + S) + 0.5 * w[i])
        return step

    out_q, S_q = q.sweep_up(step_on(np.arange(q.n_edges)))
    out_t, S_t = t.sweep_up(step_on(node))
    np.testing.assert_allclose(out_t, out_q[node], rtol=1e-15)
    np.testing.assert_allclose(S_t, S_q[node], rtol=1e-15)
    assert tent(q, 2).mult.tolist() == [3, 2, 5]
    assert build_tree(SphericallySymmetric([2])).mult is None
    for bad in ([1, 2], [1, 0, 1, 1, 1, 1, 1]):
        with pytest.raises(TreeStructureError):
            Tree(q.parent, mult=bad)


def test_quotient_energies_and_additivity_match_explicit_layout():
    te = build_tree(Homogeneous(3), depth=5, layout="explicit")
    tc = build_tree(Homogeneous(3), depth=5, layout="compact")
    q = tc.quotient
    assert q.n_edges == 6 and q.mult.tolist() == [1, 3, 3, 3, 3, 3]
    for p in (1.5, 2.0, 3.0):
        M = capacity_recursive(tc, p).m_levels
        Me = capacity_recursive(te, p).measure.M
        np.testing.assert_allclose(energy_all(q, M, p)[te.level],
                                   energy_all(te, Me, p), rtol=1e-14)
        rep = is_forward_additive(q, M, tol=1e-15)
        assert rep.ok
        assert rep.max_violation == pytest.approx(
            is_forward_additive(te, Me).max_violation, abs=1e-16)
        broken = M.copy()
        broken[3] *= 1.01
        assert is_forward_additive(q, broken).worst_edge == 2
