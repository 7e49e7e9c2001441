"""Explicit trees from level-regular specs build their arena on first read.

Such a tree keeps its level table, its quotient and its continuation;
parent, n_children, first_child and tail are built from the table when
first read, and a tent of it is cut from the table the same way.  Every
array read must equal, byte for byte, the eager arena of the same spec:
a Tree made from a parent array, which holds every array from the start.
Leaf and tail queries read the table, and a tent runs on a quotient made
from it, so neither builds the arena.
"""

import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecap import (Homogeneous, SphericallySymmetric, Tree, build_tree,
                     capacity_equation_check, capacity_recursive,
                     check_potential_bound, compact_set_of_capacity,
                     homogeneous_capacity, rescaling_constant, tent,
                     total_resistance, verify_equilibrium)
from treecap.trees import stored_levels
from test_capacity import spec_built_trees
from test_referee_routes import assert_same

ARENA = {"parent", "n_children", "first_child", "tail"}
READS = ["parent", "n_children", "first_child", "tail", "level",
         "children_of", "parent_of", "true_leaves", "tail_ids"]


def eager_twin(t):
    """t with its whole arena built at once from its spec: child counts
    repeated over the level widths, then Tree(parent, tail=...)."""
    listed, eventual = t.spec.levels()
    degs = (listed + [eventual] * t.depth)[:t.depth]
    widths = np.cumprod([1] + degs)
    n_children = np.repeat(degs + [0], widths)
    parent = np.concatenate(
        ([-1], np.repeat(np.arange(n_children.size), n_children)))
    tail = np.zeros(len(parent), dtype=bool)
    tail[-widths[-1]:] = t.continuation is not None
    return Tree(parent, tail=tail, continuation=t.continuation)


def read(t, name):
    """What one read of name gives, as bytes or as a Python value."""
    if name in ("children_of", "parent_of"):
        return [getattr(t, name)(i) for i in range(t.n_edges)]
    if name in ("true_leaves", "tail_ids"):
        return list(getattr(t, name)())
    x = getattr(t, name)
    return x.dtype.str, x.tobytes()


@settings(max_examples=80, deadline=None, database=None)
@given(t=spec_built_trees(), order=st.permutations(READS),
       before_pickle=st.integers(0, len(READS)))
def test_every_arena_read_is_the_eager_arena(t, order, before_pickle):
    ref = eager_twin(t)
    want = {name: read(ref, name) for name in READS}
    assert not ARENA & set(vars(t))
    fresh = pickle.loads(pickle.dumps(t))
    assert {name: read(fresh, name) for name in READS} == want
    for name in order[:before_pickle]:
        assert read(t, name) == want[name], name
    t = pickle.loads(pickle.dumps(t))
    for name in order:
        assert read(t, name) == want[name], name


@settings(max_examples=60, deadline=None, database=None)
@given(t=spec_built_trees(), data=st.data())
def test_a_tent_of_a_spec_built_tree_keeps_the_contract(t, data):
    alpha = data.draw(st.integers(0, t.n_edges - 1))
    ref = tent(eager_twin(t), alpha)  # cut by _subtree
    sub = tent(t, alpha)
    assert not ARENA & set(vars(sub)) and "orig_ids" not in vars(sub)
    assert sub.continuation is t.continuation
    assert sub.quotient is None and sub.level_degrees is None
    assert sub.orig_ids.dtype == ref.orig_ids.dtype == np.int64
    assert sub.orig_ids.tobytes() == ref.orig_ids.tobytes()
    for name in READS:
        assert read(sub, name) == read(ref, name), name

    p = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
    r = capacity_recursive(t, p)
    try:
        unread = rescaling_constant(t, r, alpha)
    except ValueError:  # the potential reaches 1 above alpha
        return
    assert stored_levels(unread.measure, "M", unread.tent) is not None
    assert stored_levels(r.measure, "M", t) is not None
    r.measure.M  # build M: rescaling then reads it edge by edge
    got = rescaling_constant(t, r, alpha)
    assert (got.k, got.capacity) == (unread.k, unread.capacity)
    assert got.measure.M.tobytes() == unread.measure.M.tobytes()
    assert got.tent.orig_ids.tobytes() == unread.tent.orig_ids.tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(t=spec_built_trees(), data=st.data())
def test_the_referees_check_a_rescaled_tent_measure(t, data):
    # a tent has no quotient: its level-backed measure is spread, and the
    # reports are those of the same co-potential given as an array
    alpha = data.draw(st.integers(0, t.n_edges - 1))
    p = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
    try:
        rs = rescaling_constant(t, capacity_recursive(t, p), alpha)
    except ValueError:  # the potential reaches 1 above alpha
        return
    referees = (verify_equilibrium, check_potential_bound)
    assert stored_levels(rs.measure, "M", rs.tent) is not None
    unread = [f(rs.tent, rs.measure, p) for f in referees]
    M = rs.measure.M.copy()
    built = [f(rs.tent, rs.measure, p) for f in referees]
    for f, a, b in zip(referees, unread, built):
        want = f(rs.tent, M, p)
        assert_same(a, want, exact=True)
        assert_same(b, want, exact=True)


def test_the_large_homogeneous_chain_builds_no_arena():
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        t = build_tree(Homogeneous(2), depth=19, layout="explicit")
        results = {p: capacity_recursive(t, p) for p in (1.5, 2.0, 2.5, 3.0)}
        r = results[2.5]
        verify_equilibrium(t, r.measure, 2.5)
        check_potential_bound(t, r.measure, 2.5)
        capacity_equation_check(t, r, 2.5)
        rr = total_resistance(t)
        rs = rescaling_constant(t, r, 3)
        kids = t.children_of(t.n_edges // 2 - 1), t.children_of(t.n_edges - 1)
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert t.n_edges == 2 ** 20 - 1
    assert not ARENA & set(vars(t))
    assert grown < 65536
    assert rr.lower <= rr.upper and rs.tent.n_edges == 2 ** 18 - 1
    assert kids == ([t.n_edges - 2, t.n_edges - 1], [])


def test_repr_of_an_unread_result_builds_nothing():
    t = build_tree(Homogeneous(2), depth=16, layout="explicit")
    results = [capacity_recursive(t, 2.5), total_resistance(t),
               compact_set_of_capacity(2, 2, 0.3, tol=0.01, depth=16)]
    for x in results:
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            shown = repr(x)
            grown = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        assert grown < 65536, type(x).__name__
        assert "=<unread>" in shown and not ARENA & set(vars(t))
    r, rr, cs = results
    assert stored_levels(r, "c_of_alpha", t) is not None
    assert "c_of_alpha=<unread>, measure=<unread>" in repr(r)
    # a field once read shows its value, as the dataclass repr does
    assert f"c_of_alpha={r.c_of_alpha!r}, measure=<unread>" in repr(r)
    assert repr(rr).startswith(f"ResistanceResult(tree={t!r}, lower=")
    assert f"leaves={cs.leaves!r}, capacity=" in repr(cs)
    finite = build_tree(SphericallySymmetric([2, 3]), layout="compact")
    assert "c_of_alpha=array(" in repr(capacity_recursive(finite, 2.0))


def raising(*args, **kwargs):
    raise AssertionError("swept a tent that has a level table")


@pytest.mark.parametrize("p", [1.05, 2.0, 2.7, 8.0])
@settings(max_examples=40, deadline=None, database=None)
@given(t=spec_built_trees(), data=st.data())
def test_a_tent_of_a_spec_built_tree_runs_on_a_quotient(p, t, data):
    # the spec-free copy of the tent sweeps every edge; a sum of d equal
    # children is d v bit for bit when d <= 4 only
    alpha = data.draw(st.integers(0, t.n_edges - 1))
    sub = tent(t, alpha)
    ref = tent(t, alpha)
    swept = Tree(ref.parent, tail=ref.tail, continuation=ref.continuation)
    exact = max(t.level_degrees[t.level_of(alpha):], default=1) <= 4
    sub.sweep_up = sub.push_down = raising

    def agree(a, b):
        if exact:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=1e-15, atol=0.0)

    r, s = capacity_recursive(sub, p), capacity_recursive(swept, p)
    rr, sr = total_resistance(sub), total_resistance(swept)
    assert stored_levels(r, "c_of_alpha", sub) is not None
    got = [verify_equilibrium(sub, r.measure, p),
           check_potential_bound(sub, r.measure, p),
           capacity_equation_check(sub, r, p)]
    assert not ARENA & set(vars(sub))
    assert sub.quotient is None and sub.level_degrees is None
    agree([r.capacity.lower, r.capacity.upper],
          [s.capacity.lower, s.capacity.upper])
    agree(r.c_of_alpha, s.c_of_alpha)
    agree(r.measure.M, s.measure.M)
    assert (r.upper_run is None) == (s.upper_run is None)
    agree([rr.lower, rr.upper], [sr.lower, sr.upper])
    agree(rr.below_lower, sr.below_lower)
    want = [verify_equilibrium(swept, s.measure, p),
            check_potential_bound(swept, s.measure, p),
            capacity_equation_check(swept, s, p)]
    for a, b in zip(got, want):
        assert_same(a, b, exact)


def test_the_large_tent_runs_on_a_quotient():
    t = build_tree(Homogeneous(2), depth=19, layout="explicit")
    sub = rescaling_constant(t, capacity_recursive(t, 2.5), 3).tent
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        r = capacity_recursive(sub, 2.5)
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert sub.n_edges == 2 ** 18 - 1 and not ARENA & set(vars(sub))
    assert grown < 65536 and r.upper_run is not None
    assert r.capacity.lower <= homogeneous_capacity(2, 2.5) <= r.capacity.upper
    assert t.is_leaf(t.n_edges - 1) and not t.is_leaf(5)
    assert t.is_tail(t.n_edges - 1) and not t.is_true_leaf(5)
    assert not ARENA & set(vars(t))


@settings(max_examples=60, deadline=None, database=None)
@given(t=spec_built_trees(), data=st.data())
def test_leaf_and_tail_queries_build_no_arena(t, data):
    alpha = data.draw(st.integers(0, t.n_edges - 1))
    twin = eager_twin(t)
    for tree, ref in ((t, twin), (tent(t, alpha), tent(twin, alpha))):
        for name in ("is_leaf", "is_tail", "is_true_leaf"):
            got = [getattr(tree, name)(i) for i in range(tree.n_edges)]
            assert got == [getattr(ref, name)(i)
                           for i in range(tree.n_edges)], name
            assert all(type(v) is bool for v in got), name
        ids = tree.tail_ids()
        assert type(ids) is list and ids == ref.tail_ids()
        assert not ARENA & set(vars(tree))
