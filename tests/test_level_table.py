"""One level table for both tree layouts.

An explicit Tree and a compact SymmetricTree answer level queries from
the same table, the first id of every level, and no per-edge level
array is kept; a resistance run on an explicit tree's level quotient
spreads its per-level arrays over the edges on first read.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from treecap import (Homogeneous, SphericallySymmetric, Subdyadic,
                     build_tree, total_resistance)

MB = 2.0 ** 20


def _held(make):
    """(make(), bytes it still holds once it returns)."""
    tracemalloc.start()
    try:
        out = make()
        return out, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_explicit_tree_keeps_no_per_edge_level_array():
    # parent, first_child and n_children take 1 MB each at 131,071 edges;
    # a fourth int64 array of levels would pass the bound
    _, held = _held(lambda: build_tree(Homogeneous(2), depth=16,
                                       layout="explicit"))
    assert held < 3.6 * MB


def test_resistance_on_the_quotient_spreads_on_first_read():
    te = build_tree(Homogeneous(2), depth=16, layout="explicit")
    rc = total_resistance(build_tree(Homogeneous(2), depth=16,
                                     layout="compact"))
    rr, held = _held(lambda: total_resistance(te))
    assert held < 0.1 * MB
    back = pickle.loads(pickle.dumps(rr))
    for r in (rr, back):
        assert r.tree.n_edges == te.n_edges and not r.per_level
        for name in ("below_lower", "below_upper"):
            first = getattr(r, name)
            want = te.from_levels(getattr(rc, name))
            assert first.dtype == want.dtype
            assert first.tobytes() == want.tobytes()
            assert getattr(r, name) is first
        assert (r.lower, r.upper) == (rc.lower, rc.upper)


@pytest.mark.parametrize("spec, depth", [
    (Homogeneous(3), 6), (SphericallySymmetric([2, 1, 3, 2]), None),
    (Subdyadic([1, 0, 2]), 7)])
def test_both_layouts_answer_level_queries_alike(spec, depth):
    te = build_tree(spec, depth=depth, layout="explicit")
    tc = build_tree(spec, depth=depth, layout="compact")
    assert (tc.depth, tc.n_edges) == (te.depth, te.n_edges)
    assert [tc.level_slice(k) for k in range(tc.depth + 1)] == [
        te.level_slice(k) for k in range(te.depth + 1)]
    levels = [te.level_of(i) for i in range(te.n_edges)]
    assert levels == [tc.level_of(i) for i in range(tc.n_edges)]
    assert np.array_equal(te.level, levels)
    assert list(tc.tail_ids()) == te.tail_ids()
