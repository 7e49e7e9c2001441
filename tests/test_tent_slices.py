"""A tent of a tree without a level table is cut by level slices.

The descendants of alpha on each level are one contiguous range of host
ids, so tent() joins the host's slices level by level.  The result must
equal, byte for byte, the subtree _subtree cuts from the sorted ids of
the same edges, and it must hold no reference to its host.
"""

import gc
import weakref

import numpy as np
from hypothesis import given, settings, strategies as st

from treecap import Tree, tent
from treecap.trees import _subtree
from helpers import random_tree

ARRAYS = ("parent", "n_children", "first_child", "tail", "orig_ids")


@st.composite
def hosts(draw):
    """(kind, parent array, Tree(...) keyword arguments): a random tree
    with int labels, str labels, tails, multiplicities or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    parent = random_tree(rng, max_edges=draw(st.integers(1, 300))).parent
    n = parent.size
    kind = draw(st.sampled_from(["plain", "int labels", "str labels",
                                 "tails", "mult"]))
    kwargs = {}
    if kind == "int labels":
        kwargs["labels"] = rng.permutation(10 * n)[:n].tolist()
    elif kind == "str labels":
        kwargs["labels"] = [f"e{i}" for i in rng.permutation(n).tolist()]
    elif kind == "tails":
        leaves = np.bincount(parent[1:], minlength=n) == 0
        kwargs["tail"] = leaves & (rng.random(n) < 0.5)
        kwargs["continuation"] = ((), 2)
    elif kind == "mult":
        kwargs["mult"] = rng.integers(1, 5, n)
    return kind, parent, kwargs


def descendants(tree, alpha):
    """alpha and every edge below it, as sorted ids, by a walk."""
    order = [alpha]
    for e in order:
        order.extend(tree.children_of(e))
    return np.array(sorted(order), dtype=np.int64)


def pick(tree, where, rng):
    """An edge at the root, one with children or one on the deepest level."""
    if where == "root":
        return 0
    if where == "deepest":
        return int(rng.integers(*tree.level_slice(tree.depth)))
    inner = np.flatnonzero(tree.n_children > 0)
    return int(rng.choice(inner)) if inner.size else 0


@settings(max_examples=200, deadline=None, database=None)
@given(host=hosts(), where=st.sampled_from(["root", "inner", "deepest"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_a_tent_is_the_subtree_of_its_ids(host, where, seed):
    kind, parent, kwargs = host
    t = Tree(parent, **kwargs)
    alpha = pick(t, where, np.random.default_rng(seed))
    ref = _subtree(t, descendants(t, alpha))
    sub = tent(t, alpha)
    for name in ARRAYS + ("mult",):
        x, y = getattr(sub, name), getattr(ref, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name
    assert sub.labels == ref.labels
    assert type(sub.labels) is type(ref.labels)
    assert sub._starts == ref._starts
    assert all(type(s) is int for s in sub._starts)
    assert sub.continuation is t.continuation
    assert sub.quotient is None and sub.spec is None


def test_a_tent_holds_no_reference_to_its_host():
    rng = np.random.default_rng(3)
    parent = random_tree(rng, max_edges=500).parent
    host = Tree(parent, labels=[f"e{i}" for i in range(parent.size)])
    inner = int(np.flatnonzero(host.n_children > 0)[1])
    want = _subtree(host, descendants(host, inner))
    alive = weakref.ref(host)
    sub = tent(host, inner)
    del host
    gc.collect()
    assert alive() is None
    assert sub.parent.tobytes() == want.parent.tobytes()
    assert sub.labels == want.labels
