"""The one rule for a single edge id, on every entry point that reads one.

A single id is a whole number in [0, n_edges): 3.0 names edge 3, and
-1, n_edges, 3.5 and nan raise KeyError("edge id ... out of range").
Every row below is one entry point; a new one is one more row.
"""

import math

import numpy as np
import pytest

from treecap import (
    SphericallySymmetric,
    VertexFunction,
    build_tree,
    capacity_recursive,
    confluent,
    edge_function_from_mapping,
    energy,
    lambda_digits,
    p_laplacian,
    potential,
    predecessor_path,
    rescaling_constant,
    tent,
)

SPEC = SphericallySymmetric([2, 2])  # 7 edges; edge 3 is a true leaf
N_EDGES = 7
F = np.arange(1.0, N_EDGES + 1)


def _tent(t):
    """A tent as host ids (explicit) or as level data (compact)."""
    if hasattr(t, "orig_ids"):
        return t.orig_ids.tolist()
    return t.degrees, t.truncated


# (name, layouts, call(tree, id), read(result)); read makes the result
# comparable, and its repr shows a float where an int belongs
ENTRY_POINTS = [
    ("parent_of", "ec", lambda t, i: t.parent_of(i), None),
    ("level_of", "ec", lambda t, i: t.level_of(i), None),
    ("children_of", "ec", lambda t, i: t.children_of(i), None),
    ("is_tail", "ec", lambda t, i: t.is_tail(i), None),
    ("is_leaf", "e", lambda t, i: t.is_leaf(i), None),
    ("is_true_leaf", "e", lambda t, i: t.is_true_leaf(i), None),
    ("label_of", "e", lambda t, i: t.label_of(i), None),
    ("id_of_label", "e", lambda t, i: t.id_of_label(i), None),
    ("tent", "ec", tent, _tent),
    ("predecessor_path", "ec", predecessor_path, None),
    ("confluent-first", "ec", lambda t, i: confluent(t, i, 4), None),
    ("confluent-second", "ec", lambda t, i: confluent(t, 4, i), None),
    ("potential", "ec", lambda t, i: potential(t, F, i), None),
    ("energy", "e", lambda t, i: energy(t, capacity_recursive(t, 2).measure,
                                        2, i), None),
    ("p_laplacian", "ec",
     lambda t, i: p_laplacian(t, VertexFunction(F, 0.5), i, 3.0), None),
    ("lambda_digits", "ec", lambda_digits, None),
    ("rescaling_constant", "e",
     lambda t, i: rescaling_constant(t, capacity_recursive(t, 2), i),
     lambda r: (r.k, r.alpha, r.capacity, r.tent.orig_ids.tolist())),
]

CASES = [pytest.param(layout, call, read, id=f"{name}-{layout}")
         for name, layouts, call, read in ENTRY_POINTS
         for layout in ("explicit", "compact") if layout[0] in layouts]


@pytest.mark.parametrize("layout, call, read", CASES)
def test_every_single_id_entry_point_reads_ids_by_one_rule(layout, call,
                                                           read):
    t = build_tree(SPEC, layout=layout)
    assert t.n_edges == N_EDGES
    read = read or (lambda x: x)
    want = repr(read(call(t, 3)))
    for same in (3.0, np.int64(3), np.float64(3.0)):
        assert repr(read(call(t, same))) == want, same
    for bad in (-1, N_EDGES, 3.5, math.nan):
        with pytest.raises(KeyError, match="out of range"):
            call(t, bad)


def test_a_mapping_key_is_read_as_one_id():
    t = build_tree(SPEC)
    assert edge_function_from_mapping(t, {"3.0": 1.0, 4: 2.0}).tolist() \
        == [0, 0, 0, 1, 2, 0, 0]
    for bad in (3.9, -1, "-1", "nan"):
        with pytest.raises(KeyError, match="out of range"):
            edge_function_from_mapping(t, {bad: 1.0})
