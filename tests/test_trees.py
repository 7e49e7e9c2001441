import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecap import (
    BoundaryMeasure,
    Explicit,
    Homogeneous,
    SphericallySymmetric,
    Subdyadic,
    SymmetricTree,
    Tree,
    TreeStructureError,
    TreeTooLargeError,
    build_tree,
    confluent,
    edge_function_from_mapping,
    edge_function_to_mapping,
    is_forward_additive,
    predecessor_path,
    spanned_subtree,
    spec_from_json,
    spec_to_json,
    tent,
    tree_from_json,
    tree_to_json,
)
from helpers import random_tree


def test_from_adjacency_basic():
    t = Tree.from_adjacency({"w": ["a", "b"], "a": ["c"], "b": [], "c": []})
    assert t.n_edges == 4
    assert t.root == 0
    assert t.label_of(0) == "w"
    assert sorted(t.label_of(c) for c in t.children_of(0)) == ["a", "b"]
    a = t.id_of_label("a")
    assert t.parent_of(a) == 0
    assert t.level_of(a) == 1
    assert t.depth == 2
    assert t.is_true_leaf(t.id_of_label("c"))
    assert not t.is_leaf(a)


def test_bfs_ids_sorted_by_level():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = random_tree(rng, max_edges=60)
        levels = [t.level_of(i) for i in range(t.n_edges)]
        assert levels == sorted(levels)
        lo, hi = t.level_slice(1)
        assert list(range(lo, hi)) == t.children_of(0)


def test_from_adjacency_rejects_malformed():
    with pytest.raises(TreeStructureError):  # two parents
        Tree.from_adjacency({"r": ["a", "b"], "a": ["c"], "b": ["c"], "c": []})
    with pytest.raises(TreeStructureError):  # cycle
        Tree.from_adjacency({"r": ["a"], "a": ["r"]})
    with pytest.raises(TreeStructureError):  # disconnected piece
        Tree.from_adjacency({"r": ["a"], "a": [], "x": ["y"], "y": []})
    with pytest.raises(TreeStructureError):  # duplicate child
        Tree.from_adjacency({"r": ["a", "a"], "a": []})
    with pytest.raises(TreeStructureError):  # no root
        Tree.from_adjacency({"r": ["a"], "a": ["r"], "b": []})


def test_tail_edges_must_be_leaves():
    with pytest.raises(TreeStructureError):
        Tree([-1, 0, 1], [[1], [2], []], [False, True, False])
    t = Tree([-1, 0, 1], [[1], [2], []], [False, False, True])
    assert t.tail_ids() == [2]
    assert t.true_leaves() == []


def test_build_homogeneous_explicit_counts():
    t = build_tree(Homogeneous(3), depth=3, layout="explicit")
    assert t.n_edges == 1 + 3 + 9 + 27
    assert all(t.is_tail(i) for i in range(t.n_edges - 27, t.n_edges))
    assert t.continuation == ((), 3)
    lo, hi = t.level_slice(2)
    assert hi - lo == 9


def test_symmetric_finite_has_true_leaves():
    t = build_tree(SphericallySymmetric([2, 3]))
    assert t.n_edges == 1 + 2 + 6
    assert t.tail_ids() == []
    assert len(t.true_leaves()) == 6
    assert t.continuation is None


def test_single_edge_tree():
    t = build_tree(SphericallySymmetric([]))
    assert t.n_edges == 1
    assert t.true_leaves() == [0]
    assert t.depth == 0


def test_compact_matches_explicit_arithmetic():
    te = build_tree(Homogeneous(3), depth=4, layout="explicit")
    tc = build_tree(Homogeneous(3), depth=4, layout="compact")
    assert isinstance(tc, SymmetricTree)
    assert tc.n_edges == te.n_edges
    assert tc.depth == te.depth
    rng = np.random.default_rng(1)
    for i in map(int, rng.integers(0, te.n_edges, size=40)):
        assert tc.level_of(i) == te.level_of(i)
        assert tc.parent_of(i) == te.parent_of(i)
        assert list(tc.children_of(i)) == list(te.children_of(i))
        assert tc.is_tail(i) == te.is_tail(i)
    assert list(tc.tail_ids()) == te.tail_ids()


def test_size_guard_and_auto_layout():
    with pytest.raises(TreeTooLargeError):
        build_tree(Homogeneous(2), depth=30, layout="explicit")
    t = build_tree(Homogeneous(2), depth=30)
    assert isinstance(t, SymmetricTree)
    assert t.n_edges == 2 ** 31 - 1
    small = build_tree(Homogeneous(2), depth=5)
    assert isinstance(small, Tree)


def test_subdyadic_degree_pattern():
    t = build_tree(Subdyadic([2, 0]), depth=4, layout="explicit")
    # run of 2 unary levels, a branching, an immediate branching, then tails
    assert t.level_degrees == [1, 1, 2, 2]
    assert t.continuation == ((), 2)


def test_predecessor_path_and_confluent():
    t = build_tree(SphericallySymmetric([2, 2]))
    z = t.true_leaves()[0]
    path = predecessor_path(t, z)
    assert path[0] == 0 and path[-1] == z
    assert [t.level_of(i) for i in path] == [0, 1, 2]
    a, b = t.true_leaves()[0], t.true_leaves()[1]
    edge, lev = confluent(t, a, b)
    assert edge == t.parent_of(a) == t.parent_of(b)
    assert lev == t.level_of(edge) + 1
    edge, lev = confluent(t, a, t.true_leaves()[3])
    assert edge == 0
    # a point is confluent with itself at its own end vertex
    edge, lev = confluent(t, a, a)
    assert edge == a


def test_tent_reroots_with_orig_ids():
    t = build_tree(SphericallySymmetric([2, 3]))
    alpha = t.children_of(0)[1]
    sub = tent(t, alpha)
    assert sub.n_edges == 4
    assert sub.orig_ids[0] == alpha
    assert all(t.parent_of(sub.orig_ids[i]) == sub.orig_ids[sub.parent_of(i)]
               for i in range(1, sub.n_edges))
    prof = build_tree(Homogeneous(2), depth=6, layout="compact").tent_profile(2)
    assert prof.degrees == (2, 2, 2, 2)
    assert prof.truncated


def test_spanned_subtree():
    t = build_tree(SphericallySymmetric([2, 2, 2]))
    leaves = t.true_leaves()[:3]
    sub = spanned_subtree(t, leaves)
    assert sorted(sub.orig_ids[i] for i in sub.true_leaves()) == leaves
    # every kept edge lies on a path to a chosen leaf
    keep = set()
    for z in leaves:
        keep.update(predecessor_path(t, z))
    assert sorted(sub.orig_ids) == sorted(keep)
    with pytest.raises(ValueError):
        spanned_subtree(t, [0])  # not a leaf
    with pytest.raises(ValueError):
        spanned_subtree(t, [])


def test_boundary_measure_additivity():
    t = build_tree(SphericallySymmetric([2, 2]))
    mu = BoundaryMeasure.from_leaf_masses(
        t, {z: 0.25 for z in t.true_leaves()})
    assert mu.total_mass == pytest.approx(1.0)
    assert mu.M[1] == pytest.approx(0.5)
    again = BoundaryMeasure(t, mu.M)  # validates
    assert again.leaf_masses() == mu.leaf_masses()
    bad = mu.M.copy()
    bad[1] += 0.1
    rep = is_forward_additive(t, bad)
    assert not rep.ok and rep.worst_edge in (0, 1)  # defect 0.1 at both
    with pytest.raises(ValueError):
        BoundaryMeasure(t, bad)
    with pytest.raises(ValueError):
        BoundaryMeasure.from_leaf_masses(t, {0: 1.0})  # root is not a leaf
    with pytest.raises(ValueError):
        BoundaryMeasure.from_leaf_masses(t, {t.true_leaves()[0]: -1.0})


def test_spec_json_roundtrip():
    for spec in (Homogeneous(4), SphericallySymmetric([2, 1, 3]),
                 Subdyadic([0, 2, 1])):
        assert spec_from_json(spec_to_json(spec)) == spec
    with pytest.raises(ValueError):
        spec_from_json({"variant": "nope"})


def test_tree_json_roundtrip_explicit():
    t = Tree.from_adjacency({"w": ["a", "b"], "a": ["c"], "b": [], "c": []})
    obj = json.loads(json.dumps(tree_to_json(t)))
    back = tree_from_json(obj)
    assert back.n_edges == t.n_edges
    assert back.label_of(2) in ("a", "b")
    assert back.id_of_label("c") is not None


def test_tree_json_roundtrip_keeps_truncation():
    t = build_tree(Homogeneous(2), depth=6, layout="explicit")
    back = tree_from_json(tree_to_json(t))
    assert back.n_edges == t.n_edges
    assert back.continuation == t.continuation
    assert len(back.tail_ids()) == len(t.tail_ids())
    big = build_tree(Homogeneous(2), depth=30)
    back = tree_from_json(tree_to_json(big))
    assert isinstance(back, SymmetricTree)
    assert back.n_edges == big.n_edges and back.truncated


def test_tree_json_refuses_a_weighted_quotient():
    compact = build_tree(SphericallySymmetric([2, 3, 2]), layout="compact")
    with pytest.raises(ValueError, match="multiplicities"):
        tree_to_json(compact.quotient)
    back = tree_from_json(tree_to_json(compact), layout="compact")
    assert back.degrees == compact.degrees and not back.truncated


def test_tree_json_refuses_a_truncated_compact_tree_without_spec():
    profile = build_tree(Homogeneous(2), depth=6, layout="compact")
    with pytest.raises(ValueError, match="continuation"):
        tree_to_json(profile.tent_profile(2))
    finite = build_tree(SphericallySymmetric([2, 3]),
                        layout="compact").tent_profile(1)
    back = tree_from_json(tree_to_json(finite), layout="compact")
    assert back.degrees == (3,) and not back.truncated


def test_tree_json_tail_flags():
    obj = {"root": "r",
           "edges": [{"id": "r", "children": ["a", "b"]},
                     {"id": "a", "children": [], "tail": True},
                     {"id": "b", "children": []}]}
    t = tree_from_json(obj)
    assert len(t.tail_ids()) == 1
    assert t.is_tail(t.id_of_label("a"))
    assert t.is_true_leaf(t.id_of_label("b"))


def test_explicit_spec():
    t = build_tree(Explicit({0: [1, 2], 1: [], 2: []}))
    assert t.n_edges == 3
    assert tree_to_json(t)["edges"][0]["children"] == [1, 2]


def test_edge_function_mapping():
    t = build_tree(SphericallySymmetric([2]))
    f = edge_function_from_mapping(t, {0: 1.0, 1: 0.5})
    assert f.tolist() == [1.0, 0.5, 0.0]
    m = edge_function_to_mapping(t, f)
    assert m == {"0": 1.0, "1": 0.5}
    m = edge_function_to_mapping(t, f, keep_zero=True)
    assert len(m) == 3


def test_children_must_agree_with_parent():
    with pytest.raises(TreeStructureError):
        Tree([-1, 0, 0], [[1], [2], []], [False] * 3)
    with pytest.raises(TreeStructureError):  # sibling order swapped
        Tree([-1, 0, 0], [[2, 1], [], []], [False] * 3)
    t = Tree([-1, 0, 0, 1], [[1, 2], [3], [], []], [False] * 4)
    assert t.children_of(0) == [1, 2] and t.children_of(1) == [3]


@pytest.mark.parametrize("parent", [[0, 0], [-1, 1], [-1, 0, 3, 1],
                                    [-1, 0, 1, 0], [-1, -1]])
def test_parent_must_be_in_bfs_order(parent):
    with pytest.raises(TreeStructureError):
        Tree(parent)


def test_depth_rejected_for_explicit_adjacency():
    obj = tree_to_json(Tree.from_adjacency({"r": ["a"], "a": []}))
    assert tree_from_json(obj).n_edges == 2
    with pytest.raises(TreeStructureError):
        tree_from_json(obj, depth=3)


def test_string_keys_find_integer_labels():
    t = Tree.from_adjacency({10: [3, 7], 3: [], 7: []})
    assert t.id_of_label(7) == t.id_of_label("7") == 2
    with pytest.raises(KeyError):
        t.id_of_label("8")
    # an exact label wins over another label's string form
    t = Tree.from_adjacency({1: ["1"], "1": []})
    assert (t.id_of_label(1), t.id_of_label("1")) == (0, 1)


# ---------------------------------------------------------------------------
# the adjacency builder and JSON output against their per-edge loops


def reference_from_adjacency(adjacency, root=None, tails=()):
    """The per-child BFS that Tree.from_adjacency replaced, kept as the
    reference: returns (parent, labels, tail) as lists."""
    adjacency = dict(adjacency)
    mentioned = set(adjacency)
    as_child = set()
    for kids in adjacency.values():
        if len(set(kids)) != len(kids):
            raise TreeStructureError("duplicate child in adjacency")
        for c in kids:
            if c in as_child:
                raise TreeStructureError(f"edge {c!r} has two parents")
            as_child.add(c)
            mentioned.add(c)
    roots = [e for e in mentioned if e not in as_child]
    if root is not None:
        if root in as_child:
            raise TreeStructureError(f"declared root {root!r} has a parent")
        roots = [root]
    if len(roots) != 1:
        raise TreeStructureError(
            f"need exactly one root edge, found {sorted(map(repr, roots))}")
    order = [roots[0]]
    parent = [-1]
    index = {roots[0]: 0}
    head = 0
    while head < len(order):
        e = order[head]
        for c in adjacency.get(e, ()):
            if c in index:
                raise TreeStructureError("cycle in adjacency")
            index[c] = len(order)
            parent.append(head)
            order.append(c)
        head += 1
    if len(order) != len(mentioned):
        raise TreeStructureError("adjacency is not connected to the root")
    tail = [False] * len(order)
    for lab in tails:
        if lab not in index:
            raise TreeStructureError(f"tail {lab!r} is not an edge")
        tail[index[lab]] = True
    return parent, order, tail


def reference_tree_to_json(tree):
    edges = []
    for i in range(tree.n_edges):
        rec = {"id": tree.label_of(i),
               "children": [tree.label_of(c) for c in tree.children_of(i)]}
        if tree.is_tail(i):
            rec["tail"] = True
        edges.append(rec)
    return {"root": tree.label_of(0), "edges": edges}


def reference_edge_function_to_mapping(tree, f, keep_zero=False):
    out = {}
    for i in range(tree.n_edges):
        v = float(f[i])
        if v != 0.0 or keep_zero:
            out[str(tree.label_of(i))] = v
    return out


def assert_same_as_reference(tree, adjacency, root=None, tails=()):
    parent, labels, tail = reference_from_adjacency(adjacency, root, tails)
    assert tree.parent.tolist() == parent
    assert tree.labels == labels
    assert list(map(type, tree.labels)) == list(map(type, labels))
    assert tree.tail.tolist() == tail


LABEL_POOLS = {
    "int": list(range(-60, 60)),
    "str": [f"e{i}" for i in range(120)],
    # 1 and "1" are different edges
    "mixed": list(range(60)) + [str(i) for i in range(60)],
}


@st.composite
def adjacency_cases(draw):
    """(adjacency, root, tails) of a random tree: labels of one kind,
    keys in random order, some leaves left out as keys, the root
    declared or not, and some leaves flagged as tails."""
    n = draw(st.integers(1, 40))
    pool = LABEL_POOLS[draw(st.sampled_from(sorted(LABEL_POOLS)))]
    labels = draw(st.permutations(pool))[:n]
    kids = [[] for _ in range(n)]
    for i in range(1, n):
        kids[draw(st.integers(0, i - 1))].append(labels[i])
    keys = [i for i in range(n)  # drop some leaves below the root
            if i == 0 or kids[i] or not draw(st.booleans())]
    keys = draw(st.permutations(keys))
    adjacency = {labels[i]: kids[i] for i in keys}
    root = labels[0] if draw(st.booleans()) else None
    leaves = [labels[i] for i in range(n) if not kids[i]]
    tails = [lab for lab in leaves if draw(st.booleans())]
    return adjacency, root, tails


@settings(max_examples=150, deadline=None)
@given(adjacency_cases(), st.booleans())
def test_from_adjacency_matches_the_reference_bfs(case, keep_zero):
    adjacency, root, tails = case
    t = Tree.from_adjacency(adjacency, root=root, tails=tails)
    assert_same_as_reference(t, adjacency, root, tails)
    assert tree_to_json(t) == reference_tree_to_json(t)
    f = np.arange(t.n_edges) % 3 / 2.0
    assert (edge_function_to_mapping(t, f, keep_zero)
            == reference_edge_function_to_mapping(t, f, keep_zero))
    assert list(edge_function_to_mapping(t, f, keep_zero)) == list(
        reference_edge_function_to_mapping(t, f, keep_zero))


@pytest.mark.parametrize("adjacency, root, tails", [
    ({"r": ["a", "b"], "a": ["c"], "b": ["c"], "c": []}, None, ()),
    ({"r": ["a", "a"], "a": []}, None, ()),
    # the first offender in listing order decides the message
    ({"r": ["a"], "x": ["b", "a", "b"]}, None, ()),
    ({"r": ["a"], "x": ["a", "b", "b"]}, None, ()),
    ({"r": ["a"], "a": ["r"]}, None, ()),
    ({"r": ["a"], "a": [], "x": ["y"], "y": ["x"]}, None, ()),
    ({"r": ["a"], "a": ["r"], "b": []}, None, ()),
    ({}, None, ()),
    ({"r": ["a"], "s": ["b"], 1: [], "1": []}, None, ()),
    ({"r": ["a"], "a": []}, "a", ()),
    ({"r": ["a"], "a": ["r"]}, "r", ()),
    ({"r": ["a"], "a": [], "x": ["y"], "y": []}, "r", ()),
    ({"r": ["a"], "a": []}, None, ["z"]),
    ({1: [2], 2: []}, None, ["2"]),
], ids=["two-parents", "duplicate-child", "two-parents-first",
        "duplicate-first", "cycle", "cycle-beside-the-root", "no-root",
        "empty", "several-roots", "declared-root-with-parent",
        "declared-root-on-a-cycle", "disconnected", "unknown-tail",
        "tail-by-string-of-int"])
def test_from_adjacency_errors_match_the_reference(adjacency, root, tails):
    with pytest.raises(TreeStructureError) as ref:
        reference_from_adjacency(adjacency, root, tails)
    with pytest.raises(TreeStructureError) as new:
        Tree.from_adjacency(adjacency, root=root, tails=tails)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("shape", ["path", "star"])
def test_builds_1e5_edges_quickly(shape):
    n = 100_000
    adjacency = ({i: [i + 1] for i in range(n - 1)} if shape == "path"
                 else {"r": list(range(n - 1))})
    start = time.perf_counter()
    t = Tree.from_adjacency(adjacency)
    elapsed = time.perf_counter() - start
    assert t.n_edges == n and t.depth == (n - 1 if shape == "path" else 1)
    assert_same_as_reference(t, adjacency)
    assert elapsed < 10.0


def test_declared_root_must_be_an_edge_of_the_adjacency():
    # the count of edges reached matched the count mentioned, so the
    # one key was dropped for the declared root
    for adjacency in ({"a": []}, {}):
        with pytest.raises(TreeStructureError,
                           match="declared root 'z' is not an edge"):
            Tree.from_adjacency(adjacency, root="z")


def test_tree_file_listing_an_id_twice_is_refused():
    obj = {"edges": [{"id": "r", "children": ["a"]},
                     {"id": "a", "children": ["b"]},
                     {"id": "a", "children": []}]}
    with pytest.raises(TreeStructureError,
                       match="edge 'a' has more than one record"):
        tree_from_json(obj)


def reference_starts(tree):
    starts = [0]
    while starts[-1] < tree.n_edges:
        starts.append(int(tree.first_child[starts[-1]]))
    return starts


def test_level_starts_of_a_1e5_path_quickly():
    n = 100_000
    start = time.perf_counter()
    t = Tree(np.arange(-1, n - 1))
    elapsed = time.perf_counter() - start
    assert t._starts == reference_starts(t) == list(range(n + 1))
    assert np.array_equal(t.level, np.arange(n))
    assert elapsed < 5.0
    from helpers import random_tree
    rng = np.random.default_rng(3)
    for _ in range(20):
        t = random_tree(rng, max_edges=int(rng.integers(1, 300)))
        assert t._starts == reference_starts(t)
        assert np.array_equal(
            t.level, np.repeat(np.arange(t.depth + 1), np.diff(t._starts)))


def _reference_sequence(spec, depth):
    """Level degrees, prefix and eventual degree, one branch per spec
    kind: the truncation written out per variant."""
    if isinstance(spec, Homogeneous):
        if spec.n < 2:
            raise TreeStructureError("homogeneous order must be >= 2")
        return [spec.n] * depth, (), spec.n
    if isinstance(spec, SphericallySymmetric):
        degs = list(spec.degrees)
        if any(d < 1 for d in degs):
            raise TreeStructureError("forward degrees must be >= 1")
        if depth > len(degs):
            raise TreeStructureError(
                f"depth {depth} exceeds the {len(degs)} listed degrees")
        return degs[:depth], tuple(degs[depth:]), None
    degs = []
    for r in spec.runs:
        degs.extend([1] * r)
        degs.append(2)
    prefix = tuple(degs[depth:])
    degs.extend([2] * (depth - len(degs)))
    return degs[:depth], prefix, 2


def _reference_levels(spec, depth):
    """(level degrees, continuation) of build_tree(spec, depth)."""
    if isinstance(spec, SphericallySymmetric) and depth is None:
        return _reference_sequence(spec, len(spec.degrees))[0], None
    if depth is None or depth < 1:
        raise TreeStructureError("infinite specs need depth >= 1")
    degs, prefix, eventual = _reference_sequence(spec, depth)
    truncated = len(prefix) > 0 or eventual is not None
    return degs, (prefix, eventual) if truncated else None


@pytest.mark.parametrize("spec, n_listed", [
    (Homogeneous(2), 0), (Homogeneous(3), 0),
    (SphericallySymmetric([]), 0), (SphericallySymmetric([2, 1, 3, 1]), 4),
    (SphericallySymmetric((1, 1, 2)), 3),
    (Subdyadic([]), 0), (Subdyadic([0, 2, 0]), 5)])
def test_every_spec_truncates_as_its_variant_did(spec, n_listed):
    for depth in (None, *range(n_listed + 4)):
        try:
            degs, continuation = _reference_levels(spec, depth)
        except TreeStructureError as exc:
            for layout in ("explicit", "compact"):
                with pytest.raises(TreeStructureError) as got:
                    build_tree(spec, depth=depth, layout=layout)
                assert str(got.value) == str(exc), depth
            continue
        te = build_tree(spec, depth=depth, layout="explicit")
        tc = build_tree(spec, depth=depth, layout="compact")
        assert te.level_degrees == degs and tc.degrees == tuple(degs)
        assert te.continuation == continuation == tc.continuation, depth
        assert tc.truncated == (continuation is not None)
        n_tails = math.prod(degs) if continuation is not None else 0
        assert te.tail_ids() == list(tc.tail_ids())
        assert len(te.tail_ids()) == n_tails, depth
        assert te.spec is spec and tc.spec is spec


def test_spec_json_covers_every_variant():
    class Binary(Homogeneous):
        pass

    cases = [
        (Homogeneous(4), {"variant": "homogeneous", "n": 4}),
        (Binary(2), {"variant": "homogeneous", "n": 2}),
        (SphericallySymmetric((2, 1, 3)),
         {"variant": "symmetric", "degrees": [2, 1, 3]}),
        (SphericallySymmetric([]), {"variant": "symmetric", "degrees": []}),
        (Subdyadic((0, 2)), {"variant": "subdyadic", "runs": [0, 2]}),
    ]
    for spec, obj in cases:
        assert spec_to_json(spec) == obj
        back = spec_from_json(json.loads(json.dumps(obj)))
        assert type(back) in (Homogeneous, SphericallySymmetric, Subdyadic)
        assert spec_to_json(back) == obj
    with pytest.raises(TypeError, match="cannot serialize 5"):
        spec_to_json(5)
    with pytest.raises(TypeError, match="cannot serialize"):
        spec_to_json(Explicit({0: []}))
    for bad, message in (
            ({"variant": "homogeneous", "n": 2.7}, "'n' holds 2.7"),
            ({"variant": "homogeneous", "n": [3]}, "'n' holds \\[3\\]"),
            ({"variant": "symmetric", "degrees": [2, "3"]},
             "'degrees' holds '3'"),
            ({"variant": "subdyadic", "runs": [True]}, "'runs' holds True"),
            ({"variant": ["symmetric"]}, "unknown spec variant"),
            ({"n": 2}, "unknown spec variant None")):
        with pytest.raises(ValueError, match=message):
            spec_from_json(bad)
