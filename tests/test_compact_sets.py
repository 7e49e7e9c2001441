"""compact_set_of_capacity answers on the level quotient; the result's
explicit arena (tree) and leaf ids (leaves) are built on first read."""

import json
import pickle
import tracemalloc

import pytest

from treecap import (SphericallySymmetric, TreeTooLargeError, build_tree,
                     compact_set_of_capacity)
from treecap import cli, constructions
from treecap.capacity import _Recipe


def traced(call):
    """call(), the bytes its result holds and the call's traced peak."""
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def unread(res):
    return [k for k in ("_tree", "_leaves")
            if isinstance(vars(res)[k], _Recipe)]


def test_an_unread_result_holds_no_arena():
    # the depth-16 arena has 131,071 edges, several MB of arrays
    res, held, peak = traced(
        lambda: compact_set_of_capacity(2, 2, 0.3, tol=1e-3, depth=16))
    assert held < 0.1e6 and peak < 0.5e6
    assert unread(res) == ["_tree", "_leaves"]


@pytest.mark.parametrize("n, p, depth, target", [
    (2, 2.0, 16, 0.3), (3, 1.5, 6, 0.2), (2, 3.0, 1, 0.0), (3, 3.0, 12, 0.1)])
def test_the_first_read_builds_what_an_eager_result_held(n, p, depth, target):
    res = compact_set_of_capacity(n, p, target, tol=float("inf"),
                                  depth=depth)
    ref = build_tree(SphericallySymmetric([n] * depth), layout="explicit")
    t = res.tree
    assert t.n_edges == ref.n_edges
    assert t.parent.tobytes() == ref.parent.tobytes()
    assert t.tail.tobytes() == ref.tail.tobytes()
    assert t.level_degrees == ref.level_degrees
    first = ref.n_edges - n ** depth
    m = res.to_json()["n_leaves"]
    assert res.leaves == list(range(first, first + m))
    assert res.tree is t and res.leaves is res.leaves
    assert m == 0 or res.to_json()["first_leaf"] == first


def test_an_unread_result_survives_a_pickle_round_trip():
    res = compact_set_of_capacity(2, 2, 0.3, tol=1e-3, depth=10)
    back = pickle.loads(pickle.dumps(res))
    assert unread(back) == ["_tree", "_leaves"]
    assert back.to_json() == res.to_json()
    assert back.leaves == res.leaves
    assert back.tree.parent.tobytes() == res.tree.parent.tobytes()


def test_to_json_builds_neither_field():
    res = compact_set_of_capacity(2, 2, 0.3, tol=1e-3, depth=16)
    js = res.to_json()
    assert unread(res) == ["_tree", "_leaves"]
    # a read list gives the same answer
    assert res.leaves[0] == js["first_leaf"]
    assert len(res.leaves) == js["n_leaves"] and res.to_json() == js


def test_depth_beyond_the_budget_is_refused_before_any_allocation():
    def call():
        with pytest.raises(TreeTooLargeError, match="explicit budget"):
            compact_set_of_capacity(2, 2, 0.3, depth=20)

    _, _, peak = traced(call)
    assert peak < 0.5e6


def test_construct_set_never_builds_the_arena(capsys, monkeypatch):
    argv = ["construct-set", "--target", "0.3", "--depth", "16"]
    assert cli.main(argv) == 0
    expected = json.loads(capsys.readouterr().out)

    def no_arena(spec, depth=None, layout="auto"):
        if layout == "explicit":
            raise AssertionError("the explicit arena was built")
        return build_tree(spec, depth, layout)

    monkeypatch.setattr(constructions, "build_tree", no_arena)
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out) == expected
    assert cli.main(argv + ["--leaves"]) == 0
    payload = json.loads(capsys.readouterr().out)
    leaves = payload.pop("leaves")
    assert payload == expected
    first = payload["first_leaf"]
    assert leaves == list(range(first, first + payload["n_leaves"]))
