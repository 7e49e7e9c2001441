"""The referees on the level quotient against the sweep over every edge.

A tree built from a level-regular spec knows its level quotient; when
the referee's input is constant on every level the check runs there and
its report is spread back to the edges.  A spec-free copy of the same
tree has no quotient, so it takes the route over every edge.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from treecap import (Homogeneous, SphericallySymmetric, SymmetricTree, Tree,
                     TreeStructureError, build_tree, capacity_equation_check,
                     capacity_recursive, check_potential_bound,
                     is_forward_additive, tree_to_json, verify_equilibrium)
from treecap.cli import main
from helpers import random_tree
from test_capacity import spec_built_trees


def spec_free(t):
    return Tree(t.parent, tail=t.tail, continuation=t.continuation)


def reports(t, r, scale):
    """The three referees on t, for the measure and the tent capacities
    of r, both scaled."""
    M, c = scale * r.measure.M, scale * r.c_of_alpha
    return [verify_equilibrium(t, M, r.p), check_potential_bound(t, M, r.p),
            capacity_equation_check(t, c, r.p)]


def assert_same(a, b, exact):
    """Reports a and b equal, or unless exact, floats within 1e-15 of the
    largest residual or of 1, above every mass and capacity."""
    assert type(a) is type(b)
    scale = max(1.0, np.max(getattr(a, "residuals", 0.0)))
    for name, x in vars(a).items():
        y = getattr(b, name)
        if isinstance(x, np.ndarray):
            if exact:
                assert np.array_equal(x, y), name
            else:
                assert np.max(np.abs(x - y)) <= 1e-15 * scale, name
        elif exact or not isinstance(x, float):
            assert x == y, name
        else:
            assert abs(x - y) <= 1e-15 * scale, name


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 2.7, 8.0, 30.0])
@settings(max_examples=40, deadline=None, database=None)
@given(t=spec_built_trees())
def test_the_quotient_route_matches_the_sweep_over_every_edge(p, t):
    # a sum of d equal children is d v bit for bit when d <= 4 only
    swept = spec_free(t)
    exact = max(t.level_degrees, default=1) <= 4
    r = capacity_recursive(t, p)
    for scale in (1.0, 0.5):
        for a, b in zip(reports(t, r, scale), reports(swept, r, scale)):
            assert_same(a, b, exact)


def test_a_measure_changed_on_one_edge_takes_the_edge_route():
    t = build_tree(SphericallySymmetric([5, 2, 3]))
    r = capacity_recursive(t, 2.5)
    M = r.measure.M.copy()
    M[-1] *= 1.01
    c = r.c_of_alpha.copy()
    c[3] *= 0.99
    assert t.to_levels(M) is None and t.to_levels(c) is None
    for f, x in ((verify_equilibrium, M), (check_potential_bound, M),
                 (capacity_equation_check, c)):
        assert_same(f(t, x, 2.5), f(spec_free(t), x, 2.5), exact=True)


def raising(*args, **kwargs):
    raise AssertionError("swept a tree the check should not sweep")


def test_the_route_is_structural():
    t = build_tree(Homogeneous(2), depth=16, layout="explicit")
    r = capacity_recursive(t, 2.5)
    t.sweep_up = t.push_down = raising
    v, b, e = reports(t, r, 1.0)
    assert not v.is_equilibrium and v.undetermined == t.tail_ids()
    assert v.residuals.shape == (t.n_edges,)
    assert b.ok and b.worst_edge == t.level_slice(16)[0]
    assert e.ok and e.skipped_tails == 2 ** 16
    # a tree without a quotient never compares its input level by level
    swept = spec_free(build_tree(Homogeneous(2), depth=6, layout="explicit"))
    swept.to_levels = raising
    reports(swept, capacity_recursive(swept, 2.5), 1.0)


def test_to_levels_inverts_from_levels():
    t = build_tree(SphericallySymmetric([2, 3]), layout="explicit")
    v = t.from_levels([0.5, -1.0, 2.0])
    assert t.to_levels(v).tolist() == [0.5, -1.0, 2.0]
    for k in (1, 2, 4, 8):  # first, last and an inner edge of a level
        w = v.copy()
        w[k] += 1.0
        assert t.to_levels(w) is None
    assert t.to_levels(t.from_levels([0.5, np.nan, 2.0])) is None


def test_to_levels_agrees_with_comparing_every_edge():
    # NaN never passes and -0.0 == 0.0, as in the edge-by-edge test
    t = build_tree(Homogeneous(2), depth=8, layout="explicit")
    rng = np.random.default_rng(8)
    pool = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0, 5e-324])
    for _ in range(3000):
        v = t.from_levels(rng.choice(pool, t.depth + 1))
        for i in rng.integers(0, t.n_edges, rng.integers(0, 3)):
            v[i] = rng.choice(pool)
        first = v[[t.level_slice(k)[0] for k in range(t.depth + 1)]]
        want = first if np.array_equal(t.from_levels(first), v) else None
        got = t.to_levels(v)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.tobytes() == want.tobytes()


def counted(tree):
    """Count the calls of tree's two sweep primitives."""
    calls = {"sweep_up": 0, "push_down": 0}
    for name in calls:
        def wrapper(*args, _name=name, _sweep=getattr(tree, name)):
            calls[_name] += 1
            return _sweep(*args)
        setattr(tree, name, wrapper)
    return calls


def test_each_referee_sweeps_as_often_as_it_must():
    finite = random_tree(np.random.default_rng(4), max_edges=200)
    M = capacity_recursive(finite, 2.5).measure.M
    calls = counted(finite)
    assert verify_equilibrium(finite, M, 2.5).is_equilibrium
    assert calls == {"sweep_up": 1, "push_down": 1}
    calls = counted(finite)
    is_forward_additive(finite, M)
    assert calls == {"sweep_up": 0, "push_down": 0}

    t = build_tree(Homogeneous(2), depth=6, layout="explicit")
    swept = spec_free(t)
    r = capacity_recursive(swept, 2.5)
    calls = counted(swept)
    assert verify_equilibrium(swept, r.measure, 2.5).undetermined
    assert calls == {"sweep_up": 2, "push_down": 1}

    calls = counted(t)
    reports(t, r, 1.0)
    assert calls == {"sweep_up": 0, "push_down": 0}


@pytest.mark.parametrize("mult", [[1, 2.7], [1, True], [1, np.nan],
                                  [1, np.inf], [1, "2"], [1, 0],
                                  [1, 2 ** 70]])
def test_a_multiplicity_is_a_whole_number(mult):
    with pytest.raises(TreeStructureError, match="whole multiplicity"):
        Tree([-1, 0], mult=mult)


def test_multiplicities_read_whole_floats_and_refuse_fractional_degrees():
    assert Tree([-1, 0], mult=[1, 2.0]).mult.tolist() == [1, 2]
    assert Tree([-1, 0], mult=np.array([1, 3])).mult.tolist() == [1, 3]
    with pytest.raises(TreeStructureError):
        SymmetricTree((2.5, 2), True)


def test_an_unknown_label_raises_one_error_with_or_without_labels():
    plain = build_tree(SphericallySymmetric([2]))
    labeled = Tree.from_adjacency({"r": ["a", "b"]})
    for t in (plain, labeled):
        for bad in ("abc", None, [1]):
            with pytest.raises(KeyError, match="unknown edge label"):
                t.id_of_label(bad)
    with pytest.raises(KeyError, match="out of range"):
        plain.id_of_label("9")


def test_cli_names_an_unknown_label_alike_on_both_tree_files(tmp_path,
                                                             capsys):
    t = build_tree(SphericallySymmetric([2]))
    spec, adjacency = tmp_path / "spec.json", tmp_path / "adjacency.json"
    spec.write_text(json.dumps(tree_to_json(t)))
    adjacency.write_text(json.dumps(tree_to_json(spec_free(t))))
    errors = []
    for path in (spec, adjacency):
        assert main(["capacity", "--tree", str(path), "--set", "abc"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "treecap: \"unknown edge label 'abc'\"\n"
