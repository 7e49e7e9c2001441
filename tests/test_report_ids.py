"""Referee id lists are built on first read.

verify_equilibrium and check_potential_bound keep each id list as the
int64 edge-id array the check computed, and turn it into a list of
Python ints on its first read.  Every list read must be the one a
reference computation gives, in the same order, and a report must
serialize and pickle the same whether its lists were read or not.
"""

import json
import pickle
import tracemalloc

import numpy as np
import pytest

from treecap import (Homogeneous, Tree, build_tree, capacity_recursive,
                     check_potential_bound, potential_all, signed_power,
                     verify_equilibrium)
from test_referee_routes import assert_same

P = 2.5
TOL = 1e-9
IDS = {"verify_equilibrium": ("recovered_set", "irregular_points",
                              "undetermined"),
       "check_potential_bound": ("equality_edges",)}


def random_wide_tree(rng, n_edges):
    """A random finite tree of exactly n_edges edges, grown level by
    level: each edge gets 1 to 3 children, or none with chance 0.3 once
    its level holds 4 edges or more."""
    parents, frontier, n = [np.array([-1])], np.array([0]), 1
    while n < n_edges:
        k = rng.integers(1, 4, frontier.size)
        if frontier.size >= 4:
            k[rng.random(frontier.size) < 0.3] = 0
        if not k.any():
            k[-1] = 2
        kids = np.repeat(frontier, k)[:n_edges - n]
        parents.append(kids)
        frontier = np.arange(n, n + kids.size)
        n += kids.size
    return Tree(np.concatenate(parents))


@pytest.fixture(scope="module")
def cases():
    """(tree, measure) pairs: the explicit Homogeneous(2) of 131,071
    edges, checked on its level quotient, and a random tree of 2^17
    edges, checked edge by edge."""
    hom = build_tree(Homogeneous(2), depth=16, layout="explicit")
    rand = random_wide_tree(np.random.default_rng(17), 2 ** 17)
    return [(t, capacity_recursive(t, P).measure) for t in (hom, rand)]


def reference_ids(tree, M):
    """Each id list, from the potential of M and a tree with its arena."""
    V = potential_all(tree, signed_power(M, P)).end_values
    scale = max(float(M[0]), 1e-12)
    z = np.flatnonzero(tree.true_leaf_mask() & (M > TOL * scale))
    return {"recovered_set": z[np.abs(V[z] - 1.0) <= TOL].tolist(),
            "irregular_points": z[V[z] < 1.0 - TOL].tolist(),
            "undetermined": np.flatnonzero(
                tree.tail & (M > TOL * scale)).tolist(),
            "equality_edges": np.flatnonzero(
                np.abs(V - 1.0) <= TOL).tolist()}


def test_every_id_list_read_is_the_reference(cases):
    for tree, mu in cases:
        want = reference_ids(tree, mu.M)
        for f in (verify_equilibrium, check_potential_bound):
            rep = f(tree, mu, P)
            for name in IDS[f.__name__]:
                got = getattr(rep, name)
                assert type(got) is list, name
                assert all(type(i) is int for i in got), name
                assert got == want[name], name
                assert getattr(rep, name) is got  # built once, then kept
    (hom, mu), (rand, _) = cases
    assert verify_equilibrium(hom, mu, P).undetermined == list(
        range(*hom.level_slice(16)))
    assert len(want["equality_edges"]) > 10_000  # those of rand, read last


def test_json_and_pickle_do_not_depend_on_reading(cases):
    for tree, mu in cases:
        for f in (verify_equilibrium, check_potential_bound):
            unread, read = f(tree, mu, P), f(tree, mu, P)
            for name in IDS[f.__name__]:
                getattr(read, name)
            copies = [pickle.loads(pickle.dumps(r)) for r in (unread, read)]
            for again, rep in zip(copies, (unread, read)):
                assert_same(again, rep, exact=True)
            text = json.dumps(read.to_json())  # to_json reads every list
            for rep in (unread, *copies):
                assert json.dumps(rep.to_json()) == text
            for name, value in read.to_json().items():
                if isinstance(value, list):  # a copy, not the report's own
                    assert value is not getattr(read, name)


def test_an_unread_report_holds_its_ids_as_one_array(cases):
    tree, mu = cases[1]
    check_potential_bound(tree, mu, P)  # warm the caches the check fills
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        rep = check_potential_bound(tree, mu, P)
        grown = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    assert len(rep.equality_edges) > 10_000
    assert grown < 2 ** 20


def test_an_empty_id_list_is_a_list_from_the_start(cases):
    tree, mu = cases[0]
    rep = verify_equilibrium(tree, mu, P)
    assert vars(rep)["_recovered_set"] == []
    assert vars(rep)["_irregular_points"] == []
    assert isinstance(vars(rep)["_undetermined"], np.ndarray)
