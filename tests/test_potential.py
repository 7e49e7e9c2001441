import math

import numpy as np
import pytest

from treecap import (
    PExponent,
    SphericallySymmetric,
    as_exponent,
    build_tree,
    energy,
    energy_all,
    is_p_harmonic,
    p_laplacian,
    potential,
    potential_all,
    signed_power,
)
from treecap.trees import BoundaryMeasure, Homogeneous
from helpers import random_leaf_measure, random_p, random_tree


def test_exponent_validation():
    assert PExponent(2.0).conjugate == 2.0
    assert PExponent(1.5).conjugate == pytest.approx(3.0)
    assert as_exponent(as_exponent(3.0)).p == 3.0
    for bad in (1.0, 0.5, 0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            PExponent(bad)


def test_signed_power():
    f = np.array([4.0, -4.0, 0.0, 0.25])
    assert signed_power(f, 2).tolist() == f.tolist()  # p = 2 is identity
    g = signed_power(f, 3)  # exponent p'-1 = 1/2
    assert g[0] == pytest.approx(2.0)
    assert g[1] == pytest.approx(-2.0)
    assert g[2] == 0.0
    # conjugate application inverts
    back = signed_power(g, as_exponent(3).conjugate)
    assert np.allclose(back, f)


def test_potential_accumulates_along_path():
    t = build_tree(SphericallySymmetric([1, 1]))  # 3-edge path
    f = np.array([1.0, 2.0, 4.0])
    V = potential_all(t, f)
    assert V.at_root == 0.0
    assert V.at_end(0) == 1.0
    assert V.at_end(1) == 3.0
    assert V.at_end(2) == 7.0
    assert V.at_begin(t, 2) == 3.0
    assert potential(t, f, 2) == 7.0
    assert potential(t, f) == 0.0  # root vertex


def test_energy_tent_sums():
    t = build_tree(SphericallySymmetric([2]))
    M = np.array([1.0, 0.5, 0.5])
    e = energy_all(t, M, 2)
    assert e[0] == pytest.approx(1.5)
    assert e[1] == pytest.approx(0.25)
    assert energy(t, M, 2) == pytest.approx(1.5)
    assert energy(t, M, 2, alpha=2) == pytest.approx(0.25)
    mu = BoundaryMeasure(t, M)
    assert energy(t, mu, 3) == pytest.approx(1.0 + 2 * 0.5 ** 1.5)


def test_p_laplacian_by_hand():
    # star: root edge with two children, potential g
    t = build_tree(SphericallySymmetric([2]))
    f = np.array([1.0, 2.0, 5.0])
    g = potential_all(t, f)  # 1, 3, 6 at end vertices
    p = 3.0
    expect = (math.copysign(abs(0.0 - 1.0) ** 2, -1.0)
              + abs(3.0 - 1.0) ** 2 + abs(6.0 - 1.0) ** 2)
    assert p_laplacian(t, g, 0, p) == pytest.approx(expect)


def test_p_laplacian_rejects_tail():
    t = build_tree(Homogeneous(2), depth=2, layout="explicit")
    g = potential_all(t, np.ones(t.n_edges))
    with pytest.raises(ValueError):
        p_laplacian(t, g, t.tail_ids()[0], 2)


def test_additive_flux_is_p_harmonic():
    rng = np.random.default_rng(5)
    for _ in range(20):
        tree = random_tree(rng, max_edges=60)
        p = random_p(rng)
        mu = random_leaf_measure(rng, tree)
        g = potential_all(tree, signed_power(mu.M, p))
        rep = is_p_harmonic(tree, g, p, tol=1e-9)
        assert rep.ok, rep


def test_broken_additivity_flags_parent_vertex():
    rng = np.random.default_rng(6)
    tree = random_tree(rng, max_edges=60)
    p = 2.5
    mu = random_leaf_measure(rng, tree)
    f = mu.M.copy()
    beta = next(i for i in range(1, tree.n_edges)
                if tree.parent_of(i) is not None)
    f[beta] += 0.05
    g = potential_all(tree, signed_power(f, p))
    rep = is_p_harmonic(tree, g, p, tol=1e-9)
    assert not rep.ok
    assert tree.parent_of(beta) in rep.violations


def test_measure_or_array_is_one_shape_checked_co_potential():
    from treecap import build_tiling, capacity_recursive, verify_equilibrium
    from treecap.trees import co_potential

    t = build_tree(SphericallySymmetric([2, 3]))
    mu = capacity_recursive(t, 2).measure
    assert co_potential(t, mu) is mu.M
    assert np.array_equal(co_potential(t, mu.M.tolist()), mu.M)
    assert energy(t, mu, 2) == energy(t, mu.M, 2)
    short = mu.M[:-1]
    other = BoundaryMeasure(build_tree(SphericallySymmetric([2])),
                            [1.0, 0.5, 0.5])
    for bad in (short, other):
        for call in (lambda M: energy(t, M, 2),
                     lambda M: verify_equilibrium(t, M, 2),
                     lambda M: build_tiling(t, M)):
            with pytest.raises(ValueError, match="does not match the tree"):
                call(bad)
