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


def test_signed_power_is_bit_identical_to_sign_times_power():
    rng = np.random.default_rng(5)
    f = np.concatenate([
        rng.standard_normal(10_000) * 10.0 ** rng.integers(-320, 300, 10_000),
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324]])
    with np.errstate(over="ignore"):
        for p in (1.05, 1.5, 2.0, 3.0, 8.0, 30.0, 1e6):
            q = as_exponent(p).conjugate - 1.0
            want = np.sign(f) * np.abs(f) ** q
            assert signed_power(f, p).tobytes() == want.tobytes()
    assert type(signed_power(-4.0, 3)) is np.float64
    assert signed_power(-4.0, 3) == -2.0


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


def test_harmonicity_violations_match_p_laplacian_loop():
    from treecap.potential import VertexFunction

    rng = np.random.default_rng(17)
    for _ in range(20):
        tree = random_tree(rng, max_edges=60)
        p = random_p(rng)
        g = VertexFunction(rng.uniform(-1.0, 1.0, tree.n_edges),
                           float(rng.uniform(-1.0, 1.0)))
        rep = is_p_harmonic(tree, g, p, tol=1e-9)
        want = {x: p_laplacian(tree, g, x, p) for x in range(tree.n_edges)
                if tree.n_children[x] > 0}
        assert rep.violations.keys() == {x for x, v in want.items()
                                         if abs(v) > 1e-9}
        for x, v in rep.violations.items():
            assert np.sign(v) == np.sign(want[x])
            assert v == pytest.approx(want[x], rel=1e-12, abs=1e-15)
        assert rep.max_abs == pytest.approx(max(map(abs, want.values())),
                                            rel=1e-12)
        assert rep.worst_edge is not None
        assert abs(rep.violations[rep.worst_edge]) == rep.max_abs


def test_harmonicity_on_weighted_quotient_matches_its_expansion():
    from test_sweeps import expand
    from treecap import Tree
    from treecap.potential import VertexFunction

    q = Tree([-1, 0, 0, 1, 1, 2, 5], tail=[0, 0, 0, 1, 0, 0, 0],
             mult=[1, 2, 3, 1, 4, 2, 5])
    t, node = expand(q)
    rng = np.random.default_rng(23)
    for p in (1.5, 2.0, 3.0):
        gq = VertexFunction(rng.uniform(0.0, 1.0, q.n_edges), 0.0)
        gt = VertexFunction(gq.end_values[node], 0.0)
        rq = is_p_harmonic(q, gq, p, tol=1e-9)
        rt = is_p_harmonic(t, gt, p, tol=1e-9)
        assert rt.violations.keys() == {
            i for i in range(t.n_edges) if node[i] in rq.violations}
        for i, v in rt.violations.items():
            assert v == pytest.approx(rq.violations[node[i]], rel=1e-12)
            assert v == pytest.approx(p_laplacian(t, gt, i, p), rel=1e-12)
        assert rt.max_abs == pytest.approx(rq.max_abs, rel=1e-12)
        assert node[rt.worst_edge] == rq.worst_edge


@pytest.mark.parametrize("tol", [math.nan, -1])
def test_additivity_and_harmonicity_refuse_a_bad_tol(tol):
    from treecap import capacity_recursive, is_forward_additive

    tree = build_tree(SphericallySymmetric([2, 2]))
    res = capacity_recursive(tree, 2.0)
    g = potential_all(tree, res.equilibrium_function)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        is_forward_additive(tree, res.measure.M, tol=tol)
    with pytest.raises(ValueError, match="tol must be >= 0"):
        is_p_harmonic(tree, g, 2.0, tol=tol)
