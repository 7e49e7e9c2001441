import numpy as np
import pytest

from treecap import (
    BoundaryMeasure,
    Homogeneous,
    SphericallySymmetric,
    build_tree,
    capacity_equation_check,
    capacity_of_set,
    capacity_recursive,
    check_potential_bound,
    energy_all,
    potential_all,
    recover_equilibrium_set,
    signed_power,
    verify_equilibrium,
)
from helpers import random_leaf_measure, random_p, random_tree


def test_equilibrium_verifies_on_fixtures():
    for degs in ([2], [2, 2], [3, 1, 2]):
        t = build_tree(SphericallySymmetric(degs))
        for p in (1.5, 2.0, 3.0):
            r = capacity_recursive(t, p)
            rep = verify_equilibrium(t, r.measure, p)
            assert rep.is_equilibrium
            assert rep.max_residual <= 1e-12
            assert rep.additivity_ok
            assert rep.recovered_set == t.true_leaves()
            assert rep.irregular_points == []
            assert rep.undetermined == []


def test_random_equilibria_verify():
    rng = np.random.default_rng(31)
    for _ in range(25):
        tree = random_tree(rng, max_edges=80)
        p = random_p(rng)
        r = capacity_recursive(tree, p)
        rep = verify_equilibrium(tree, r.measure, p)
        assert rep.is_equilibrium, rep.max_residual
        assert set(rep.recovered_set) == set(r.measure.support_leaves())


def test_perturbation_is_detected():
    rng = np.random.default_rng(32)
    for _ in range(25):
        tree = random_tree(rng, max_edges=80)
        p = random_p(rng)
        r = capacity_recursive(tree, p)
        masses = r.measure.leaf_masses()
        z = max(masses, key=masses.get)
        masses[z] *= 1.01
        mu = BoundaryMeasure.from_leaf_masses(tree, masses)
        rep = verify_equilibrium(tree, mu, p)
        assert not rep.is_equilibrium
        assert rep.additivity_ok  # re-additivized, so only the identity fails
        assert rep.max_residual > 1e-9 * max(mu.total_mass, 1e-12)


def test_scaled_measure_is_all_irregular():
    t = build_tree(SphericallySymmetric([2, 2]))
    r = capacity_recursive(t, 2)
    half = BoundaryMeasure(t, 0.5 * r.measure.M)
    rep = verify_equilibrium(t, half, 2)
    assert not rep.is_equilibrium
    assert rep.recovered_set == []
    assert set(rep.irregular_points) == set(t.true_leaves())


def test_undetermined_tail_mass_blocks_certification():
    t = build_tree(Homogeneous(2), depth=4, layout="explicit")
    r = capacity_recursive(t, 2)  # interval policy puts mass on tails
    rep = verify_equilibrium(t, r.measure, 2)
    assert not rep.is_equilibrium
    assert set(rep.undetermined) == set(t.tail_ids())
    # residuals outside the blocked region are still clean
    assert rep.max_residual <= 1e-12


def test_zero_tails_leave_finite_part_checkable():
    t = build_tree(Homogeneous(2), depth=3, layout="explicit")
    r = capacity_recursive(t, 2, tail_policy="pessimistic")
    # all mass vanished; trivially an equilibrium of the empty set
    rep = verify_equilibrium(t, r.measure, 2)
    assert rep.undetermined == []
    assert rep.total_mass == pytest.approx(0.0, abs=1e-15)


def test_capacity_equation_check():
    rng = np.random.default_rng(33)
    for _ in range(10):
        tree = random_tree(rng, max_edges=60)
        p = random_p(rng)
        r = capacity_recursive(tree, p)
        eq = capacity_equation_check(tree, r, p)
        assert eq.ok, eq.max_residual
        bad = r.c_of_alpha.copy()
        bad[0] *= 1.05
        eq2 = capacity_equation_check(tree, bad, p)
        assert not eq2.ok


def test_capacity_equation_skips_tails():
    t = build_tree(Homogeneous(2), depth=3, layout="explicit")
    r = capacity_recursive(t, 2)
    eq = capacity_equation_check(t, r.c_of_alpha, 2)
    assert eq.skipped_tails == len(t.tail_ids())
    assert eq.ok


def test_potential_bound():
    t = build_tree(SphericallySymmetric([2, 2]))
    r = capacity_recursive(t, 2)
    rep = check_potential_bound(t, r.measure, 2)
    assert rep.ok
    assert rep.max_value == pytest.approx(1.0, abs=1e-12)
    assert set(rep.equality_edges) == set(t.true_leaves())
    assert rep.interior_strict
    over = BoundaryMeasure(t, 1.1 * r.measure.M)
    rep2 = check_potential_bound(t, over, 2)
    assert not rep2.ok
    assert rep2.max_value > 1.0
    assert t.is_true_leaf(rep2.worst_edge)


def test_recover_set_matches_support():
    rng = np.random.default_rng(34)
    tree = random_tree(rng, max_edges=60)
    leaves = tree.true_leaves()
    picked = leaves[: max(1, len(leaves) // 2)]
    r = capacity_of_set(tree, picked, 2.5)
    assert sorted(recover_equilibrium_set(tree, r.measure, 2.5)) == \
        sorted(picked)


def test_verify_rejects_wrong_shapes():
    t = build_tree(SphericallySymmetric([2]))
    with pytest.raises(ValueError):
        verify_equilibrium(t, np.ones(7), 2)
    compact = build_tree(Homogeneous(2), depth=30)
    with pytest.raises(TypeError):
        verify_equilibrium(compact, np.ones(3), 2)


def test_residuals_match_the_energy_all_formula():
    rng = np.random.default_rng(41)
    cases = [(random_tree(rng, max_edges=150), random_p(rng))
             for _ in range(15)]
    cases += [(build_tree(Homogeneous(2), depth=8, layout="explicit"), p)
              for p in (1.05, 2.5, 30.0)]
    for tree, p in cases:
        mu = capacity_recursive(tree, p).measure
        for M in (mu.M, 0.5 * mu.M):
            rep = verify_equilibrium(tree, M, p)
            V = potential_all(tree, signed_power(M, p))
            old = np.abs(M * (1.0 - V.begin_values(tree))
                         - energy_all(tree, M, p))
            scale = max(float(M[0]), 1e-12)
            assert np.max(np.abs(rep.residuals - old)) <= 1e-15 * scale


def test_capacity_equation_check_refuses_a_wrong_length():
    t = build_tree(SphericallySymmetric([2]))
    with pytest.raises(ValueError, match="does not match the tree"):
        capacity_equation_check(t, np.ones(2), 2)


@pytest.mark.parametrize("degrees", [[2, 3, 2], [3, 1, 2, 2], [2] * 12,
                                     [1, 1, 2, 3]])
def test_a_compact_result_verifies_on_its_quotient(degrees):
    # the referees sweep with mult, so on the quotient they reach the
    # explicit tree's verdicts with one value per level
    spec = SphericallySymmetric(degrees)
    te = build_tree(spec, layout="explicit")
    for p in (1.05, 1.5, 2.0, 2.7, 8.0):
        r_e, r_c = (capacity_recursive(build_tree(spec, layout=layout), p)
                    for layout in ("explicit", "compact"))
        assert r_c.tree.mult is not None  # the quotient, one node per level
        ve, vc = (verify_equilibrium(r.tree, r.measure, p) for r in (r_e, r_c))
        assert ve.is_equilibrium and vc.is_equilibrium
        assert np.array_equal(te.from_levels(vc.residuals), ve.residuals)
        assert vc.max_residual == ve.max_residual
        assert vc.recovered_set == [len(degrees)]
        assert ve.recovered_set == te.true_leaves()
        be, bc = (check_potential_bound(r.tree, r.measure, p)
                  for r in (r_e, r_c))
        assert (be.ok, be.max_value, be.interior_strict) == \
            (bc.ok, bc.max_value, bc.interior_strict)
        ee, ec = (capacity_equation_check(r.tree, r, p) for r in (r_e, r_c))
        assert ee.ok and ec.ok
        assert np.array_equal(te.from_levels(ec.residuals), ee.residuals)


def test_a_truncated_compact_result_is_undetermined_on_both_layouts():
    spec = Homogeneous(2)
    te = build_tree(spec, depth=8, layout="explicit")
    r_e, r_c = (capacity_recursive(build_tree(spec, depth=8, layout=layout),
                                   2) for layout in ("explicit", "compact"))
    ve, vc = (verify_equilibrium(r.tree, r.measure, 2) for r in (r_e, r_c))
    assert not ve.is_equilibrium and not vc.is_equilibrium
    assert ve.undetermined == te.tail_ids() and vc.undetermined == [8]
    assert vc.max_residual == ve.max_residual
