import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecap import (
    BoundaryMeasure,
    CapacityInterval,
    EquilibriumResult,
    Homogeneous,
    LevelEquilibriumResult,
    SphericallySymmetric,
    Subdyadic,
    Tree,
    as_exponent,
    build_tree,
    capacity_of_set,
    capacity_recursive,
    homogeneous_capacity,
    potential_all,
    rescaling_constant,
    signed_power,
    spanned_subtree,
    symmetric_capacity,
    tent,
    total_resistance,
    verify_equilibrium,
)
from helpers import random_p, random_tree


def series_capacity(cards, p):
    """Independent level-counting reference: (sum card^(1-p'))^(1-p)."""
    q = 1.0 - p / (p - 1.0)
    return sum(c ** q for c in cards) ** (1.0 - p)


def test_interval_basics():
    iv = CapacityInterval(0.25, 0.5)
    assert iv.width == 0.25
    assert iv.midpoint == 0.375
    assert iv.contains(0.3) and not iv.contains(0.6)
    assert iv.to_json() == {"lower": 0.25, "upper": 0.5}
    with pytest.raises(ValueError):
        CapacityInterval(0.5, 0.25)


def test_three_edge_fixture():
    t = build_tree(SphericallySymmetric([2]))
    r = capacity_recursive(t, 2)
    assert r.capacity.width == 0.0
    assert r.capacity.midpoint == pytest.approx(2 / 3, abs=1e-15)
    assert np.allclose(r.measure.M, [2 / 3, 1 / 3, 1 / 3])
    assert np.allclose(r.c_of_alpha, [2 / 3, 1.0, 1.0])
    assert r.upper_run is None


def test_finite_binary_against_series():
    for depth in (1, 2, 3, 5):
        cards = [2 ** k for k in range(depth + 1)]
        t = build_tree(SphericallySymmetric([2] * depth))
        for p in (1.5, 2.0, 3.0):
            r = capacity_recursive(t, p)
            assert r.capacity.midpoint == pytest.approx(
                series_capacity(cards, p), rel=1e-12)


def test_path_capacities():
    for k in (1, 2, 5, 9):
        t = build_tree(SphericallySymmetric([1] * (k - 1)))
        for p in (1.3, 2.0, 3.5):
            r = capacity_recursive(t, p)
            assert r.capacity.midpoint == pytest.approx(k ** (1 - p),
                                                        rel=1e-12)
            # the equilibrium spreads mass k^(1-p) over every edge
            assert np.allclose(r.measure.M, k ** (1 - p))


def test_homogeneous_closed_form():
    assert homogeneous_capacity(2, 2) == pytest.approx(0.5)
    for n, p in ((2, 1.5), (3, 2.0), (5, 2.5)):
        q = p / (p - 1.0)
        assert homogeneous_capacity(n, p) == pytest.approx(
            (1.0 - n ** (1.0 - q)) ** (p - 1.0))


def test_symmetric_capacity_matches_recursion():
    rng = np.random.default_rng(11)
    for _ in range(10):
        degs = [int(d) for d in rng.integers(1, 4, size=rng.integers(1, 6))]
        p = random_p(rng)
        t = build_tree(SphericallySymmetric(degs))
        iv = symmetric_capacity(degs, p)
        assert iv.width == 0.0
        r = capacity_recursive(t, p)
        assert iv.midpoint == pytest.approx(r.capacity.midpoint, rel=1e-12)
        cards = np.cumprod([1] + degs).tolist()
        assert iv.midpoint == pytest.approx(series_capacity(cards, p),
                                            rel=1e-12)


def test_symmetric_capacity_tail_bounds():
    iv = symmetric_capacity([], 2, tail_degree=2)
    assert iv.contains(0.5) and iv.width < 1e-12
    # a continuation that may stop branching diverges: capacity 0 exactly
    assert symmetric_capacity([3, 3], 2, tail_degree=1) == CapacityInterval(0, 0)
    # truncating the series keeps a certified bracket
    full = symmetric_capacity([2] * 40, 3, tail_degree=2)
    short = symmetric_capacity([2] * 40, 3, tail_degree=2, depth=12)
    assert short.lower <= full.midpoint <= short.upper
    assert short.width > full.width


def series_capacity_mp(degrees, tail_degree, p):
    """The level counting series of degrees continued by tail_degree,
    its geometric tail summed in closed form, at 50 digits."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        q = 1 - p / (p - 1)
        card, total = mpmath.mpf(1), mpmath.mpf(0)
        for d in degrees:
            total += card ** q
            card *= d
        total += card ** q / (1 - mpmath.mpf(tail_degree) ** q)
        return total ** (1 - p)


SERIES_DEGREES = ([], [1], [2], [3, 1, 2], [1, 1, 1], [5, 2], [2] * 10,
                  [1, 4, 1, 1, 3], [7] * 8, [1] * 12 + [2])


@pytest.mark.parametrize("degrees", SERIES_DEGREES, ids=str)
def test_symmetric_capacity_brackets_the_exact_series(degrees):
    n = len(degrees)
    depths = {None, 1, max(n // 2, 1), n, n + 3, n + 20}
    for tail, p in itertools.product(
            (2, 3, 5), (1.05, 1.2, 1.5, 2.0, 2.7, 4.0, 8.0, 16.0, 30.0,
                        1000.0)):
        exact = series_capacity_mp(degrees, tail, p)
        for depth in depths:
            iv = symmetric_capacity(degrees, p, depth=depth,
                                    tail_degree=tail)
            assert iv.lower <= exact <= iv.upper, (tail, p, depth)
            if depth is None or depth >= n:  # the whole series is summed
                assert iv.width <= 4.1e-13, (tail, p, depth)


def test_compact_layout_agrees_with_explicit():
    for p in (1.5, 2.0, 2.7):
        te = build_tree(Homogeneous(3), depth=5, layout="explicit")
        tc = build_tree(Homogeneous(3), depth=5, layout="compact")
        re = capacity_recursive(te, p)
        rc = capacity_recursive(tc, p)
        assert isinstance(rc, LevelEquilibriumResult)
        assert rc.capacity.lower == pytest.approx(re.capacity.lower, rel=1e-12)
        assert rc.capacity.upper == pytest.approx(re.capacity.upper, rel=1e-12)
        # per-level values match the explicit per-edge ones
        for lev in range(te.depth + 1):
            lo, hi = te.level_slice(lev)
            assert re.measure.M[lo] == pytest.approx(rc.m_levels[lev],
                                                     rel=1e-12)
            assert re.c_of_alpha[lo] == pytest.approx(rc.c_levels[lev],
                                                      rel=1e-12)


def _agree(a, b):
    return np.allclose(a, b, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("spec, depth", [
    (Homogeneous(2), 7), (Homogeneous(3), 5), (Homogeneous(5), 4),
    (Subdyadic([2, 0, 1]), 7), (SphericallySymmetric([2, 3, 1, 2]), None),
    (SphericallySymmetric([2, 3, 1, 2, 2]), 3)])
def test_compact_layout_agrees_with_explicit_at_every_level(spec, depth):
    te = build_tree(spec, depth=depth, layout="explicit")
    tc = build_tree(spec, depth=depth, layout="compact")
    for policy in ("interval", "pessimistic", "optimistic", 0.3):
        for p in (1.05, 1.5, 2.0, 2.7, 8.0, 30.0):
            re = capacity_recursive(te, p, tail_policy=policy)
            rc = capacity_recursive(tc, p, tail_policy=policy)
            c_hi, mu_hi = (re.upper_run[:2] if re.upper_run
                           else (re.c_of_alpha, re.measure))
            # every edge of the explicit layout matches its level's value
            for e, c in ((re.c_of_alpha, rc.c_levels),
                         (re.measure.M, rc.m_levels),
                         (c_hi, rc.c_levels_upper),
                         (mu_hi.M, rc.m_levels_upper)):
                assert _agree(e, c[te.level]), (p, policy)
            assert _agree([re.capacity.lower, re.capacity.upper],
                          [rc.capacity.lower, rc.capacity.upper])
        ee = total_resistance(te, tail_policy=policy)
        ec = total_resistance(tc, tail_policy=policy)
        assert ec.per_level and not ee.per_level
        assert _agree(ee.below_lower, ec.below_lower[te.level]), policy
        assert _agree(ee.below_upper, ec.below_upper[te.level]), policy


def test_compact_layout_refuses_per_tail_values():
    for tc in (build_tree(Homogeneous(2), depth=30),
               build_tree(SphericallySymmetric([2, 2]), layout="compact")):
        policy = {z: 0.5 for z in range(3)}
        with pytest.raises(ValueError, match="need an explicit tree"):
            capacity_recursive(tc, 2, tail_policy=policy)
        with pytest.raises(ValueError, match="need an explicit tree"):
            total_resistance(tc, tail_policy=policy)


def test_tail_policies():
    t = build_tree(Homogeneous(2), depth=6, layout="explicit")
    pes = capacity_recursive(t, 2, tail_policy="pessimistic")
    opt = capacity_recursive(t, 2, tail_policy="optimistic")
    iv = capacity_recursive(t, 2, tail_policy="interval")
    # every boundary point hides behind a tail here, so the pessimistic
    # scenario (worthless tails) collapses to capacity zero
    assert pes.capacity.midpoint == pytest.approx(0.0, abs=1e-12)
    assert opt.capacity.midpoint >= iv.capacity.upper - 1e-12
    assert iv.capacity.lower > 0.0
    assert iv.capacity.contains(0.5)
    # a boundary with both a true leaf and a tail brackets between the
    # two scenarios
    from treecap import Tree
    mixed = Tree.from_adjacency({"r": ["a", "b"], "a": [], "b": []},
                                tails=["a"])
    lo = capacity_recursive(mixed, 2, tail_policy="pessimistic")
    hi = capacity_recursive(mixed, 2, tail_policy="optimistic")
    assert lo.capacity.midpoint == pytest.approx(0.5, abs=1e-12)
    assert hi.capacity.midpoint == pytest.approx(2 / 3, abs=1e-12)
    both = capacity_recursive(mixed, 2, tail_policy="interval")
    assert both.capacity.lower == pytest.approx(0.5, abs=1e-10)
    assert both.capacity.upper == pytest.approx(2 / 3, abs=1e-10)
    # seeding the exact continuation value reproduces the fixed point
    fixed = capacity_recursive(t, 2, tail_policy=0.5)
    assert fixed.capacity.midpoint == pytest.approx(0.5, abs=1e-12)
    assert fixed.capacity.width == 0.0
    per_tail = capacity_recursive(
        t, 2, tail_policy={z: 0.5 for z in t.tail_ids()})
    assert per_tail.capacity.midpoint == pytest.approx(0.5, abs=1e-12)


def test_certified_interval_shrinks_with_depth():
    widths = []
    for depth in (5, 10, 20, 30):
        t = build_tree(Homogeneous(2), depth=depth)
        r = capacity_recursive(t, 2)
        assert r.capacity.contains(0.5)
        widths.append(r.capacity.width)
    assert widths[0] > widths[1] > widths[2]
    assert widths[-1] < 1e-5


def test_capacity_monotone_in_the_set():
    rng = np.random.default_rng(12)
    for _ in range(10):
        tree = random_tree(rng, max_edges=80)
        p = random_p(rng)
        leaves = tree.true_leaves()
        full = capacity_recursive(tree, p).capacity.midpoint
        part = capacity_of_set(tree, leaves[: max(1, len(leaves) // 2)], p)
        assert part.capacity.midpoint <= full + 1e-12
        assert capacity_of_set(tree, leaves, p).capacity.midpoint == \
            pytest.approx(full, rel=1e-12)


def set_capacity_reference(tree, boundary_set, p):
    """Capacity of a leaf set by the whole-boundary run on the spanned
    subtree, its edge functions copied back into the host tree."""
    sub = spanned_subtree(tree, boundary_set)
    res = capacity_recursive(sub, p, tail_policy="pessimistic")
    ids = np.asarray(sub.orig_ids)
    c, M = np.zeros(tree.n_edges), np.zeros(tree.n_edges)
    c[ids] = res.c_of_alpha
    M[ids] = res.measure.M
    return res.capacity, c, M


@st.composite
def trees_with_leaf_sets(draw):
    """A BFS-ordered tree with some leaves flagged as tails, and a
    nonempty list of its true leaves that may repeat ids."""
    kids = draw(st.lists(st.integers(0, 4), min_size=1, max_size=60))
    parent = [-1]
    for i, k in enumerate(kids):
        if i >= len(parent):
            break
        parent.extend([i] * k)
    n_children = np.bincount(parent[1:], minlength=len(parent))
    leaves = np.flatnonzero(n_children == 0)
    tail = np.zeros(len(parent), dtype=bool)
    tail[leaves] = draw(st.lists(st.booleans(), min_size=leaves.size,
                                 max_size=leaves.size))
    tail[leaves[draw(st.integers(0, leaves.size - 1))]] = False
    true_leaves = np.flatnonzero((n_children == 0) & ~tail).tolist()
    E = draw(st.lists(st.sampled_from(true_leaves), min_size=1,
                      max_size=2 * len(true_leaves)))
    return Tree(parent, tail=tail), E


@pytest.mark.parametrize("p", [1.05, 1.3, 2.0, 2.7, 8.0, 30.0])
@settings(max_examples=100, deadline=None, database=None)
@given(case=trees_with_leaf_sets())
def test_capacity_of_set_is_bit_identical_to_the_spanned_subtree_run(p,
                                                                     case):
    tree, E = case
    cap, c, M = set_capacity_reference(tree, E, p)
    res = capacity_of_set(tree, E, p)
    assert res.capacity == cap
    assert res.c_of_alpha.tobytes() == c.tobytes()
    assert res.measure.M.tobytes() == M.tobytes()
    assert (res.equilibrium_function.tobytes()
            == signed_power(M, p).tobytes())


def test_capacity_of_single_leaf_is_path():
    t = build_tree(SphericallySymmetric([2, 2, 2]))
    z = t.true_leaves()[0]
    for p in (1.5, 2.0, 3.0):
        r = capacity_of_set(t, [z], p)
        k = t.level_of(z) + 1
        assert r.capacity.midpoint == pytest.approx(k ** (1 - p), rel=1e-12)
        # measure lives on the path only
        assert r.measure.M[z] > 0
        assert r.measure.M[t.true_leaves()[1]] == 0.0


def test_equilibrium_measure_total_is_capacity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        tree = random_tree(rng, max_edges=80)
        p = random_p(rng)
        r = capacity_recursive(tree, p)
        assert r.measure.total_mass == pytest.approx(r.capacity.midpoint,
                                                     rel=1e-12)
        assert isinstance(r, EquilibriumResult)
        assert np.all(r.measure.M >= 0)
        # potential of the equilibrium function reaches 1 at every leaf
        from treecap import potential_all
        V = potential_all(tree, r.equilibrium_function)
        for z in tree.true_leaves():
            if r.measure.M[z] > 1e-12:
                assert V.at_end(z) == pytest.approx(1.0, abs=1e-10)


def test_rescaling_fixture():
    t = build_tree(SphericallySymmetric([2, 2, 2]))
    r = capacity_recursive(t, 2)
    rs = rescaling_constant(t, r, 1)
    assert rs.k == pytest.approx(15 / 7, rel=1e-12)
    assert rs.capacity == pytest.approx(4 / 7, rel=1e-12)
    sub_eq = capacity_recursive(rs.tent, 2)
    assert np.allclose(rs.measure.M, sub_eq.measure.M, atol=1e-12)
    bogus = EquilibriumResult(
        tree=t, p=2.0, capacity=r.capacity, c_of_alpha=r.c_of_alpha,
        measure=r.measure, equilibrium_function=np.ones(t.n_edges))
    with pytest.raises(ValueError):
        rescaling_constant(t, bogus, 1)  # potential already 1 at b(alpha)


def test_resistance_series_and_parallel():
    # path of k edges: k-1 ohms below the root edge, capacity 1/k
    for k in (1, 2, 5):
        t = build_tree(SphericallySymmetric([1] * (k - 1)))
        res = total_resistance(t)
        assert res.lower == pytest.approx(k - 1.0)
        assert res.upper == res.lower
        assert res.capacity_interval().midpoint == pytest.approx(1.0 / k)
    t = build_tree(SphericallySymmetric([2]))
    res = total_resistance(t)
    assert res.lower == pytest.approx(0.5)
    assert res.capacity_interval().midpoint == pytest.approx(2 / 3)


def test_resistance_brackets_infinite_binary():
    t = build_tree(Homogeneous(2), depth=12, layout="explicit")
    res = total_resistance(t)
    assert res.lower <= 1.0 <= res.upper
    assert res.capacity_interval().contains(0.5)
    # pessimistic tails leave the branch open: infinite resistance there
    open_ended = total_resistance(t, tail_policy="pessimistic")
    assert open_ended.upper == math.inf
    assert open_ended.capacity_interval().lower == 0.0
    # compact layout agrees
    tc = build_tree(Homogeneous(2), depth=12, layout="compact")
    resc = total_resistance(tc)
    assert resc.lower == pytest.approx(res.lower, rel=1e-12)
    assert resc.upper == pytest.approx(res.upper, rel=1e-12)


def test_padding_only_on_truncations():
    finite = capacity_recursive(build_tree(SphericallySymmetric([2, 2])), 2)
    assert finite.capacity.width == 0.0
    trunc = capacity_recursive(build_tree(Homogeneous(2), depth=8), 2)
    assert trunc.capacity.width > 0.0


def test_capacity_rejects_bad_exponent():
    t = build_tree(SphericallySymmetric([2]))
    with pytest.raises(ValueError):
        capacity_recursive(t, 1.0)
    with pytest.raises(ValueError):
        symmetric_capacity([2], 0.5)


def test_compact_result_is_an_equilibrium_result_on_the_quotient():
    import dataclasses

    assert (dataclasses.fields(LevelEquilibriumResult)
            == dataclasses.fields(EquilibriumResult))
    tc = build_tree(Homogeneous(2), depth=30)
    r = capacity_recursive(tc, 2.5)
    assert isinstance(r, EquilibriumResult) and r.tree is tc.quotient
    assert r.c_levels is r.c_of_alpha and r.m_levels is r.measure.M
    assert r.measure.tree is tc.quotient and r.upper_run is not None
    assert r.c_levels_upper is r.upper_run[0]
    assert r.m_levels_upper is r.upper_run[1].M
    finite = build_tree(SphericallySymmetric([2, 3]), layout="compact")
    rf = capacity_recursive(finite, 2)
    assert rf.upper_run is None and rf.c_levels_upper is rf.c_of_alpha
    rr = total_resistance(tc)
    assert rr.tree is tc.quotient and rr.per_level
    assert not total_resistance(build_tree(Homogeneous(2), depth=3)).per_level


@pytest.mark.parametrize("spec, depth", [
    (Homogeneous(2), 10), (Homogeneous(3), 5), (Subdyadic([2, 0, 1]), 7),
    (SphericallySymmetric([2, 3, 1, 2, 2]), 3)])
def test_tents_of_both_layouts_give_equal_brackets(spec, depth):
    te = build_tree(spec, depth=depth, layout="explicit")
    tc = build_tree(spec, depth=depth, layout="compact")
    for k in range(depth + 1):
        alpha = te.level_slice(k)[0]
        for p in (1.05, 2.0, 2.7, 30.0):
            re = capacity_recursive(tent(te, alpha), p).capacity
            rc = capacity_recursive(tent(tc, alpha), p).capacity
            assert (re.lower, re.upper) == (rc.lower, rc.upper), (k, p)
        assert tent(te, alpha).continuation == te.continuation


@pytest.mark.parametrize("policy", [
    lambda tails: {tails[0]: 1.5},
    lambda tails: {tails[0]: (0.9, 0.1)},
    lambda tails: {999: 0.5},
    lambda tails: {0: 0.5},  # an inner edge, not a tail
    lambda tails: {tails[0]: math.nan}], ids=[
        "above-one", "reversed-pair", "unknown-id", "not-a-tail", "nan"])
def test_dict_tail_policies_are_validated(policy):
    t = build_tree(Homogeneous(2), depth=3, layout="explicit")
    with pytest.raises(ValueError, match="tail"):
        capacity_recursive(t, 2, tail_policy=policy(t.tail_ids()))
    with pytest.raises(ValueError, match="tail"):
        total_resistance(t, tail_policy=policy(t.tail_ids()))


def test_large_p_overflow_raises_no_warning():
    t = build_tree(Homogeneous(2), depth=4, layout="explicit")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = capacity_recursive(t, 1e15)
    assert res.capacity.lower == 0.0 and res.capacity.upper == 1e-13


@pytest.mark.parametrize("p", [1.01, 1.05])
def test_leaf_masses_near_p_1_are_exact(p):
    # by symmetry every leaf carries c / 2^10; c is within 5e-8 of 1
    # here, where a factor formed as 1 - c^(p'-1) loses every digit
    t = build_tree(SphericallySymmetric([2] * 10))
    res = capacity_recursive(t, p)
    c = res.capacity.midpoint
    M = res.measure.M[t.true_leaf_mask()]
    assert M.size == 2 ** 10
    assert np.max(np.abs(M - c / 2 ** 10)) <= 1e-15 * c / 2 ** 10
    assert verify_equilibrium(t, res.measure, p).is_equilibrium


@pytest.mark.parametrize("p", [1.001, 1.0005])
def test_recursion_near_p_1_matches_the_series(p):
    # child sums of 3 reach S^(p'-1) = 3^1000 and beyond, past the float
    # range; the one-step map must still give the series value
    for degrees in ([3] * 6, [5, 2, 7], [2] * 12):
        want = symmetric_capacity(degrees, p)
        for layout in ("explicit", "compact"):
            t = build_tree(SphericallySymmetric(degrees), layout=layout)
            got = capacity_recursive(t, p).capacity
            assert got.lower == pytest.approx(want.lower, abs=1e-12)
            assert got.upper == pytest.approx(want.upper, abs=1e-12)
    res = capacity_recursive(build_tree(SphericallySymmetric([3] * 6)), p)
    assert res.capacity.lower == 1.0
    assert verify_equilibrium(res.tree, res.measure, p).is_equilibrium


def test_one_step_matches_the_direct_form_where_it_is_finite():
    from treecap.capacity import _one_step
    from treecap.potential import as_exponent

    rng = np.random.default_rng(31)
    S = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 50.0, 200),
                        10.0 ** rng.uniform(-12, 3, 200)))
    for p in (1.1, 1.5, 2.0, 3.0, 7.5):
        pe = as_exponent(p)
        D = (1.0 + S ** (pe.conjugate - 1.0)) ** (p - 1.0)
        c, inv_D = _one_step(S, pe)
        np.testing.assert_allclose(c, S / D, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(inv_D, 1.0 / D, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("p", [1.001, 1e15])
def test_extreme_p_raises_no_warning(p):
    from treecap import compact_set_of_capacity

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for layout in ("explicit", "compact"):
            capacity_recursive(build_tree(SphericallySymmetric([3] * 6),
                                          layout=layout), p)
        capacity_of_set(build_tree(SphericallySymmetric([4] * 4)),
                        range(90, 200), p)
        if p < 2:
            res = compact_set_of_capacity(3, p, 0.999, depth=6)
            assert abs(res.capacity - 0.999) <= 1e-3
            assert res.capacity == pytest.approx(capacity_of_set(
                res.tree, res.leaves, p).capacity.lower, abs=1e-12)


def test_a_partial_tail_dict_leaves_the_other_tails_at_0_and_1():
    t = build_tree(Homogeneous(2), depth=4, layout="explicit")
    tails = t.tail_ids()
    partial = {tails[0]: 0.3, tails[5]: (0.2, 0.6), tails[9]: (0.5, 0.5)}
    full = {z: partial.get(z, (0.0, 1.0)) for z in tails}
    for p in (1.5, 2.0, 3.0):
        a = capacity_recursive(t, p, tail_policy=partial)
        b = capacity_recursive(t, p, tail_policy=full)
        assert a.capacity == b.capacity and a.capacity.width > 0.0
        assert np.array_equal(a.c_of_alpha, b.c_of_alpha)
        assert np.array_equal(a.upper_run[0], b.upper_run[0])
    a = total_resistance(t, tail_policy=partial)
    b = total_resistance(t, tail_policy=full)
    assert (a.lower, a.upper) == (b.lower, b.upper) and a.upper > a.lower
    assert np.array_equal(a.below_lower, b.below_lower)
    assert np.array_equal(a.below_upper, b.below_upper)


@st.composite
def spec_built_trees(draw):
    """An explicit tree built from a Homogeneous, SphericallySymmetric or
    Subdyadic spec, with a few thousand edges at most."""
    kind = draw(st.sampled_from(["homogeneous", "symmetric", "subdyadic"]))
    if kind == "homogeneous":
        n = draw(st.integers(2, 6))
        spec = Homogeneous(n)
        depth = draw(st.integers(1, int(10 / math.log2(n))))
    elif kind == "symmetric":
        degs = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)
                    .filter(lambda d: math.prod(d) <= 2000))
        spec = SphericallySymmetric(degs)
        depth = draw(st.none() | st.integers(1, len(degs)))
    else:
        spec = Subdyadic(draw(st.lists(st.integers(0, 3), max_size=4)))
        depth = draw(st.integers(1, 10))
    return build_tree(spec, depth=depth, layout="explicit")


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 2.7, 8.0, 30.0])
@settings(max_examples=100, deadline=None, database=None)
@given(t=spec_built_trees(),
       policy=st.sampled_from(["interval", "pessimistic", "optimistic"])
       | st.floats(0.0, 1.0))
def test_the_quotient_route_matches_the_explicit_sweep(p, t, policy):
    # the spec-free copy has no quotient, so it sweeps every edge; a sum
    # of d equal children is d v bit for bit when d <= 4 only
    swept = Tree(t.parent, tail=t.tail, continuation=t.continuation)
    exact = max(t.level_degrees, default=1) <= 4

    def agree(a, b):
        if exact:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        else:
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0.0)

    r = capacity_recursive(t, p, policy)
    s = capacity_recursive(swept, p, policy)
    assert r.tree is t and type(r) is EquilibriumResult
    agree([r.capacity.lower, r.capacity.upper],
          [s.capacity.lower, s.capacity.upper])
    agree(r.c_of_alpha, s.c_of_alpha)
    agree(r.measure.M, s.measure.M)
    agree(r.equilibrium_function, s.equilibrium_function)
    assert (r.upper_run is None) == (s.upper_run is None)
    if r.upper_run is not None:
        agree(r.upper_run[0], s.upper_run[0])
        agree(r.upper_run[1].M, s.upper_run[1].M)
    rr, sr = total_resistance(t, policy), total_resistance(swept, policy)
    assert rr.tree is t and not rr.per_level
    agree([rr.lower, rr.upper], [sr.lower, sr.upper])
    agree(rr.below_lower, sr.below_lower)
    agree(rr.below_upper, sr.below_upper)


def test_spec_built_trees_sweep_their_quotient_unless_given_a_dict():
    t = build_tree(Homogeneous(3), depth=4, layout="explicit")

    def refuse(step):
        raise AssertionError("swept the explicit tree")

    t.sweep_up = refuse
    r = capacity_recursive(t, 2.5)
    assert type(r) is EquilibriumResult and r.tree is t
    assert r.c_of_alpha.shape == r.upper_run[1].M.shape == (t.n_edges,)
    rr = total_resistance(t)
    assert rr.tree is t and rr.below_upper.shape == (t.n_edges,)
    tails = t.tail_ids()
    policy = {z: 0.2 if z == tails[0] else 0.7 for z in tails}
    with pytest.raises(AssertionError, match="swept"):
        capacity_recursive(t, 2.0, tail_policy=policy)
    with pytest.raises(AssertionError, match="swept"):
        total_resistance(t, tail_policy=policy)
    del t.sweep_up
    r = capacity_recursive(t, 2.0, tail_policy=policy)
    assert r.c_of_alpha[tails[0]] == 0.2
    assert np.all(r.c_of_alpha[tails[1:]] == 0.7)
    assert r.capacity.lower < capacity_recursive(t, 2.0, 0.7).capacity.lower
    rr = total_resistance(t, tail_policy=policy)
    assert rr.below_lower[tails[0]] == pytest.approx(4.0)
    assert np.allclose(rr.below_lower[tails[1:]], 0.3 / 0.7)


def test_a_subnormal_tail_value_has_infinite_resistance():
    t = build_tree(Homogeneous(2), depth=3, layout="explicit")
    rr = total_resistance(t, tail_policy=5e-324)
    assert rr.lower == rr.upper == math.inf


def test_rescaling_constant_matches_the_potential_all_formula():
    rng = np.random.default_rng(37)
    trees = [random_tree(rng, max_edges=100) for _ in range(8)]
    trees += [build_tree(Homogeneous(3), depth=4, layout="explicit"),
              build_tree(Subdyadic([1, 0, 2]), depth=7),
              build_tree(SphericallySymmetric([2, 3, 1, 2]))]
    checked = 0
    for tree in trees:
        pe = as_exponent(random_p(rng))
        r = capacity_recursive(tree, pe.p)
        V = potential_all(tree, r.equilibrium_function)
        for alpha in range(tree.n_edges):
            v = V.at_begin(tree, alpha)
            if v >= 1.0 - 1e-12:
                continue
            k = (1.0 - v) ** (-pe.p / pe.conjugate)
            assert rescaling_constant(tree, r, alpha).k == k
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("call, error, says", [
    (lambda: symmetric_capacity([0], 2), ValueError, "degrees must be >= 1"),
    (lambda: symmetric_capacity([2], 2, tail_degree=0), ValueError,
     "tail degree must be >= 1"),
    (lambda: capacity_recursive(
        build_tree(Homogeneous(2), depth=2, layout="explicit"), 2,
        tail_policy="bogus"), ValueError, "unknown tail policy"),
], ids=["series-degree-0", "series-tail-degree-0", "unknown-tail-policy"])
def test_malformed_capacity_arguments_are_refused(call, error, says):
    with pytest.raises(error, match=says):
        call()


@pytest.mark.parametrize("call, error, says", [
    (lambda t, r: rescaling_constant(t, r, -1), KeyError, "out of range"),
    (lambda t, r: rescaling_constant(t, r, 7), KeyError, "out of range"),
    (lambda t, r: rescaling_constant(
        build_tree(SphericallySymmetric([2, 2]), layout="compact"),
        r, 1), TypeError, "explicitly stored"),
    (lambda t, r: capacity_of_set(t, [3.9], 2), ValueError,
     "edge 3.9 is not a true leaf"),
    (lambda t, r: capacity_of_set(t, [3, 4.5], 2), ValueError,
     "edge 4.5 is not a true leaf"),
], ids=["rescale-negative-id", "rescale-id-past-the-end", "rescale-compact",
        "set-fractional-id", "set-second-id-fractional"])
def test_ids_that_name_no_edge_are_refused(call, error, says):
    t = build_tree(SphericallySymmetric([2, 2]))
    with pytest.raises(error, match=says):
        call(t, capacity_recursive(t, 2))


def test_integral_ids_of_any_type_name_leaves_and_tails():
    finite = build_tree(SphericallySymmetric([2, 2]))
    leaves = np.asarray(finite.true_leaves())
    assert capacity_of_set(finite, leaves[:2], 2).capacity == \
        capacity_of_set(finite, [3.0, 4.0], 2).capacity
    t = build_tree(Homogeneous(2), depth=2, layout="explicit")
    want = capacity_recursive(t, 2, tail_policy={3: 0.5}).capacity
    for key in (3.0, np.int64(3)):
        assert capacity_recursive(t, 2, tail_policy={key: 0.5}).capacity \
            == want
        assert total_resistance(t, tail_policy={key: 0.5}).lower == \
            total_resistance(t, tail_policy={3: 0.5}).lower


@pytest.mark.parametrize("degrees, tail, says", [
    ([2.5], None, "'degrees' holds 2.5"),
    ([2, True], None, "'degrees' holds True"),
    ([2], 2.5, "'tail_degree' holds 2.5"),
    ([2], float("inf"), "'tail_degree' holds inf"),
], ids=["fractional-degree", "bool-degree", "fractional-tail",
        "infinite-tail"])
def test_the_series_refuses_degrees_that_are_not_whole(degrees, tail, says):
    with pytest.raises(ValueError, match=says):
        symmetric_capacity(degrees, 2, tail_degree=tail)
    assert symmetric_capacity([2.0, 3.0], 2.5, tail_degree=2.0) == \
        symmetric_capacity([2, 3], 2.5, tail_degree=2)


def test_a_fractional_homogeneous_order_is_refused_not_truncated():
    # the compact tree was binary while its tails took the 2.5-ary seed
    with pytest.raises(ValueError, match="'n' holds 2.5"):
        capacity_recursive(build_tree(Homogeneous(2.5), depth=30), 2)


def test_tail_values_are_real_numbers_and_not_bools():
    t = build_tree(Homogeneous(2), depth=3, layout="explicit")
    z = t.tail_ids()[0]
    want = capacity_recursive(t, 2.5, tail_policy=0.5)
    got = capacity_recursive(t, 2.5, tail_policy=np.float32(0.5))
    assert got.capacity == want.capacity
    want = capacity_recursive(t, 2.5, tail_policy={z: 0.5})
    got = capacity_recursive(t, 2.5, tail_policy={z: np.float32(0.5)})
    assert np.array_equal(got.c_of_alpha, want.c_of_alpha)
    with pytest.raises(ValueError, match="unknown tail policy True"):
        capacity_recursive(t, 2.5, tail_policy=True)
    for v in (True, np.bool_(True), (False, True), "ab", (0.5,)):
        with pytest.raises(ValueError, match="is not a number or a pair"):
            total_resistance(t, tail_policy={z: v})


@pytest.mark.parametrize("tree, result", [
    (lambda: build_tree(SphericallySymmetric([3, 3])),
     lambda: capacity_recursive(build_tree(SphericallySymmetric([2, 2, 2])),
                                2)),
    (lambda: build_tree(Homogeneous(2), depth=3, layout="explicit"),
     lambda: capacity_recursive(build_tree(Homogeneous(2), depth=30), 2)),
], ids=["other-explicit-tree", "compact-result-on-explicit-tree"])
def test_rescaling_refuses_a_result_of_another_tree(tree, result):
    with pytest.raises(ValueError, match="computed on another tree"):
        rescaling_constant(tree(), result(), 1)


def test_an_unread_result_holds_no_per_edge_array():
    import tracemalloc

    t = build_tree(Homogeneous(2), depth=19, layout="explicit")
    tracemalloc.start()
    try:
        r = capacity_recursive(t, 2.5)
        held, peak = tracemalloc.get_traced_memory()
        assert peak < 1e6
        M = r.measure.M
        # one array of one float per edge, built once and kept
        grown = tracemalloc.get_traced_memory()[0] - held
        assert 8 * t.n_edges <= grown < 8 * t.n_edges + 65536
        assert r.measure.M is M
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p", [1.05, 2.0, 8.0, 30.0])
@settings(max_examples=60, deadline=None, database=None)
@given(t=spec_built_trees(),
       policy=st.sampled_from(["interval", "pessimistic", "optimistic",
                               "tails"]) | st.floats(0.0, 1.0))
def test_every_array_read_from_a_result_is_built_as_before(p, t, policy):
    # the quotient route spreads the run on t.quotient over the edges;
    # per-tail values sweep the edges of t, as its spec-free copy does
    if policy == "tails":
        policy = {z: (0.25, 0.75) for z in t.tail_ids()}
        ref = capacity_recursive(
            Tree(t.parent, tail=t.tail, continuation=t.continuation), p,
            policy)
        spread = np.asarray
    else:
        ref = capacity_recursive(t.quotient, p, policy)
        spread = t.from_levels
    r = capacity_recursive(t, p, policy)
    assert r.capacity == ref.capacity
    same = lambda a, b: a.tobytes() == spread(b).tobytes()
    assert same(r.c_of_alpha, ref.c_of_alpha)
    assert same(r.measure.M, ref.measure.M)
    assert r.equilibrium_function.tobytes() == \
        signed_power(r.measure.M, p).tobytes()
    assert (r.upper_run is None) == (ref.upper_run is None)
    if r.upper_run is not None:
        assert same(r.upper_run[0], ref.upper_run[0])
        assert same(r.upper_run[1].M, ref.upper_run[1].M)
    assert r.measure.tree is t and r.c_of_alpha is r.c_of_alpha


def test_an_unread_result_survives_a_pickle_round_trip():
    import pickle

    t = build_tree(Homogeneous(3), depth=5, layout="explicit")
    back = pickle.loads(pickle.dumps(capacity_recursive(t, 2.5)))
    r = capacity_recursive(t, 2.5)
    assert back.capacity == r.capacity
    for a, b in [(back.c_of_alpha, r.c_of_alpha),
                 (back.measure.M, r.measure.M),
                 (back.equilibrium_function, r.equilibrium_function),
                 (back.upper_run[0], r.upper_run[0]),
                 (back.upper_run[1].M, r.upper_run[1].M)]:
        assert a.tobytes() == b.tobytes()
    assert back.measure.tree is back.tree
    assert back.tree.n_edges == t.n_edges
