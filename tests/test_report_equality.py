"""== on the report classes: a report equals another when everything it
shows does; the per-edge residuals it keeps out of its repr and JSON
take no part."""

from dataclasses import fields

import numpy as np
import pytest

from treecap import (AdditivityReport, CapacityInterval,
                     CharacterizationReport, HarmonicityReport, Homogeneous,
                     SphericallySymmetric, Tiling, TilingReport, TilingSquare,
                     Tree, build_tiling, build_tree, capacity_equation_check,
                     capacity_recursive, check_potential_bound,
                     is_forward_additive, is_p_harmonic, oracle_capacity,
                     potential_all, total_resistance, validate_tiling,
                     verify_equilibrium)
from treecap.characterization import EquationReport, PotentialBoundReport
from treecap.trees import _Recipe, held

P = 2.0
TREE = build_tree(SphericallySymmetric([2, 3]))
RESULT = capacity_recursive(TREE, P)


def harmonicity(M):
    return is_p_harmonic(TREE, potential_all(TREE, M), P)


def tiling_report(M):
    return validate_tiling(build_tiling(TREE, M))


# (class, report of a fixed input, report of the same input with one
# shown field changed); each call builds a fresh report
CASES = [
    (CapacityInterval, lambda: capacity_recursive(TREE, P).capacity,
     lambda: capacity_recursive(TREE, 3.0).capacity),
    (TilingSquare, lambda: build_tiling(TREE, RESULT.measure).squares[1],
     lambda: build_tiling(TREE, RESULT.measure).squares[2]),
    (CharacterizationReport,
     lambda: verify_equilibrium(TREE, RESULT.measure, P),
     lambda: verify_equilibrium(TREE, 0.5 * RESULT.measure.M, P)),
    (PotentialBoundReport,
     lambda: check_potential_bound(TREE, RESULT.measure, P),
     lambda: check_potential_bound(TREE, 0.5 * RESULT.measure.M, P)),
    (EquationReport, lambda: capacity_equation_check(TREE, RESULT, P),
     lambda: capacity_equation_check(TREE, 0.5 * RESULT.c_of_alpha, P)),
    (TilingReport, lambda: tiling_report(RESULT.measure.M),
     lambda: validate_tiling(Tiling(
         TREE, RESULT.capacity.lower, 1.0,
         build_tiling(TREE, RESULT.measure).squares[1:]))),
    (AdditivityReport, lambda: is_forward_additive(TREE, RESULT.measure.M),
     lambda: is_forward_additive(TREE, RESULT.measure.M * np.r_[0.5, [1] * 8])),
    (HarmonicityReport, lambda: harmonicity(RESULT.measure.M),
     lambda: harmonicity(0.5 * RESULT.measure.M)),
]


@pytest.mark.parametrize("cls, same, other", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_reports_of_one_input_are_equal_and_of_another_are_not(
        cls, same, other):
    a, b, c = same(), same(), other()
    assert type(a) is type(b) is type(c) is cls
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert [a] == [b] and a != "a report"


@pytest.mark.parametrize("cls", [CapacityInterval, TilingSquare])
def test_frozen_reports_hash_as_they_compare(cls):
    same = dict((c, s) for c, s, _ in CASES)[cls]
    assert hash(same()) == hash(same())
    assert len({same(), same()}) == 1


def test_residuals_take_no_part_in_equality():
    a = EquationReport(ok=True, max_residual=0.0, residuals=np.zeros(2))
    b = EquationReport(ok=True, max_residual=0.0, residuals=np.ones(3))
    assert a == b
    assert a != EquationReport(ok=True, max_residual=0.0,
                               residuals=np.zeros(2), skipped_tails=1)
    for cls in (CharacterizationReport, EquationReport, AdditivityReport):
        (f,) = [f for f in fields(cls) if f.name == "residuals"]
        assert not f.repr and not f.compare


def test_the_quotient_route_and_the_edge_route_report_equal():
    # degrees up to 4 sum bit for bit, so the two routes agree exactly
    swept = Tree(TREE.parent, tail=TREE.tail)
    assert swept.quotient is None and TREE.quotient is not None
    for f, x in ((verify_equilibrium, RESULT.measure.M),
                 (check_potential_bound, RESULT.measure.M),
                 (capacity_equation_check, RESULT.c_of_alpha)):
        for scale in (1.0, 0.5):
            assert f(TREE, scale * x, P) == f(swept, scale * x, P)


@pytest.mark.parametrize("cls", [CharacterizationReport, PotentialBoundReport,
                                 EquationReport])
def test_a_quotient_report_declares_a_spread_for_its_own_fields(cls):
    names = {f.name for f in fields(cls)}
    assert cls.spreads and set(cls.spreads) <= names


TAILED = build_tree(Homogeneous(2), depth=3)

# (result of a fixed input, result at another p or, for the resistance,
# which takes none, at other tail values)
RESULTS = {
    "EquilibriumResult": (lambda: capacity_recursive(TREE, P),
                          lambda: capacity_recursive(TREE, 3.0)),
    "ResistanceResult": (lambda: total_resistance(TAILED, "pessimistic"),
                         lambda: total_resistance(TAILED, "optimistic")),
    "OracleResult": (lambda: oracle_capacity(TREE, TREE.true_leaves(), P),
                     lambda: oracle_capacity(TREE, TREE.true_leaves(), 3.0)),
}


@pytest.mark.parametrize("name", RESULTS)
def test_results_compare_what_they_show_and_build_nothing(name):
    same, other = RESULTS[name]
    a, b, c = same(), same(), other()
    assert type(a).__name__ == name and a is not b
    before = {f.name: held(a, f.name) for f in fields(a)}
    assert a == b and not a != b
    assert a != c and not a == c
    assert [a] == [b] and a != "a result"
    assert all(held(a, k) is v for k, v in before.items())
    unread = [k for k, v in before.items() if isinstance(v, _Recipe)]
    assert unread or name == "OracleResult"
