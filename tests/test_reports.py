"""JSON of the report classes: the exact strings json.dumps writes."""

import json
import math

import numpy as np
import pytest

from treecap import (CapacityInterval, CharacterizationReport,
                     SphericallySymmetric, Tiling, TilingReport,
                     TilingSquare, build_tree, validate_tiling)
from treecap.characterization import EquationReport, PotentialBoundReport

f64, i64, b_ = np.float64, np.int64, np.bool_

CASES = [
    (CapacityInterval(f64(0.25), 0.5),
     '{"lower": 0.25, "upper": 0.5}'),
    (TilingSquare(edge=3, x=f64(0.5), y=0.0, side=f64(1 / 3)),
     '{"edge": 3, "x": 0.5, "y": 0.0, "side": 0.3333333333333333}'),
    (CharacterizationReport(
        is_equilibrium=b_(True), max_residual=f64(1e-17),
        residuals=np.array([1e-17, 0.0]), additivity_ok=b_(False),
        additivity_violation=f64(0.5), recovered_set=[i64(2), 5],
        irregular_points=[], undetermined=[i64(7)], total_mass=f64(0.6)),
     '{"is_equilibrium": true, "max_residual": 1e-17, '
     '"additivity_ok": false, "additivity_violation": 0.5, '
     '"recovered_set": [2, 5], "irregular_points": [], '
     '"undetermined": [7], "total_mass": 0.6}'),
    (PotentialBoundReport(
        ok=b_(True), max_value=f64(1.0), worst_edge=i64(4),
        equality_edges=[i64(3), 4], interior_strict=b_(False)),
     '{"ok": true, "max_value": 1.0, "worst_edge": 4, '
     '"equality_edges": [3, 4], "interior_strict": false}'),
    (EquationReport(ok=b_(False), max_residual=f64(0.125),
                    residuals=np.ones(2), skipped_tails=i64(2)),
     '{"ok": false, "max_residual": 0.125, "skipped_tails": 2}'),
    (TilingReport(ok=False, containment_defect=f64(0.0), max_overlap=0.25,
                  area_defect=f64(1e-3), adjacency_defect=f64(math.inf),
                  n_squares=3, messages=["a", "b"]),
     '{"ok": false, "containment_defect": 0.0, "max_overlap": 0.25, '
     '"area_defect": 0.001, "adjacency_defect": Infinity, '
     '"n_squares": 3, "messages": ["a", "b"]}'),
]


@pytest.mark.parametrize("report, text", CASES,
                         ids=lambda v: type(v).__name__)
def test_reports_serialize_to_fixed_json(report, text):
    out = report.to_json()
    assert json.dumps(out) == text
    for name, value in out.items():
        if isinstance(value, list):  # a copy, not the report's own list
            assert value is not getattr(report, name)


def test_validation_report_json():
    tree = build_tree(SphericallySymmetric([2]))
    til = Tiling(tree, 1.0, 1.0, [TilingSquare(0, 0.0, 0.0, 1.0),
                                  TilingSquare(1, 0.0, 1.0, 0.5),
                                  TilingSquare(2, 0.25, 1.0, 0.5)])
    assert json.dumps(validate_tiling(til).to_json()) == (
        '{"ok": false, "containment_defect": 0.5, "max_overlap": 0.25, '
        '"area_defect": 0.5, "adjacency_defect": 0.0, "n_squares": 3, '
        '"messages": ["a square leaves the rectangle by 5.000e-01", '
        '"squares 1 and 2 overlap by 2.500e-01", "area defect 5.000e-01"]}')
