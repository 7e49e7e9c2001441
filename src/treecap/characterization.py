"""Checks that a boundary measure is the equilibrium of its support.

The test is local: for every edge a, the mass through a times the
complementary potential at the begin vertex must equal the energy of
the measure inside the tent of a,

    M(a) * (1 - I(M_p)(b(a))) = sum over b >= a of |M(b)|^(p'),

and a measure satisfies this for every edge exactly when it is the
equilibrium measure of the set where its potential reaches 1.  The
same identity in rescaled units turns into a relation between tent
capacities, checked by capacity_equation_check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potential import (_report_json, as_exponent, energy_all,
                        potential_all, require_tolerance, signed_power)
from .trees import co_potential, is_forward_additive, require_explicit


@dataclass
class CharacterizationReport:
    is_equilibrium: bool
    max_residual: float
    residuals: np.ndarray = field(repr=False)
    additivity_ok: bool
    additivity_violation: float
    recovered_set: list
    irregular_points: list
    undetermined: list
    total_mass: float

    to_json = _report_json


def _measure_potential(tree, measure, p, tol):
    """(p exponent, co-potential M, potential of M_p) for the checks
    below, after refusing a compact tree and a negative tol."""
    require_explicit(tree, "verification")
    require_tolerance(tol)
    pe = as_exponent(p)
    M = co_potential(tree, measure)
    return pe, M, potential_all(tree, signed_power(M, pe))


def verify_equilibrium(tree, measure, p, tol=1e-9):
    """Check the per-edge equilibrium identity for a boundary measure.

    Residuals inside tents that contain truncated mass cannot be
    evaluated and are excluded; the offending tail edges are listed as
    undetermined and block certification.  recovered_set lists the
    support leaves where the potential reaches 1, which for a genuine
    equilibrium is exactly the set the measure equilibrates.
    """
    pe, M, V = _measure_potential(tree, measure, p, tol)
    total = float(M[tree.root])
    scale = max(total, 1e-12)

    add = is_forward_additive(tree, M, tol=tol * scale)
    E = energy_all(tree, M, pe)
    residuals = np.abs(M * (1.0 - V.begin_values(tree)) - E)

    # mass sitting on a tail edge makes every tent through it unverifiable
    on_tail = tree.tail & (M > tol * scale)
    undetermined = np.flatnonzero(on_tail).tolist()
    blocked, _ = tree.sweep_up(lambda a, b, S: on_tail[a:b] + S)

    checkable = residuals[blocked == 0]
    max_residual = float(checkable.max()) if checkable.size else 0.0

    z = np.flatnonzero(tree.true_leaf_mask() & (M > tol * scale))
    v = V.end_values[z]
    recovered = z[np.abs(v - 1.0) <= tol].tolist()
    irregular = z[v < 1.0 - tol].tolist()

    ok = add.ok and max_residual <= tol * scale and not undetermined
    return CharacterizationReport(
        is_equilibrium=bool(ok),
        max_residual=max_residual,
        residuals=residuals,
        additivity_ok=add.ok,
        additivity_violation=add.max_violation,
        recovered_set=recovered,
        irregular_points=irregular,
        undetermined=undetermined,
        total_mass=total,
    )


def recover_equilibrium_set(tree, measure, p, tol=1e-9):
    """Support leaves where the potential of measure reaches 1; kept as
    deliberate API for the set recovery of verify_equilibrium alone."""
    return verify_equilibrium(tree, measure, p, tol=tol).recovered_set


@dataclass
class PotentialBoundReport:
    ok: bool
    max_value: float
    worst_edge: int
    equality_edges: list
    interior_strict: bool

    to_json = _report_json


def check_potential_bound(tree, measure, p, tol=1e-9):
    """Admissibility side of the characterization: the potential stays
    at or below 1, with equality only at boundary points.  Equality at
    the end of a non-leaf edge means the measure pushes the potential
    to 1 strictly inside the tree, reported via interior_strict."""
    _, _, V = _measure_potential(tree, measure, p, tol)
    worst = int(np.argmax(V.end_values))
    max_value = float(V.end_values[worst])
    equality = np.flatnonzero(np.abs(V.end_values - 1.0) <= tol)
    interior_strict = bool(np.all(tree.n_children[equality] == 0))
    return PotentialBoundReport(
        ok=max_value <= 1.0 + tol,
        max_value=max_value,
        worst_edge=worst,
        equality_edges=equality.tolist(),
        interior_strict=interior_strict,
    )


@dataclass
class EquationReport:
    ok: bool
    max_residual: float
    residuals: np.ndarray = field(repr=False)
    skipped_tails: int = 0

    to_json = _report_json


def capacity_equation_check(tree, c, p, tol=1e-9):
    """Check the tent-capacity form of the equilibrium identity.

    c is the array of tent capacities (EquilibriumResult.c_of_alpha is
    accepted too).  Writing q = p' and W(a) for the part of the
    rescaled tent energy strictly below a, the recursion

        W(a) = (1 - c(a)^(q-1))^p * sum over children d of (c(d)^q + W(d))

    must close up to c(a)(1 - c(a)^(q-1)) = W(a) on every edge with
    children; true leaves carry c = 1 and W = 0.  Tail edges hold
    seeded values with no materialized children, so they are skipped.
    """
    require_explicit(tree, "verification")
    require_tolerance(tol)
    pe = as_exponent(p)
    if hasattr(c, "c_of_alpha"):
        c = c.c_of_alpha
    c = np.asarray(c, dtype=float)
    if c.shape != (tree.n_edges,):
        raise ValueError("capacity array length does not match the tree")
    q = pe.conjugate

    # a tail edge's continuation is not materialized; grant it the
    # energy split c = c^q + W its seeded value implies, so parents
    # close exactly and the tail itself carries no checkable residual
    W = np.where(tree.tail, c - c ** q, 0.0)
    inner = tree.n_children > 0

    def step(a, b, S):  # S sums c^q + W over the children
        m = inner[a:b]
        W[a:b][m] = (1.0 - c[a:b][m] ** (q - 1.0)) ** pe.p * S[m]
        return c[a:b] ** q + W[a:b]

    tree.sweep_up(step)
    residuals = np.abs(c * (1.0 - c ** (q - 1.0)) - W)
    ok = float(residuals.max()) <= tol * max(float(c[tree.root]), 1e-12)
    return EquationReport(ok=bool(ok), max_residual=float(residuals.max()),
                          residuals=residuals,
                          skipped_tails=int(np.count_nonzero(tree.tail)))
