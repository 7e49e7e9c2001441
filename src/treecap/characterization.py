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

from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .potential import _report_json, as_exponent, potential_all, signed_power
from .trees import (co_potential, is_forward_additive, require_explicit,
                    require_tolerance)


@dataclass
class CharacterizationReport:
    """What verify_equilibrium found for a measure and its boundary set."""

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


def _on_levels(check, tree, x, p, tol, read=co_potential):
    """Refuse a compact tree, a negative tol and a wrong length, then run
    check(host, x, exponent, tol) on x = read(tree, x).  The host is the
    tree's level quotient when it has one and x is constant on every
    level, with the report spread back to the edges: arrays by level, id
    lists as the ids of their levels, worst_edge as the first edge of its
    level and skipped_tails as the tree's count.  Else it is the tree."""
    require_explicit(tree, "verification")
    require_tolerance(tol)
    pe = as_exponent(p)
    x = read(tree, x)
    levels = None if tree.quotient is None else tree.to_levels(x)
    if levels is None:
        return check(tree, x, pe, tol)
    rep = check(tree.quotient, levels, pe, tol)
    for f in fields(rep):
        v = getattr(rep, f.name)
        if isinstance(v, np.ndarray):
            v = tree.from_levels(v)
        elif isinstance(v, list):
            v = list(chain(*(range(*tree.level_slice(k)) for k in v)))
        elif f.name == "worst_edge":
            v = tree.level_slice(v)[0]
        elif f.name == "skipped_tails":
            v = int(np.count_nonzero(tree.tail))
        setattr(rep, f.name, v)
    return rep


def verify_equilibrium(tree, measure, p, tol=1e-9):
    """Check the per-edge equilibrium identity for a boundary measure.

    Residuals inside tents that contain truncated mass cannot be
    evaluated and are excluded; the offending tail edges are listed as
    undetermined and block certification.  recovered_set lists the
    support leaves where the potential reaches 1, which for a genuine
    equilibrium is exactly the set the measure equilibrates.
    """
    return _on_levels(_verify_equilibrium, tree, measure, p, tol)


def _verify_equilibrium(tree, M, pe, tol):
    M_p = signed_power(M, pe)
    V = potential_all(tree, M_p)
    total = float(M[tree.root])
    scale = max(total, 1e-12)

    add = is_forward_additive(tree, M, tol=tol * scale)
    # tent energies E of |M|^(p') = M M_p (M_p has M's sign), summed in
    # M_p's buffer, so the sweep's own arrays are dropped; the residuals
    # |M (1 - V(b)) - E| in the buffer of the begin values V(b), one
    # operation at a time
    E = np.multiply(M, M_p, out=M_p)
    tree.sweep_up(lambda a, b, S: np.add(E[a:b], S, out=E[a:b]))
    residuals = V.begin_values(tree)
    np.subtract(1.0, residuals, out=residuals)
    np.multiply(M, residuals, out=residuals)
    np.subtract(residuals, E, out=residuals)
    np.abs(residuals, out=residuals)

    # mass sitting on a tail edge makes every tent through it unverifiable
    on_tail = tree.tail & (M > tol * scale)
    undetermined = np.flatnonzero(on_tail).tolist()
    if undetermined:  # else no tent is blocked
        blocked, _ = tree.sweep_up(lambda a, b, S: on_tail[a:b] + S)
    checkable = residuals[blocked == 0] if undetermined else residuals
    max_residual = float(checkable.max()) if checkable.size else 0.0

    z = np.flatnonzero(tree.true_leaf_mask() & (M > tol * scale))
    v = V.end_values[z]
    recovered = z[np.abs(v - 1.0) <= tol].tolist()
    irregular = z[v < 1.0 - tol].tolist()

    ok = add.ok and max_residual <= tol * scale and not undetermined
    return CharacterizationReport(
        is_equilibrium=bool(ok), max_residual=max_residual,
        residuals=residuals, additivity_ok=add.ok,
        additivity_violation=add.max_violation, recovered_set=recovered,
        irregular_points=irregular, undetermined=undetermined,
        total_mass=total)


def recover_equilibrium_set(tree, measure, p, tol=1e-9):
    """Support leaves where the potential of measure reaches 1; kept as
    deliberate API for the set recovery of verify_equilibrium alone."""
    return verify_equilibrium(tree, measure, p, tol=tol).recovered_set


@dataclass
class PotentialBoundReport:
    """Where the potential reaches or passes 1, from check_potential_bound."""

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
    return _on_levels(_potential_bound, tree, measure, p, tol)


def _potential_bound(tree, M, pe, tol):
    V = potential_all(tree, signed_power(M, pe)).end_values
    worst = int(np.argmax(V))
    max_value = float(V[worst])
    equality = np.flatnonzero(np.abs(V - 1.0) <= tol)
    return PotentialBoundReport(
        ok=max_value <= 1.0 + tol, max_value=max_value, worst_edge=worst,
        equality_edges=equality.tolist(),
        interior_strict=bool(np.all(tree.n_children[equality] == 0)))


@dataclass
class EquationReport:
    """Residuals of the tent recursion, from capacity_equation_check."""

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
    return _on_levels(_capacity_equation, tree, c, p, tol, _capacities)


def _capacities(tree, c):
    c = np.asarray(getattr(c, "c_of_alpha", c), dtype=float)
    if c.shape != (tree.n_edges,):
        raise ValueError("capacity array length does not match the tree")
    return c


def _capacity_equation(tree, c, pe, tol):
    # one power over the tree: c^q is taken as c c^(q-1), which moves
    # W by a few ulps per level below it
    c_q1 = c ** (pe.conjugate - 1.0)
    c_q = c * c_q1

    # a tail edge's continuation is not materialized; grant it the
    # energy split c = c^q + W its seeded value implies, so parents
    # close exactly and the tail itself carries no checkable residual
    W = np.where(tree.tail, c - c_q, 0.0)

    def step(a, b, S):  # S sums c^q + W over the children
        j = tree.inner_positions(a)
        W[a:b][j] = (1.0 - c_q1[a:b][j]) ** pe.p * S[j]
        return c_q[a:b] + W[a:b]

    tree.sweep_up(step)
    residuals = np.abs(c * (1.0 - c_q1) - W)
    ok = float(residuals.max()) <= tol * max(float(c[tree.root]), 1e-12)
    return EquationReport(ok=bool(ok), max_residual=float(residuals.max()),
                          residuals=residuals,
                          skipped_tails=int(np.count_nonzero(tree.tail)))
