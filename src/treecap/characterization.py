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

from .potential import _report_json, as_exponent, potential_all, signed_power
from .trees import (_BuiltOnRead, co_potential, is_forward_additive,
                    level_quotient, require_explicit, require_tolerance,
                    stored_levels)


@dataclass
class CharacterizationReport:
    """What verify_equilibrium found for a measure and its boundary set.
    Each id list holds the check's int64 id array until its first read
    makes and keeps the list of Python ints (an empty one is [])."""

    is_equilibrium: bool
    max_residual: float
    residuals: np.ndarray = field(repr=False)
    additivity_ok: bool
    additivity_violation: float
    recovered_set: list = _BuiltOnRead(as_list=True)
    irregular_points: list = _BuiltOnRead(as_list=True)
    undetermined: list = _BuiltOnRead(as_list=True)
    total_mass: float

    to_json = _report_json


def _on_levels(check, tree, x, p, tol, read=co_potential, stored="M"):
    """Refuse a compact tree, a negative tol and a wrong length, then run
    check(host, x, exponent, tol).  The host is the tree's level_quotient,
    if any, x its levels, when x's field named stored is unspread finite
    levels on tree (a level-backed measure, a result's unread c_of_alpha)
    or x = read(tree, x) is constant on every level.  The report is spread
    back: residuals by level, id arrays as the ids of their levels, worst_edge
    as its level's first edge, skipped_tails as the tree's count.  Else
    the host is the tree.  Levels not all finite are read, as edges are."""
    require_explicit(tree, "verification")
    require_tolerance(tol)
    pe = as_exponent(p)
    q = level_quotient(tree)
    levels = None if q is None else stored_levels(x, stored, tree)
    if levels is None or not np.isfinite(levels).all():
        x = read(tree, x)
        levels = None if q is None else tree.to_levels(x)
    if levels is None:
        return check(tree, x, pe, tol)
    rep = check(q, levels, pe, tol)
    for name, v in vars(rep).items():  # an id list is stored as an array
        if isinstance(v, np.ndarray) and v.dtype == np.int64:
            ids = [np.arange(*tree.level_slice(k)) for k in v.tolist()]
            v = ids[0] if len(ids) == 1 else np.concatenate(ids)  # no copy
        elif isinstance(v, np.ndarray):
            v = tree.from_levels(v)
        elif name == "worst_edge":
            v = tree.level_slice(v)[0]
        elif name == "skipped_tails":  # the deepest level, or none
            v *= tree.n_edges - tree.level_slice(tree.depth)[0]
        vars(rep)[name] = v
    return rep


def verify_equilibrium(tree, measure, p, tol=1e-9):
    """Check the per-edge equilibrium identity for a boundary measure.

    Residuals inside tents that contain truncated mass cannot be
    evaluated and are excluded; the offending tail edges are listed as
    undetermined and block certification.  recovered_set lists the
    support leaves where the potential reaches 1, which for a genuine
    equilibrium is exactly the set the measure equilibrates; id lists
    are built on first read."""
    return _on_levels(_verify_equilibrium, tree, measure, p, tol)


def _verify_equilibrium(tree, M, pe, tol):
    M_p = signed_power(M, pe)
    V = potential_all(tree, M_p)
    total = float(M[tree.root])
    scale = max(total, 1e-12)

    add = is_forward_additive(tree, M, tol=tol * scale)
    add.residuals = None  # only its verdict and worst violation are read
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
    undetermined = np.flatnonzero(on_tail)
    if undetermined.size:  # else no tent is blocked
        blocked, _ = tree.sweep_up(lambda a, b, S: on_tail[a:b] + S)
    checkable = residuals[blocked == 0] if undetermined.size else residuals
    max_residual = float(checkable.max()) if checkable.size else 0.0

    z = np.flatnonzero(tree.true_leaf_mask() & (M > tol * scale))
    v = V.end_values[z]
    ok = add.ok and max_residual <= tol * scale and not undetermined.size
    return CharacterizationReport(
        is_equilibrium=bool(ok), max_residual=max_residual,
        residuals=residuals, additivity_ok=add.ok,
        additivity_violation=add.max_violation,
        recovered_set=z[np.abs(v - 1.0) <= tol],
        irregular_points=z[v < 1.0 - tol], undetermined=undetermined,
        total_mass=total)


def recover_equilibrium_set(tree, measure, p, tol=1e-9):
    """Support leaves where the potential of measure reaches 1; kept as
    deliberate API for the set recovery of verify_equilibrium alone."""
    return verify_equilibrium(tree, measure, p, tol=tol).recovered_set


@dataclass
class PotentialBoundReport:
    """Where the potential reaches or passes 1, from check_potential_bound;
    equality_edges is built on first read, as CharacterizationReport's."""

    ok: bool
    max_value: float
    worst_edge: int
    equality_edges: list = _BuiltOnRead(as_list=True)
    interior_strict: bool

    to_json = _report_json


def check_potential_bound(tree, measure, p, tol=1e-9):
    """Admissibility side of the characterization: the potential stays
    at or below 1, with equality only at boundary points (equality_edges,
    built on first read).  Equality at the end of a non-leaf edge means
    the measure pushes the potential to 1 strictly inside the tree,
    reported via interior_strict."""
    return _on_levels(_potential_bound, tree, measure, p, tol)


def _potential_bound(tree, M, pe, tol):
    V = potential_all(tree, signed_power(M, pe)).end_values
    worst = int(np.argmax(V))
    max_value = float(V[worst])
    equality = np.flatnonzero(np.abs(V - 1.0) <= tol)
    return PotentialBoundReport(
        ok=max_value <= 1.0 + tol, max_value=max_value, worst_edge=worst,
        equality_edges=equality,
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
    return _on_levels(_capacity_equation, tree, c, p, tol, _capacities,
                      "c_of_alpha")


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
