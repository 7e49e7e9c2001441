"""Boundary capacities on rooted trees via the branched continued
fraction recursion, with certified intervals under truncation.

The one-step map is c(a) = S / (1 + S^(p'-1))^(p-1) where S sums the
children's values; a true leaf carries the value 1 (the one-edge
variational problem).  The map is strictly increasing in S, so running
the recursion twice with lower and upper tail values brackets the true
capacity of a truncated tree.  The equilibrium co-potential is then
recovered top-down through

    M(a) = c(a) * prod over ancestors g of (1 - c(g)^(p'-1))^(p-1),

and since (p-1)(p'-1) = 1 each factor is exactly 1 / (1 + S^(p'-1))^(p-1),
the denominator of the step at g, so it is taken from there with no
subtraction.

A tree built from a level-regular spec, compact or explicit, or a tent
of one, runs the same sweeps on its weighted quotient, one node per
level, whenever one value pair seeds every tail; other trees and per-tail
values sweep every edge.  The capacity of a set E of true leaves is one
run on the host tree with boundary values 1 on E and 0 on every other
leaf and tail: an edge off E gets c = M = 0 exactly.  The level counting series
c = (sum_k card(k)^(1-p'))^(1-p) stays an independent route, used both
for symmetric_capacity and for certifying tail seeds; where the degree
becomes constant its tail is geometric and summed in closed form.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .potential import _report_json, as_exponent, signed_power
from .trees import (BoundaryMeasure, SphericallySymmetric, SymmetricTree,
                    _BuiltOnRead, _is_real, _json_edge_mapping, _Recipe,
                    _repr_unread, _spec_int, _spread, edge_ids,
                    leaf_indicator, level_quotient, predecessor_path,
                    require_edge, require_explicit, require_int,
                    stored_levels, tent)

ROUNDING_PAD = 1e-13


@dataclass(frozen=True)
class CapacityInterval:
    """Certified bracket of a capacity value, inside [0, 1]."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (-1e-15 <= self.lower <= self.upper <= 1.0 + 1e-15):
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    def contains(self, v, slack=0.0):
        return self.lower - slack <= v <= self.upper + slack

    to_json = _report_json


def homogeneous_capacity(n, p):
    """Boundary capacity of the tree in which every edge has n children."""
    pe = as_exponent(p)
    return (1.0 - float(n) ** (1.0 - pe.conjugate)) ** (pe.p - 1.0)


def _pad_interval(lo, hi):
    lo = max(0.0, lo - ROUNDING_PAD * (1.0 + abs(lo)))
    hi = min(1.0, hi + ROUNDING_PAD * (1.0 + abs(hi)))
    return lo, hi


# ---------------------------------------------------------------------------
# the level counting series for spherically symmetric trees


def symmetric_capacity(degrees, p, depth=None, tail_degree=None):
    """Capacity interval of a spherically symmetric boundary from the
    level counting series sum_k card(k)^(1-p').

    degrees lists the forward degree per level; without tail_degree the
    tree ends after the last listed level (exact finite sum), otherwise
    it continues with constant degree tail_degree, a geometric series
    summed in closed form.  A depth that cuts into the listed levels
    caps the number of series terms, but not below the root's one term,
    so depth 0 reads as 1; a negative depth is refused.  The remainder
    is bounded by comparison with the worst (smallest) continuing
    degree, so a continuation that may stop branching (degree 1) only
    yields the trivial lower bound 0.
    """
    pe = as_exponent(p)
    degrees, _ = SphericallySymmetric(degrees).levels()
    if tail_degree is not None and _spec_int("tail_degree", tail_degree) < 1:
        raise ValueError("tail degree must be >= 1")
    if depth is not None:
        depth = require_int("depth", depth)
        if depth < 0:
            raise ValueError("depth must be >= 0")
    finite = tail_degree is None
    if not finite and tail_degree == 1:
        # the series grows by a constant term per level from some point
        # on, so it diverges and the boundary is capacity zero exactly
        return CapacityInterval(0.0, 0.0)
    q = 1.0 - pe.conjugate  # negative

    # terms card(0..n-1) one by one; a tail continues from card(n) on
    n = len(degrees) + finite
    cut = depth is not None and max(depth, 1) < n
    n = max(depth, 1) if cut else n
    log_card = list(accumulate(map(math.log, degrees), initial=0.0))
    partial = sum(math.exp(q * x) for x in log_card[:n])
    if finite and not cut:
        return CapacityInterval(partial ** (1.0 - pe.p),
                                partial ** (1.0 - pe.p))

    # levels k >= n: card(k) >= card(n) d^(k-n), equality for the tail
    d = min(degrees[n:] + ([] if finite else [tail_degree]), default=1)
    rest = math.exp(q * log_card[n]) / (1.0 - d ** q) if d >= 2 else math.inf
    lo = (partial + rest) ** (1.0 - pe.p)
    hi = partial ** (1.0 - pe.p) if cut else lo
    return CapacityInterval(*_pad_interval(lo, hi))


def _tail_value(v):
    """(lower, upper) of a tail value: a real number or a pair lo <= hi
    of them, inside [0, 1]."""
    pair = (v, v) if _is_real(v) else v
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(map(_is_real, pair)) and 0.0 <= pair[0] <= pair[1] <= 1.0):
        raise ValueError(f"tail value {v!r} is not a number or a pair "
                         "lo <= hi inside [0, 1]")
    return float(pair[0]), float(pair[1])


def _tail_bounds(tree, tail_policy, p):
    """Lower and upper tail values: one pair for every tail, or arrays
    per edge (read at tails only) for a dict; under "interval", the
    certified capacity of the continuation when known."""
    if isinstance(tail_policy, dict):
        lo, hi = np.zeros(tree.n_edges), np.ones(tree.n_edges)
        ids = edge_ids(tree, tail_policy, tree.tail, "tail id")
        for i, v in zip(ids.tolist(), tail_policy.values()):
            lo[i], hi[i] = _tail_value(v)
        return lo, hi
    if tail_policy == "interval":
        if tree.continuation is None:
            return 0.0, 1.0
        prefix, eventual = tree.continuation
        iv = symmetric_capacity(list(prefix), p, tail_degree=eventual)
        return iv.lower, iv.upper
    if tail_policy == "pessimistic":
        return 0.0, 0.0
    if tail_policy == "optimistic":
        return 1.0, 1.0
    if _is_real(tail_policy):
        return _tail_value(tail_policy)
    raise ValueError(f"unknown tail policy {tail_policy!r}")


def _tail_runs(tree, tail_policy, p, run):
    """run(q, t), a tuple of arrays on the nodes of q, for the lower and
    the upper tail values t.  q is the tree's level_quotient, if any, when
    one value pair seeds every tail, else the tree.  Returns
    (host, q, lower run, upper run), one run when the values agree.  The
    host is q for a compact SymmetricTree, else the tree, whose edges a
    quotient run reaches through host.from_levels."""
    per_tail = isinstance(tail_policy, dict)
    if per_tail and isinstance(tree, SymmetricTree):  # no single tail ids
        raise ValueError("per-tail values need an explicit tree")
    q = None if per_tail else level_quotient(tree)
    q = tree if q is None else q
    t_lo, t_hi = _tail_bounds(q, tail_policy, p)
    lower = run(q, t_lo)
    upper = run(q, t_hi) if np.any((t_lo != t_hi) & q.tail) else lower
    host = q if isinstance(tree, SymmetricTree) else tree
    return host, q, lower, upper


# ---------------------------------------------------------------------------
# results


def _measure_on_edges(r, m_levels):
    return BoundaryMeasure(r.tree, _Recipe(_spread, m_levels), validate=False)


@dataclass(eq=False, repr=False)
class _UpperRun(Sequence):
    """upper_run (c, measure) after a sweep on an explicit tree's level
    quotient, each item built on its first read.  It holds the tree and
    levels, never the result, so it makes no reference cycle."""

    tree: object
    c: np.ndarray = _BuiltOnRead()
    measure: BoundaryMeasure = _BuiltOnRead()

    def __len__(self):
        return 2

    def __getitem__(self, i):
        names, get = ("c", "measure")[i], self.__getattribute__
        return tuple(map(get, names)) if isinstance(i, slice) else get(names)


def _equilibrium_function(r):
    return signed_power(r.measure.M, r.p)


@dataclass
class EquilibriumResult:
    """Capacity bracket plus the witnessing equilibrium data.

    The edge functions (tent capacities c, co-potential M, equilibrium
    function M_p) come from the lower tail run; upper_run is the pair
    (c, measure) of the upper tail run when the tail values differ.  On
    a finite tree the two runs coincide and upper_run is None.

    The result holds what its sweep computed.  After a sweep on an
    explicit tree's level quotient, c_of_alpha, measure.M and both
    upper_run items keep per-level arrays, each spread over the edges on
    its own first read and kept; the referees and rescaling_constant
    read the levels until then.  equilibrium_function, unless given, is
    signed_power(measure.M, p), taken on first read and kept.
    """

    tree: object
    p: float
    capacity: CapacityInterval
    c_of_alpha: np.ndarray = _BuiltOnRead()
    measure: BoundaryMeasure = _BuiltOnRead()
    equilibrium_function: np.ndarray = _BuiltOnRead()
    upper_run: Sequence | None = None
    __repr__ = _repr_unread

    def _equilibrium_function_at(self, ids):
        """equilibrium_function[ids], derived at ids alone while the
        whole array is unbuilt."""
        if isinstance(self.__dict__["_equilibrium_function"], _Recipe):
            return signed_power(self.measure.at(ids), self.p)
        return np.asarray(self.equilibrium_function, dtype=float)[ids]

    def to_json(self, keep_zero=False):
        return {
            "capacity": self.capacity.to_json(),
            "M": _json_edge_mapping(self.tree, self.measure.M,
                                    keep_zero=keep_zero),
            "c": _json_edge_mapping(self.tree, self.c_of_alpha,
                                    keep_zero=keep_zero),
        }


class LevelEquilibriumResult(EquilibriumResult):
    """EquilibriumResult of a compact symmetric truncation.  Its tree is
    the weighted quotient, one node per level, so every array is indexed
    by level 0..depth: every edge at a level shares the value."""

    c_levels = property(lambda r: r.c_of_alpha)
    m_levels = property(lambda r: r.measure.M)
    c_levels_upper = property(
        lambda r: r.upper_run[0] if r.upper_run else r.c_of_alpha)
    m_levels_upper = property(
        lambda r: (r.upper_run[1] if r.upper_run else r.measure).M)

    def to_json(self, keep_zero=False):
        """keep_zero matches EquilibriumResult.to_json and changes
        nothing: per-level output has no zero entries to drop."""
        return {
            "capacity": self.capacity.to_json(),
            "levels": {
                "c": self.c_levels.tolist(),
                "M": self.m_levels.tolist(),
                "c_upper": self.c_levels_upper.tolist(),
                "M_upper": self.m_levels_upper.tolist(),
            },
        }


# ---------------------------------------------------------------------------
# the recursion


def _one_step(S, pe):
    """The one-step map at the child sum S: (c, 1/D) with c = S / D and
    D = (1 + S^(p'-1))^(p-1) = S (1 + S^(1-p'))^(p-1), as (p-1)(p'-1) = 1.
    So with t = min(S, 1) / max(S, 1) and w = (1 + t^(p'-1))^(1-p),
    c = w min(S, 1) and 1/D = w / max(S, 1): no power is taken of
    anything above 2, so nothing overflows at any p."""
    lo, hi = np.minimum(S, 1.0), np.maximum(S, 1.0)
    w = (1.0 + (lo / hi) ** (pe.conjugate - 1.0)) ** (1.0 - pe.p)
    return w * lo, w / hi


def _tent_capacities(tree, pe, boundary_values):
    """Bottom-up half of the sweep: (c, 1/D) at every edge, with
    boundary_values feeding the leaves and tails as c, and D the
    denominator of the one-step map c = S / D (1/D = 1 at a leaf).  The
    map runs on the edges with children only: a leaf's S is 0, and a
    power of 0 takes numpy off its vector path."""
    inv_D = np.ones(tree.n_edges)

    def step(a, b, S):
        j = tree.inner_positions(a)
        c = boundary_values[a:b].copy()
        c[j], inv_D[a:b][j] = _one_step(S[j], pe)
        return c

    c, _ = tree.sweep_up(step)
    return c, inv_D


def _run_explicit(tree, pe, boundary_values):
    """One bottom-up/top-down sweep; returns (c, M)."""
    c, inv_D = _tent_capacities(tree, pe, boundary_values)
    # M(a) = c(a) * product of 1 / D over the strict ancestors of a
    of_parent = np.ones(tree.n_edges)
    of_parent[1:] = inv_D[tree.parent[1:]]
    return c, c * tree.push_down(of_parent, np.multiply)


def _equilibrium_result(tree, host, q, pe, lower, upper, pad=False):
    """The result of the (c, M) runs lower and upper (the same object
    when the tails agree) on the nodes of q: host, or host's level
    quotient, whose arrays the result spreads over host's edges on first
    read.  host is tree, or the quotient of a compact SymmetricTree; pad
    absorbs float rounding into the bracket."""
    (c, M), (c_hi, M_hi) = lower, upper
    lo, hi = float(c[0]), float(c_hi[0])
    if pad:
        lo, hi = _pad_interval(lo, hi)
    if q is host:
        mu = BoundaryMeasure(host, M, validate=False)
        run_hi = (c_hi, BoundaryMeasure(host, M_hi, validate=False))
    else:
        c, mu = _Recipe(_spread, c), _Recipe(_measure_on_edges, M)
        run_hi = _UpperRun(host, _Recipe(_spread, c_hi),
                           _Recipe(_measure_on_edges, M_hi))
    cls = EquilibriumResult if host is tree else LevelEquilibriumResult
    return cls(tree=host, p=pe.p,
               capacity=CapacityInterval(min(lo, hi), max(lo, hi)),
               c_of_alpha=c, measure=mu,
               equilibrium_function=_Recipe(_equilibrium_function),
               upper_run=None if upper is lower else run_hi)


def capacity_recursive(tree, p, tail_policy="interval"):
    """Capacity of the whole stored boundary with equilibrium data.

    tail_policy: "interval" (certified bracket; level-regular trees
    seed their tails from the level counting series, others use [0,1]),
    "pessimistic" (0), "optimistic" (1), a number in [0,1], or a dict
    {tail id: value or (lo, hi)}.  A compact SymmetricTree runs on its
    quotient, takes no dict, and returns a LevelEquilibriumResult whose
    tree is the quotient.
    """
    pe = as_exponent(p)
    # true leaves carry 1; inner edges ignore their boundary value
    host, q, lower, upper = _tail_runs(
        tree, tail_policy, pe,
        lambda q, t: _run_explicit(q, pe, np.where(q.tail, t, 1.0)))
    # certified seeds promise containment; absorb float rounding
    pad = bool(np.any(q.tail)) and tail_policy == "interval"
    return _equilibrium_result(tree, host, q, pe, lower, upper, pad=pad)


def capacity_of_set(tree, boundary_set, p):
    """Capacity of a set of true leaves, with the equilibrium measure on
    the host tree: one run whose boundary values are the indicator of
    the set, so every other leaf and every tail carries 0."""
    pe = as_exponent(p)
    run = _run_explicit(tree, pe, leaf_indicator(tree, boundary_set))
    return _equilibrium_result(tree, tree, tree, pe, run, run)


# ---------------------------------------------------------------------------
# rescaling onto tents


@dataclass
class RescalingResult:
    """Restriction of an equilibrium measure to a tent, renormalized to
    the tent's own equilibrium measure."""

    k: float
    alpha: int
    tent: object
    measure: BoundaryMeasure
    capacity: float


def rescaling_constant(tree, result, alpha, tol=1e-12):
    """k(a) = (1 - I M_p(b(a)))^(-p/p') and the rescaled tent measure.

    Degenerate (error) when the potential of the equilibrium function
    already reaches 1 at the begin vertex of alpha.
    """
    require_explicit(tree, "rescaling")
    if result.tree.n_edges != tree.n_edges:
        raise ValueError("the result was computed on another tree: "
                         f"{result.tree.n_edges} edges, not {tree.n_edges}")
    alpha = require_edge(tree, alpha)
    pe = as_exponent(result.p)
    # I M_p at the begin vertex of alpha, from M_p on its path alone,
    # summed root first as potential sums it
    path = predecessor_path(tree, alpha)[:-1]
    v = 0.0
    for m in result._equilibrium_function_at(path).tolist():
        v += m
    if v >= 1.0 - tol:
        raise ValueError(
            f"potential {v} at the begin vertex of {alpha} leaves no mass "
            "to rescale")
    k = (1.0 - v) ** (-pe.p / pe.conjugate)
    sub = tent(tree, alpha)
    levels = stored_levels(result.measure, "M", tree)  # while M is unread
    M = (k * result.measure.at(sub.orig_ids) if levels is None
         else _Recipe(_spread, k * levels[tree.level_of(alpha):]))
    return RescalingResult(
        k=k, alpha=alpha, tent=sub,
        measure=BoundaryMeasure(sub, M, validate=False),
        capacity=float(k * result.measure.at(alpha)),
    )


# ---------------------------------------------------------------------------
# series-parallel resistance (p = 2)


@dataclass
class ResistanceResult:
    """Resistance strictly below the end vertex of each edge.

    below[a] is the parallel combination over children b of
    1 + below[b]; a true leaf grounds at 0 and a tail seeds at
    (1 - t)/t for a tail capacity value t.  total is below[root], the
    resistance of the tree minus its root edge, so the p = 2 capacity
    of the stored boundary is 1/(1 + total).  A compact symmetric tree
    reports on its quotient, so its arrays are indexed by level; after a
    run on an explicit tree's quotient they are built on first read.
    """

    tree: object
    lower: float
    upper: float
    below_lower: np.ndarray = _BuiltOnRead()
    below_upper: np.ndarray = _BuiltOnRead()

    per_level = property(lambda r: r.tree.mult is not None)
    __repr__ = _repr_unread

    def capacity_interval(self):
        lo = 1.0 / (1.0 + self.upper) if np.isfinite(self.upper) else 0.0
        return CapacityInterval(max(0.0, lo),
                                min(1.0, 1.0 / (1.0 + self.lower)))


def _tail_resistance(t):
    """Resistance (1 - t)/t below a tail of capacity t; infinite at 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(t > 0.0, (1.0 - t) / t, math.inf)


def _resistance_explicit(tree, seeds):
    R = np.where(tree.tail, seeds, 0.0)

    def step(a, b, G):  # G sums the children's conductances 1/(1 + R)
        j = tree.inner_positions(a)
        with np.errstate(divide="ignore"):
            R[a:b][j] = 1.0 / G[j]
        return 1.0 / (1.0 + R[a:b])

    tree.sweep_up(step)
    return R


def total_resistance(tree, tail_policy="interval"):
    """Series-parallel resistance of the tree below its root edge; a
    compact SymmetricTree runs on its quotient and reports on it."""
    host, q, (R_high,), (R_low,) = _tail_runs(
        tree, tail_policy, 2.0,
        lambda q, t: (_resistance_explicit(q, _tail_resistance(t)),))
    lo, hi = float(R_low[0]), float(R_high[0])
    if host is not q:
        R_low, R_high = _Recipe(_spread, R_low), _Recipe(_spread, R_high)
    return ResistanceResult(host, lo, hi, R_low, R_high)
