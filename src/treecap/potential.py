"""Potentials, energies and the p-Laplacian on a rooted tree.

Vertices are addressed through edges: the vertex written x(alpha) here
is always the end vertex of edge alpha, and the root vertex (begin of
the root edge) is addressed separately.  A vertex function therefore
stores one value per edge plus the value at the root vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .trees import (co_potential, is_forward_additive, predecessor_path,
                    require_edge)


@dataclass(frozen=True)
class PExponent:
    """An exponent p in (1, oo) together with its conjugate p'."""

    p: float

    def __post_init__(self):
        if not (self.p > 1.0 and np.isfinite(self.p)):
            raise ValueError(f"p must lie in (1, oo), got {self.p}")
        if self.conjugate <= 1.0:  # p/(p - 1) rounds to 1 from about 2^53
            raise ValueError(f"p = {self.p} is too large: its conjugate "
                             "p/(p - 1) rounds to 1")

    @property
    def conjugate(self):
        return self.p / (self.p - 1.0)


def as_exponent(p):
    return p if isinstance(p, PExponent) else PExponent(float(p))


def _report_json(report):
    """A report dataclass as a JSON object: the fields its repr shows,
    in field order, with numpy scalars read as Python values and lists
    copied.  Report classes take it as their to_json."""
    def plain(v):
        if isinstance(v, list):
            return [x.item() if isinstance(x, np.generic) else x for x in v]
        return v.item() if isinstance(v, np.generic) else v
    return {f.name: plain(getattr(report, f.name))
            for f in fields(report) if f.repr}


def signed_power(f, p):
    """The signed power f_p(a) = sgn(f(a)) |f(a)|^(p'-1).

    For p = 2 this is the identity; applying the conjugate exponent
    inverts it: (f_p)_{p'} = f.
    """
    q = as_exponent(p).conjugate - 1.0
    f = np.asarray(f, dtype=float)
    return np.sign(f) * np.abs(f) ** q


@dataclass
class VertexFunction:
    """Values at the end vertex of every edge, plus the root vertex."""

    end_values: np.ndarray
    at_root: float = 0.0

    def at_end(self, alpha):
        return float(self.end_values[alpha])

    def at_begin(self, tree, alpha):
        p = tree.parent_of(alpha)
        return self.at_root if p is None else float(self.end_values[p])

    def begin_values(self, tree):
        """Values at the begin vertex of every edge, as an array."""
        out = np.empty(tree.n_edges)
        out[0] = self.at_root
        out[1:] = np.asarray(self.end_values, dtype=float)[tree.parent[1:]]
        return out


def potential_all(tree, f):
    """The potential If as a VertexFunction: If(x) sums f over the
    predecessor edges of x, and If(root vertex) = 0."""
    return VertexFunction(tree.push_down(f, np.add), 0.0)


def potential(tree, f, x=None):
    """If at the end vertex of edge x, summed root first as potential_all
    sums it; x=None addresses the root vertex."""
    if x is None:
        return 0.0
    f = np.asarray(f, dtype=float)
    total = 0.0
    for i in predecessor_path(tree, x):
        total += float(f[i])
    return total


def energy_all(tree, M, p):
    """Tent energies: at each edge a, the sum of M(b)^(p') over b >= a."""
    e = np.abs(np.asarray(M, dtype=float)) ** as_exponent(p).conjugate
    return tree.sweep_up(lambda a, b, S: e[a:b] + S)[0]


def energy(tree, mu, p, alpha=None):
    """p-energy of a measure over the tent at alpha (whole tree if None)."""
    e = energy_all(tree, co_potential(tree, mu), p)
    return float(e[0 if alpha is None else require_edge(tree, alpha)])


def p_laplacian(tree, g, x, p):
    """sum over neighbors y of x of sgn(g(y)-g(x)) |g(y)-g(x)|^(p-1),
    evaluated at the end vertex of edge x.

    The root vertex is excluded by construction (pass an edge id).  The
    end vertex of a tail edge has unexplored neighbors, so it is an
    error; every other vertex has all neighbor values stored.
    """
    x = require_edge(tree, x)
    if tree.is_tail(x):
        raise ValueError(f"edge {x} is a tail: the neighborhood of its "
                         "end vertex is not stored")
    pe = as_exponent(p)
    gx = g.at_end(x)
    diffs = [g.at_begin(tree, x) - gx]
    diffs.extend(g.at_end(c) - gx for c in tree.children_of(x))
    d = np.asarray(diffs)
    return float(np.sum(np.sign(d) * np.abs(d) ** (pe.p - 1.0)))


@dataclass
class HarmonicityReport:
    """The largest p-Laplacian and where it sits, from is_p_harmonic."""

    ok: bool
    max_abs: float
    worst_edge: int | None
    violations: dict


def is_p_harmonic(tree, g, p, tol=1e-9):
    """Check that the p-Laplacian vanishes at the end vertex of every
    non-leaf, non-tail edge.  Leaf end vertices are boundary points and
    are not constrained."""
    pe = as_exponent(p)
    # flux along each edge towards its end vertex: at the end vertex of x
    # the Laplacian is the inflow through x minus the outflow through its
    # children, the flux's additivity residual (tails have no children)
    d = g.begin_values(tree) - np.asarray(g.end_values, dtype=float)
    add = is_forward_additive(tree, np.sign(d) * np.abs(d) ** (pe.p - 1.0),
                              tol)
    lap = add.residuals
    bad = np.flatnonzero(np.abs(lap) > tol)
    return HarmonicityReport(add.ok, add.max_violation, add.worst_edge,
                             dict(zip(bad.tolist(), lap[bad].tolist())))
