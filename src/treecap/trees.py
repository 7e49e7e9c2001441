"""Rooted trees of edges, boundaries and measures on them.

Conventions used throughout the package:

* A tree is a set of edges.  The root edge has id 0; every other edge
  hangs off the end vertex of its parent.  The level of an edge counts
  the edges strictly between it and the root edge, so the root edge has
  level 0.  The end vertex of an edge at level k has level k + 1.
* Edge ids are assigned breadth first, so ids are sorted by level and,
  within a level, by the order children were listed.
* A leaf is an edge without children.  A leaf flagged as a *tail*
  stands for an unexplored infinite subtree below a truncation depth;
  a leaf that is not a tail is a genuine endpoint of the tree.  The
  boundary at this resolution is the set of true leaves.
* An edge function is a numpy array indexed by edge id (missing edges
  of a host tree read 0 when a mapping is converted).  A boundary
  measure is stored through its co-potential M, where M[a] is the mass
  of the boundary piece seen through edge a; forward additivity
  M[a] = sum of M over children of a is what makes M a measure.

An explicit Tree is stored in compressed sparse row form.  Breadth
first ids make parent[1:] non-decreasing with parent[i] < i, so the
children of edge i are the contiguous id range
[first_child[i], first_child[i] + n_children[i]) and every level is one
contiguous id range as well.  Only this module knows the level layout;
every pass over an explicit tree goes through the two primitives

* Tree.sweep_up(step): levels from the deepest up; for level [a, b) it
  calls step(a, b, S), where S[j] sums step's outputs over the children
  of edge a + j (0 at a leaf), and stores the result as out[a:b].
  Returns (out, S) for the whole tree.
* Tree.push_down(values, op): out[0] = values[0] and
  out[i] = op(out[parent[i]], values[i]), one level at a time.

A Tree may carry a multiplicity per edge: mult[i] identical copies of
the subtree of edge i hang off the end vertex of its parent, and
sweep_up weights each child's output by it.  Such a tree is a weighted
quotient, one node per orbit of identical subtrees; every pass built on
the two primitives then returns the value of each copy.  SymmetricTree
runs the sweeps on its quotient, a path with one node per level.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from numbers import Real
from typing import Mapping, Sequence, Union

import numpy as np

MAX_EXPLICIT_EDGES = 2_000_000


class TreeStructureError(ValueError):
    """Malformed tree input: cycles, several roots, bad degrees."""


class TreeTooLargeError(ValueError):
    """Explicit arena would exceed the edge budget."""


# ---------------------------------------------------------------------------
# tree specifications


@dataclass(frozen=True)
class Explicit:
    """Adjacency given edge by edge: {edge: [children...]}."""

    adjacency: Mapping
    root: object = None


@dataclass(frozen=True)
class Homogeneous:
    """Every edge has exactly n children, indefinitely."""

    n: int

    def levels(self):
        """(listed degrees, eventual degree): none listed, then n."""
        if self.n < 2:
            raise TreeStructureError("homogeneous order must be >= 2")
        return [], self.n


@dataclass(frozen=True)
class SphericallySymmetric:
    """Forward degree depends on the level only; the listed degrees are
    consumed one per level and the tree ends (true leaves) after the
    last one."""

    degrees: Sequence[int]

    def levels(self):
        """(listed degrees, eventual degree): the degrees, then none."""
        degs = list(self.degrees)
        if any(d < 1 for d in degs):
            raise TreeStructureError("forward degrees must be >= 1")
        return degs, None


@dataclass(frozen=True)
class Subdyadic:
    """runs[j] unary edges followed by one binary branching, for each j;
    after the listed runs the tree continues branching at every level."""

    runs: Sequence[int]

    def levels(self):
        """(listed degrees, eventual degree): the runs, then 2."""
        runs = list(self.runs)
        if any(r < 0 for r in runs):
            raise TreeStructureError("run lengths must be >= 0")
        return [d for r in runs for d in [1] * r + [2]], 2


TreeSpec = Union[Explicit, Homogeneous, SphericallySymmetric, Subdyadic]

# the level-regular specs: JSON variant name -> (class, its one field)
_SPECS = {
    "homogeneous": (Homogeneous, "n"),
    "symmetric": (SphericallySymmetric, "degrees"),
    "subdyadic": (Subdyadic, "runs"),
}


def _spec_degree_sequence(spec, depth):
    """Per-level forward degrees for levels 0..depth-1, plus the
    continuation below the truncation: (prefix_after_depth, eventual),
    cut from spec.levels().  depth=None on a spec that ends (eventual
    None) means the whole tree."""
    if not isinstance(spec, tuple(cls for cls, _ in _SPECS.values())):
        raise TypeError(f"not a tree spec: {spec!r}")
    listed, eventual = spec.levels()
    if depth is None and eventual is None:
        return listed, (), None
    if depth is None or depth < 1:
        raise TreeStructureError("infinite specs need depth >= 1")
    if eventual is None and depth > len(listed):
        raise TreeStructureError(
            f"depth {depth} exceeds the {len(listed)} listed degrees")
    degs = listed[:depth] + [eventual] * (depth - len(listed))
    return degs, tuple(listed[depth:]), eventual


# ---------------------------------------------------------------------------
# explicit arena


class Tree:
    """Immutable arena of edges with BFS ids, stored as CSR arrays.

    parent (parent[0] = -1), first_child, n_children and level are int
    arrays and tail is a bool array, all indexed by edge id.  children,
    when given, must list exactly the children that parent implies, in
    id order; it is checked and not stored.  orig_ids maps this tree's
    ids back to the tree it was cut from, when it was produced by tent()
    or spanned_subtree().  mult, when given, holds the multiplicity
    (>= 1) of every edge and makes the tree a weighted quotient; ids,
    n_edges and the per-edge arrays then count quotient nodes.
    """

    def __init__(self, parent, children=None, tail=None, labels=None,
                 level_degrees=None, continuation=None, orig_ids=None,
                 mult=None):
        self.parent = np.asarray(parent, dtype=np.int64)
        n = self.parent.size
        if self.parent.ndim != 1 or n == 0:
            raise TreeStructureError("parent must be a nonempty 1-d array")
        rest = self.parent[1:]
        if (self.parent[0] != -1 or np.any(rest < 0)
                or np.any(rest >= np.arange(1, n)) or np.any(np.diff(rest) < 0)):
            raise TreeStructureError(
                "edge ids are not in BFS order: need parent[0] = -1, "
                "0 <= parent[i] < i and parent[1:] non-decreasing")
        self.n_children = np.bincount(rest, minlength=n)
        self.first_child = 1 + np.cumsum(self.n_children) - self.n_children
        if children is not None and not self._lists_children(children):
            raise TreeStructureError("children lists disagree with parent")
        # first_child of a level's first edge is where the next level
        # starts; a memoryview reads Python ints without a copy of the array
        first = memoryview(self.first_child)
        starts = [0]
        while starts[-1] < n:
            starts.append(first[starts[-1]])
        self._starts = starts
        self.level = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
        self.tail = (np.zeros(n, dtype=bool) if tail is None
                     else np.asarray(tail, dtype=bool))
        if self.tail.shape != (n,):
            raise TreeStructureError("need one tail flag per edge")
        if np.any(self.tail & (self.n_children > 0)):
            raise TreeStructureError("tail edges must be leaves")
        self.mult = None if mult is None else np.asarray(mult, dtype=np.int64)
        if mult is not None and (self.mult.shape != (n,)
                                 or self.mult.min() < 1):
            raise TreeStructureError("need one multiplicity >= 1 per edge")
        self.labels = labels
        self.level_degrees = level_degrees
        self.continuation = continuation
        self.orig_ids = orig_ids
        self.spec = None  # generating spec, when built from one
        self._label_index = None

    def _lists_children(self, children):
        n = self.n_edges
        if len(children) != n:
            return False
        counts = np.fromiter(map(len, children), dtype=np.int64, count=n)
        flat = np.fromiter(chain.from_iterable(children), dtype=np.int64)
        return (np.array_equal(counts, self.n_children)
                and np.array_equal(flat, np.arange(1, n)))

    # -- the two sweep primitives ---------------------------------------

    def sweep_up(self, step):
        """Bottom-up pass, deepest level first.

        For each level [a, b) calls step(a, b, S), where S[j] is the sum
        of out over the children of edge a + j, in id order (0.0 at a
        leaf), each child weighted by its multiplicity when mult is set,
        and stores the returned values as out[a:b].  Returns (out, S)
        over the whole tree.
        """
        s = self._starts
        out = np.empty(self.n_edges)
        S = np.zeros(self.n_edges)
        for k in range(self.depth, -1, -1):
            a, b = s[k], s[k + 1]
            out[a:b] = step(a, b, S[a:b])
            if k > 0:
                w = out[a:b] if self.mult is None else out[a:b] * self.mult[a:b]
                S[s[k - 1]:a] = np.bincount(self.parent[a:b] - s[k - 1],
                                            weights=w,
                                            minlength=a - s[k - 1])
        return out, S

    def push_down(self, values, op):
        """Top-down pass: out[0] = values[0] and
        out[i] = op(out[parent[i]], values[i]), as float arrays."""
        s = self._starts
        out = np.array(values, dtype=float)
        for k in range(1, self.depth + 1):
            a, b = s[k], s[k + 1]
            out[a:b] = op(out[self.parent[a:b]], out[a:b])
        return out

    # -- basic queries ------------------------------------------------

    @property
    def n_edges(self):
        return len(self.parent)

    @property
    def root(self):
        return 0

    @property
    def depth(self):
        return len(self._starts) - 2

    def children_of(self, i):
        first = int(self.first_child[i])
        return list(range(first, first + int(self.n_children[i])))

    def parent_of(self, i):
        p = int(self.parent[i])
        return None if p < 0 else p

    def level_of(self, i):
        return int(self.level[i])

    def is_leaf(self, i):
        return bool(self.n_children[i] == 0)

    def is_tail(self, i):
        return bool(self.tail[i])

    def is_true_leaf(self, i):
        return self.is_leaf(i) and not self.tail[i]

    def true_leaf_mask(self):
        return (self.n_children == 0) & ~self.tail

    def true_leaves(self):
        return np.flatnonzero(self.true_leaf_mask()).tolist()

    def tail_ids(self):
        return np.flatnonzero(self.tail).tolist()

    def level_slice(self, k):
        """Contiguous id range [start, stop) of level k."""
        return self._starts[k], self._starts[k + 1]

    def label_of(self, i):
        return self.labels[i] if self.labels is not None else i

    def id_of_label(self, label):
        """Edge id of a label.  A string also matches the label whose
        str() it is, since JSON object keys are always strings."""
        if self.labels is None:
            i = int(label)
            if not 0 <= i < self.n_edges:
                raise KeyError(f"edge id {i} out of range")
            return i
        if self._label_index is None:
            ids = range(self.n_edges)
            index = dict(zip(map(str, self.labels), ids))
            index.update(zip(self.labels, ids))
            self._label_index = index
        try:
            return self._label_index[label]
        except (KeyError, TypeError):
            raise KeyError(f"unknown edge label {label!r}") from None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_adjacency(cls, adjacency, root=None, tails=()):
        """Breadth-first ids for an adjacency mapping {edge: [children]}.

        Once every edge is known to have at most one parent and the root
        none, the breadth-first walk from the root meets each edge at
        most once; the edges it misses lie on a cycle or in a piece not
        connected to the root.  A declared root must be a key with no
        parent.
        """
        adjacency = dict(adjacency)
        children = list(chain.from_iterable(adjacency.values()))
        as_child = set(children)
        if len(as_child) != len(children):
            _raise_first_repeated_child(adjacency.values())
        roots = set(adjacency).difference(as_child)
        if root is None:
            if len(roots) != 1:
                raise TreeStructureError(
                    "need exactly one root edge, found "
                    f"{sorted(map(repr, roots))}")
            (root,) = roots
        elif root in as_child:
            raise TreeStructureError(f"declared root {root!r} has a parent")
        elif root not in adjacency:
            raise TreeStructureError(
                f"declared root {root!r} is not an edge of the adjacency")
        order = [root]
        for e in order:
            order.extend(adjacency.get(e, ()))
        n = len(order)
        if n != len(as_child) + len(roots):  # edges mentioned
            raise TreeStructureError("adjacency is not connected to the root")
        kids = map(adjacency.get, order, repeat(()))
        n_children = np.fromiter(map(len, kids), dtype=np.int64, count=n)
        parent = np.concatenate(([-1], np.repeat(np.arange(n), n_children)))
        tail = np.zeros(n, dtype=bool)
        if tails:
            index = dict(zip(order, range(n)))
            for lab in tails:
                if lab not in index:
                    raise TreeStructureError(f"tail {lab!r} is not an edge")
                tail[index[lab]] = True
        return cls(parent, tail=tail, labels=order)


def _raise_first_repeated_child(child_lists):
    """Raise for the first child listed twice, in listing order."""
    seen = set()
    for kids in child_lists:
        if len(set(kids)) != len(kids):
            raise TreeStructureError("duplicate child in adjacency")
        for c in kids:
            if c in seen:
                raise TreeStructureError(f"edge {c!r} has two parents")
            seen.add(c)


class SymmetricTree:
    """Compact spherically symmetric truncation: only per-level data.

    Edge ids are still the BFS ids of the explicit arena (they may be
    astronomically large), defined arithmetically: level k occupies
    ids [offset(k), offset(k+1)) in child-after-child order.  The sweeps
    run on quotient: a path Tree with one node per level, node k of
    multiplicity degrees[k - 1], the last one a tail when truncated.
    """

    def __init__(self, degrees, truncated, continuation=None):
        self.degrees = tuple(int(d) for d in degrees)
        if any(d < 1 for d in self.degrees):
            raise TreeStructureError("forward degrees must be >= 1")
        self.truncated = bool(truncated)
        self.continuation = continuation
        self.spec = None
        offs = [0, 1]
        card = 1
        for d in self.degrees:
            card *= d
            offs.append(offs[-1] + card)
        self._offsets = offs  # offsets[k] = first id of level k
        levels = np.arange(self.depth + 1)
        self.quotient = Tree(levels - 1, mult=(1, *self.degrees),
                             tail=self.truncated & (levels == self.depth),
                             continuation=continuation)

    @property
    def depth(self):
        return len(self.degrees)

    @property
    def n_edges(self):
        return self._offsets[-1]

    def level_of(self, i):
        if not 0 <= i < self.n_edges:
            raise KeyError(f"edge id {i} out of range")
        return bisect_right(self._offsets, i) - 1

    def parent_of(self, i):
        k = self.level_of(i)
        if k == 0:
            return None
        j = i - self._offsets[k]
        return self._offsets[k - 1] + j // self.degrees[k - 1]

    def children_of(self, i):
        k = self.level_of(i)
        if k >= self.depth:
            return []
        j = i - self._offsets[k]
        base = self._offsets[k + 1] + j * self.degrees[k]
        return list(range(base, base + self.degrees[k]))

    def is_tail(self, i):
        return self.truncated and self.level_of(i) == self.depth

    def tail_ids(self):
        if not self.truncated:
            return range(0)
        return range(self._offsets[self.depth], self._offsets[self.depth + 1])

    def tent_profile(self, k):
        """Degree data of any tent rooted at level k, as a SymmetricTree."""
        return SymmetricTree(self.degrees[k:], self.truncated,
                             continuation=self.continuation)


def build_tree(spec, depth=None, layout="auto"):
    """Realize a tree specification.

    A spec that continues below depth gets tail leaves at that level;
    depth >= 1 is required unless the spec ends (spec.levels() has no
    eventual degree), and then depth=None builds the finite tree, whose
    deepest edges are true leaves.

    layout: "explicit" forces an arena (raising TreeTooLargeError over
    the budget), "compact" returns a SymmetricTree, "auto" picks
    compact only when the arena would not fit.
    """
    cap = MAX_EXPLICIT_EDGES
    if isinstance(spec, Explicit):
        tree = Tree.from_adjacency(spec.adjacency, root=spec.root)
        tree.spec = spec
        return tree

    degs, prefix, eventual = _spec_degree_sequence(spec, depth)
    truncated = len(prefix) > 0 or eventual is not None
    continuation = (prefix, eventual) if truncated else None

    widths = [1]  # edges per level
    n_total = 1
    for d in degs:
        widths.append(widths[-1] * d)
        n_total += widths[-1]
        if layout != "compact" and n_total > cap:
            break

    if layout == "compact" or (layout == "auto" and n_total > cap):
        out = SymmetricTree(degs, truncated, continuation=continuation)
        out.spec = spec
        return out
    if n_total > cap:
        raise TreeTooLargeError(
            f"{n_total}+ edges exceed the explicit budget {cap}")

    # each edge of level k has degs[k] children, listed in id order
    n_children = np.repeat(degs + [0], widths)
    parent = np.concatenate(
        ([-1], np.repeat(np.arange(n_children.size), n_children)))
    tail = np.zeros(len(parent), dtype=bool)
    tail[len(parent) - widths[-1]:] = truncated
    tree = Tree(parent, tail=tail,
                level_degrees=degs, continuation=continuation)
    tree.spec = spec
    return tree


# ---------------------------------------------------------------------------
# structural operations


def predecessor_path(tree, x):
    """Edges from the root edge down to x, inclusive."""
    out = []
    i = x
    while i is not None:
        out.append(i)
        i = tree.parent_of(i)
    return out[::-1]


def _subtree(tree, order):
    """The tree on the sorted host ids order, which must hold order[0]
    and the parent of every other id in it; orig_ids maps back."""
    parent = np.searchsorted(order, tree.parent[order])
    parent[0] = -1
    labels = None
    if tree.labels is not None:
        labels = list(map(tree.labels.__getitem__, order.tolist()))
    mult = None if tree.mult is None else tree.mult[order]
    return Tree(parent, tail=tree.tail[order], labels=labels, orig_ids=order,
                mult=mult, continuation=tree.continuation)


def tent(tree, alpha):
    """The subtree of edges at or below alpha, re-rooted at alpha.

    Levels restart at 0; orig_ids maps back to the host tree.
    """
    if isinstance(tree, SymmetricTree):
        return tree.tent_profile(tree.level_of(alpha))
    # the descendants of alpha on each level form one contiguous id range
    ranges = []
    lo, hi = int(alpha), int(alpha) + 1
    while lo < hi:
        ranges.append(np.arange(lo, hi))
        lo, hi = (int(tree.first_child[lo]),
                  int(tree.first_child[hi - 1] + tree.n_children[hi - 1]))
    return _subtree(tree, np.concatenate(ranges))


def require_explicit(tree, what):
    """Raise TypeError unless tree is an explicit Tree; what names the
    operation that needs one."""
    if not isinstance(tree, Tree):
        raise TypeError(f"{what} needs an explicitly stored tree; lower "
                        "the depth or build it with an explicit layout")


def leaf_indicator(tree, boundary_set):
    """Indicator of a set of true leaves, as an edge function: 1.0 on
    the set (duplicate ids count once), 0.0 on every other edge."""
    require_explicit(tree, "a boundary subset")
    E = np.unique(np.fromiter(boundary_set, dtype=np.int64))
    if not E.size:
        raise ValueError("empty boundary set spans nothing")
    ok = (E >= 0) & (E < tree.n_edges)
    ok[ok] = tree.true_leaf_mask()[E[ok]]
    if not ok.all():
        raise ValueError(f"edge {E[~ok][0]} is not a true leaf")
    marked = np.zeros(tree.n_edges)
    marked[E] = 1.0
    return marked


def spanned_subtree(tree, boundary_set):
    """Union of the predecessor paths of the given true leaves.

    The result is a finite tree (no tails can occur on the paths);
    orig_ids maps back to the host tree.  Sibling order is inherited.
    """
    marked = leaf_indicator(tree, boundary_set)
    below, _ = tree.sweep_up(lambda a, b, S: marked[a:b] + S)
    return _subtree(tree, np.flatnonzero(below))


def confluent(tree, zeta, eta):
    """Deepest common edge of two edges (or boundary points, read as
    their leaf edges).  Returns (edge id, level of its end vertex)."""
    pa = predecessor_path(tree, zeta)
    pb = predecessor_path(tree, eta)
    meet = 0
    for a, b in zip(pa, pb):
        if a != b:
            break
        meet = a
    return meet, tree.level_of(meet) + 1


@dataclass
class AdditivityReport:
    ok: bool
    max_violation: float
    worst_edge: int | None
    residuals: np.ndarray = field(default=None, repr=False)


def require_tolerance(tol):
    """Raise ValueError unless tol >= 0; NaN fails the test as well."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")


def is_forward_additive(tree, f, tol=1e-12):
    """Check f(alpha) = sum of f over children at every non-leaf edge;
    residuals holds the signed f - sum there and 0 elsewhere."""
    require_tolerance(tol)
    f = np.asarray(f, dtype=float)
    _, S = tree.sweep_up(lambda a, b, S: f[a:b])
    r = np.where(tree.n_children > 0, f - S, 0.0)
    i = int(np.argmax(np.abs(r)))
    worst = float(abs(r[i]))
    return AdditivityReport(worst <= tol, worst, i if worst > 0.0 else None,
                            r)


# ---------------------------------------------------------------------------
# boundary measures


class BoundaryMeasure:
    """Finite measure on the boundary, stored as its co-potential M."""

    def __init__(self, tree, co_potential, validate=True, tol=1e-9):
        self.tree = tree
        self.M = np.asarray(co_potential, dtype=float)
        if validate:
            if self.M.shape != (tree.n_edges,):
                raise ValueError("co-potential must cover every edge")
            if np.any(self.M < -tol):
                raise ValueError("negative mass")
            scale = max(float(self.M[0]), 1.0)
            rep = is_forward_additive(tree, self.M, tol * scale)
            if not rep.ok:
                raise ValueError(
                    f"not forward additive: violation {rep.max_violation:.3e}"
                    f" at edge {rep.worst_edge}")

    @classmethod
    def from_leaf_masses(cls, tree, masses):
        """Additivize leaf masses upward into a co-potential."""
        ids = np.fromiter(masses.keys(), dtype=np.int64, count=len(masses))
        m = np.fromiter(masses.values(), dtype=float, count=len(masses))
        inner = tree.n_children[ids] > 0
        if inner.any():
            raise ValueError(f"edge {ids[inner][0]} is not a leaf")
        if np.any(m < 0):
            raise ValueError("negative mass")
        at_leaf = np.zeros(tree.n_edges)
        at_leaf[ids] = m
        M, _ = tree.sweep_up(lambda a, b, S: at_leaf[a:b] + S)
        return cls(tree, M, validate=False)

    @property
    def total_mass(self):
        return float(self.M[0])

    def leaf_masses(self):
        ids = np.flatnonzero((self.tree.n_children == 0) & (self.M != 0.0))
        return dict(zip(ids.tolist(), self.M[ids].tolist()))

    def support_leaves(self, tol=0.0):
        return frozenset(np.flatnonzero(
            (self.tree.n_children == 0) & (self.M > tol)).tolist())


def co_potential(tree, measure):
    """The co-potential array of a BoundaryMeasure, or of an array of
    per-edge masses, checked to hold one value per edge of tree."""
    M = measure.M if isinstance(measure, BoundaryMeasure) else measure
    M = np.asarray(M, dtype=float)
    if M.shape != (tree.n_edges,):
        raise ValueError("measure length does not match the tree")
    return M


# ---------------------------------------------------------------------------
# JSON interchange


def spec_to_json(spec):
    for variant, (cls, name) in _SPECS.items():
        if isinstance(spec, cls):
            x = getattr(spec, name)
            return {"variant": variant,
                    name: x if isinstance(x, Real) else list(x)}
    raise TypeError(f"cannot serialize {spec!r}")


def _spec_int(field, x):
    """A JSON integer, or a float with an integral value; bools, strings
    and fractional values are refused, and int() refuses infinity."""
    if isinstance(x, Real) and not isinstance(x, bool):
        n = int(x)
        if n == x:
            return n
    raise ValueError(f"tree spec {field!r} holds {x!r}, not an integer")


def spec_from_json(obj):
    if not isinstance(obj, dict):
        raise ValueError(f"a tree spec is a JSON object, not {obj!r}")
    v = obj.get("variant")
    if not isinstance(v, str) or v not in _SPECS:
        raise ValueError(f"unknown spec variant {v!r}")
    cls, name = _SPECS[v]
    x = obj[name]
    if cls.__annotations__[name] == "int":  # else a list of ints
        return cls(_spec_int(name, x))
    return cls([_spec_int(name, d) for d in x])


def tree_to_json(tree):
    # spec-built trees round-trip through their generating spec so the
    # continuation behind a truncation survives serialization
    spec = getattr(tree, "spec", None)
    if spec is not None and not isinstance(spec, Explicit):
        out = {"spec": spec_to_json(spec)}
        truncated = (tree.truncated if isinstance(tree, SymmetricTree)
                     else tree.continuation is not None)
        if truncated:
            out["depth"] = tree.depth
        return out
    if isinstance(tree, SymmetricTree):
        if tree.truncated:
            raise ValueError("a truncated compact tree without its spec "
                             "would lose its continuation")
        return {"spec": spec_to_json(SphericallySymmetric(tree.degrees))}
    if tree.mult is not None:
        raise ValueError("a weighted quotient would lose its multiplicities")
    labels = (list(range(tree.n_edges)) if tree.labels is None
              else list(tree.labels))
    first = tree.first_child.tolist()
    stop = (tree.first_child + tree.n_children).tolist()
    edges = [{"id": lab, "children": labels[a:b]}
             for lab, a, b in zip(labels, first, stop)]
    for i in tree.tail_ids():
        edges[i]["tail"] = True
    return {"root": labels[0], "edges": edges}


def tree_from_json(obj, depth=None, layout="auto"):
    if "spec" in obj:
        return build_tree(spec_from_json(obj["spec"]),
                          depth=depth if depth is not None else obj.get("depth"),
                          layout=layout)
    if depth is not None:
        raise TreeStructureError(
            "a truncation depth applies to tree specs, not to an explicit "
            "adjacency")
    adjacency = {rec["id"]: rec.get("children", []) for rec in obj["edges"]}
    if len(adjacency) != len(obj["edges"]):
        counts = Counter(rec["id"] for rec in obj["edges"])
        twice = next(e for e, k in counts.items() if k > 1)
        raise TreeStructureError(f"edge {twice!r} has more than one record")
    tails = [rec["id"] for rec in obj["edges"] if rec.get("tail")]
    return Tree.from_adjacency(adjacency, root=obj.get("root"), tails=tails)


def edge_function_from_mapping(tree, mapping):
    """Mapping {edge label: value} to an array; absent edges read 0."""
    f = np.zeros(tree.n_edges)
    for lab, v in mapping.items():
        f[tree.id_of_label(lab)] = float(v)
    return f


def edge_function_to_mapping(tree, f, keep_zero=False):
    """Array to {str(edge label): value}, in id order; zeros are
    dropped unless keep_zero."""
    f = np.asarray(f, dtype=float)
    ids = np.arange(tree.n_edges) if keep_zero else np.flatnonzero(f)
    labels = ids.tolist()
    if tree.labels is not None:
        labels = map(tree.labels.__getitem__, labels)
    return dict(zip(map(str, labels), f[ids].tolist()))
