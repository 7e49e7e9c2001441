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
contiguous id range as well.  Only this module knows the level layout:
both layouts answer level queries from one table, _starts.
Child sums of a given edge function are one np.bincount over parent[1:];
every pass that carries values across levels uses the two primitives

* Tree.sweep_up(step): levels from the deepest up; for level [a, b) it
  calls step(a, b, S), where S[j] sums step's outputs over the children
  of edge a + j (0 at a leaf), and stores the result as out[a:b].
  Returns (out, S) for the whole tree.
* Tree.push_down(values, op): out[0] = values[0] and
  out[i] = op(out[parent[i]], values[i]), one level at a time.

A step that maps S only where there are children takes their positions
from Tree.inner_positions(a), one int array per level built once per
tree.  The steps of the capacity recursion, the resistance and the
capacity equation check do: a leaf takes its boundary value, and its
S = 0 would only slow them, since numpy's power leaves its vector path
on a zero base.  Additive steps (energies, leaf masses, spanned edges)
stay on whole level slices, which is faster for a plain sum.

A Tree may carry a multiplicity per edge: mult[i] identical copies of
the subtree of edge i hang off the end vertex of its parent, and
sweep_up weights each child's output by it.  Such a tree is a weighted
quotient, one node per orbit of identical subtrees; every pass built on
the two primitives then returns the value of each copy.  Every tree
built from a level-regular spec knows its quotient, a path with one
node per level; Tree.from_levels spreads per-level values over the
edges, and Tree.to_levels is its inverse.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, chain, compress, filterfalse, repeat
from numbers import Integral, Real
from typing import Mapping, Sequence

import numpy as np

MAX_EXPLICIT_EDGES = 2_000_000
# a compact tree keeps one exact int per level, of up to depth * log2(n)
# bits for degree n, so its level table grows as depth^2
MAX_LEVEL_TABLE_BITS = 2 ** 28


class TreeStructureError(ValueError):
    """Malformed tree input: cycles, several roots, bad degrees."""


def _is_real(v):
    """A real number, numpy's included, that is not a bool."""
    return isinstance(v, Real) and not isinstance(v, bool)


def _is_int(v):
    """An integer, numpy's included, that is not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


class TreeTooLargeError(ValueError):
    """A tree would exceed a size budget: the explicit arena's edges,
    the levels of any tree or the compact level table's bits."""


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
        n = _spec_int("n", self.n)
        if n < 2:
            raise TreeStructureError("homogeneous order must be >= 2")
        return [], n


@dataclass(frozen=True)
class SphericallySymmetric:
    """Forward degree depends on the level only; the listed degrees are
    consumed one per level and the tree ends (true leaves) after the
    last one."""

    degrees: Sequence[int]

    def levels(self):
        """(listed degrees, eventual degree): the degrees, then none."""
        degs = [_spec_int("degrees", d) for d in self.degrees]
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
        runs = [_spec_int("runs", r) for r in self.runs]
        if any(r < 0 for r in runs):
            raise TreeStructureError("run lengths must be >= 0")
        n = sum(runs) + len(runs)
        if n > MAX_EXPLICIT_EDGES:  # checked before any level is listed
            raise TreeTooLargeError(
                f"tree spec 'runs' lists {n} levels, more than the "
                f"{MAX_EXPLICIT_EDGES} a tree may have")
        return [d for r in runs for d in [1] * r + [2]], 2


# the level-regular specs: JSON variant name -> (class, its one field)
_SPECS = {
    "homogeneous": (Homogeneous, "n"),
    "symmetric": (SphericallySymmetric, "degrees"),
    "subdyadic": (Subdyadic, "runs"),
}


def _spec_degree_sequence(spec, depth):
    """Per-level forward degrees for levels 0..depth-1, plus the
    continuation below the truncation, (prefix_after_depth, eventual),
    or None where the tree ends; cut from spec.levels().  depth=None on
    a spec that ends (eventual None) means the whole tree."""
    if not isinstance(spec, tuple(cls for cls, _ in _SPECS.values())):
        raise TypeError(f"not a tree spec: {spec!r}")
    listed, eventual = spec.levels()
    if depth is None and eventual is None:
        return listed, None
    depth = None if depth is None else _spec_int("depth", depth)
    if depth is None or depth < 1:
        raise TreeStructureError("infinite specs need depth >= 1")
    if eventual is None and depth > len(listed):
        raise TreeStructureError(
            f"depth {depth} exceeds the {len(listed)} listed degrees")
    if depth > MAX_EXPLICIT_EDGES:
        raise TreeTooLargeError(
            f"depth {depth} is more than the {MAX_EXPLICIT_EDGES} levels a "
            "tree may have")
    degs = listed[:depth] + [eventual] * (depth - len(listed))
    prefix = tuple(listed[depth:])
    truncated = len(prefix) > 0 or eventual is not None
    return degs, (prefix, eventual) if truncated else None


# ---------------------------------------------------------------------------
# level table and explicit arena


class _LevelTable:
    """Level queries of both layouts, read from _starts, the first id of
    every level then the edge count; for a level-regular tree parent_of
    and children_of read its forward degrees _degrees as well."""

    n_edges = property(lambda t: t._starts[-1])
    depth = property(lambda t: len(t._starts) - 2)

    def level_of(self, i):
        return bisect_right(self._starts, require_edge(self, i)) - 1

    def level_slice(self, k):
        """Contiguous id range [start, stop) of level k."""
        return self._starts[k], self._starts[k + 1]

    def parent_of(self, i):
        k = self.level_of(i)
        if k == 0:
            return None
        j = require_edge(self, i) - self._starts[k]
        return self._starts[k - 1] + j // int(self._degrees[k - 1])

    def children_of(self, i):
        k = self.level_of(i)
        d = int(self._degrees[k]) if k < self.depth else 0
        base = self._starts[k + 1] + (require_edge(self, i) - self._starts[k]) * d
        return list(range(base, base + d))


class Tree(_LevelTable):
    """Immutable arena of edges with BFS ids, stored as CSR arrays.

    parent (parent[0] = -1), first_child, n_children and level (built on
    first read) are int arrays and tail is a bool array, all indexed by
    edge id.  children, when given, must list exactly the children that
    parent implies, in id order; it is checked and not stored.  orig_ids
    maps this tree's ids back to the tree it was cut from, when it was
    produced by tent() or spanned_subtree().  mult, when given, holds
    the multiplicity of every edge, a whole number in [1, 2^63) read by
    _spec_int's rule (no bool, NaN or infinity), and makes the tree a
    weighted quotient; ids, n_edges and the per-edge arrays then count
    quotient nodes.  _level_tree makes a tree that builds them on read.
    """

    spec = quotient = None  # generating spec and its level quotient
    labels = mult = _degrees = _shift = _label_index = _inner = None
    n_children = cached_property(
        lambda t: t.from_levels(np.append(t._degrees, 0)))
    first_child = cached_property(
        lambda t: 1 + np.cumsum(t.n_children) - t.n_children)
    parent = cached_property(lambda t: np.concatenate(
        ([-1], np.repeat(np.arange(t.n_edges), t.n_children))))
    # tails are the deepest level, exactly when the tree continues there
    tail = cached_property(lambda t: t.from_levels(
        [False] * t.depth + [t.continuation is not None]))
    orig_ids = cached_property(lambda t: None if t._shift is None else
                               np.arange(t.n_edges) + t.from_levels(t._shift))

    def __init__(self, parent, children=None, tail=None, labels=None,
                 continuation=None, orig_ids=None, mult=None):
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
        if children is not None and not self._lists_children(children):
            raise TreeStructureError("children lists disagree with parent")
        # first_child of a level's first edge is where the next level
        # starts; a memoryview reads Python ints without a copy of the array
        first = memoryview(self.first_child)
        starts = [0]
        while starts[-1] < n:
            starts.append(first[starts[-1]])
        self._starts = starts
        self.tail = (np.zeros(n, dtype=bool) if tail is None
                     else np.asarray(tail, dtype=bool))
        if self.tail.shape != (n,):
            raise TreeStructureError("need one tail flag per edge")
        if np.any(self.tail & (self.n_children > 0)):
            raise TreeStructureError("tail edges must be leaves")
        m = None if mult is None else np.asarray(mult, dtype=object)
        if m is not None and (m.shape != (n,) or not all(
                _is_real(x) and 1 <= x < 2 ** 63 and x % 1 == 0 for x in m)):
            raise TreeStructureError("need a whole multiplicity >= 1 per edge")
        self.mult = None if m is None else m.astype(np.int64)
        self.labels = labels
        self.continuation = continuation
        self.orig_ids = orig_ids

    def _lists_children(self, children):
        n = self.parent.size
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

    def inner_positions(self, a):
        """Positions j of the edges a + j with children in the level
        that starts at id a, as an int array.  Built for every level at
        the first call, then cached."""
        if self._inner is None:
            ids = np.flatnonzero(self.n_children > 0)
            cut = ids.searchsorted(self._starts).tolist()
            self._inner = {a: ids[i:j] - a for a, i, j
                           in zip(self._starts, cut, cut[1:])}
        return self._inner[a]

    def from_levels(self, values):
        """Edge function holding values[k] on every edge of level k."""
        return np.repeat(values, np.diff(self._starts))

    def to_levels(self, values):
        """Inverse of from_levels: per-level values, or None unless values
        is constant on every level (NaN never is)."""
        starts = self._starts[:-1]
        first = values[starts]
        same = (np.array_equal(np.minimum.reduceat(values, starts), first)
                and np.array_equal(np.maximum.reduceat(values, starts), first))
        return first if same else None

    # -- basic queries ------------------------------------------------

    @property
    def root(self):
        return 0

    level = cached_property(lambda t: t.from_levels(np.arange(t.depth + 1)))

    @property
    def level_degrees(self):
        """Forward degree per level, from the level quotient, if any."""
        q = self.quotient
        return None if q is None else q.mult[1:].tolist()

    def children_of(self, i):
        if self._degrees is not None:
            return super().children_of(i)
        i = require_edge(self, i)
        first = int(self.first_child[i])
        return list(range(first, first + int(self.n_children[i])))

    def parent_of(self, i):
        if self._degrees is not None:
            return super().parent_of(i)
        p = int(self.parent[require_edge(self, i)])
        return None if p < 0 else p

    # level-regular degrees are >= 1: the leaves are the deepest level
    def is_leaf(self, i):
        if self._degrees is not None:
            return self.level_of(i) == self.depth
        return bool(self.n_children[require_edge(self, i)] == 0)

    def is_tail(self, i):
        if self._degrees is not None:
            return self.is_leaf(i) and self.continuation is not None
        return bool(self.tail[require_edge(self, i)])

    def is_true_leaf(self, i):
        return self.is_leaf(i) and not self.is_tail(i)

    def true_leaf_mask(self):
        return (self.n_children == 0) & ~self.tail

    def true_leaves(self):
        return np.flatnonzero(self.true_leaf_mask()).tolist()

    def tail_ids(self):
        if self._degrees is not None:
            return list(range(*self.level_slice(self.depth))
                        if self.continuation is not None else ())
        return np.flatnonzero(self.tail).tolist()

    def label_of(self, i):
        i = require_edge(self, i)
        return self.labels[i] if self.labels is not None else i

    def id_of_label(self, label):
        """Edge id of a label, a number (not a bool) on a tree without
        labels.  A string also matches the label whose str() it is, as
        JSON keys are strings; a bool, numpy's included, matches no
        label, though True == 1."""
        if self.labels is None:
            try:
                i = float(label) if isinstance(label, str) else label
            except ValueError:
                i = None
            if not isinstance(i, Real):
                raise KeyError(f"unknown edge label {label!r}")
            return require_edge(self, i)
        if self._label_index is None:
            ids = range(self.n_edges)
            index = dict(zip(map(str, self.labels), ids))
            index.update(zip(self.labels, ids))
            self._label_index = index
        if not isinstance(label, (bool, np.bool_)):
            try:
                return self._label_index[label]
            except (KeyError, TypeError):
                pass
        raise KeyError(f"unknown edge label {label!r}")

    # -- construction ---------------------------------------------------

    @classmethod
    def from_adjacency(cls, adjacency, root=None, tails=()):
        """Breadth-first ids for an adjacency mapping {edge: [children]}.

        One walk from the declared root, or else from the first key,
        pops each key's child list, so no list is read twice and a cycle
        cannot loop.  The walk is the tree exactly when it popped every
        key, starting with its own, and met no edge twice: then every
        edge has one parent, the start none, and all are connected to
        it.  A walk that popped every key lists each of them at least
        once, so when it lists no more edges than there are keys it
        listed none twice; only adjacencies whose leaves are not keys
        need a set to tell.  Otherwise the checks run in turn, each with
        its own message, and a second walk starts from the true root;
        the edges it misses lie in a piece not connected to it.  A
        declared root must be a key with no parent.
        """
        start = root if root is not None else next(iter(adjacency), None)
        order, n_children, missed = _walk(adjacency, start)
        if (missed or start not in adjacency
                or (len(order) != len(adjacency)
                    and len(set(order)) != len(order))):
            root = _true_root(adjacency, root)
            order, n_children, missed = _walk(adjacency, root)
            if missed:
                raise TreeStructureError(
                    "adjacency is not connected to the root")
        n = len(order)
        parent = np.concatenate(([-1], np.repeat(np.arange(n), n_children)))
        tail = np.zeros(n, dtype=bool)
        if tails:
            index = dict(zip(order, range(n)))
            for lab in tails:
                if lab not in index:
                    raise TreeStructureError(f"tail {lab!r} is not an edge")
                tail[index[lab]] = True
        return cls(parent, tail=tail, labels=order)


def _walk(adjacency, start):
    """Breadth-first walk from start that pops each key's child list
    from a copy of adjacency: (order, child counts as int64, the number
    of keys never reached)."""
    rest = dict(adjacency)
    order, counts = [start], array("q")
    for e in order:
        kids = rest.pop(e, ())
        order.extend(kids)
        counts.append(len(kids))
    return order, np.frombuffer(counts, dtype=np.int64), len(rest)


def _true_root(adjacency, root):
    """The one key that is no child, or the declared root once it is
    checked to be one; a second parent or a repeated child is refused
    first, each with the message of the first offender."""
    children = list(chain.from_iterable(adjacency.values()))
    as_child = set(children)
    if len(as_child) != len(children):
        _raise_first_repeated_child(adjacency.values())
    if root is None:
        roots = set(adjacency).difference(as_child)
        if len(roots) != 1:
            raise TreeStructureError(
                f"need exactly one root edge, found {sorted(map(repr, roots))}")
        (root,) = roots
    elif root in as_child:
        raise TreeStructureError(f"declared root {root!r} has a parent")
    elif root not in adjacency:
        raise TreeStructureError(
            f"declared root {root!r} is not an edge of the adjacency")
    return root


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


class SymmetricTree(_LevelTable):
    """Compact spherically symmetric truncation: its level quotient,
    which degrees, truncated and continuation read, plus the level table.

    Edge ids are still the BFS ids of the explicit arena (they may be
    astronomically large), defined arithmetically: level k occupies
    ids level_slice(k) in child-after-child order.
    """

    def __init__(self, degrees, truncated, continuation=None):
        self.quotient = _level_quotient(degrees, truncated, continuation)
        self.spec = None
        self._starts = _level_offsets(self.degrees)

    degrees = property(lambda t: tuple(t.quotient.mult[1:].tolist()))
    truncated = property(lambda t: bool(t.quotient.tail[-1]))
    continuation = property(lambda t: t.quotient.continuation)
    _degrees = property(lambda t: t.quotient.mult[1:])

    def is_tail(self, i):
        return self.level_of(i) == self.depth and self.truncated

    def tail_ids(self):
        if not self.truncated:
            return range(0)
        return range(*self.level_slice(self.depth))

    def tent_profile(self, k):
        """Degree data of any tent rooted at level k, as a SymmetricTree."""
        return SymmetricTree(self.degrees[k:], self.truncated,
                             continuation=self.continuation)


def _level_quotient(degrees, truncated, continuation):
    """The weighted quotient of a level-regular tree: a path, node k of
    multiplicity degrees[k - 1], the last one a tail when truncated."""
    levels = np.arange(len(degrees) + 1)
    return Tree(levels - 1, mult=(1, *degrees),
                tail=bool(truncated) & (levels == len(degrees)),
                continuation=continuation)


def _level_tree(starts, degrees, continuation, shift=None):
    """An explicit Tree kept as its level table starts and degrees (an
    int array), its arena built on first read; orig_ids too, when shift
    holds what each level adds to an id.  quotient stays None."""
    t = Tree.__new__(Tree)
    t._starts, t._degrees, t._shift = starts, degrees, shift
    t.continuation = continuation
    return t


def level_quotient(tree):
    """The quotient a level-regular tree runs on: its own, or one made
    from a tent's level table (its quotient stays None); else None."""
    if tree.quotient is not None or tree._degrees is None:
        return tree.quotient
    return _level_quotient(tree._degrees, tree.continuation is not None,
                           tree.continuation)


def _level_offsets(degrees, budget=None):
    """First id of every level, then the edge count, in exact ints (a
    compact tree may pass 2^63 edges); stops past budget, if given.
    TreeTooLargeError once the ints pass MAX_LEVEL_TABLE_BITS bits."""
    offsets, bits = [0, 1], 0
    for d in degrees:  # level k + 1 is d times as wide as level k
        if budget is not None and offsets[-1] > budget:
            break
        offsets.append(offsets[-1] + d * (offsets[-1] - offsets[-2]))
        bits += offsets[-1].bit_length()
        if bits > MAX_LEVEL_TABLE_BITS:
            raise TreeTooLargeError(
                f"depth {len(degrees)} needs a level table of more than "
                f"{MAX_LEVEL_TABLE_BITS} bits")
    return offsets


def _arena_offsets(degrees, layout="explicit"):
    """_level_offsets cut short past the budget, refusing layout "explicit"."""
    offsets = _level_offsets(degrees, MAX_EXPLICIT_EDGES)
    if layout == "explicit" and offsets[-1] > MAX_EXPLICIT_EDGES:
        raise TreeTooLargeError(f"{offsets[-1]}+ edges exceed the explicit "
                                f"budget {MAX_EXPLICIT_EDGES}")
    return offsets


def build_tree(spec, depth=None, layout="auto"):
    """Realize a tree specification.

    A spec that continues below depth gets tail leaves at that level;
    depth >= 1 is required unless the spec ends (spec.levels() has no
    eventual degree), and then depth=None builds the finite tree, whose
    deepest edges are true leaves.

    layout: "explicit" forces an arena (raising TreeTooLargeError over
    the budget), "compact" returns a SymmetricTree, "auto" picks
    compact only when the arena would not fit.  The explicit tree of a
    level-regular spec is O(depth) to build, see _level_tree.
    """
    if layout not in ("auto", "explicit", "compact"):
        raise ValueError(f"unknown layout {layout!r}")
    if isinstance(spec, Explicit):
        tree = Tree.from_adjacency(spec.adjacency, root=spec.root)
        tree.spec = spec
        return tree

    degs, continuation = _spec_degree_sequence(spec, depth)
    truncated = continuation is not None

    # level starts of the arena, cut short once it would not fit
    offsets = None if layout == "compact" else _arena_offsets(degs, layout)
    if offsets is None or offsets[-1] > MAX_EXPLICIT_EDGES:
        out = SymmetricTree(degs, truncated, continuation=continuation)
        out.spec = spec
        return out

    q = _level_quotient(degs, truncated, continuation)
    tree = _level_tree(offsets, q.mult[1:], continuation)
    tree.spec, tree.quotient = spec, q
    return tree


# ---------------------------------------------------------------------------
# structural operations


def predecessor_path(tree, x):
    """Edges from the root edge down to x, inclusive."""
    out = []
    i = require_edge(tree, x)
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

    Levels restart at 0; orig_ids maps back to the host tree.  A tent of
    a level-regular tree is cut from its level table, as _level_tree;
    any other joins the host's slices, one contiguous id range per level,
    and holds no reference to its host.
    """
    if isinstance(tree, SymmetricTree):
        return tree.tent_profile(tree.level_of(alpha))
    lo = require_edge(tree, alpha)
    if tree._degrees is not None:
        s, k = tree._starts, tree.level_of(lo)
        starts = _level_offsets(tree._degrees[k:].tolist())
        # its level i is one run of ids on level k + i of the host
        shift = [a + (lo - s[k]) * (b - c) - c
                 for a, c, b in zip(s[k:], starts, starts[1:])]
        return _level_tree(starts, tree._degrees[k:], tree.continuation, shift)
    runs, hi = [], lo + 1
    while lo < hi:
        runs.append(slice(lo, hi))
        lo, hi = (int(tree.first_child[lo]),
                  int(tree.first_child[hi - 1] + tree.n_children[hi - 1]))
    # parent and first_child follow from n_children on first read
    sub = Tree.__new__(Tree)
    sub._starts = [0, *accumulate(r.stop - r.start for r in runs)]
    sub.orig_ids = np.concatenate([np.arange(r.start, r.stop) for r in runs])
    sub.n_children, sub.tail, sub.mult = (
        None if x is None else np.concatenate([x[r] for r in runs])
        for x in (tree.n_children, tree.tail, tree.mult))
    if tree.labels is not None:
        sub.labels = list(chain.from_iterable(tree.labels[r] for r in runs))
    sub.continuation = tree.continuation
    return sub


def require_edge(tree, i):
    """Edge id i as an int, or KeyError unless i is a whole number in
    [0, n_edges): 3.0 is edge 3; 3.5, nan, -1 (numpy wraps) and True
    are not."""
    if _is_real(i) and 0 <= i < tree.n_edges and i == int(i):
        return int(i)
    shown = int(i) if isinstance(i, float) and i.is_integer() else i
    raise KeyError(f"edge id {shown} out of range")


def edge_ids(tree, ids, allowed, what):
    """ids as an int64 array, each an edge where the bool array allowed
    holds.  They are read as floats, so 3.0 is edge 3 but 3.9 is refused
    where an int64 read would truncate it to 3, and so is a bool or a
    string, which the float read would take for 1 or for its number."""
    if not isinstance(ids, Collection):
        ids = list(ids)
    # one pass over the types; the rule then reads one id of each type
    types = set(map(type, ids))
    if not all(_is_real(next(v for v in ids if type(v) is t)) for t in types):
        v = next(filterfalse(_is_real, ids))
        raise ValueError(f"edge {v!r} is not a {what}")
    x = np.fromiter(ids, dtype=float)
    ok = (x >= 0) & (x < tree.n_edges) & (x == np.floor(x))
    ok[ok] = allowed[x[ok].astype(np.int64)]
    if not ok.all():
        v = x[~ok][0]
        raise ValueError(f"edge {int(v) if v.is_integer() else v} is not "
                         f"a {what}")
    return x.astype(np.int64)


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
    E = edge_ids(tree, boundary_set, tree.true_leaf_mask(), "true leaf")
    if not E.size:
        raise ValueError("empty boundary set spans nothing")
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
    """The largest violation and where it sits, from is_forward_additive."""

    ok: bool
    max_violation: float
    worst_edge: int | None
    residuals: np.ndarray = field(default=None, repr=False)


def require_int(name, v):
    """v as an int, or ValueError naming it unless v is an integer,
    numpy's included, and not a bool."""
    if not _is_int(v):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def require_tolerance(tol):
    """Raise ValueError unless tol >= 0; NaN fails the test as well."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")


def is_forward_additive(tree, f, tol=1e-12):
    """Check f(alpha) = sum of f over children at every non-leaf edge;
    residuals holds the signed f - sum there and 0 elsewhere."""
    require_tolerance(tol)
    f = np.asarray(f, dtype=float)
    w = f[1:] if tree.mult is None else f[1:] * tree.mult[1:]
    S = np.bincount(tree.parent[1:], weights=w, minlength=tree.n_edges)
    r = np.where(tree.n_children > 0, f - S, 0.0)
    i = int(np.argmax(np.abs(r)))
    worst = float(abs(r[i]))
    return AdditivityReport(worst <= tol, worst, None if worst == 0.0 else i,
                            r)


# ---------------------------------------------------------------------------
# boundary measures


class _Recipe:
    """A field's value before its first read, built by make(obj, *args):
    module-level make and array args, so its holder pickles."""

    def __init__(self, make, *args):
        self.make, self.args = make, args

    __repr__ = lambda r: "<unread>"  # as _repr_unread shows it


class _BuiltOnRead:
    """Field descriptor: a stored _Recipe is built on the first read and
    kept, so later reads return that object, and with as_list so is a
    stored array's list ([] at once if empty); other values are as given."""

    def __init__(self, as_list=False):
        self.as_list = as_list

    def __set_name__(self, owner, name):
        self.key = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:  # a dataclass asks for a default: there is none
            raise AttributeError(self.key)
        v = obj.__dict__[self.key]
        if isinstance(v, _Recipe):
            v = obj.__dict__[self.key] = v.make(obj, *v.args)
        elif self.as_list and isinstance(v, np.ndarray):
            v = obj.__dict__[self.key] = v.tolist()
        return v

    def __set__(self, obj, v):
        empty = self.as_list and isinstance(v, np.ndarray) and not v.size
        obj.__dict__[self.key] = [] if empty else v


def _repr_unread(obj):
    """The dataclass repr of obj from the values it holds: an unbuilt
    field shows as <unread>, and a repr builds nothing."""
    d = obj.__dict__
    shown = (f"{f.name}={d.get('_' + f.name, d.get(f.name))!r}"
             for f in fields(obj) if f.repr)
    return f"{type(obj).__qualname__}({', '.join(shown)})"


def _spread(obj, levels):
    return obj.tree.from_levels(levels)


def stored_levels(obj, name, tree):
    """The levels obj.name spreads over tree on first read, until then."""
    v = getattr(obj, "__dict__", {}).get("_" + name)
    return v.args[0] if isinstance(v, _Recipe) and obj.tree is tree else None


def _refuse_masses(m, ok, ids=None):
    """Name the first edge, ids[j] or else j, whose mass m[j] fails ok."""
    if not ok.all():
        j = int(np.argmin(ok))
        raise ValueError(f"edge {j if ids is None else ids[j]} has mass "
                         f"{m[j]}, not a finite number >= 0")


class BoundaryMeasure:
    """Finite measure on the boundary, stored as its co-potential M.  A
    level-backed one, given M as _Recipe(_spread, levels), spreads M
    over the edges on first read; at() and total_mass read the levels."""

    M = _BuiltOnRead()

    def __init__(self, tree, co_potential, validate=True, tol=1e-9):
        self.tree = tree
        self.M = (co_potential if isinstance(co_potential, _Recipe)
                  else np.asarray(co_potential, dtype=float))
        if validate:
            if self.M.shape != (tree.n_edges,):
                raise ValueError("co-potential must cover every edge")
            _refuse_masses(self.M, np.isfinite(self.M))
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
        """Additivize leaf masses {id: mass} upward into a co-potential."""
        ids = edge_ids(tree, masses, tree.n_children == 0, "leaf")
        m = np.fromiter(masses.values(), dtype=float, count=len(masses))
        _refuse_masses(m, np.isfinite(m) & (m >= 0), ids)
        at_leaf = np.zeros(tree.n_edges)
        at_leaf[ids] = m
        M, _ = tree.sweep_up(lambda a, b, S: at_leaf[a:b] + S)
        return cls(tree, M, validate=False)

    def at(self, ids):
        """M[ids] for edge ids, read from the levels while M is unbuilt."""
        levels = stored_levels(self, "M", self.tree)
        if levels is None:
            return self.M[ids]
        return levels[np.searchsorted(self.tree._starts, ids, "right") - 1]

    @property
    def total_mass(self):
        return float(self.at(0))

    def leaf_masses(self):
        ids = np.flatnonzero((self.tree.n_children == 0) & (self.M != 0.0))
        return dict(zip(ids.tolist(), self.M[ids].tolist()))

    def support_leaves(self, tol=0.0):
        return frozenset(np.flatnonzero(
            (self.tree.n_children == 0) & (self.M > tol)).tolist())


def co_potential(tree, measure):
    """The co-potential array of a BoundaryMeasure, or of an array of
    per-edge masses, checked to hold one finite value per edge of tree."""
    M = measure.M if isinstance(measure, BoundaryMeasure) else measure
    M = np.asarray(M, dtype=float)
    if M.shape != (tree.n_edges,):
        raise ValueError("measure length does not match the tree")
    _refuse_masses(M, np.isfinite(M))
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
    """A JSON integer, or a float with an integral value; bools, strings,
    fractional values, NaN and infinity are refused."""
    if _is_real(x) and -np.inf < x < np.inf and int(x) == x:
        return int(x)
    # JSON reads a number beyond the float range, such as 1e400, as inf
    why = (" (a number beyond the float range reads as infinity)"
           if x in (np.inf, -np.inf) else "")
    raise ValueError(f"tree spec {field!r} holds {x!r}, not an integer{why}")


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
    if tree.spec is not None and not isinstance(tree.spec, Explicit):
        out = {"spec": spec_to_json(tree.spec)}
        if tree.continuation is not None:  # set exactly when truncated
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
    records = obj.get("edges")
    if not isinstance(records, list):
        raise TreeStructureError(
            f'"edges" holds {records!r}, not an array of edge records'
            if "edges" in obj else 'a tree needs a "spec" or an "edges" array')
    root = obj.get("root")
    if root is not None and type(root) not in _LABEL_TYPES:
        raise TreeStructureError(
            f'"root" holds {root!r}, not a string or number')
    # each field is read by one map over the records and checked by one
    # pass over its types: no Python loop per record, and no tuple per
    # record for the garbage collector to trace.  The labels are checked
    # on the built tree, which holds each id and child once; whatever
    # fails, a malformed record is named first
    try:
        ids = list(map(dict.get, records, repeat("id")))
        kids = list(map(dict.get, records, repeat("children"), repeat(())))
        tails = list(map(dict.get, records, repeat("tail"), repeat(False)))
        if not (_only(kids, {list, tuple}) and _only(tails, {bool})):
            raise TypeError("malformed edge record")
        adjacency = dict(zip(ids, kids))
        if len(adjacency) != len(records):
            counts = Counter(ids)
            twice = next(e for e, k in counts.items() if k > 1)
            raise TreeStructureError(
                f"edge {twice!r} has more than one record")
        tree = Tree.from_adjacency(adjacency, root=root,
                                   tails=list(compress(ids, tails)))
        if not _only(tree.labels, _LABEL_TYPES):
            raise TypeError("malformed edge record")
    except (TypeError, TreeStructureError):
        _raise_first_bad_record(records)
        raise
    return tree


# the JSON types of an edge label: bool is not one, though an int in Python;
# a type set, so _only checks a file's labels in one pass, not per label
_LABEL_TYPES = {str, int, float}


def _only(values, types):
    return set(map(type, values)) <= types


def _raise_first_bad_record(records):
    """Name the first edge record that is not an object with a string or
    number "id", an optional array "children" of strings and numbers
    and an optional boolean "tail"."""
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise TreeStructureError(f"edges[{i}] holds {rec!r}, not an object")
        if "id" not in rec:
            raise TreeStructureError(f'edges[{i}] has no "id"')
        for name, ok, what in (
                ("id", type(rec["id"]) in _LABEL_TYPES, "a string or number"),
                ("children", type(rec.get("children", ())) in (list, tuple)
                 and _only(rec.get("children", ()), _LABEL_TYPES),
                 "an array of strings or numbers"),
                ("tail", type(rec.get("tail", False)) is bool,
                 "true or false")):
            if not ok:
                raise TreeStructureError(
                    f'edges[{i}]: "{name}" holds {rec[name]!r}, not {what}')


def edge_function_from_mapping(tree, mapping):
    """Mapping {edge label: value} to an array; absent edges read 0."""
    f = np.zeros(tree.n_edges)
    for lab, v in mapping.items():
        f[tree.id_of_label(lab)] = float(v)
    return f


def edge_function_to_mapping(tree, f, keep_zero=False):
    """Array to {str(edge label): value}, in id order; zeros are
    dropped unless keep_zero.  Two labels with one text, such as 1 and
    "1", write one key, the later edge's value; _json_edge_mapping
    refuses that for JSON output."""
    f = np.asarray(f, dtype=float)
    ids = np.arange(tree.n_edges) if keep_zero else np.flatnonzero(f)
    labels = ids.tolist()
    if tree.labels is not None:
        labels = map(tree.labels.__getitem__, labels)
    return dict(zip(map(str, labels), f[ids].tolist()))


def _json_edge_mapping(tree, f, keep_zero=False):
    """edge_function_to_mapping for a JSON document.  Two labels with
    one text, such as 1 and "1", raise ValueError rather than write one
    key for two edges."""
    out = edge_function_to_mapping(tree, f, keep_zero)
    if len(out) != (tree.n_edges if keep_zero else np.count_nonzero(f)):
        ids = np.arange(tree.n_edges) if keep_zero else np.flatnonzero(f)
        seen = {}
        for lab in map(tree.labels.__getitem__, ids.tolist()):
            other = seen.setdefault(str(lab), lab)
            if other is not lab:
                raise ValueError(f"edge labels {other!r} and {lab!r} "
                                 "both write the JSON key "
                                 f"{str(lab)!r}")
    return out
