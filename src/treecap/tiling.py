"""Square tilings of rectangles from boundary equilibrium measures.

For p = 2 the equilibrium measure of a finite boundary turns into a
tiling of the [0, c] x [0, 1] rectangle by squares, one per edge with
mass: the square of edge a has side M(a), its top edge sits at the
potential of b(a), and siblings are laid side by side over their
parent in edge-id order.  The total square area recovers the energy
identity sum M(a)^2 = c * 1, and the sides of the squares along any
root-to-leaf path sum to the height, so the geometry is a faithful
certificate of the measure being an equilibrium.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from operator import itemgetter

import numpy as np

from .characterization import verify_equilibrium
from .potential import _Report, potential_all
from .trees import (BoundaryMeasure, _is_int, co_potential,
                    require_tolerance)

SVG_SCALE = 512.0  # pixels per unit length in emit_svg
# a type set, as _edge_column checks a column's types in one pass, not per id
_BOOLS = {bool, np.bool_}


@dataclass(frozen=True)
class TilingSquare(_Report):
    """One square of a tiling: its edge, top left corner and side."""

    edge: int
    x: float
    y: float
    side: float


class Tiling:
    """A tiling of the width x height rectangle as four columns indexed
    by square: the int array edge, and the float arrays x, y (the top
    left corner) and side.  Ids that numpy cannot hold as ints (floats,
    strings, ints beyond int64) and bools stay as given in an object
    array, which validate_tiling reports as naming no edge of the tree.

    Tiling(tree, width, height, squares) takes the columns from a list
    of TilingSquare and keeps no reference to it; `squares` is built
    from the columns on first use.
    """

    def __init__(self, tree, width, height, squares):
        self.tree, self.width, self.height = tree, width, height
        self.edge = _edge_column([s.edge for s in squares])
        self.x = _floats([s.x for s in squares])
        self.y = _floats([s.y for s in squares])
        self.side = _floats([s.side for s in squares])

    @classmethod
    def _of_columns(cls, tree, width, height, edge, x, y, side):
        til = cls.__new__(cls)
        til.tree, til.width, til.height = tree, width, height
        til.edge, til.x, til.y, til.side = edge, x, y, side
        return til

    squares = cached_property(lambda t: list(map(
        TilingSquare, t.edge.tolist(), t.x.tolist(), t.y.tolist(),
        t.side.tolist())))

    def area_defect(self):
        # square by square: numpy's square rounds differently from ** and
        # would move the last bits of the report; map runs the same **
        # without a generator frame per square.  The sum runs in edge-id
        # order, so the report does not depend on square order; ids that
        # are not ints fail validation anyway and keep their stored order.
        side = self.side
        if self.edge.dtype.kind == "i":
            side = side[np.argsort(self.edge, kind="stable")]
        return abs(sum(map(pow, side.tolist(), repeat(2)))
                   - self.width * self.height)

    def _in_drawing_order(self):
        """The four columns sorted by (y, x), stably."""
        order = np.lexsort((self.x, self.y))
        return [v[order] for v in (self.edge, self.x, self.y, self.side)]

    def to_json(self):
        edge, x, y, side = (v.tolist() for v in self._in_drawing_order())
        return {
            "width": self.width,
            "height": self.height,
            "squares": [{"edge": e, "x": xi, "y": yi, "side": si}
                        for e, xi, yi, si in zip(edge, x, y, side)],
        }


def build_tiling(tree, measure, tol=1e-9):
    """Tiling of the width x 1 rectangle from an equilibrium measure
    (p = 2 only; for other exponents the side/potential bookkeeping
    does not close up into squares).

    The measure must pass verify_equilibrium at tol; squares of mass
    zero are dropped, which cannot orphan anything since a child mass
    never exceeds its parent's.  tol must be >= 0.
    """
    rep = verify_equilibrium(tree, measure, 2, tol=tol)
    if not rep.is_equilibrium:
        raise ValueError(
            "not an equilibrium measure at p = 2: max residual "
            f"{rep.max_residual:.3e}, undetermined tails "
            f"{_first_ids(rep.undetermined)}")
    M = co_potential(tree, measure)
    if M[tree.root] <= 0.0:
        raise ValueError("zero measure tiles nothing")

    # p = 2: a square's top sits at the potential of M at its begin vertex
    y = potential_all(tree, M).begin_values(tree)
    # siblings sit side by side in id order, the first at its parent's x:
    # offset each edge by the mass of its earlier siblings, then add up
    # the offsets along the predecessor path
    before = np.concatenate(([0.0], np.cumsum(M)[:-1]))
    offset = np.zeros(tree.n_edges)
    offset[1:] = before[1:] - before[tree.first_child[tree.parent[1:]]]
    x = tree.push_down(offset, np.add)

    ids = np.flatnonzero(M)
    return Tiling._of_columns(tree, float(M[tree.root]), 1.0,
                              ids, x[ids], y[ids], M[ids])


@dataclass
class TilingReport(_Report):
    """Containment, overlap, area and adjacency defects of a tiling."""

    ok: bool
    containment_defect: float
    max_overlap: float
    area_defect: float
    adjacency_defect: float
    n_squares: int
    messages: list = field(default_factory=list)


def _id_text(i):
    """An id as messages print it: an int (not a bool) plainly, anything
    else by repr, so the string '1' reads apart from the edge 1."""
    return str(i) if _is_int(i) else repr(i)


def _first_ids(ids, limit=10):
    """Count and first `limit` ids of a sequence, so messages stay short."""
    head = ", ".join(map(_id_text, ids[:limit]))
    return f"{len(ids)} [{head}{', ...' if len(ids) > limit else ''}]"


def _floats(values):
    """values as a 1-d float array; a number beyond the float range (a
    huge Python int) reads as NaN, so it fails the finiteness check."""
    try:
        return np.fromiter(values, dtype=float, count=len(values))
    except OverflowError:
        return np.array([v if abs(v) <= sys.float_info.max else np.nan
                         for v in values], dtype=float)


def _edge_column(ids):
    """Edge ids as an int array, or as given in an object array when
    numpy cannot hold them all as ints or some are bools, which numpy
    would read as 0 and 1."""
    e = np.array(ids)
    if e.dtype.kind != "i" or not _BOOLS.isdisjoint(map(type, ids)):
        e = np.empty(len(ids), dtype=object)
        e[:] = ids
    return e


def _worst(*defects):
    """Largest entry of the defect arrays, at least 0.0; NaN counts as
    an infinite defect, so it cannot slip past a comparison with tol."""
    top = [0.0] + [float(v.max()) for v in defects if v.size]
    return float("inf") if np.isnan(top).any() else max(top)


def validate_tiling(tiling, tol=1e-9):
    """Geometric validation: every square inside the rectangle, no two
    squares overlapping in their interiors, total area equal to the
    rectangle's, and each square resting exactly on the bottom edge of
    its parent square within the parent's horizontal extent.  Every
    coordinate must be finite, every side positive, and every square
    must name its own edge of the tree.  The tree supplies each edge's
    parent and level and nothing else; overlap is judged from raw
    geometry alone.  ok holds exactly when no check left a message.
    tol must be >= 0.

    Two squares overlap when their x-intersection and y-intersection,
    min(right) - max(x) and min(bottom) - max(y) in floats, both exceed
    tol.  A square whose own width or height is within tol overlaps
    nothing.

    Nested certificate.  A tiling built from a measure nests: children
    sit side by side under their parent.  Whole-array tests can prove
    that such a tiling has no overlap.  Let d be the largest level among
    the squares and delta = tol / (2 (d + 1)), or 0 where that quotient
    is below the normal float range.  The certificate holds when every
    square is finite, has a positive side and names its own edge, every
    non-root square's parent edge has a square, and these float
    differences are all at most delta:
      x[p] - x[c], right[c] - right[p] and bottom[p] - y[c] for each
      square c with parent square p;
      right[s] - x[t] for siblings s, t consecutive in id order;
    and x[s] <= x[t] for those s and t, so x never falls along siblings
    in id order.
    A computed difference at most delta means the exact one is at most
    delta' = delta / (1 - u), u = 2^-53; a subnormal difference is exact.
    Rounding is monotone and sides are positive, so right >= x and
    bottom >= y.  Take two squares a and b.
      - a an ancestor of b: the path between them has k <= d steps, all
        squares, and y[b] >= bottom[a] - k delta' along it.  So they
        meet in y by at most d delta'.
      - otherwise: let s and t be the children of their lowest common
        ancestor on the paths to a and b, with s first in id order.  x
        does not fall from the next sibling of s to t, so
        right[s] - x[t] <= right[s] - x[next sibling of s] <= delta'.
        a lies within (d - 1) delta' of s in x, b within that of t.  So
        they meet in x by at most (2d - 1) delta'.
    With the rounding of delta and of the intersection itself, either
    bound stays below tol (2d - 1) / (2d + 2) (1 + 4u), under tol for
    every d below 10^15.  So no pair overlaps, and the sweep below would
    find nothing.  BFS ids give siblings contiguous ids, so the
    certificate reads them in the edge -> square order validation builds
    anyway: it sorts nothing and takes a few differences.

    Sweep fallback.  When the certificate fails, the sized squares are
    swept in order of their top edge, in O(n log n): the active squares
    are kept in a list ordered by (x, index), and a square leaves it
    once its bottom is within tol of the sweep line.  Invariant: until
    the first overlap, the active squares pairwise intersect by more
    than tol in y, so their x-intersections are at most tol, and their
    right edges increase along the list.  A new square can then overlap
    only its x-predecessor and the successors that start before its
    right edge, so the first overlapping square is always found and ok
    is exact.  The sweep stops after that square: max_overlap and the
    overlap messages cover its overlaps with earlier squares only."""
    require_tolerance(tol)
    w, h = _floats([tiling.width, tiling.height]).tolist()
    edge, x, y, side = tiling.edge, tiling.x, tiling.y, tiling.side
    msgs = []

    def flag(what, ids):  # name the offending squares or edges, if any
        if len(ids):
            msgs.append(f"{what}: {_first_ids(ids)}")

    finite = np.isfinite(x) & np.isfinite(y) & np.isfinite(side)
    with np.errstate(invalid="ignore", over="ignore"):
        right, bottom = x + side, y + side
    nonfinite = np.flatnonzero(~finite)
    flag("squares with non-finite geometry", edge[nonfinite])
    if not np.isfinite([w, h]).all():
        msgs.append(f"rectangle {w} x {h} is not finite")
    nonpositive = np.flatnonzero(side <= 0)
    flag("squares with nonpositive side", edge[nonpositive])

    # every square names a distinct edge of the tree
    tree = tiling.tree
    n_edges = tree.n_edges
    e = edge
    if e.dtype.kind != "i":  # ids numpy cannot hold as ints
        e = np.array([v if _is_int(v) and 0 <= v < n_edges else -1
                      for v in edge], dtype=np.int64)
    known = (e >= 0) & (e < n_edges)
    flag("squares naming no edge of the tree", edge[~known])
    held = np.flatnonzero(known)
    repeated = np.flatnonzero(np.bincount(e[held], minlength=n_edges) > 1)
    flag("edges with more than one square", repeated)

    # each held square's parent square: -1 at the root and for orphans
    slot = np.full(n_edges, -1)
    slot[e[held]] = held
    par = tree.parent[e[held]]
    is_root = par < 0
    par_slot = np.where(is_root, -1, slot[par])
    orphans = held[~is_root & (par_slot < 0)]
    # how far each square c sticks out of its parent square pc, on the
    # left, on the right and above
    c = held[par_slot >= 0]
    pc = par_slot[par_slot >= 0]
    with np.errstate(invalid="ignore", over="ignore"):
        sticks_out = (x[pc] - x[c], right[c] - right[pc], bottom[pc] - y[c])
        containment = _worst(-x, -y, right - w, bottom - h)
    if containment > tol:
        msgs.append(f"a square leaves the rectangle by {containment:.3e}")

    nested = (known.all() and not (
        nonfinite.size or nonpositive.size or repeated.size or orphans.size)
        and _nests(x, right, par_slot, slot[slot >= 0],
                   tree.level_of(e.max(initial=0)), sticks_out, tol))
    max_overlap = 0.0
    for a, b, amount in ([] if nested else
                         _first_overlaps(x, y, right, bottom, finite, tol)):
        max_overlap = max(max_overlap, amount)
        msgs.append(f"squares {_id_text(edge[a])} and {_id_text(edge[b])} "
                    f"overlap by {amount:.3e}")

    try:
        area_defect = tiling.area_defect()
    except OverflowError:  # ** raises where a product would give inf
        area_defect = float("inf")
    if np.isnan(area_defect):
        area_defect = float("inf")
    if area_defect > tol * max(1.0, w * h):
        msgs.append(f"area defect {area_defect:.3e}")

    # each square hangs off the bottom of its parent's square
    flag("squares with no parent square", edge[orphans])
    left_out, right_out, above = sticks_out
    adjacency = float("inf") if orphans.size else _worst(
        np.abs(y[held[is_root]]), np.abs(above), left_out, right_out)
    if adjacency > tol:
        msgs.append(f"parent adjacency broken by {adjacency:.3e}")

    return TilingReport(ok=not msgs, containment_defect=float(containment),
                        max_overlap=float(max_overlap),
                        area_defect=float(area_defect),
                        adjacency_defect=float(adjacency),
                        n_squares=len(edge), messages=msgs)


def _nests(x, right, par_slot, by_id, depth, sticks_out, tol):
    """The nested certificate of validate_tiling, for squares that are
    finite with positive sides and name distinct edges, none below level
    depth; par_slot[i] is the index of square i's parent square, -1 at
    the root and nowhere else, by_id lists the squares in edge-id order,
    and sticks_out holds the three parent differences of
    validate_tiling.  True proves that no two squares overlap; False
    proves nothing."""
    delta = tol / (2.0 * (depth + 1))
    if delta < sys.float_info.min:  # a subnormal may round up by far more
        delta = 0.0
    s, t = by_id[:-1], by_id[1:]
    siblings = par_slot[s] == par_slot[t]
    s, t = s[siblings], t[siblings]
    with np.errstate(invalid="ignore", over="ignore"):
        return bool(all((d <= delta).all() for d in sticks_out)
                    and (x[s] <= x[t]).all()
                    and (right[s] - x[t] <= delta).all())


def _first_overlaps(x, y, right, bottom, finite, tol):
    """The sweep of validate_tiling: (a, b, overlap) for each earlier
    square a that the first overlapping square b overlaps, in sweep
    order; nothing when no two squares overlap.  Only the `finite`
    squares wider and taller than tol take part."""
    with np.errstate(invalid="ignore", over="ignore"):
        sized = finite & (right - x > tol) & (bottom - y > tol)
    cand = np.flatnonzero(sized)
    by_y = cand[np.argsort(y[cand], kind="stable")].tolist()
    by_x = cand[np.lexsort((cand, x[cand]))]
    rank = np.empty(len(x), dtype=np.intp)
    rank[by_x] = np.arange(by_x.size)
    # an unswept square's bottom is more than tol below the sweep line,
    # so squares leave in bottom order only after they entered
    by_bottom = cand[np.argsort(bottom[cand], kind="stable")].tolist()
    by_x, rank = by_x.tolist(), rank.tolist()
    x, y, right, bottom = (v.tolist() for v in (x, y, right, bottom))

    active = []  # ranks in (x, index) order of the squares on the line
    left = 0
    for b in by_y:
        yb, xb, rb = y[b], x[b], right[b]
        while left < len(by_bottom) and bottom[by_bottom[left]] - yb <= tol:
            del active[bisect_left(active, rank[by_bottom[left]])]
            left += 1
        # every active square meets b by more than tol in y, so only the
        # x-intersection decides; it shrinks away from b's slot
        at = bisect_left(active, rank[b])
        hits = []
        k = at - 1
        while k >= 0 and right[by_x[active[k]]] - xb > tol:
            hits.append(by_x[active[k]])
            k -= 1
        k = at
        while k < len(active) and rb - x[by_x[active[k]]] > tol:
            hits.append(by_x[active[k]])
            k += 1
        if hits:
            hits.sort(key=lambda a: (y[a], a))
            return [(a, b, min(min(right[a], rb) - max(x[a], xb),
                               min(bottom[a], bottom[b]) - max(y[a], yb)))
                    for a in hits]
        active.insert(at, rank[b])
    return []


def measure_from_tiling(tree, tiling, tol=1e-9):
    """Invert a tiling back into its boundary measure.

    Checks the parent adjacency combinatorics first, then rebuilds the
    co-potential from the square sides and verifies the equilibrium
    identity.  Returns (measure, report); tol must be >= 0, and the
    tiling must be one of tree."""
    if tiling.tree.n_edges != tree.n_edges:
        raise ValueError("the tiling was made on another tree: "
                         f"{tiling.tree.n_edges} edges, not {tree.n_edges}")
    geo = validate_tiling(tiling, tol=tol)
    if not geo.ok:
        raise ValueError("tiling fails validation: " + "; ".join(geo.messages))
    M = np.zeros(tree.n_edges)
    # an object column may hold ids that validation read as ints
    M[tiling.edge.astype(np.intp)] = tiling.side
    mu = BoundaryMeasure(tree, M, validate=True, tol=tol)
    rep = verify_equilibrium(tree, mu, 2, tol=tol)
    return mu, rep


def tiling_from_json(tree, obj):
    """The Tiling of a JSON object as Tiling.to_json writes it, read as
    Tiling reads its columns: an edge id that is not an int names no
    edge, and a number beyond the float range is NaN."""
    edge, x, y, side = (list(map(itemgetter(k), obj["squares"]))
                        for k in ("edge", "x", "y", "side"))
    width, height = _floats([obj["width"], obj["height"]]).tolist()
    return Tiling._of_columns(tree, width, height, _edge_column(edge),
                              _floats(x), _floats(y), _floats(side))


def _xml_text(label):
    """label as XML character data.  The replacements are those of
    xml.sax.saxutils.escape, whose import pulls in urllib and costs a
    cold CLI run about 30 ms."""
    return (str(label).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def emit_svg(tiling, labels=False):
    """Deterministic SVG rendering at SVG_SCALE pixels per unit; squares
    are drawn sorted by (y, x), so identical tilings serialize alike.
    Labels are XML-escaped."""
    w = tiling.width * SVG_SCALE
    h = tiling.height * SVG_SCALE
    frame = ('<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{w:.6g}" height="{h:.6g}" '
             f'viewBox="0 0 {w:.6g} {h:.6g}">\n'
             f'<rect x="0" y="0" width="{w:.6g}" height="{h:.6g}" '
             'fill="none" stroke="black"/>\n')
    edge, x, y, side = tiling._in_drawing_order()
    # one template per square, filled by one % from a flat tuple
    square = ('<rect x="%.8g" y="%.8g" width="%.8g" height="%.8g" '
              'fill="none" stroke="black" stroke-width="0.5"/>\n')
    values = np.column_stack((x, y, side, side)) * SVG_SCALE
    if labels:
        square += ('<text x="%.8g" y="%.8g" '
                   'font-size="8" text-anchor="middle">%s</text>\n')
        # an object column: numpy strings would drop trailing NULs
        names = np.fromiter((_xml_text(tiling.tree.label_of(e))
                             for e in edge.tolist()), object, len(edge))
        values = np.column_stack((values, (x + side / 2) * SVG_SCALE,
                                  (y + side / 2) * SVG_SCALE, names))
    return (frame + square * len(edge) % tuple(values.ravel().tolist())
            + '</svg>\n')
