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

import io
from dataclasses import dataclass, field

import numpy as np

from .characterization import verify_equilibrium
from .potential import potential_all
from .trees import BoundaryMeasure


@dataclass(frozen=True)
class TilingSquare:
    edge: int
    x: float
    y: float
    side: float

    def to_json(self):
        return {"edge": self.edge, "x": self.x, "y": self.y,
                "side": self.side}


@dataclass
class Tiling:
    tree: object
    width: float
    height: float
    squares: list

    def square_of(self, edge):
        for s in self.squares:
            if s.edge == edge:
                return s
        return None

    def area_defect(self):
        return abs(sum(s.side ** 2 for s in self.squares)
                   - self.width * self.height)

    def to_json(self):
        return {
            "width": self.width,
            "height": self.height,
            "squares": [s.to_json() for s in
                        sorted(self.squares, key=lambda s: (s.y, s.x))],
        }


def build_tiling(tree, measure, tol=1e-9):
    """Tiling of the width x 1 rectangle from an equilibrium measure
    (p = 2 only; for other exponents the side/potential bookkeeping
    does not close up into squares).

    The measure must pass verify_equilibrium at tol; squares of mass
    zero are dropped, which cannot orphan anything since a child mass
    never exceeds its parent's.
    """
    if isinstance(measure, BoundaryMeasure):
        M = measure.M
    else:
        M = np.asarray(measure, dtype=float)
    rep = verify_equilibrium(tree, M, 2, tol=tol)
    if not rep.is_equilibrium:
        raise ValueError(
            "not an equilibrium measure at p = 2: max residual "
            f"{rep.max_residual:.3e}, undetermined tails "
            f"{rep.undetermined}")
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
    squares = [TilingSquare(edge=i, x=xi, y=yi, side=side)
               for i, xi, yi, side in zip(ids.tolist(), x[ids].tolist(),
                                          y[ids].tolist(), M[ids].tolist())]
    return Tiling(tree=tree, width=float(M[tree.root]), height=1.0,
                  squares=squares)


@dataclass
class TilingReport:
    ok: bool
    containment_defect: float
    max_overlap: float
    area_defect: float
    adjacency_defect: float
    n_squares: int
    messages: list = field(default_factory=list)

    def to_json(self):
        return {
            "ok": self.ok,
            "containment_defect": self.containment_defect,
            "max_overlap": self.max_overlap,
            "area_defect": self.area_defect,
            "adjacency_defect": self.adjacency_defect,
            "n_squares": self.n_squares,
            "messages": list(self.messages),
        }


def validate_tiling(tiling, tol=1e-9):
    """Geometric validation: every square inside the rectangle, no two
    squares overlapping in their interiors, total area equal to the
    rectangle's, and each square resting exactly on the bottom edge of
    its parent square within the parent's horizontal extent."""
    w, h = tiling.width, tiling.height
    msgs = []

    containment = 0.0
    for s in tiling.squares:
        containment = max(containment,
                          -s.x, -s.y, s.x + s.side - w, s.y + s.side - h)
        if s.side <= 0:
            msgs.append(f"square {s.edge} has nonpositive side")
    if containment > tol:
        msgs.append(f"a square leaves the rectangle by {containment:.3e}")

    # sweep by top edge; only squares overlapping in y can collide
    order = sorted(tiling.squares, key=lambda s: s.y)
    active = []
    max_overlap = 0.0
    for s in order:
        active = [a for a in active if a.y + a.side > s.y + tol]
        for a in active:
            dx = min(a.x + a.side, s.x + s.side) - max(a.x, s.x)
            dy = min(a.y + a.side, s.y + s.side) - max(a.y, s.y)
            if dx > tol and dy > tol:
                max_overlap = max(max_overlap, min(dx, dy))
                msgs.append(f"squares {a.edge} and {s.edge} overlap "
                            f"by {min(dx, dy):.3e}")
        active.append(s)
    area_defect = abs(sum(s.side ** 2 for s in tiling.squares) - w * h)
    if area_defect > tol * max(1.0, w * h):
        msgs.append(f"area defect {area_defect:.3e}")

    # each square hangs off the bottom of its parent's square
    tree = tiling.tree
    by_edge = {s.edge: s for s in tiling.squares}
    adjacency = 0.0
    for s in tiling.squares:
        if s.edge == tree.root:
            adjacency = max(adjacency, abs(s.y))
            continue
        par = by_edge.get(tree.parent_of(s.edge))
        if par is None:
            msgs.append(f"square {s.edge} has no parent square")
            adjacency = max(adjacency, float("inf"))
            continue
        adjacency = max(adjacency,
                        abs(s.y - (par.y + par.side)),
                        par.x - s.x, s.x + s.side - (par.x + par.side))
    if adjacency > tol:
        msgs.append(f"parent adjacency broken by {adjacency:.3e}")

    ok = (containment <= tol and max_overlap == 0.0
          and area_defect <= tol * max(1.0, w * h) and adjacency <= tol)
    return TilingReport(ok=bool(ok), containment_defect=float(containment),
                        max_overlap=float(max_overlap),
                        area_defect=float(area_defect),
                        adjacency_defect=float(adjacency),
                        n_squares=len(tiling.squares), messages=msgs)


def measure_from_tiling(tree, tiling, tol=1e-9):
    """Invert a tiling back into its boundary measure.

    Checks the parent adjacency combinatorics first, then rebuilds the
    co-potential from the square sides and verifies the equilibrium
    identity.  Returns (measure, report)."""
    geo = validate_tiling(tiling, tol=tol)
    if not geo.ok:
        raise ValueError("tiling fails validation: " + "; ".join(geo.messages))
    M = np.zeros(tree.n_edges)
    for s in tiling.squares:
        M[s.edge] = s.side
    mu = BoundaryMeasure(tree, M, validate=True, tol=tol)
    rep = verify_equilibrium(tree, mu, 2, tol=tol)
    return mu, rep


def tiling_to_json(tiling):
    return tiling.to_json()


def tiling_from_json(tree, obj):
    squares = [TilingSquare(edge=int(s["edge"]), x=float(s["x"]),
                            y=float(s["y"]), side=float(s["side"]))
               for s in obj["squares"]]
    return Tiling(tree=tree, width=float(obj["width"]),
                  height=float(obj["height"]), squares=squares)


def emit_svg(tiling, labels=False, scale=512.0):
    """Deterministic SVG rendering; squares are drawn sorted by (y, x)
    so identical tilings serialize identically."""
    w = tiling.width * scale
    h = tiling.height * scale
    out = io.StringIO()
    out.write('<svg xmlns="http://www.w3.org/2000/svg" '
              f'width="{w:.6g}" height="{h:.6g}" '
              f'viewBox="0 0 {w:.6g} {h:.6g}">\n')
    out.write(f'<rect x="0" y="0" width="{w:.6g}" height="{h:.6g}" '
              'fill="none" stroke="black"/>\n')
    for s in sorted(tiling.squares, key=lambda s: (s.y, s.x)):
        out.write(f'<rect x="{s.x * scale:.8g}" y="{s.y * scale:.8g}" '
                  f'width="{s.side * scale:.8g}" '
                  f'height="{s.side * scale:.8g}" '
                  'fill="none" stroke="black" stroke-width="0.5"/>\n')
        if labels:
            out.write(f'<text x="{(s.x + s.side / 2) * scale:.8g}" '
                      f'y="{(s.y + s.side / 2) * scale:.8g}" '
                      'font-size="8" text-anchor="middle">'
                      f'{tiling.tree.label_of(s.edge)}</text>\n')
    out.write('</svg>\n')
    return out.getvalue()
