import json
import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from treecap import (
    BoundaryMeasure,
    Homogeneous,
    SphericallySymmetric,
    Tiling,
    TilingReport,
    TilingSquare,
    Tree,
    build_tiling,
    build_tree,
    capacity_of_set,
    capacity_recursive,
    emit_svg,
    measure_from_tiling,
    tiling_from_json,
    validate_tiling,
)


def fixture_tiling():
    t = build_tree(SphericallySymmetric([2]))
    r = capacity_recursive(t, 2)
    return t, r, build_tiling(t, r.measure)


def test_exact_fixture_geometry():
    t, r, til = fixture_tiling()
    assert til.width == pytest.approx(2 / 3, abs=1e-15)
    assert til.height == 1.0
    got = sorted((s.x, s.y, s.side) for s in til.squares)
    want = [(0.0, 0.0, 2 / 3), (0.0, 2 / 3, 1 / 3), (1 / 3, 2 / 3, 1 / 3)]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-15)


def test_validation_and_inversion():
    t, r, til = fixture_tiling()
    rep = validate_tiling(til)
    assert rep.ok
    assert rep.area_defect <= 1e-15
    assert rep.max_overlap == 0.0
    mu, ver = measure_from_tiling(t, til)
    assert np.allclose(mu.M, r.measure.M, atol=1e-15)
    assert ver.is_equilibrium


def test_gate_rejects_non_equilibrium():
    t = build_tree(SphericallySymmetric([2]))
    mu = BoundaryMeasure.from_leaf_masses(t, {1: 0.3, 2: 0.4})
    with pytest.raises(ValueError):
        build_tiling(t, mu)


def test_zero_mass_squares_dropped():
    t = build_tree(SphericallySymmetric([2, 2]))
    r = capacity_of_set(t, t.true_leaves()[:2], 2)
    til = build_tiling(t, r.measure)
    drawn = {s.edge for s in til.squares}
    assert 2 not in drawn  # empty branch contributes nothing
    assert validate_tiling(til).ok
    mu, ver = measure_from_tiling(t, til)
    assert ver.is_equilibrium
    assert np.allclose(mu.M, r.measure.M, atol=1e-15)


def test_validator_flags_overlap_and_adjacency():
    t, r, til = fixture_tiling()
    shifted = Tiling(tree=t, width=til.width, height=til.height,
                     squares=[til.squares[0],
                              til.squares[1],
                              TilingSquare(edge=2, x=0.2, y=2 / 3,
                                           side=1 / 3)])
    rep = validate_tiling(shifted)
    assert not rep.ok
    assert rep.max_overlap > 0
    hanging = Tiling(tree=t, width=til.width, height=til.height,
                     squares=[til.squares[0],
                              TilingSquare(edge=1, x=0.0, y=0.5, side=1 / 3),
                              til.squares[2]])
    rep = validate_tiling(hanging)
    assert not rep.ok
    assert rep.adjacency_defect > 1e-9
    missing = Tiling(tree=t, width=til.width, height=til.height,
                     squares=til.squares[1:])
    rep = validate_tiling(missing)
    assert not rep.ok  # children have no parent square


def test_validator_flags_area_and_containment():
    t, r, til = fixture_tiling()
    shrunk = Tiling(tree=t, width=1.0, height=1.0, squares=til.squares)
    rep = validate_tiling(shrunk)
    assert rep.area_defect > 1e-3
    outside = Tiling(tree=t, width=til.width, height=til.height,
                     squares=[TilingSquare(edge=0, x=-0.5, y=0.0,
                                           side=2 / 3)] + til.squares[1:])
    rep = validate_tiling(outside)
    assert rep.containment_defect >= 0.5


def test_json_roundtrip_and_svg():
    t, r, til = fixture_tiling()
    back = tiling_from_json(t, til.to_json())
    assert validate_tiling(back).ok
    assert [s.edge for s in sorted(back.squares, key=lambda s: s.edge)] == \
        [s.edge for s in sorted(til.squares, key=lambda s: s.edge)]
    svg = emit_svg(til, labels=True)
    assert svg == emit_svg(til, labels=True)  # deterministic
    assert svg.count("<rect") == len(til.squares) + 1
    assert svg.count("<text") == len(til.squares)


def test_deep_random_tilings():
    rng = np.random.default_rng(41)
    from helpers import random_tree
    for _ in range(10):
        tree = random_tree(rng, max_edges=120)
        r = capacity_recursive(tree, 2)
        til = build_tiling(tree, r.measure)
        assert validate_tiling(til, tol=1e-9).ok
        mu, ver = measure_from_tiling(tree, til)
        assert ver.is_equilibrium
        assert float(np.abs(mu.M - r.measure.M).max()) <= 1e-12


def reference_validate(tiling, tol=1e-9):
    """validate_tiling's definitions checked square by square and pair
    by pair, in O(n^2): the reference its sweep is tested against.
    Assumes finite geometry; max_overlap is over all pairs."""
    tree, w, h, squares = tiling.tree, tiling.width, tiling.height, \
        tiling.squares
    edges = [s.edge for s in squares]
    broken = (any(not 0 <= e < tree.n_edges for e in edges)
              or len(set(edges)) < len(edges)
              or any(s.side <= 0 for s in squares))
    containment = 0.0
    for s in squares:
        containment = max(containment, -s.x, -s.y,
                          s.x + s.side - w, s.y + s.side - h)
    max_overlap = 0.0
    for i, a in enumerate(squares):
        for s in squares[i + 1:]:
            dx = min(a.x + a.side, s.x + s.side) - max(a.x, s.x)
            dy = min(a.y + a.side, s.y + s.side) - max(a.y, s.y)
            if dx > tol and dy > tol:
                max_overlap = max(max_overlap, min(dx, dy))
    area_defect = abs(sum(s.side ** 2 for s in squares) - w * h)
    by_edge = {s.edge: s for s in squares}
    adjacency = 0.0
    for s in squares:
        if not 0 <= s.edge < tree.n_edges:
            continue
        if s.edge == tree.root:
            adjacency = max(adjacency, abs(s.y))
            continue
        par = by_edge.get(tree.parent_of(s.edge))
        if par is None:
            adjacency = float("inf")
            continue
        adjacency = max(adjacency, abs(s.y - (par.y + par.side)),
                        par.x - s.x, s.x + s.side - (par.x + par.side))
    ok = (not broken and containment <= tol and max_overlap == 0.0
          and area_defect <= tol * max(1.0, w * h) and adjacency <= tol)
    return TilingReport(ok=ok, containment_defect=containment,
                        max_overlap=max_overlap, area_defect=area_defect,
                        adjacency_defect=adjacency,
                        n_squares=len(squares), messages=[])


def perturbed(rng, til):
    """One square shifted, one resized, one duplicated, one dropped."""
    sq = til.squares
    out = []
    for kind in ("shift", "resize", "duplicate", "drop"):
        i = int(rng.integers(len(sq)))
        s = sq[i]
        if kind == "shift":
            along = rng.integers(2, size=2)  # x, y or both, or neither
            dx, dy = rng.uniform(-1, 1, size=2) * s.side * along
            moved = [TilingSquare(s.edge, s.x + dx, s.y + dy, s.side)]
            squares = sq[:i] + moved + sq[i + 1:]
        elif kind == "resize":
            grown = [TilingSquare(s.edge, s.x, s.y,
                                  s.side * rng.uniform(0.5, 1.5))]
            squares = sq[:i] + grown + sq[i + 1:]
        elif kind == "duplicate":
            squares = sq[:i] + [s] + sq[i:]
        else:
            squares = sq[:i] + sq[i + 1:]
        out.append(Tiling(tree=til.tree, width=til.width,
                          height=til.height, squares=squares))
    return out


def test_sweep_agrees_with_all_pairs_reference():
    rng = np.random.default_rng(20260101)
    from helpers import random_tree
    for _ in range(40):
        tree = random_tree(rng, max_edges=int(rng.integers(2, 200)))
        til = build_tiling(tree, capacity_recursive(tree, 2).measure)
        assert validate_tiling(til) == reference_validate(til)
        for bad in perturbed(rng, til):
            got, want = validate_tiling(bad), reference_validate(bad)
            assert got.ok == want.ok
            assert (got.max_overlap > 0) == (want.max_overlap > 0)
            assert got.ok or got.messages


def test_sweep_finds_overlaps_in_square_soups():
    # squares on a coarse grid: many exact touches and ties in x and y,
    # and squares narrower than tol, which overlap nothing
    rng = np.random.default_rng(7)
    tree = build_tree(SphericallySymmetric([3, 3, 3]))
    sides = [1e-12, 1 / 8, 2 / 8, 3 / 8]
    for _ in range(300):
        n = int(rng.integers(1, 25))
        squares = [TilingSquare(edge=i, x=float(rng.integers(0, 8)) / 8,
                                y=float(rng.integers(0, 8)) / 8,
                                side=sides[rng.integers(4)])
                   for i in range(n)]
        til = Tiling(tree=tree, width=1.5, height=1.5, squares=squares)
        got, want = validate_tiling(til), reference_validate(til)
        assert (got.max_overlap > 0) == (want.max_overlap > 0)
        assert got.ok == want.ok


def test_validator_rejects_non_finite_geometry():
    t, r, til = fixture_tiling()
    for field in ("x", "y", "side"):
        for bad in (math.nan, math.inf, -math.inf):
            s = til.squares[1]
            broken = TilingSquare(**{**vars(s), field: bad})
            squares = [til.squares[0], broken, til.squares[2]]
            rep = validate_tiling(Tiling(tree=t, width=til.width,
                                         height=til.height, squares=squares))
            assert not rep.ok
            assert any("non-finite" in m for m in rep.messages)
            assert not math.isnan(rep.containment_defect)
            assert not math.isnan(rep.area_defect)
            assert not math.isnan(rep.adjacency_defect)
    for w, h in ((math.nan, 1.0), (til.width, math.inf)):
        rep = validate_tiling(Tiling(tree=t, width=w, height=h,
                                     squares=til.squares))
        assert not rep.ok and rep.messages
    nan_y = Tiling(tree=t, width=til.width, height=til.height,
                   squares=[til.squares[0],
                            TilingSquare(edge=1, x=0.0, y=math.nan,
                                         side=1 / 3), til.squares[2]])
    with pytest.raises(ValueError, match="non-finite"):
        measure_from_tiling(t, nan_y)


@pytest.mark.parametrize("field", ["x", "y", "side"])
def test_validator_reports_ints_beyond_float_range(field):
    t, r, til = fixture_tiling()
    broken = TilingSquare(**{**vars(til.squares[1]), field: 10 ** 400})
    rep = validate_tiling(Tiling(tree=t, width=til.width, height=til.height,
                                 squares=[til.squares[0], broken,
                                          til.squares[2]]))
    assert not rep.ok
    assert "squares with non-finite geometry: 1 [1]" in rep.messages
    wide = validate_tiling(Tiling(tree=t, width=10 ** 400, height=1.0,
                                  squares=til.squares))
    assert not wide.ok and any("not finite" in m for m in wide.messages)


@pytest.mark.parametrize("edge", [-1, 7, 1])
def test_validator_rejects_unknown_and_repeated_edges(edge):
    t, r, til = fixture_tiling()  # 3 edges; squares 0, 1, 2
    s = til.squares[2]
    squares = [til.squares[0], til.squares[1],
               TilingSquare(edge=edge, x=s.x, y=s.y, side=s.side)]
    rep = validate_tiling(Tiling(tree=t, width=til.width,
                                 height=til.height, squares=squares))
    assert not rep.ok
    assert any(f"[{edge}]" in m for m in rep.messages)


def test_undetermined_tail_message_is_capped():
    t = build_tree(Homogeneous(2), depth=14, layout="explicit")
    with pytest.raises(ValueError) as exc:
        build_tiling(t, capacity_recursive(t, 2).measure)
    msg = str(exc.value)
    assert "undetermined tails 16384 [" in msg and len(msg) < 300


def test_validates_32k_squares_quickly():
    # the all-pairs sweep this replaced took minutes here
    t = build_tree(SphericallySymmetric([2] * 14))
    til = build_tiling(t, capacity_recursive(t, 2).measure)
    start = time.perf_counter()
    rep = validate_tiling(til)
    elapsed = time.perf_counter() - start
    assert rep.ok and rep.n_squares == 32767 and not rep.messages
    assert rep.max_overlap == 0.0 and rep.area_defect <= 1e-9
    assert elapsed < 20.0


# ---------------------------------------------------------------------------
# the columnar tiling against the per-square code it replaced


def reference_squares(tree, M):
    """build_tiling's squares as the per-square code listed them."""
    from treecap import potential_all
    y = potential_all(tree, M).begin_values(tree)
    before = np.concatenate(([0.0], np.cumsum(M)[:-1]))
    offset = np.zeros(tree.n_edges)
    offset[1:] = before[1:] - before[tree.first_child[tree.parent[1:]]]
    x = tree.push_down(offset, np.add)
    ids = np.flatnonzero(M)
    return [TilingSquare(edge=i, x=xi, y=yi, side=side)
            for i, xi, yi, side in zip(ids.tolist(), x[ids].tolist(),
                                       y[ids].tolist(), M[ids].tolist())]


def reference_to_json(tiling):
    return {"width": tiling.width, "height": tiling.height,
            "squares": [s.to_json() for s in
                        sorted(tiling.squares, key=lambda s: (s.y, s.x))]}


def reference_tiling_from_json(tree, obj):
    squares = [TilingSquare(edge=int(s["edge"]), x=float(s["x"]),
                            y=float(s["y"]), side=float(s["side"]))
               for s in obj["squares"]]
    return Tiling(tree=tree, width=float(obj["width"]),
                  height=float(obj["height"]), squares=squares)


def reference_measure(tree, tiling):
    M = np.zeros(tree.n_edges)
    M[[s.edge for s in tiling.squares]] = [s.side for s in tiling.squares]
    return M


def reference_emit_svg(tiling, labels=False):
    from treecap.tiling import SVG_SCALE
    w = tiling.width * SVG_SCALE
    h = tiling.height * SVG_SCALE
    out = ['<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{w:.6g}" height="{h:.6g}" '
           f'viewBox="0 0 {w:.6g} {h:.6g}">\n',
           f'<rect x="0" y="0" width="{w:.6g}" height="{h:.6g}" '
           'fill="none" stroke="black"/>\n']
    for s in sorted(tiling.squares, key=lambda s: (s.y, s.x)):
        out.append(f'<rect x="{s.x * SVG_SCALE:.8g}" '
                   f'y="{s.y * SVG_SCALE:.8g}" '
                   f'width="{s.side * SVG_SCALE:.8g}" '
                   f'height="{s.side * SVG_SCALE:.8g}" '
                   'fill="none" stroke="black" stroke-width="0.5"/>\n')
        if labels:
            out.append(f'<text x="{(s.x + s.side / 2) * SVG_SCALE:.8g}" '
                       f'y="{(s.y + s.side / 2) * SVG_SCALE:.8g}" '
                       'font-size="8" text-anchor="middle">'
                       f'{tiling.tree.label_of(s.edge)}</text>\n')
    out.append('</svg>\n')
    return "".join(out)


def labelled(tree):
    """tree with string labels e0, e1, ... that need no escaping."""
    return Tree.from_adjacency(
        {f"e{i}": [f"e{c}" for c in tree.children_of(i)]
         for i in range(tree.n_edges)})


def equivalence_trees():
    from helpers import random_tree
    rng = np.random.default_rng(8)
    for k in range(24):
        tree = random_tree(rng, max_edges=int(rng.integers(2, 400)),
                           leaf_chance=0.1 + 0.4 * rng.random())
        yield labelled(tree) if k % 3 == 0 else tree
    yield build_tree(SphericallySymmetric([3, 1, 2, 2]))


def test_columns_serialize_as_the_per_square_code_did():
    for tree in equivalence_trees():
        measures = [capacity_recursive(tree, 2).measure]
        leaves = tree.true_leaves()
        if len(leaves) > 1:  # some squares of zero mass
            measures.append(capacity_of_set(tree, leaves[::2], 2).measure)
        for mu in measures:
            til = build_tiling(tree, mu)
            assert til.squares == reference_squares(tree, mu.M)
            hand = Tiling(tree=tree, width=til.width, height=til.height,
                          squares=list(til.squares))
            obj = json.loads(json.dumps(til.to_json()))
            back = tiling_from_json(tree, obj)
            ref_back = reference_tiling_from_json(tree, obj)
            assert back.squares == ref_back.squares
            for a, b in ((til, hand), (back, ref_back)):
                assert json.dumps(validate_tiling(a).to_json()) == \
                    json.dumps(validate_tiling(b).to_json())
            for t in (til, hand, back):
                assert json.dumps(t.to_json()) == json.dumps(
                    reference_to_json(t))
                for labels in (False, True):
                    assert emit_svg(t, labels) == reference_emit_svg(
                        t, labels)
                got, _ = measure_from_tiling(tree, t)
                assert got.M.tobytes() == reference_measure(
                    tree, t).tobytes()


def test_svg_labels_are_escaped():
    import xml.etree.ElementTree as ET
    tree = Tree.from_adjacency({"r": ["a<b", "c&d"], "a<b": [],
                                "c&d": ['e"f>']})
    til = build_tiling(tree, capacity_recursive(tree, 2).measure)
    root = ET.fromstring(emit_svg(til, labels=True))
    texts = [el.text for el in root if el.tag.endswith("text")]
    assert sorted(texts) == sorted(["r", "a<b", "c&d", 'e"f>'])


def test_builds_validates_and_draws_2_17_squares_quickly():
    t = build_tree(SphericallySymmetric([2] * 16))
    mu = capacity_recursive(t, 2).measure
    start = time.perf_counter()
    til = build_tiling(t, mu)
    rep = validate_tiling(til)
    back = tiling_from_json(t, til.to_json())
    svg = emit_svg(back, labels=True)
    elapsed = time.perf_counter() - start
    assert rep.ok and rep.n_squares == 2 ** 17 - 1
    assert len(back.edge) == 2 ** 17 - 1
    assert svg.count("<rect") == 2 ** 17
    assert elapsed < 30.0


def test_area_defect_does_not_depend_on_square_order():
    for tree in equivalence_trees():
        til = build_tiling(tree, capacity_recursive(tree, 2).measure)
        back = tiling_from_json(tree, json.loads(json.dumps(til.to_json())))
        assert back.area_defect() == til.area_defect()
        assert json.dumps(validate_tiling(back).to_json()) == \
            json.dumps(validate_tiling(til).to_json())
        # a built tiling is in id order already: its report is the sum
        # in stored order, as before
        assert til.area_defect() == abs(
            sum(v ** 2 for v in til.side.tolist()) - til.width * til.height)


# ---------------------------------------------------------------------------
# the nested certificate in front of the overlap sweep


def test_built_tilings_take_the_nested_path(monkeypatch):
    import treecap.tiling as tiling_mod
    trees = list(equivalence_trees()) + [
        build_tree(SphericallySymmetric([2] * 8))]
    tilings = []
    for tree in trees:
        til = build_tiling(tree, capacity_recursive(tree, 2).measure)
        back = tiling_from_json(tree, json.loads(json.dumps(til.to_json())))
        tilings += [til, back]
    # the reports of the overlap sweep alone, as before the certificate
    with monkeypatch.context() as m:
        m.setattr(tiling_mod, "_nests", lambda *args: False)
        want = [json.dumps(validate_tiling(til).to_json()) for til in tilings]

    def no_sweep(*args):
        raise AssertionError("the overlap sweep ran on a nested tiling")

    monkeypatch.setattr(tiling_mod, "_first_overlaps", no_sweep)
    for til, rep in zip(tilings, want):
        got = validate_tiling(til)
        assert got.ok and json.dumps(got.to_json()) == rep


def edges_below(tree, a):
    """a and every edge under it."""
    out, todo = [], [a]
    while todo:
        e = todo.pop()
        out.append(e)
        todo.extend(tree.children_of(e))
    return out


@st.composite
def nudged_tilings(draw):
    """A built tiling of a random tree of up to 300 edges, with one fan,
    then a few nudges by multiples of tol / (d + 1), of tol, or of
    a square's side, each shifting or resizing one square or shifting a
    subtree.  The fan takes two adjacent sibling squares and pushes the
    squares below them toward each other, each by a multiple of
    tol / (d + 1) or of tol times its depth below the siblings: the
    local errors the certificate allows then add up along both paths."""
    from helpers import random_tree
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tree = random_tree(rng, max_edges=draw(st.integers(2, 300)),
                       leaf_chance=draw(st.sampled_from([0.1, 0.3, 0.5])))
    til = build_tiling(tree, capacity_recursive(tree, 2).measure)
    tol = 1e-9
    d = int(tree.level[til.edge].max())
    cols = {"x": til.x.copy(), "y": til.y.copy(), "side": til.side.copy()}
    slot = {e: i for i, e in enumerate(til.edge.tolist())}
    kids = {e: [c for c in tree.children_of(e) if c in slot] for e in slot}
    # the shallowest forks have the longest paths below them
    forks = [e for e in slot if len(kids[e]) > 1][:3]
    if forks:
        w = draw(st.sampled_from(forks))
        k = draw(st.integers(0, len(kids[w]) - 2))
        push = draw(st.sampled_from([0.0, tol / (d + 1), tol])) * draw(
            st.sampled_from([0.25, 0.5, 0.9, 1.0]))
        for sign, kid in ((1.0, kids[w][k]), (-1.0, kids[w][k + 1])):
            for e in edges_below(tree, kid):
                depth = int(tree.level[e]) - int(tree.level[kid])
                if e in slot:
                    cols["x"][slot[e]] += sign * push * depth
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["square", "subtree"]))
        i = draw(st.integers(0, len(til.edge) - 1))
        unit = draw(st.sampled_from([tol / (d + 1), tol, cols["side"][i]]))
        amount = unit * draw(st.sampled_from(
            [-2.0, -1.0, -0.9, -0.5, -0.25, 0.25, 0.5, 0.9, 1.0, 2.0]))
        if kind == "subtree":
            field = draw(st.sampled_from(["x", "y"]))
            moved = [slot[e] for e in edges_below(tree, int(til.edge[i]))
                     if e in slot]
        else:
            field, moved = draw(st.sampled_from(sorted(cols))), [i]
        cols[field][moved] += amount
    squares = [TilingSquare(e, x, y, s) for e, x, y, s in zip(
        til.edge.tolist(), cols["x"].tolist(), cols["y"].tolist(),
        cols["side"].tolist())]
    return Tiling(tree, til.width, til.height, squares), tol


@settings(max_examples=150, deadline=None, database=None)
@given(case=nudged_tilings())
def test_nested_certificate_never_passes_an_overlap(case):
    import treecap.tiling as tiling_mod
    til, tol = case
    sweep = mock.Mock(wraps=tiling_mod._first_overlaps)
    with mock.patch.object(tiling_mod, "_first_overlaps", sweep):
        rep = validate_tiling(til, tol=tol)
    ref = reference_validate(til, tol=tol)
    if not sweep.called:  # the certificate held
        assert ref.max_overlap == 0.0
        assert rep.max_overlap == 0.0
    assert rep.ok == ref.ok
    assert (rep.max_overlap > 0) == (ref.max_overlap > 0)


def test_nested_certificate_margin_on_two_long_paths(monkeypatch):
    # root with two paths of 10 edges; fanning the paths toward each
    # other by `push` per level moves the deepest squares 9 * push each
    import treecap.tiling as tiling_mod
    tree = Tree([-1, 0, 0] + list(range(1, 19)))
    til = build_tiling(tree, capacity_recursive(tree, 2).measure)
    tol, d = 1e-9, 10
    depth = (tree.level - 1).clip(0)
    toward = np.where(tree.level == 0, 0.0,
                      np.where(np.arange(tree.n_edges) % 2 == 1, 1.0, -1.0))
    sweep = mock.Mock(wraps=tiling_mod._first_overlaps)
    monkeypatch.setattr(tiling_mod, "_first_overlaps", sweep)

    def fanned(push):
        x = til.x + push * toward[til.edge] * depth[til.edge]
        return Tiling(tree, til.width, til.height, list(map(
            TilingSquare, til.edge.tolist(), x.tolist(), til.y.tolist(),
            til.side.tolist())))

    # within delta per level: certified, and 2 * 9 * push stays below tol
    inside = fanned(0.99 * tol / (2 * (d + 1)))
    assert validate_tiling(inside, tol=tol).ok and not sweep.called
    assert reference_validate(inside, tol=tol).ok
    # twice that is within tol per level, but the paths overlap by 1.6 tol
    outside = fanned(0.99 * tol / (d + 1))
    rep = validate_tiling(outside, tol=tol)
    assert sweep.called and not rep.ok and rep.max_overlap > tol
    assert reference_validate(outside, tol=tol).max_overlap > tol


def test_validates_2_19_squares_within_a_second():
    # the overlap sweep alone took about 3 s here
    t = build_tree(SphericallySymmetric([2] * 18))
    til = build_tiling(t, capacity_recursive(t, 2).measure)
    start = time.perf_counter()
    rep = validate_tiling(til)
    elapsed = time.perf_counter() - start
    assert rep.ok and rep.n_squares == 524_287 and not rep.messages
    assert elapsed < 1.0


def test_nan_and_negative_tol_are_refused():
    from treecap import (capacity_equation_check, check_potential_bound,
                         compact_set_of_capacity, verify_equilibrium)
    t, r, til = fixture_tiling()
    overlapping = Tiling(tree=t, width=1.0, height=1.0, squares=[
        TilingSquare(edge=e, x=0.0, y=0.0, side=2.0) for e in range(3)])
    calls = [
        lambda tol: validate_tiling(overlapping, tol=tol),
        lambda tol: validate_tiling(til, tol=tol),
        lambda tol: build_tiling(t, r.measure, tol=tol),
        lambda tol: measure_from_tiling(t, til, tol=tol),
        lambda tol: verify_equilibrium(t, r.measure, 2, tol=tol),
        lambda tol: check_potential_bound(t, r.measure, 2, tol=tol),
        lambda tol: capacity_equation_check(t, r, 2, tol=tol),
        lambda tol: compact_set_of_capacity(2, 2, 0.3, tol=tol, depth=6),
    ]
    for call in calls:
        for tol in (float("nan"), -1.0, -1e-300):
            with pytest.raises(ValueError, match="tol must be >= 0"):
                call(tol)
    assert not validate_tiling(overlapping, tol=0.0).ok
    assert validate_tiling(til, tol=0.0).n_squares == 3


@pytest.mark.parametrize("edge", [1.7, 1.0, True, "1"])
def test_json_edge_ids_are_kept_as_given(edge):
    t, r, til = fixture_tiling()
    obj = json.loads(json.dumps(til.to_json()))
    for s in obj["squares"]:
        if s["edge"] == 1 and type(s["edge"]) is int:
            s["edge"] = edge
    back = tiling_from_json(t, obj)
    assert back.edge.dtype == object
    assert sorted(map(repr, back.edge.tolist())) == sorted(
        [repr(edge), "0", "2"])
    rep = validate_tiling(back)
    assert not rep.ok
    assert any(m.startswith("squares naming no edge of the tree: 1 ")
               for m in rep.messages)


def test_ids_that_are_not_ints_print_by_repr():
    t = build_tree(SphericallySymmetric([2]))
    til = Tiling(t, 1.0, 1.0, [TilingSquare("1", 0.0, 0.0, 1.0),
                               TilingSquare(7, 0.5, 0.5, 0.5)])
    rep = validate_tiling(til)
    assert "squares naming no edge of the tree: 2 ['1', 7]" in rep.messages
    assert "squares '1' and 7 overlap by 5.000e-01" in rep.messages
    odd = Tiling(t, 1.0, 1.0, [TilingSquare(e, 0.0, 0.0, 1.0) for e in
                               (np.int64(3), 2.0, True, None, np.bool_(0))])
    rep = validate_tiling(odd)
    assert ("squares naming no edge of the tree: "
            f"5 [3, 2.0, True, None, {np.bool_(0)!r}]") in rep.messages


def test_zero_measure_tiles_nothing():
    t = build_tree(SphericallySymmetric([2]))
    with pytest.raises(ValueError, match="zero measure tiles nothing"):
        build_tiling(t, np.zeros(t.n_edges))


@pytest.mark.parametrize("field", ["x", "y", "side", "width"])
def test_json_numbers_beyond_float_range_are_non_finite(field):
    t, r, til = fixture_tiling()
    obj = json.loads(json.dumps(til.to_json()))
    if field == "width":
        obj["width"] = 10 ** 400
    else:
        obj["squares"][1][field] = 10 ** 400
    rep = validate_tiling(tiling_from_json(t, obj))
    assert not rep.ok
    edge = obj["squares"][1]["edge"]
    want = ("rectangle nan x 1.0 is not finite" if field == "width" else
            f"squares with non-finite geometry: 1 [{edge}]")
    assert want in rep.messages


def test_coordinates_are_numbers_not_arrays():
    t, r, til = fixture_tiling()
    obj = json.loads(json.dumps(til.to_json()))
    for s in obj["squares"]:
        s["x"] = [s["x"], s["x"]]
    with pytest.raises(ValueError, match="sequence"):
        tiling_from_json(t, obj)
    with pytest.raises(ValueError, match="sequence"):
        Tiling(t, til.width, til.height,
               [TilingSquare(**{**vars(s), "x": [s.x, s.x]})
                for s in til.squares])


def test_a_tiling_keeps_no_reference_to_its_square_list():
    t, _, til = fixture_tiling()
    squares = list(til.squares)
    built = Tiling(t, til.width, til.height, squares)
    squares.append(TilingSquare(0, 5.0, 5.0, 1.0))
    assert len(built.squares) == len(built.edge) == 3
    assert built.squares == til.squares
    assert validate_tiling(built).ok
