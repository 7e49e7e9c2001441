"""Boundaries and trees of prescribed capacity.

Two inverse problems.  compact_set_of_capacity carves a subset of the
boundary of a fixed complete n-ary tree whose capacity hits a target,
by bisecting on how many leaves (in lexicographic order) to keep.  A
prefix of m leaves is full below every edge except those on the root
path to leaf m, so its capacity needs the capacities F[h] of full
subtrees, one sweep over the tree's quotient, and then one step of
the recursion per level along that path, reading m's base-n digits:
O(depth) per probe instead of a sweep over the whole arena.
subdyadic_tree_of_capacity instead builds the tree itself: writing
lam = c^(1-p') and B = 2^(1-p'), the trees with unary runs between
binary branchings realize exactly the values lam = sum (m_j + 1) B^j
with integer m_j >= 0, so a greedy digit expansion of lam - 1/(1-B) in
base B prescribes the run lengths and the remainder after d digits is
below B^(d-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capacity import (CapacityInterval, _one_step, _tent_capacities,
                       homogeneous_capacity, symmetric_capacity)
from .potential import as_exponent
from .trees import (SphericallySymmetric, Subdyadic, _arena_offsets,
                    _BuiltOnRead, _Recipe, _repr_unread, build_tree, held,
                    predecessor_path, require_int, require_tolerance)


@dataclass(frozen=True)
class DigitExpansion:
    """Greedy expansion value ~ sum digits[k] * base^k, digits >= 0."""

    digits: tuple
    base: object
    remainder: object

    def value(self):
        acc, pw = 0, 1
        for d in self.digits:
            acc += d * pw
            pw *= self.base
        return acc


def greedy_digits(value, base, count):
    """Largest-first digits of value >= 0 in the fractional base
    0 < base < 1; exact over Fractions, float otherwise.  Once the
    remainder is 0 every later digit is 0; a float power of the base
    that underflows to 0 while a remainder is left is refused."""
    if value < 0:
        raise ValueError("cannot expand a negative value")
    if not (0 < base < 1):
        raise ValueError("base must lie in (0, 1)")
    count = require_int("count", count)
    if count < 0:
        raise ValueError("count must be >= 0")
    digits = []
    r = value
    pw = base ** 0
    for _ in range(count):
        if r == 0:
            digits += [0] * (count - len(digits))
            break
        if pw == 0:
            raise ValueError(
                f"digit_count = {count} needs base {base!r} to the power "
                f"{len(digits)}, which underflows to 0 with {r!r} still "
                "to expand")
        d = int(math.floor(r / pw))
        digits.append(d)
        r -= d * pw
        pw *= base
    return DigitExpansion(tuple(digits), base, r)


@dataclass
class SubdyadicResult:
    """Subdyadic tree built for a target capacity, and what it achieves."""

    spec: Subdyadic
    digits: tuple
    achieved: CapacityInterval
    target: float

    @property
    def error(self):
        return abs(self.achieved.midpoint - self.target)

    def to_json(self):
        return {
            "runs": list(self.spec.runs),
            "achieved": self.achieved.to_json(),
            "target": self.target,
            "error": self.error,
        }


def subdyadic_tree_of_capacity(target, p, digit_count=30):
    """Infinite tree of unary runs and binary branchings whose boundary
    capacity comes out at target, which must lie strictly between 0 and
    the capacity of the fully binary tree.  A Fraction target with
    p = 2 is expanded exactly.  digit_count must be an integer >= 1.  A p so
    close to 1 that 2^(1 - p') underflows or target^(1 - p') overflows
    is refused.
    """
    if require_int("digit_count", digit_count) < 1:
        raise ValueError(f"digit_count must be at least 1, got {digit_count}")
    pe = as_exponent(p)
    t = float(target)
    cap2 = homogeneous_capacity(2, pe)
    if not (0.0 < t < cap2):
        raise ValueError(
            f"target must lie strictly inside (0, {cap2}), got {t}")
    if isinstance(target, Fraction) and pe.p == 2.0:
        base = Fraction(1, 2)
        lam = 1 / target
        shift = Fraction(2)
    else:
        base = 2.0 ** (1.0 - pe.conjugate)
        try:
            lam = t ** (1.0 - pe.conjugate)
        except OverflowError:
            lam = math.inf
        if base == 0.0 or lam == math.inf:
            what = ("2^(1 - p') underflows to 0" if base == 0.0
                    else f"{t}^(1 - p') overflows")
            raise ValueError(f"p = {pe.p} is too close to 1 for target "
                             f"{t}: {what}")
        shift = 1.0 / (1.0 - base)
    reduced = lam - shift
    if reduced < 0:  # rounding right at the binary-tree endpoint
        reduced = 0 * reduced
    exp = greedy_digits(reduced, base, digit_count)
    spec = Subdyadic(exp.digits)
    listed, eventual = spec.levels()
    achieved = symmetric_capacity(listed, pe, tail_degree=eventual)
    return SubdyadicResult(spec=spec, digits=exp.digits,
                           achieved=achieved, target=t)


def lambda_digits(tree, zeta):
    """Sibling indices along the path from the root edge down to zeta;
    the address of a boundary point in its tree."""
    path = predecessor_path(tree, zeta)
    return [tree.children_of(a).index(b) for a, b in zip(path, path[1:])]


def _explicit_arena(r, spec):
    return build_tree(spec, layout="explicit")


def _leaf_ids(r, start, stop):
    return list(range(start, stop))


@dataclass
class CompactSetResult:
    """Leaf prefix of a complete n-ary tree whose capacity meets a target;
    tree (an explicit tree) and leaves (ids in it) are built on read."""

    tree: object = _BuiltOnRead()
    leaves: list = _BuiltOnRead()
    capacity: float
    target: float
    n_leaves_total: int
    __repr__ = _repr_unread

    @property
    def error(self):
        return abs(self.capacity - self.target)

    def to_json(self):
        # an unread leaves field answers from its id range
        ids = held(self, "leaves")
        ids = range(*ids.args) if isinstance(ids, _Recipe) else ids
        return {
            "n_leaves": len(ids),
            "n_leaves_total": self.n_leaves_total,
            "first_leaf": ids[0] if ids else None,
            "capacity": self.capacity,
            "target": self.target,
            "error": self.error,
        }


def compact_set_of_capacity(n, p, target, tol=1e-3, depth=16):
    """Subset of the boundary of the complete n-ary tree of the given
    depth with capacity within tol of target.

    Capacity is monotone in the number of leading leaves kept, so an
    integer bisection on that count converges; ties break toward the
    smaller set.  Each probe walks the one root path that holds the
    boundary of the prefix, O(depth) scalar steps, so the bisection
    costs O(depth^2) on the level quotient: about 0.6 ms at depth 12
    and 0.9 ms at depth 16 on a 2-vCPU Xeon VM.  The result's tree (an
    explicit tree, its arena built on read) and leaves (ids in it) are
    built on first read.  Raises if the leaf granularity at this depth cannot
    get within tol (target too close to jumps near 0, or above the
    capacity of the full boundary).
    """
    pe = as_exponent(p)
    require_tolerance(tol)
    n, depth = require_int("n", n), require_int("depth", depth)
    if n < 2:
        raise ValueError("branching order must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not math.isfinite(target):
        raise ValueError(f"capacity targets are finite, got {target}")
    if target < 0:
        raise ValueError("capacity targets are nonnegative")
    # the result names its leaves in an explicit arena, refused by its
    # size here, before anything is allocated per edge
    _arena_offsets([n] * depth)
    tree = build_tree(SphericallySymmetric([n] * depth), layout="compact")
    total = n ** depth

    # F[h]: capacity of a full subtree with h levels below its top edge;
    # node k of the quotient tops one with h = depth - k
    F = _tent_capacities(tree.quotient, pe, np.ones(depth + 1))[0][::-1]

    def cap(m):
        # the first m leaves: at each level up the path of leaf m, the
        # edge keeps digit j full children and one partial child P (the
        # leaf m itself, excluded, at the bottom); absent children add 0
        if m == total:
            return float(F[depth])
        P = 0.0
        for h in range(depth):
            m, j = divmod(m, n)
            P, _ = _one_step(j * F[h] + P, pe)
        return float(P)

    full = cap(total)
    if target > full + tol:
        raise ValueError(
            f"target {target} exceeds the full boundary capacity {full}")

    # smallest m with cap(m) >= target
    a, b = 0, total
    while a < b:
        mid = (a + b) // 2
        if cap(mid) >= target:
            b = mid
        else:
            a = mid + 1
    caps = {m: cap(m) for m in (a - 1, a) if 0 <= m <= total}
    best = min(caps, key=lambda m: (abs(caps[m] - target), m))
    achieved = caps[best]
    if abs(achieved - target) > tol:
        raise ValueError(
            f"leaf granularity too coarse: best subset has capacity "
            f"{achieved}, off target by {abs(achieved - target):.3e}")
    first = tree.level_slice(depth)[0]
    return CompactSetResult(tree=_Recipe(_explicit_arena, tree.spec),
                            leaves=_Recipe(_leaf_ids, first, first + best),
                            capacity=achieved, target=float(target),
                            n_leaves_total=total)
