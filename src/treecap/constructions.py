"""Boundaries and trees of prescribed capacity.

Two inverse problems.  compact_set_of_capacity carves a subset of the
boundary of a fixed complete n-ary tree whose capacity hits a target,
by bisecting on how many leaves (in lexicographic order) to keep.
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

from .capacity import (CapacityInterval, _tent_capacities,
                       homogeneous_capacity, symmetric_capacity)
from .potential import as_exponent, require_tolerance
from .trees import SphericallySymmetric, Subdyadic, build_tree, predecessor_path


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
    0 < base < 1; exact over Fractions, float otherwise."""
    if value < 0:
        raise ValueError("cannot expand a negative value")
    if not (0 < base < 1):
        raise ValueError("base must lie in (0, 1)")
    digits = []
    r = value
    pw = base ** 0
    for _ in range(count):
        d = int(math.floor(r / pw))
        digits.append(d)
        r -= d * pw
        pw *= base
    return DigitExpansion(tuple(digits), base, r)


@dataclass
class SubdyadicResult:
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
    p = 2 is expanded exactly.  digit_count must be at least 1.
    """
    if digit_count < 1:
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
        lam = t ** (1.0 - pe.conjugate)
        shift = 1.0 / (1.0 - base)
    reduced = lam - shift
    if reduced < 0:  # rounding right at the binary-tree endpoint
        reduced = 0 * reduced
    exp = greedy_digits(reduced, base, digit_count)
    spec = Subdyadic(exp.digits)
    degs = []
    for r in exp.digits:
        degs.extend([1] * r)
        degs.append(2)
    achieved = symmetric_capacity(degs, pe, tail_degree=2)
    return SubdyadicResult(spec=spec, digits=exp.digits,
                           achieved=achieved, target=t)


def lambda_digits(tree, zeta):
    """Sibling indices along the path from the root edge down to zeta;
    the address of a boundary point in its tree."""
    path = predecessor_path(tree, zeta)
    out = []
    for prev, cur in zip(path, path[1:]):
        out.append(list(tree.children_of(prev)).index(cur))
    return out


@dataclass
class CompactSetResult:
    tree: object
    leaves: list
    capacity: float
    target: float
    n_leaves_total: int

    @property
    def error(self):
        return abs(self.capacity - self.target)

    def to_json(self):
        return {
            "n_leaves": len(self.leaves),
            "n_leaves_total": self.n_leaves_total,
            "first_leaf": self.leaves[0] if self.leaves else None,
            "capacity": self.capacity,
            "target": self.target,
            "error": self.error,
        }


def compact_set_of_capacity(n, p, target, tol=1e-3, depth=16):
    """Subset of the boundary of the complete n-ary tree of the given
    depth with capacity within tol of target.

    Capacity is monotone in the number of leading leaves kept, so an
    integer bisection on that count converges; ties break toward the
    smaller set.  Raises if the leaf granularity at this depth cannot
    get within tol (target too close to jumps near 0, or above the
    capacity of the full boundary).
    """
    pe = as_exponent(p)
    require_tolerance(tol)
    if n < 2:
        raise ValueError("branching order must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if target < 0:
        raise ValueError("capacity targets are nonnegative")
    # the leaf bisection needs the leaves one by one: an explicit arena,
    # refused by its size before anything is allocated
    tree = build_tree(SphericallySymmetric([n] * depth), layout="explicit")
    leaves = np.flatnonzero(tree.true_leaf_mask())
    total = len(leaves)

    def cap(m):
        # absent leaves carry 0, which the recursion propagates exactly
        # as if their branches were pruned
        member = np.zeros(tree.n_edges)
        member[leaves[:m]] = 1.0
        c, _ = _tent_capacities(tree, pe, member)
        return float(c[0])

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
    candidates = [m for m in (a - 1, a) if 0 <= m <= total]
    best = min(candidates, key=lambda m: (abs(cap(m) - target), m))
    achieved = cap(best)
    if abs(achieved - target) > tol:
        raise ValueError(
            f"leaf granularity too coarse: best subset has capacity "
            f"{achieved}, off target by {abs(achieved - target):.3e}")
    return CompactSetResult(tree=tree, leaves=leaves[:best].tolist(),
                            capacity=achieved, target=float(target),
                            n_leaves_total=total)
