"""Independent variational solver for boundary capacities.

Solves the defining minimization directly:

    minimize  sum_a f(a)^p   over f >= 0
    subject to  sum over the predecessor path of each chosen leaf >= 1

and certifies the value from both sides: any feasible f gives an upper
bound, and any nonnegative leaf weighting w gives the lower bound
(sum w)^p / energy(w)^(p/p'), tight exactly at the equilibrium weights.
This module deliberately shares no computation with the recursion in
capacity.py; agreement between the two is a real consistency check.

At p = 2 one KKT linear solve gives the optimum.  For other p the
problem is posed on path classes, the edges with equal columns in the
leaves x edges path matrix, with each chosen leaf's own class solved
out of its path equation, so only the inner class values h are free;
a single chosen leaf needs no solve.  The first start is the p = 2
optimum f2 raised to the power 1 / (p - 1): the equilibrium function
is M^(p'-1) with M the equilibrium measure's co-potential, and at
p = 2 f2 is M itself.

From a start a damped Newton method minimizes F(h) = sum L_in h^p +
sum L_own r^p over h, with own values r = (1 - B_in h) / L_own, using
the exact Hessian
diag(p (p-1) L_in h^(p-2)) + B_in^T diag(p (p-1) r^(p-2) / L_own) B_in.
Its steps keep h and r positive (at most 0.99 of the way to the
boundary, then Armijo backtracking; a full step is doubled while F
falls), and it stops once the Newton decrement -g^T d is at most
1e-14 F, a relative test that holds at any scale of F, which at large p
is tiny.  Near p = 1 Newton mostly does not converge: own values far
below 1e-16 are lost to the cancellation in 1 - B_in h.

Every point is certified the same way: made admissible on the full
matrix, with its dual lower bound, and accepted when the gap is within
max(tol, 1e-6) of the value, which must be above 0 (a value can
underflow at large p).  A certified Newton point is the result, and
neither SLSQP nor scipy.optimize, about 0.6 s to import cold, is
touched.  SLSQP runs only as the fallback: from the Newton point when
its certificate fails, and from the start Newton was given where
Newton does not converge (a singular Hessian, a non-finite value, a
failed line search or its step cap).  SLSQP works in the variables
u = h / s with s_k = (p (p - 1) L_k h0_k^(p-2))^(-1/2) at its start
h0, so that each term L_k h_k^p has curvature 1 there and the identity
its quasi-Newton matrix starts from fits the problem from the first
step; a class below sqrt(eps) of the largest start value, or at 0, is
scaled as if it sat at that floor.  The objective is not rescaled, so
ftol keeps its meaning; but ftol bounds an absolute change, and SLSQP
also stops "successfully" when a stalled line search no longer changes
the objective by ftol.

So a solve whose result is not certified restarts, Newton first, from
that result, rescaled there and with a fresh quasi-Newton matrix, and
unless that is certified or SLSQP succeeds, once more from the
1 / length start.  Each start is built only when it is reached.  A
result is converged when it is certified or SLSQP reported success on
its last start.  Per start, Newton takes at most a tenth of
SLSQP_MAX_ITER steps and SLSQP the rest; a result's iterations count
every Newton step, failed ones included, and every SLSQP iteration of
every start.
Everything is built from the path matrix alone, with numpy and SLSQP,
never from the recursion or the tree sweeps, so the oracle stays an
independent referee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .potential import as_exponent
from .trees import leaf_indicator, require_tolerance

SLSQP_MAX_ITER = 500  # Newton steps plus SLSQP iterations


class OracleConvergenceError(RuntimeError):
    def __init__(self, message, best=None, lower_bound=None):
        super().__init__(message)
        self.best = best
        self.lower_bound = lower_bound


@dataclass
class OracleResult:
    """Capacity by convex minimization, with its dual lower bound."""

    value: float            # feasible objective, an upper bound
    lower_bound: float      # dual certificate from the candidate measure
    # the admissible function attaining value; == leaves it out
    f: np.ndarray = field(compare=False)
    iterations: int         # Newton steps plus SLSQP iterations
    converged: bool
    method: str

    @property
    def gap(self):
        return self.value - self.lower_bound


def _constraint_matrix(tree, boundary_set):
    """Leaf ids of the set, their predecessor paths (root first), and
    the dense leaves x edges matrix of the paths.  A is filled one level
    per step, every chosen leaf moving up to its parent at once."""
    E = np.flatnonzero(leaf_indicator(tree, boundary_set))
    n = tree.n_edges
    if E.size * n > 50_000_000:
        raise ValueError("problem too large for the dense oracle")
    A = np.zeros((E.size, n))
    rows, at = np.arange(E.size), E
    while at.size:
        A[rows, at] = 1.0
        at = tree.parent[at]
        rows, at = rows[at >= 0], at[at >= 0]
    # BFS ids put every ancestor before its descendants, so each row's
    # nonzero columns in id order run from the root down
    r, cols = np.nonzero(A)
    ends = np.cumsum(np.bincount(r, minlength=E.size)).tolist()
    paths = [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]
    return E, paths, A


def _feasible_correction(f, A, paths):
    """Clip to f >= 0 and push each unmet path constraint up by an equal
    share along its path.  Corrections only add mass, so earlier
    constraints stay satisfied and the output is always admissible."""
    f = np.maximum(f, 0.0)
    slack = A @ f - 1.0
    for r in np.argsort(slack):
        pth = paths[r]
        d = 1.0 - f[pth].sum()
        if d > 0.0:
            f[pth] += d / len(pth)
    return f


def _warm_start(n, paths):
    """Each edge's largest 1 / length over the chosen paths through it."""
    lengths = np.array([len(pth) for pth in paths])
    f = np.zeros(n)
    np.maximum.at(f, np.concatenate(paths),
                  np.repeat(1.0 / lengths, lengths))
    return f


def _dual_bound(f, A, leaf_rows, p):
    """Lower bound from the candidate measure with leaf weights
    f(leaf edge)^(p-1); exact at the optimum."""
    pe = as_exponent(p)
    w = np.abs(f[leaf_rows]) ** (pe.p - 1.0)
    total = w.sum()
    if total <= 0.0:
        return 0.0
    M = A.T @ w
    en = float(np.sum(M ** pe.conjugate))
    if en <= 0.0:
        return 0.0
    return float((total / en ** (1.0 / pe.conjugate)) ** pe.p)


def _solve_kkt_p2(A):
    """p = 2: the optimum is f = A^T lam with G lam = 1, G = A A^T.
    Every chosen leaf has positive equilibrium mass, so every path
    constraint is active and lam > 0; G is nonsingular because each row
    of A holds its own leaf edge."""
    ones = np.ones(A.shape[0])
    G = A @ A.T
    try:
        lam = np.linalg.solve(G, ones)
    except np.linalg.LinAlgError:
        lam, *_ = np.linalg.lstsq(G, ones, rcond=None)
    return A.T @ np.maximum(lam, 0.0)


def _p2_start(A, paths, p):
    """An admissible start for exponent p, from the p = 2 optimum.

    The equilibrium function is f = M^(p'-1), M the co-potential of the
    equilibrium measure, and p' - 1 = 1 / (p - 1).  At p = 2 f is M
    itself, so f2^(1/(p-1)) with f2 the KKT solution guesses f for p.
    f2 is normalized by its root edge's value f2[0]: column 0 of A is all
    ones, so f2[0] = sum max(lam, 0) adds every term any other entry
    adds, in the same order, and as rounding is monotone it is the
    largest; it is positive, as G lam = 1 with G = A A^T >= 0 needs some
    lam > 0.  The power then stays in [0, 1] and neither overflows nor
    warns, the root's value is exactly 1 at every p, and every chosen
    path holds the root edge, so every path sum is >= 1.  The guess is
    divided by its smallest path sum and made admissible.  Edges with
    equal columns of A get equal values throughout, so the start is
    constant on every class."""
    f = _solve_kkt_p2(A)
    f = (f / f[0]) ** (1.0 / (p - 1.0))
    return _feasible_correction(f / (A @ f).min(), A, paths)


def _path_classes(A):
    """The used columns of A (those on some chosen path) and their
    classes of equal columns: the classes' columns in sorted order, each
    class's first used column, every used column's class and the class
    sizes, as np.unique(A[:, used].T, axis=0, ...) gives them.  Each
    column is packed into bits, most significant first, and read as one
    byte string, so the classes come from one sort of strings whose byte
    order is the order of the 0/1 columns."""
    used = np.flatnonzero(A.any(0))
    bits = np.packbits(A[:, used].T > 0.0, axis=1)
    keys = np.ascontiguousarray(bits).view(f"V{bits.shape[1]}").ravel()
    _, first, cls, L = np.unique(keys, return_index=True,
                                 return_inverse=True, return_counts=True)
    return used, A[:, used[first]].T, first, cls, L


def _newton(B_in, L_in, L_own, p, h, max_steps):
    """Damped Newton on the class problem F(h) = sum L_in h^p +
    sum L_own r^p, r = (1 - B_in h) / L_own, inside h > 0, r > 0, from
    h.  The gradient is p (L_in h^(p-1) - B_in^T r^(p-1)) and the Hessian
    diag(p (p-1) L_in h^(p-2)) + B_in^T diag(p (p-1) r^(p-2) / L_own) B_in,
    solved after scaling its diagonal to 1.

    A start on the boundary is first pulled inside: values below 2^-26
    of the largest are raised to that floor, and h is scaled down, only
    as far as needed, until every r >= 0.001 / L_own.  A step goes at
    most 0.99 of the way to the boundary and halves until F falls by
    1e-4 of the decrement -g^T d.  A full step is doubled while F keeps
    falling and the point stays inside: far from the optimum at large p,
    Newton's model of h^p moves a value only 1 / (p - 1) of the way to 0
    per step.  The method stops once the decrement is at most 1e-14 F, a
    test that does not depend on F's scale.  Returns the last point, the
    steps taken and whether it stopped so; a singular Hessian, a
    non-finite decrement, a failed line search or max_steps steps end it
    unconverged."""
    c = p * (p - 1.0)

    def objective(h):
        r = (1.0 - B_in @ h) / L_own
        return float(L_in @ h ** p + L_own @ r ** p), r

    h = np.maximum(h, max(2.0 ** -26 * h.max(), np.finfo(float).tiny))
    h = h * min(1.0, 0.999 / (B_in @ h).max())
    F, r = objective(h)
    with np.errstate(all="ignore"):
        for step in range(max_steps):
            hp, rp = h ** (p - 2.0), r ** (p - 2.0)
            g = p * (L_in * hp * h - B_in.T @ (rp * r))
            H = B_in.T @ ((c * rp / L_own)[:, None] * B_in)
            H.flat[::h.size + 1] += c * L_in * hp
            D = 1.0 / np.sqrt(H.diagonal())
            try:
                d = -D * np.linalg.solve(H * D * D[:, None], D * g)
            except np.linalg.LinAlgError:
                return h, step, False
            dec = -float(g @ d)
            if not dec >= 0.0:  # also NaN
                return h, step, False
            if dec <= 1e-14 * F:
                return h, step, True
            x = np.concatenate((h, r))
            dx = np.concatenate((d, -(B_in @ d) / L_own))
            down = dx < 0.0
            t_max = (0.99 * float(np.min(x[down] / -dx[down]))
                     if down.any() else np.inf)
            t = min(1.0, t_max)
            while True:
                F_new, r_new = objective(h + t * d)
                if F_new <= F - 1e-4 * t * dec:
                    break
                t *= 0.5
                if t < 1e-10:
                    return h, step, False
            while t >= 1.0 and 2.0 * t <= t_max:
                F_far, r_far = objective(h + 2.0 * t * d)
                if not F_far < F_new:
                    break
                t, F_new, r_new = 2.0 * t, F_far, r_far
            h, F, r = h + t * d, F_new, r_new
    return h, max_steps, False


def _class_problem(A):
    """The problem on the inner classes of edges with identical columns
    of A, each chosen leaf's own class solved out of its path equation:
    one used column of each inner class, B_in, L_in, L_own, and the map
    from inner values h to the full f.

    The objective is strictly convex for p > 1, so the optimum is unique;
    swapping two edges with identical columns leaves the problem as it
    is, so the optimum is constant on each class, and an edge on no
    chosen path carries 0.  Every chosen leaf has positive equilibrium
    mass, so every path constraint is active at the optimum.  Class k of
    L_k edges then contributes L_k g_k^p, and the constraints read
    B g = 1 with B = cols^T L.

    Leaf i's edge lies on path i alone, so exactly one class, of L_i
    edges, has the column e_i; every other class is inner (on two paths
    or more), with values h.  Row i of B g = 1 fixes the own class at
    g_i = (1 - (B_in h)_i) / L_i, and these own values are the
    constraints g_i >= 0.  Substituted, the problem reads: minimize
    sum L_in h^p + sum L_i g_i^p over h >= 0 with g >= 0, the same
    problem with the same optimum, and with its gradient
    p (L_in h^(p-1) - B_in^T g^(p-1)).  With one chosen leaf there is
    no inner class and g = 1 / L is the answer.  An inner class lies on
    some chosen path, whose own value stays >= 0 only if L_k h_k <= 1,
    so the map clips h to that box."""
    used, cols, first, cls, L = _path_classes(A)
    inner = cols.sum(1) > 1
    own = np.flatnonzero(~inner)[np.argsort(cols[~inner].argmax(1))]
    B_in = cols[inner].T * L[inner]
    L_in, L_own = L[inner], L[own]

    def to_f(h):
        g = np.zeros(L.size)
        g[inner] = np.minimum(h, 1.0 / L_in)
        g[own] = (1.0 - B_in @ g[inner]) / L_own
        f = np.zeros(A.shape[1])
        f[used] = g[cls]
        return f

    return used[first[inner]], B_in, L_in, L_own, to_f


def _solve_slsqp(problem, p, tol, start, certify):
    """Solve the class problem of _class_problem from the admissible f
    start: Newton, then SLSQP unless certify accepts the Newton point,
    as the module docstring tells.  Returns certify's tuple (f, value,
    lower bound, whether the gap is certified) for the result, the
    Newton steps plus SLSQP iterations taken, and whether the solve
    converged: SLSQP's success flag, or True where SLSQP did not run."""
    rep, B_in, L_in, L_own, to_f = problem
    h0 = start[rep]
    if not h0.size:
        return certify(to_f(h0)), 0, True
    h, it, polished = _newton(B_in, L_in, L_own, p, h0, SLSQP_MAX_ITER // 10)
    if polished:
        cert = certify(to_f(h))
        if cert[3]:
            return cert, it, True
        h0 = h
    # below the certified return: scipy.optimize takes about 0.6 s to
    # import cold, and a certified solve never needs it
    from scipy.optimize import minimize

    def own_values(h):
        return (1.0 - B_in @ h) / L_own

    floor = max(2.0 ** -26 * h0.max(), np.finfo(float).tiny)
    log_h = np.log(np.maximum(h0, floor))
    # in logs, and clipped, so that s is finite and positive at any p
    s = np.exp(np.clip(-0.5 * (np.log(p * (p - 1.0) * L_in)
                               + (p - 2.0) * log_h), -300.0, 300.0))
    B_s = B_in * s / L_own[:, None]

    def fun(u):
        h = s * u
        return float(L_in @ np.abs(h) ** p
                     + L_own @ np.abs(own_values(h)) ** p)

    def jac(u):
        h = s * u
        r = own_values(h)
        return p * s * (L_in * np.sign(h) * np.abs(h) ** (p - 1.0)
                        - B_in.T @ (np.sign(r) * np.abs(r) ** (p - 1.0)))

    # at large p a line search may try points far outside the box
    # L_k h_k <= 1 that the constraints imply, where h^p overflows to
    # inf; to_f clips the result back into the box
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(
            fun, h0 / s, jac=jac,
            bounds=[(0.0, None)] * L_in.size,
            constraints=[{"type": "ineq",
                          "fun": lambda u: own_values(s * u),
                          "jac": lambda u: -B_s}],
            method="SLSQP",
            options={"maxiter": SLSQP_MAX_ITER - it,
                     "ftol": min(tol, 1e-12)},
        )
    return certify(to_f(s * res.x)), it + int(res.nit), bool(res.success)


def oracle_capacity(tree, boundary_set, p, tol=1e-6, method="auto"):
    """Capacity of a set of true leaves by direct convex minimization:
    one KKT linear solve at p = 2 (method "kkt"), otherwise the Newton
    and SLSQP class solve from up to three starts that the module
    docstring tells ("slsqp", the label of both).  value is the
    objective of an admissible f, so a true upper bound; lower_bound is
    the dual certificate from the candidate measure.  A result that is
    neither certified nor converged raises OracleConvergenceError,
    which carries both.  tol must be >= 0.

    method "subgradient", kept for older callers, runs the same solve
    and is echoed back as the result's method.  Any value other than it
    and "auto" raises ValueError before the constraint matrix is built.
    """
    if method not in ("auto", "subgradient"):
        raise ValueError(f"unknown method {method!r}")
    require_tolerance(tol)
    pe = as_exponent(p)
    leaf_rows, paths, A = _constraint_matrix(tree, boundary_set)

    def certify(f):
        """f made admissible, its value, the dual lower bound, and
        whether the value is positive and the gap between the two is
        within max(tol, 1e-6) of it."""
        f = _feasible_correction(f, A, paths)
        value = float(np.sum(f ** pe.p))
        lower = _dual_bound(f, A, leaf_rows, pe.p)
        return (f, value, lower,
                value > 0.0 and value - lower <= max(tol, 1e-6) * value)

    if pe.p == 2.0:
        f, value, lower, gap_ok = certify(_solve_kkt_p2(A))
        it, ok, used = 0, True, "kkt"
    else:
        problem, it, used = _class_problem(A), 0, "slsqp"
        # the p = 2 start, the first result and the 1 / length start,
        # each built only when reached; SLSQP's success ends the walk
        # only from the second start on
        starts = (lambda: _p2_start(A, paths, pe.p), lambda: f,
                  lambda: _feasible_correction(
                      _warm_start(A.shape[1], paths), A, paths))
        for k, start in enumerate(starts):
            (f, value, lower, gap_ok), more, ok = _solve_slsqp(
                problem, pe.p, tol, start(), certify)
            it += more
            if gap_ok or (ok and k > 0):
                break
    if not ok and not gap_ok:
        raise OracleConvergenceError(
            f"slsqp: no convergence within {SLSQP_MAX_ITER} iterations "
            f"(best {value}, certified lower bound {lower})",
            best=value, lower_bound=lower)
    return OracleResult(value=value, lower_bound=lower, f=f,
                        iterations=it, converged=ok or gap_ok,
                        method=used if method == "auto" else method)
