"""The four benchmark workloads: seeded inputs, operations and the
correctness check of every operation.

A workload is built from a seed and a size ("full" for measurement,
"tiny" for the smoke test).  setup() makes every input and every
reference answer; cycle(k) returns the k-th list of operations.  An
operation is (kind, call, check): call() runs the program and is the
timed part, check(result) raises CheckFailed on a wrong answer, or
KnownDefect when the program fails in a way listed in BENCHMARK.json.
Checks call no timed treecap function, so they leave no spans.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np

import treecap as tc
import treecap.cli

SIZES = {
    "sweep-large": {"full": {"depth": 16, "edges": 131_071},
                    "tiny": {"depth": 5, "edges": 123}},
    "tile-p2": {"full": {"squares": (1023, 2047)},
                "tiny": {"squares": (23, 47)}},
    "referee-small": {"full": {"small": 100, "large": 150, "n_small": 24,
                               "n_large": 6, "set_depths": (12, 16)},
                      "tiny": {"small": 20, "large": 40, "n_small": 3,
                               "n_large": 1, "set_depths": (12,)}},
    "cli-cold": {"full": {"big": 65_536, "tile": 1023, "oracle": 100,
                          "set_depth": 16},
                 "tiny": {"big": 200, "tile": 31, "oracle": 20,
                          "set_depth": 12}},
}


# Prefix sets of leaves jump over some capacities, so for a fifth to a
# third of targets in [0.1, 0.45] no prefix lands within tol (known defect)
GRANULARITY = "leaf granularity too coarse"
SET_TOL = 1e-3


class CheckFailed(Exception):
    """The program returned a wrong answer."""


class KnownDefect(Exception):
    """The program failed in a way BENCHMARK.json lists as known."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def random_parents(rng, n_edges, max_kids=3, leaf_chance=0.3):
    """Parent array of a random finite tree with exactly n_edges edges,
    in breadth-first order.  Each edge gets 1..max_kids children, or
    ends as a leaf with probability leaf_chance once its level holds at
    least MIN_WIDTH edges.  A level cannot die out before the size is
    reached, and the tree does not thin into long chains, whose
    tilings take half the work to validate."""
    parent = [-1]
    frontier = [0]
    while len(parent) < n_edges:
        nxt = []
        may_end = len(frontier) >= MIN_WIDTH
        for e in frontier:
            room = n_edges - len(parent)
            if room <= 0:
                break
            if may_end and rng.random() < leaf_chance:
                continue
            for _ in range(min(int(rng.integers(1, max_kids + 1)), room)):
                nxt.append(len(parent))
                parent.append(e)
        if not nxt:  # every edge of a wide level ended
            for _ in range(min(2, n_edges - len(parent))):
                nxt.append(len(parent))
                parent.append(frontier[-1])
        frontier = nxt
    return parent


MIN_WIDTH = 4


def adjacency_of(parent):
    adj = {i: [] for i in range(len(parent))}
    for i, p in enumerate(parent[1:], 1):
        adj[p].append(i)
    return adj


def random_tree(rng, n_edges):
    return tc.build_tree(tc.Explicit(adjacency_of(random_parents(rng,
                                                                 n_edges))))


def quartered_adjacency(rng, n_edges):
    """A complete binary top of seven edges, with a random subtree of
    the same size below each of its four level-2 edges.  Every level-2
    tent then holds a quarter of the tree, whatever the seed."""
    adj = {0: [1, 2], 1: [3, 4], 2: [5, 6]}
    size = (n_edges - 3) // 4  # edges per subtree, its top edge included
    base = 7
    for top in range(3, 7):
        label = [top] + list(range(base, base + size - 1))
        base += size - 1
        for i, kids in adjacency_of(random_parents(rng, size)).items():
            adj[label[i]] = [label[c] for c in kids]
    return adj


def quartered_tree(rng, n_edges):
    return tc.build_tree(tc.Explicit(quartered_adjacency(rng, n_edges)))


def close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------


class Workload:
    """Defaults: every cycle repeats the same operations, in this
    process; warming up runs the first of them."""

    def warm_up(self):
        self.cycle(0)[0][1]()

    @staticmethod
    def op_set(k):
        return 0

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self):
        pass


class SweepLarge(Workload):
    """Large explicit trees through the full sweep chain."""

    tail_pct = 90
    P_VALUES = (1.5, 2.0, 2.5, 3.0)
    P_VERIFY = 2.5

    def __init__(self, seed, size, workdir):
        self.rng = np.random.default_rng(seed)
        self.cfg = SIZES["sweep-large"][size]

    def setup(self):
        cfg = self.cfg
        self.adjacency = quartered_adjacency(self.rng, cfg["edges"])
        # reference answer for the random tree's rescaling check
        tree = tc.build_tree(tc.Explicit(self.adjacency))
        self.alpha_r = int(self.rng.integers(3, 7))  # a level-2 edge
        self.tent_cap = tc.capacity_recursive(
            tc.tent(tree, self.alpha_r), self.P_VERIFY).capacity.midpoint
        self.sizes = {"homogeneous_edges": 2 ** (cfg["depth"] + 1) - 1,
                      "homogeneous_depth": cfg["depth"],
                      "random_edges": tree.n_edges,
                      "random_depth": tree.depth}

    def cycle(self, k):
        return self._chain("hom") + self._chain("rand")

    def _chain(self, which):
        st = {}
        depth = self.cfg["depth"]
        if which == "hom":
            def build():
                return tc.build_tree(tc.Homogeneous(2), depth=depth,
                                     layout="explicit")
            n_expected = 2 ** (depth + 1) - 1
        else:
            def build():
                return tc.build_tree(tc.Explicit(self.adjacency))
            n_expected = len(self.adjacency)

        def check_build(tree):
            require(tree.n_edges == n_expected, "edge count")
            st["tree"] = tree

        ops = [(which + ".build_tree", build, check_build)]
        for p in self.P_VALUES:
            ops.append((which + ".capacity_recursive",
                        lambda p=p: tc.capacity_recursive(st["tree"], p),
                        lambda r, p=p: self._check_capacity(which, st, p, r)))
        pv = self.P_VERIFY
        ops += [
            (which + ".verify_equilibrium",
             lambda: tc.verify_equilibrium(st["tree"], st[pv].measure, pv),
             lambda r: self._check_verify(which, st, r)),
            (which + ".capacity_equation_check",
             lambda: tc.capacity_equation_check(st["tree"], st[pv], pv),
             lambda r: require(r.ok, f"equation residual {r.max_residual}")),
            (which + ".check_potential_bound",
             lambda: tc.check_potential_bound(st["tree"], st[pv].measure, pv),
             lambda r: require(r.ok, f"potential {r.max_value} above 1")),
        ]
        if which == "rand":
            ops.append((which + ".from_leaf_masses",
                        lambda: tc.BoundaryMeasure.from_leaf_masses(
                            st["tree"], st["masses"]),
                        lambda r: require(np.max(np.abs(
                            r.M - st[pv].measure.M)) <= 1e-12,
                            "leaf masses do not add up to M")))
        ops += [
            (which + ".total_resistance",
             lambda: tc.total_resistance(st["tree"]),
             lambda r: self._check_resistance(st, r)),
            (which + ".rescaling_constant",
             lambda: tc.rescaling_constant(
                 st["tree"], st[pv], 3 if which == "hom" else self.alpha_r),
             lambda r: self._check_rescaling(which, st, r)),
        ]
        return ops

    def _check_capacity(self, which, st, p, res):
        st[p] = res
        iv = res.capacity
        if which == "hom":
            exact = tc.homogeneous_capacity(2, p)
            require(iv.contains(exact), f"p={p}: {exact} outside {iv}")
            require(res.upper_run is not None, "interval ran one sweep")
        else:
            require(iv.lower == iv.upper and 0.0 < iv.lower <= 1.0,
                    f"p={p}: finite-tree capacity {iv}")
            if p == self.P_VERIFY:
                st["masses"] = leaf_masses(st["tree"], res)

    @staticmethod
    def _check_verify(which, st, rep):
        if which == "hom":
            # tails carry mass under the interval policy, so every tent
            # is unverifiable and certification must be refused
            require(not rep.is_equilibrium, "certified with tail mass")
            require(len(rep.undetermined) == len(st["tree"].tail_ids()),
                    "undetermined tails")
        else:
            require(rep.is_equilibrium,
                    f"equilibrium refused: residual {rep.max_residual}")

    @staticmethod
    def _check_resistance(st, rr):
        iv_r = rr.capacity_interval()
        iv_c = st[2.0].capacity
        tol = 1e-12 + iv_c.width
        require(close(iv_r.lower, iv_c.lower, tol)
                and close(iv_r.upper, iv_c.upper, tol),
                f"1/(1+R) {iv_r} differs from capacity {iv_c}")

    def _check_rescaling(self, which, st, rs):
        if which == "hom":  # the tent is again Homogeneous(2)
            iv = st[self.P_VERIFY].capacity
            require(iv.contains(rs.capacity, slack=1e-9),
                    f"rescaled capacity {rs.capacity} outside {iv}")
        else:
            require(close(rs.capacity, self.tent_cap, 1e-9),
                    f"rescaled capacity {rs.capacity} != {self.tent_cap}")


def compact_set(target, depth):
    """compact_set_of_capacity at n = 2, p = 2 and the CLI's default
    tol; the known granularity failure is returned, not raised."""
    try:
        return tc.compact_set_of_capacity(2, 2.0, target, tol=SET_TOL,
                                          depth=depth)
    except ValueError as exc:
        if GRANULARITY in str(exc):
            return exc
        raise


def check_compact_set(res):
    if isinstance(res, ValueError):
        raise KnownDefect("compact_set_of_capacity: " + str(res))
    require(res.error <= SET_TOL, f"compact set error {res.error}")


def leaf_masses(tree, res):
    M = res.measure.M
    return {z: float(M[z]) for z in tree.true_leaves()}


# ---------------------------------------------------------------------------


class TileP2(Workload):
    """Square tilings at p = 2, two sizes so the growth of validation
    cost with the square count shows."""

    tail_pct = 90
    TREES_PER_SIZE = 2

    def __init__(self, seed, size, workdir):
        self.rng = np.random.default_rng(seed)
        self.cfg = SIZES["tile-p2"][size]

    def setup(self):
        # with a random top, validation work differs by up to half from
        # seed to seed; with the quartered top, by a few percent
        small, large = self.cfg["squares"]
        self.trees = [quartered_tree(self.rng, n)
                      for n in (small, large) * self.TREES_PER_SIZE]
        self.sizes = {"squares_small": small, "squares_large": large,
                      "trees_per_size": self.TREES_PER_SIZE}

    def cycle(self, k):
        ops = []
        for tree in self.trees:
            ops += self._chain(tree)
        return ops

    @staticmethod
    def _chain(tree):
        st = {}

        def check_cap(res):
            require(res.capacity.lower == res.capacity.upper,
                    "finite tree gave an interval")
            st["M"] = res.measure.M

        def check_build(til):
            require(len(til.squares) == int(np.count_nonzero(st["M"])),
                    "square count")
            require(til.width == st["M"][0], "width")
            st["tiling"] = til

        def check_valid(rep):
            til = st["tiling"]
            area = sum(s.side ** 2 for s in til.squares)
            require(rep.ok, "; ".join(rep.messages[:3]))
            require(abs(area - til.width) <= 1e-9,
                    f"areas sum to {area}, width {til.width}")

        def check_json(til):
            a = sorted((s.edge, s.x, s.y, s.side) for s in til.squares)
            b = sorted((s.edge, s.x, s.y, s.side)
                       for s in st["tiling"].squares)
            require(a == b and til.width == st["tiling"].width,
                    "JSON round trip changed the tiling")
            st["back"] = til

        def check_measure(out):
            mu, rep = out
            require(np.max(np.abs(mu.M - st["M"])) <= 1e-10,
                    "measure from tiling differs")
            require(rep.is_equilibrium, "recovered measure not equilibrium")

        def check_svg(svg):
            require(svg.startswith("<svg")
                    and svg.count("<rect") == len(st["tiling"].squares) + 1,
                    "SVG square count")

        return [
            ("capacity_recursive", lambda: tc.capacity_recursive(tree, 2.0),
             check_cap),
            ("build_tiling", lambda: tc.build_tiling(tree, st["M"]),
             check_build),
            ("validate_tiling", lambda: tc.validate_tiling(st["tiling"]),
             check_valid),
            ("tiling_json", lambda: tc.tiling_from_json(
                tree, st["tiling"].to_json()), check_json),
            ("measure_from_tiling",
             lambda: tc.measure_from_tiling(tree, st["back"]), check_measure),
            ("emit_svg", lambda: tc.emit_svg(st["back"]), check_svg),
        ]


# ---------------------------------------------------------------------------


class RefereeSmall(Workload):
    """Many small instances through the recursion and the independent
    oracle, plus the two constructions.  Every cycle draws fresh
    instances; p and the subset share are stratified so that each cycle
    covers their ranges evenly."""

    tail_pct = 90
    P_RANGE = (1.2, 4.0)
    SUBDYADIC = (0.2, 2.5)  # target, p
    SLACK = 1e-7  # relative slack on lower_bound <= capacity <= value
    TOL = 1e-6  # oracle_capacity's default tol

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.cfg = SIZES["referee-small"][size]
        self._cycles = {}

    def setup(self):
        cfg = self.cfg
        self.sizes = {"small_edges": cfg["small"], "large_edges": cfg["large"],
                      "instances_per_cycle": cfg["n_small"] + cfg["n_large"]}

    def warm_up(self):
        # a fixed SLSQP solve pulls in scipy.optimize, about 0.7 s cold
        path = tc.build_tree(tc.SphericallySymmetric([1, 1]))
        tc.oracle_capacity(path, path.true_leaves(), 3.0)

    def _instance(self, rng, n_edges, p_stratum, share_stratum, n_strata):
        tree = random_tree(rng, n_edges)
        leaves = tree.true_leaves()
        lo, hi = self.P_RANGE
        p = lo + (hi - lo) * (p_stratum + rng.random()) / n_strata
        share = (share_stratum + rng.random()) / n_strata
        size = min(len(leaves), max(1, int(round(share * len(leaves)))))
        subset = sorted(int(z) for z in
                        rng.choice(leaves, size=size, replace=False))
        # p = 2 reference from the recursion, computed outside timing
        ref2 = tc.capacity_of_set(tree, subset, 2.0).capacity.midpoint
        return tree, subset, p, ref2

    @staticmethod
    def op_set(k):
        return k  # fresh instances every cycle

    def cycle(self, k):
        if k not in self._cycles:
            self._cycles = {k: self._make_cycle(k)}
        return self._cycles[k]

    def _make_cycle(self, k):
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, k])
        n_small, n_large = cfg["n_small"], cfg["n_large"]
        # independent strata for p and subset share (a Latin square per
        # cycle) keep the mix of hard cases even from cycle to cycle
        s_p, s_share = (rng.permutation(n_small) for _ in range(2))
        l_p, l_share = (rng.permutation(n_large) for _ in range(2))
        every = n_small // n_large
        ops = []
        for i in range(n_small):
            inst = self._instance(rng, cfg["small"], s_p[i], s_share[i],
                                  n_small)
            ops.append(("instance.small", *self._instance_op(*inst)))
            j = i // every
            if i % every == every - 1 and j < n_large:
                inst = self._instance(rng, cfg["large"], l_p[j], l_share[j],
                                      n_large)
                ops.append(("instance.large", *self._instance_op(*inst)))
        for depth in cfg["set_depths"]:
            target = float(rng.uniform(0.1, 0.45))
            ops.append(("compact_set_of_capacity",
                        lambda d=depth, t=target: compact_set(t, d),
                        check_compact_set))
        target, p = self.SUBDYADIC
        ops.append(("subdyadic_tree_of_capacity",
                    lambda: tc.subdyadic_tree_of_capacity(target, p),
                    lambda r: require(r.error <= 1e-4,
                                      f"subdyadic error {r.error}")))
        return ops

    def _instance_op(self, tree, subset, p, ref2):
        def call():
            return (tc.capacity_of_set(tree, subset, p),
                    tc.oracle_capacity(tree, subset, p),
                    tc.oracle_capacity(tree, subset, 2.0))

        def check(out):
            res, orc, kkt = out
            cap = res.capacity.midpoint
            require(orc.method == "slsqp" and kkt.method == "kkt",
                    f"oracle methods {orc.method}, {kkt.method}")
            for o, c, q in ((orc, cap, p), (kkt, ref2, 2.0)):
                s = self.SLACK * c
                require(o.lower_bound - s <= c <= o.value + s,
                        f"p={q:.4f}: {c} outside [{o.lower_bound}, "
                        f"{o.value}]")
                if abs(o.value - c) <= self.TOL * c:
                    continue
                if o.converged and o.gap > self.TOL * o.lower_bound:
                    raise KnownDefect(
                        f"oracle_capacity at p={q:.4f} reports converged "
                        f"with certified gap {o.gap / o.lower_bound:.1e} "
                        f"> tol; value {o.value} vs recursion {c}")
                raise CheckFailed(f"p={q:.4f}: oracle {o.value} vs "
                                  f"recursion {c}")
        return call, check


# ---------------------------------------------------------------------------


class CliCold(Workload):
    """Cold `python -m treecap.cli` invocations on files written by the
    library's own tree_to_json."""

    tail_pct = 75

    def __init__(self, seed, size, workdir):
        self.rng = np.random.default_rng(seed)
        self.cfg = SIZES["cli-cold"][size]
        self.dir = workdir
        self.in_process_cli = False  # the traced run calls cli.main
        self.stdout_bytes = 0
        self._launcher = None

    def _write(self, name, obj):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def setup(self):
        self._launcher = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__),
                                          "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        cfg = self.cfg
        rng = self.rng
        hom = tc.build_tree(tc.Homogeneous(2), depth=30)
        big = random_tree(rng, cfg["big"])
        small = quartered_tree(rng, cfg["tile"])
        orc_tree = random_tree(rng, cfg["oracle"])
        f_hom = self._write("hom.json", tc.tree_to_json(hom))
        f_big = self._write("big.json", tc.tree_to_json(big))
        f_small = self._write("small.json", tc.tree_to_json(small))
        f_orc = self._write("oracle.json", tc.tree_to_json(orc_tree))
        eq = tc.capacity_recursive(big, 2.0)
        f_m = self._write("measure_M.json", {"M": eq.measure.M.tolist()})
        masses = {big.label_of(z): m for z, m in leaf_masses(big, eq).items()}
        f_lm = self._write("measure_leaf.json", {"leaf_masses": masses})
        self.svg = os.path.join(self.dir, "tile.svg")
        target = float(rng.uniform(0.1, 0.45))

        # reference answers from the library, in the CLI's payload shapes
        cap = tc.capacity_recursive(hom, 2.0).capacity.to_json()
        rr = tc.total_resistance(big)
        mu_lm = tc.BoundaryMeasure.from_leaf_masses(big, leaf_masses(big, eq))
        til = tc.build_tiling(small, tc.capacity_recursive(small, 2.0).measure)
        self.svg_text = tc.emit_svg(til)
        orc = tc.oracle_capacity(orc_tree, orc_tree.true_leaves(), 2.0)
        cs = compact_set(target, cfg["set_depth"])
        expected = {
            "capacity": {"p": 2.0, "n_edges": hom.n_edges, "capacity": cap},
            "equilibrium": dict(eq.to_json(), p=2.0),
            "resistance": {"resistance": {"lower": rr.lower,
                                          "upper": rr.upper},
                           "capacity": rr.capacity_interval().to_json()},
            "verify_M": tc.verify_equilibrium(big, eq.measure, 2.0).to_json(),
            "verify_leaf": tc.verify_equilibrium(big, mu_lm, 2.0).to_json(),
            "construct-set": (None if isinstance(cs, ValueError)
                              else cs.to_json()),
            "tile": {"tiling": til.to_json(),
                     "validation": tc.validate_tiling(til).to_json()},
            "oracle": {"value": orc.value, "lower_bound": orc.lower_bound,
                       "gap": orc.gap, "iterations": orc.iterations,
                       "converged": orc.converged, "method": orc.method},
        }
        # JSON normalizes tuples and int keys exactly as the CLI output
        self.expected = json.loads(json.dumps(expected))
        self.invocations = [
            ("capacity", ["capacity", "--tree", f_hom]),
            ("equilibrium", ["equilibrium", "--tree", f_big]),
            ("resistance", ["resistance", "--tree", f_big]),
            ("verify_M", ["verify", "--tree", f_big, "--measure", f_m]),
            ("verify_leaf", ["verify", "--tree", f_big, "--measure", f_lm]),
            ("construct-set", ["construct-set", "--target", repr(target),
                               "--depth", str(cfg["set_depth"])]),
            ("tile", ["tile", "--tree", f_small, "--svg", self.svg]),
            ("oracle", ["oracle", "--tree", f_orc, "--p", "2"]),
        ]
        self.sizes = {"adjacency_edges": big.n_edges,
                      "tile_squares": len(til.squares),
                      "oracle_edges": orc_tree.n_edges,
                      "construct_set_depth": cfg["set_depth"]}

    def cycle(self, k):
        return [(key, lambda argv=argv: self._invoke(argv),
                 lambda out, key=key: self._check(key, out))
                for key, argv in self.invocations]

    def _invoke(self, argv):
        if self.in_process_cli:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = treecap.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        paths = [os.path.join(self.dir, name) for name in ("out", "err")]
        self._launcher.stdin.write(json.dumps(
            [[sys.executable, "-m", "treecap.cli", *argv], *paths]) + "\n")
        self._launcher.stdin.flush()
        code = int(self._launcher.stdout.readline())
        with open(paths[0]) as out, open(paths[1]) as err:
            return code, out.read(), err.read()

    def peak_rss_mb(self):
        """Largest peak RSS of the CLI processes."""
        self._launcher.stdin.write("\n")
        self._launcher.stdin.flush()
        return float(self._launcher.stdout.readline())

    def close(self):
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait(timeout=30)
            self._launcher.stdout.close()

    def _check(self, key, out):
        code, stdout, stderr = out
        self.stdout_bytes += len(stdout)
        if (key == "verify_leaf" and code == 2
                and "unknown edge label '" in stderr):
            raise KnownDefect("verify --measure leaf_masses on integer "
                              "labels: " + stderr.strip())
        if key == "construct-set" and code == 2 and GRANULARITY in stderr:
            require(self.expected[key] is None,
                    "construct-set failed where the library succeeded")
            raise KnownDefect("construct-set: " + stderr.strip())
        require(code == 0, f"{key}: exit {code}: {stderr.strip()[:200]}")
        payload = json.loads(stdout)
        want = self.expected[key]
        if key == "tile":
            require(payload["tiling"] == want["tiling"], "tile: tiling")
            require(payload["validation"]["ok"], "tile: validation")
            with open(self.svg) as fh:
                require(fh.read() == self.svg_text, "tile: SVG differs")
        else:
            require(payload == want, f"{key}: output differs from library")


WORKLOADS = {"sweep-large": SweepLarge, "tile-p2": TileP2,
             "referee-small": RefereeSmall, "cli-cold": CliCold}
