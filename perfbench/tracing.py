"""Spans around calls into treecap's public functions, recorded from
outside the package.

The package imports by name (`from .potential import potential_all`),
so one function can be bound in several module namespaces; a wrapper
goes into every namespace that binds it, otherwise nested calls would
run untimed and self times would come out wrong.  Spans are recorded
only while an operation span is open, so set-up and correctness checks
leave no trace.  Spans stay in memory until the run ends.
"""

import functools
import importlib
import time

MODULES = ("trees", "capacity", "potential", "characterization", "tiling",
           "oracle", "constructions", "cli")

# (layer, attribute path in that module, size of the work for ns_per_*)
TIMED = (
    ("trees", "build_tree", "edges_out"),
    ("trees", "tree_from_json", "edges_out"),
    ("trees", "spanned_subtree", None),
    ("trees", "tent", None),
    ("trees", "is_forward_additive", "edges_in"),
    ("trees", "BoundaryMeasure.from_leaf_masses", None),
    ("trees", "edge_function_to_mapping", None),
    ("capacity", "capacity_recursive", "edges_in"),
    ("capacity", "capacity_of_set", None),
    ("capacity", "total_resistance", "edges_in"),
    ("capacity", "rescaling_constant", None),
    ("capacity", "symmetric_capacity", None),
    ("potential", "potential_all", "edges_in"),
    ("potential", "energy_all", "edges_in"),
    ("characterization", "verify_equilibrium", "edges_in"),
    ("characterization", "capacity_equation_check", "edges_in"),
    ("characterization", "check_potential_bound", "edges_in"),
    ("tiling", "build_tiling", "squares_out"),
    ("tiling", "validate_tiling", "squares_in"),
    ("tiling", "measure_from_tiling", "squares_in"),
    ("tiling", "emit_svg", "squares_in"),
    ("tiling", "tiling_from_json", None),
    ("oracle", "oracle_capacity", None),
    ("constructions", "compact_set_of_capacity", None),
    ("constructions", "subdyadic_tree_of_capacity", None),
    ("cli", "main", None),
)

_TREE_MAKERS = ("trees.build_tree", "trees.tree_from_json")


def _explicit_edges(tree):
    # compact symmetric trees report astronomically many virtual edges
    return tree.n_edges if hasattr(tree, "parent") else 0


def _info(path, size, args, result):
    """Work done by one call, read from its arguments and result."""
    info = {}
    if size == "edges_in":
        info["edges"] = _explicit_edges(args[0])
    elif size == "edges_out":
        info["edges"] = _explicit_edges(result)
    elif size == "squares_in":
        info["squares"] = len((args[1] if path == "measure_from_tiling"
                               else args[0]).squares)
    elif size == "squares_out":
        info["squares"] = len(result.squares)
    if path == "capacity_recursive":
        info["two_sweep"] = getattr(result, "upper_run", None) is not None
    elif path == "oracle_capacity":
        info["method"] = result.method
        info["iterations"] = result.iterations
        info["rel_gap"] = result.gap / max(result.lower_bound, 1e-300)
    elif path == "emit_svg":
        info["bytes"] = len(result)
    return info


class Tracer:
    """Span store: [name, start, end, parent index, op id, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def open_op(self, kind):
        self._op += 1
        return self._open("op." + kind)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._op, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, path, size, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self._stack:  # outside an operation: not measured
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span[5] = _info(path, size, args, result)
            return result
        return timed


def install(tracer):
    """Wrap every function in TIMED, in every treecap module that binds
    it.  Raises if a function cannot be found, so a renamed function
    fails loudly instead of going unmeasured."""
    pkg = importlib.import_module("treecap")
    mods = [pkg] + [importlib.import_module("treecap." + m) for m in MODULES]
    for layer, path, size in TIMED:
        home = importlib.import_module("treecap." + layer)
        name = f"{layer}.{path}"
        if "." in path:  # a classmethod
            cls_name, meth = path.split(".")
            cls = getattr(home, cls_name)
            fn = cls.__dict__[meth].__func__
            setattr(cls, meth, classmethod(tracer.wrap(name, meth, size, fn)))
            continue
        fn = getattr(home, path)
        wrapped = tracer.wrap(name, path, size, fn)
        for m in mods:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapped)


def metric_units():
    """Every per-layer metric name with its unit and better direction,
    in report order."""
    out = {}
    for layer, path, size in TIMED:
        name = f"{layer}.{path}"
        out[name + ".calls"] = ("count", "higher")
        out[name + ".busy_s"] = ("s", "lower")
        out[name + ".self_s"] = ("s", "lower")
        if size in ("edges_in", "edges_out"):
            out[name + ".ns_per_edge"] = ("ns", "lower")
        elif size is not None:
            out[name + ".ns_per_square"] = ("ns", "lower")
        if path == "validate_tiling":
            out[name + ".ns_per_square_small"] = ("ns", "lower")
            out[name + ".ns_per_square_large"] = ("ns", "lower")
    out.update({
        "trees.edges_built": ("count", "higher"),
        "capacity.capacity_recursive.two_sweep_calls": ("count", "lower"),
        "tiling.squares_built": ("count", "higher"),
        "tiling.svg_bytes": ("B", "lower"),
        "oracle.kkt.busy_s": ("s", "lower"),
        "oracle.slsqp.busy_s": ("s", "lower"),
        "oracle.iterations_mean": ("count", "lower"),
        "oracle.max_rel_gap": ("ratio", "lower"),
        "cli.import_s": ("s", "lower"),
        "cli.stdout_bytes": ("B", "lower"),
        "trace.ops_per_s_untraced": ("op/s", "higher"),
        "trace.ops_per_s_traced": ("op/s", "higher"),
        "trace.overhead_ratio": ("ratio", "lower"),
        "trace.spans": ("count", "higher"),
    })
    return out


def summarize(spans, square_sizes=()):
    """Per-layer metrics from recorded spans.  square_sizes holds the
    (small, large) square counts of the tilings, when the workload has
    two sizes."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    names = {f"{layer}.{path}": size for layer, path, size in TIMED}
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    work = dict.fromkeys(names, 0)
    by_size = {}
    extra = {"edges_built": 0, "two_sweep": 0, "squares": 0, "svg_bytes": 0,
             "kkt": 0.0, "slsqp": 0.0, "iters": [], "gap": 0.0}
    for i, (name, t0, t1, parent, _, info) in enumerate(spans):
        if name not in names:
            continue
        dt = t1 - t0
        calls[name] += 1
        busy[name] += dt
        self_s[name] += dt - child_time[i]
        info = info or {}
        work[name] += info.get("edges", info.get("squares", 0))
        if name == "tiling.validate_tiling":
            n = info["squares"]
            tot = by_size.setdefault(n, [0.0, 0])
            tot[0] += dt
            tot[1] += n
        if name in _TREE_MAKERS and (
                parent < 0 or spans[parent][0] not in _TREE_MAKERS):
            extra["edges_built"] += info.get("edges", 0)
        extra["two_sweep"] += bool(info.get("two_sweep"))
        if name == "tiling.build_tiling":
            extra["squares"] += info["squares"]
        extra["svg_bytes"] += info.get("bytes", 0)
        if "method" in info:
            extra[info["method"]] = extra.get(info["method"], 0.0) + dt
            extra["iters"].append(info["iterations"])
            extra["gap"] = max(extra["gap"], info["rel_gap"])

    def per_unit(seconds, count):
        return seconds * 1e9 / count if count else 0.0

    out = {}
    for name, size in names.items():
        out[name + ".calls"] = calls[name]
        out[name + ".busy_s"] = busy[name]
        out[name + ".self_s"] = self_s[name]
        if size in ("edges_in", "edges_out"):
            out[name + ".ns_per_edge"] = per_unit(busy[name], work[name])
        elif size is not None:
            out[name + ".ns_per_square"] = per_unit(busy[name], work[name])
    for label, n in zip(("small", "large"), tuple(square_sizes) or (0, 0)):
        secs, count = by_size.get(n, (0.0, 0))
        out["tiling.validate_tiling.ns_per_square_" + label] = per_unit(
            secs, count)
    out["trees.edges_built"] = extra["edges_built"]
    out["capacity.capacity_recursive.two_sweep_calls"] = extra["two_sweep"]
    out["tiling.squares_built"] = extra["squares"]
    n_svg = calls["tiling.emit_svg"]
    out["tiling.svg_bytes"] = extra["svg_bytes"] / n_svg if n_svg else 0.0
    out["oracle.kkt.busy_s"] = extra["kkt"]
    out["oracle.slsqp.busy_s"] = extra["slsqp"]
    iters = extra["iters"]
    out["oracle.iterations_mean"] = sum(iters) / len(iters) if iters else 0.0
    out["oracle.max_rel_gap"] = extra["gap"]
    return out
