"""Command line front end.

JSON in, JSON out: every subcommand prints one JSON document (floats
serialized by shortest round-trip repr, so output is deterministic and
reloads bit-exact).  Exit status: 0 on success, 1 when a verification
answers false or a solver cannot certify its result, 2 on bad
arguments or malformed input.

Numerical work stays in the library modules; this file only parses
arguments, loads JSON, and shapes results.

--threads N / TREECAP_THREADS sets the BLAS/OpenMP thread variables
that are still unset.  Both `treecap` and `python -m treecap.cli` import
the package, and numpy with it, before main() runs, so numpy's BLAS pool
keeps the size it started with; the cap reaches only libraries loaded
later, such as the OpenBLAS that a SciPy wheel bundles, which `oracle`
loads at p != 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path


def _refuse_constant(name):
    raise ValueError(f"JSON constant {name} is not a finite number")


def _read_json(path):
    """The JSON object in a file, or on stdin for -; NaN and Infinity
    are refused."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    obj = json.loads(text, parse_constant=_refuse_constant)
    if not isinstance(obj, dict):
        raise ValueError(f"{path} holds {type(obj).__name__} JSON, not an "
                         "object")
    return obj


def _dump(payload, fmt):
    if fmt == "human":
        for line in _human_lines(payload, ""):
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _human_lines(obj, prefix):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _human_lines(obj[k], f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(obj, (list, tuple)) and len(obj) > 8:
        yield f"{prefix[:-1]}: [{len(obj)} entries]"
    elif isinstance(obj, (list, tuple)):
        yield f"{prefix[:-1]}: {list(obj)}"
    else:
        yield f"{prefix[:-1]}: {obj}"


def _parse_set(text, tree):
    """Edge ids of comma separated leaf labels (plain ids on a tree
    without labels)."""
    return [tree.id_of_label(part.strip())
            for part in text.split(",") if part.strip()]


def _require_numbers(values, field):
    """Refuse values unless each is a JSON number; one pass over the
    types, since bools, strings and nulls would otherwise be read as
    numbers or fail deep inside numpy."""
    bad = set(map(type, values)) - {int, float}
    if bad:
        v = next(v for v in values if type(v) in bad)
        raise ValueError(f'"{field}" holds {v!r}, not a number')


def _load_measure(tree, obj):
    """The measure in "M" or "leaf_masses"; masses that are not JSON
    numbers, overflow to inf or sum to it are refused."""
    import numpy as np

    from .trees import BoundaryMeasure

    if "M" in obj:
        if not isinstance(obj["M"], list):
            raise ValueError('"M" must be an array of masses, one per edge')
        _require_numbers(obj["M"], "M")
        mu = BoundaryMeasure(tree, obj["M"], validate=False)
    elif "leaf_masses" in obj:
        masses = obj["leaf_masses"]
        if not isinstance(masses, dict):
            raise ValueError('"leaf_masses" must map leaf labels to masses')
        _require_numbers(masses.values(), "leaf_masses")
        masses = {tree.id_of_label(k): v for k, v in masses.items()}
        mu = BoundaryMeasure.from_leaf_masses(tree, masses)
    else:
        raise ValueError(
            'measure JSON needs an "M" array or "leaf_masses" map')
    if not np.isfinite(mu.M).all():
        raise ValueError("measure masses must be finite")
    return mu


def _tail_policy(text):
    if text in ("interval", "pessimistic", "optimistic"):
        return text
    return float(text)


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="treecap",
        description="p-capacities, equilibrium measures and square "
                    "tilings on boundaries of rooted trees")
    ap.add_argument("--threads", type=int, default=None,
                    help="cap the BLAS/OpenMP thread pools of libraries "
                         "loaded after start-up, not numpy's (default: "
                         "TREECAP_THREADS or library default)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, tree=True, p=True, tol=None):
        sp.add_argument("--format", choices=("json", "human"),
                        default="json")
        if tree:
            sp.add_argument("--tree", required=True,
                            help="tree JSON file, or - for stdin")
            sp.add_argument("--depth", type=int, default=None,
                            help="truncation depth for boundless tree "
                                 "specs (default: depth stored in the "
                                 "file, else 24)")
        if p:
            sp.add_argument("--p", type=float, default=2.0)
        if tol is not None:
            sp.add_argument("--tol", type=float, default=tol)

    sp = sub.add_parser("capacity", help="boundary capacity interval")
    common(sp)
    sp.add_argument("--tail-policy", default="interval", type=_tail_policy,
                    help="interval | pessimistic | optimistic | number")
    sp.add_argument("--set", default=None,
                    help="comma separated leaf labels (ids on a tree "
                         "without labels); capacity of that subset "
                         "instead of the whole boundary")

    sp = sub.add_parser("equilibrium",
                        help="capacity with equilibrium measure and "
                             "tent capacities")
    common(sp)
    sp.add_argument("--tail-policy", default="interval", type=_tail_policy)
    sp.add_argument("--include-zero", action="store_true",
                    help="keep zero entries in the measure output")

    sp = sub.add_parser("verify",
                        help="check the equilibrium identity for a "
                             "measure")
    common(sp, tol=1e-9)
    sp.add_argument("--measure", required=True,
                    help='JSON file with "M" or "leaf_masses"')

    sp = sub.add_parser("tile",
                        help="square tiling from an equilibrium "
                             "measure (p = 2)")
    common(sp, p=False, tol=1e-9)
    sp.add_argument("--measure", default=None,
                    help="measure JSON; computed from the tree when "
                         "omitted")
    sp.add_argument("--svg", default=None, help="also write an SVG here")
    sp.add_argument("--labels", action="store_true",
                    help="label squares in the SVG")

    sp = sub.add_parser("symmetric",
                        help="capacity of a level-regular boundary "
                             "from its degree sequence")
    common(sp, tree=False)
    sp.add_argument("--degrees", required=True,
                    help="comma separated forward degrees per level")
    sp.add_argument("--tail", type=int, default=None,
                    help="constant continuation degree (finite tree "
                         "when omitted)")

    sp = sub.add_parser("resistance",
                        help="effective resistance below the root edge")
    common(sp, p=False)
    sp.add_argument("--tail-policy", default="interval", type=_tail_policy)

    sp = sub.add_parser("construct-set",
                        help="boundary subset of a complete n-ary tree "
                             "with prescribed capacity")
    common(sp, tree=False, tol=1e-3)
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--depth", type=int, default=16)
    sp.add_argument("--leaves", action="store_true",
                    help="include the full leaf id list")

    sp = sub.add_parser("construct-tree",
                        help="tree of unary runs and binary branchings "
                             "with prescribed capacity")
    common(sp, tree=False)
    sp.add_argument("--target", type=float, required=True)
    sp.add_argument("--digits", type=int, default=30)

    sp = sub.add_parser("oracle",
                        help="capacity by direct convex minimization")
    common(sp, tol=1e-6)
    sp.add_argument("--set", default=None)
    return ap


def _load_tree(args, explicit_for=None):
    """Load --tree; explicit_for names what needs it explicitly stored."""
    from .trees import require_explicit, spec_from_json, tree_from_json

    obj = _read_json(args.tree)
    depth = args.depth
    if (depth is None and "depth" not in obj and "spec" in obj
            and spec_from_json(obj["spec"]).levels()[1] is not None):
        depth = 24
    tree = tree_from_json(obj, depth=depth)
    if explicit_for:
        require_explicit(tree, explicit_for)
    return tree


def _cmd_capacity(args):
    from .capacity import capacity_of_set, capacity_recursive

    tree = _load_tree(args, args.set is not None and "a boundary subset")
    if args.set is not None:
        ids = _parse_set(args.set, tree)
        res = capacity_of_set(tree, ids, args.p)
        return 0, {"p": args.p, "set": ids,
                   "capacity": res.capacity.to_json()}
    res = capacity_recursive(tree, args.p, tail_policy=args.tail_policy)
    return 0, {"p": args.p, "n_edges": tree.n_edges,
               "capacity": res.capacity.to_json()}


def _cmd_equilibrium(args):
    from .capacity import capacity_recursive

    tree = _load_tree(args)
    res = capacity_recursive(tree, args.p, tail_policy=args.tail_policy)
    payload = res.to_json(keep_zero=args.include_zero)
    payload["p"] = args.p
    return 0, payload


def _cmd_verify(args):
    from .characterization import verify_equilibrium

    tree = _load_tree(args)
    mu = _load_measure(tree, _read_json(args.measure))
    rep = verify_equilibrium(tree, mu, args.p, tol=args.tol)
    return (0 if rep.is_equilibrium else 1), rep.to_json()


def _cmd_tile(args):
    from .capacity import capacity_recursive
    from .tiling import build_tiling, emit_svg, validate_tiling

    tree = _load_tree(args, "tiling")
    if args.measure is not None:
        mu = _load_measure(tree, _read_json(args.measure))
    else:
        mu = capacity_recursive(tree, 2).measure
    try:
        tiling = build_tiling(tree, mu, tol=args.tol)
    except ValueError as exc:
        return 1, {"ok": False, "error": str(exc)}
    rep = validate_tiling(tiling, tol=args.tol)
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(emit_svg(tiling, labels=args.labels))
    return (0 if rep.ok else 1), {"tiling": tiling.to_json(),
                                  "validation": rep.to_json()}


def _cmd_symmetric(args):
    from .capacity import symmetric_capacity

    degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    iv = symmetric_capacity(degrees, args.p, tail_degree=args.tail)
    return 0, {"p": args.p, "degrees": degrees, "tail": args.tail,
               "capacity": iv.to_json()}


def _cmd_resistance(args):
    from .capacity import total_resistance

    tree = _load_tree(args)
    res = total_resistance(tree, tail_policy=args.tail_policy)
    return 0, {"resistance": {"lower": res.lower, "upper": res.upper},
               "capacity": res.capacity_interval().to_json()}


def _cmd_construct_set(args):
    from .constructions import compact_set_of_capacity

    res = compact_set_of_capacity(args.n, args.p, args.target,
                                  tol=args.tol, depth=args.depth)
    payload = res.to_json()
    if args.leaves:
        payload["leaves"] = res.leaves
    return 0, payload


def _cmd_construct_tree(args):
    from .constructions import subdyadic_tree_of_capacity

    res = subdyadic_tree_of_capacity(args.target, args.p,
                                     digit_count=args.digits)
    return 0, res.to_json()


def _cmd_oracle(args):
    from .oracle import OracleConvergenceError, oracle_capacity

    tree = _load_tree(args, "the oracle")
    ids = (_parse_set(args.set, tree) if args.set is not None
           else tree.true_leaves())
    try:
        res = oracle_capacity(tree, ids, args.p, tol=args.tol)
    except OracleConvergenceError as exc:
        return 1, {"converged": False, "value": exc.best,
                   "lower_bound": exc.lower_bound, "error": str(exc)}
    return 0, {"value": res.value, "lower_bound": res.lower_bound,
               "gap": res.gap, "iterations": res.iterations,
               "converged": res.converged, "method": res.method}


_COMMANDS = {
    "capacity": _cmd_capacity,
    "equilibrium": _cmd_equilibrium,
    "verify": _cmd_verify,
    "tile": _cmd_tile,
    "symmetric": _cmd_symmetric,
    "resistance": _cmd_resistance,
    "construct-set": _cmd_construct_set,
    "construct-tree": _cmd_construct_tree,
    "oracle": _cmd_oracle,
}


def _check_finite(args):
    """float() reads nan and inf; no float option takes them."""
    for name, v in vars(args).items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"--{name.replace('_', '-')} must be finite")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    threads = args.threads or os.environ.get("TREECAP_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, str(threads))
    try:
        _check_finite(args)
        if getattr(args, "tol", 0.0) < 0.0:
            raise ValueError(f"--tol must be >= 0, got {args.tol}")
        code, payload = _COMMANDS[args.cmd](args)
        _dump(payload, args.format)
    except BrokenPipeError:
        # the reader left; send what is still buffered to /dev/null so
        # the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, TypeError, OverflowError, OSError,
            json.JSONDecodeError) as exc:
        print(f"treecap: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
