"""Command line front end.

JSON in, JSON out: every subcommand prints one JSON document (floats
serialized by shortest round-trip repr, so output is deterministic and
reloads bit-exact).  Exit status: 0 on success, 1 when a verification
answers false or a solver cannot certify its result, 2 on bad
arguments or malformed input.

Numerical work stays in the library modules; this file only parses
arguments, loads JSON, and shapes results.

The JSON bytes are those of json.dumps(payload, indent=2,
sort_keys=True) plus a newline.  CPython runs its pure-Python encoder
whenever indent is set, one Python step per value, and an equilibrium
holds two values per edge.  So each container of scalars goes to the C
encoder in one call, with the line break and indent in its item
separator, and only containers that nest others are laid out here.  The
document is written once it has all encoded, so a payload that cannot
be encoded prints nothing.

main() runs with the cyclic garbage collector off and gives the caller
back the state it had.  The data a run builds (parsed records, child
lists, tree arrays, output mappings) holds no cycles, so reference
counting frees it; only the argument parser's few hundred objects wait
for the next collection, or for the exit.  With the collector on, the
65k records of a 65,536-edge tree file set off collections that trace
every container parsed so far and free nothing: json.loads of such a
file took 48 ms with the collector and 30 ms without (min of 7 on a
2-vCPU Xeon VM), and the eight cold invocations of the cli-cold
benchmark ran at 3.87 op/s against 3.71 (medians of 20 seeds).

--threads N / TREECAP_THREADS sets the BLAS/OpenMP thread variables
that are still unset; either must be an integer >= 1.  Both `treecap`
and `python -m treecap.cli` import the package, and numpy with it,
before main() runs, so numpy's BLAS pool keeps the size it started
with; the cap reaches only libraries loaded later, such as the OpenBLAS
that a SciPy wheel bundles, which `oracle` loads only when a p != 2
solve falls back to SLSQP.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .capacity import (capacity_of_set, capacity_recursive,
                       symmetric_capacity, total_resistance)
from .characterization import verify_equilibrium
from .constructions import compact_set_of_capacity, subdyadic_tree_of_capacity
from .oracle import OracleConvergenceError, oracle_capacity
from .tiling import build_tiling, emit_svg, validate_tiling
from .trees import (BoundaryMeasure, _spec_int, require_explicit,
                    spec_from_json, tree_from_json)


def _refuse_constant(name):
    raise ValueError(f"JSON constant {name} is not a finite number")


def _read_json(path):
    """The JSON object in a file, or on stdin for -; NaN and Infinity
    are refused."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        obj = json.loads(text, parse_constant=_refuse_constant)
    except RecursionError:
        raise ValueError(f"{path} nests its JSON too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path} holds {type(obj).__name__} JSON, not an "
                         "object")
    return obj


def _dump(payload, fmt):
    """Print payload.  Exact ints that treecap computes, such as the
    n_edges of a deep compact tree, may have more digits than the
    interpreter converts to text by default, so the limit is lifted
    while encoding and restored after; input parsing keeps it.
    Interpreters without the limit skip this."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return _write(payload, fmt)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _write(payload, fmt)
    finally:
        sys.set_int_max_str_digits(limit)


def _write(payload, fmt):
    if fmt == "human":
        for line in _human_lines(payload, ""):
            print(line)
    else:
        # encode the whole document first, so a payload that cannot be
        # encoded leaves stdout empty
        pieces = []
        _json_pieces(payload, "\n", pieces)
        pieces.append("\n")
        sys.stdout.writelines(pieces)


_CONTAINERS = (dict, list, tuple)


def _json_pieces(obj, pad, out):
    """Append to out the text json.dumps(obj, indent=2, sort_keys=True)
    writes for obj on a line that starts with pad (newline and indent)."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        out.append(json.dumps(obj))
        return
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    if not any(issubclass(t, _CONTAINERS) for t in set(map(type, values))):
        # one C encoder call; its item separator carries the line breaks
        text = json.dumps(obj, sort_keys=True,
                          separators=("," + inner, ": "))
        out += text[0], inner, text[1:-1], pad, text[-1]
        return
    # a key as the encoder converts it: {3: 0} writes '"3": '
    items = ([(json.dumps({k: 0})[1:-2], v) for k, v in sorted(obj.items())]
             if is_dict else [("", v) for v in obj])
    sep, close = "{}" if is_dict else "[]"
    for key, v in items:
        out += sep, inner, key
        _json_pieces(v, inner, out)
        sep = ","
    out += pad, close


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
    """Refuse values unless each is a JSON number, since bools, strings
    and nulls would be read as numbers or fail deep inside numpy; one
    pass over the types, cheaper than a test per value."""
    bad = set(map(type, values)) - {int, float}
    if bad:
        v = next(v for v in values if type(v) in bad)
        raise ValueError(f'"{field}" holds {v!r}, not a number')


def _load_measure(tree, obj):
    """The measure in "M" or "leaf_masses"; masses that are not JSON
    numbers, overflow to inf or sum to it are refused."""
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
    tree = _load_tree(args)
    res = capacity_recursive(tree, args.p, tail_policy=args.tail_policy)
    payload = res.to_json(keep_zero=args.include_zero)
    payload["p"] = args.p
    return 0, payload


def _cmd_verify(args):
    tree = _load_tree(args, "verification")
    mu = _load_measure(tree, _read_json(args.measure))
    rep = verify_equilibrium(tree, mu, args.p, tol=args.tol)
    return (0 if rep.is_equilibrium else 1), rep.to_json()


def _cmd_tile(args):
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


def _degrees(text):
    """--degrees as ints.  An entry that is not an int is read as a
    float by the rule of a spec file's integers, so 2.0 is 2 and 2.5 is
    refused, while a long int keeps every digit."""
    degrees = []
    for d in filter(str.strip, text.split(",")):
        try:
            degrees.append(int(d))
        except ValueError:
            try:
                degrees.append(_spec_int("degrees", float(d)))
            except ValueError:
                raise ValueError(f"--degrees holds {d.strip()!r}, "
                                 "not an integer") from None
    return degrees


def _cmd_symmetric(args):
    degrees = _degrees(args.degrees)
    iv = symmetric_capacity(degrees, args.p, tail_degree=args.tail)
    return 0, {"p": args.p, "degrees": degrees, "tail": args.tail,
               "capacity": iv.to_json()}


def _cmd_resistance(args):
    tree = _load_tree(args)
    res = total_resistance(tree, tail_policy=args.tail_policy)
    return 0, {"resistance": {"lower": res.lower, "upper": res.upper},
               "capacity": res.capacity_interval().to_json()}


def _cmd_construct_set(args):
    res = compact_set_of_capacity(args.n, args.p, args.target,
                                  tol=args.tol, depth=args.depth)
    payload = res.to_json()
    if args.leaves:
        payload["leaves"] = res.leaves
    return 0, payload


def _cmd_construct_tree(args):
    res = subdyadic_tree_of_capacity(args.target, args.p,
                                     digit_count=args.digits)
    return 0, res.to_json()


def _cmd_oracle(args):
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


def _env_threads(raw):
    """TREECAP_THREADS read as --threads is: an integer >= 1."""
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(
            f"TREECAP_THREADS must be an integer >= 1, got {raw!r}")
    return threads


def main(argv=None):
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if was_enabled:
            gc.enable()


def _run(argv):
    args = _build_parser().parse_args(argv)
    try:
        threads = args.threads
        if threads is not None and threads < 1:
            raise ValueError(f"--threads must be >= 1, got {threads}")
        if threads is None and os.environ.get("TREECAP_THREADS"):
            threads = _env_threads(os.environ["TREECAP_THREADS"])
        if threads:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
                os.environ.setdefault(var, str(threads))
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
