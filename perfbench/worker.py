"""One workload in a fresh process: set up, warm up, then the timed pass.

run.py starts this file once per set-up measurement and once for the
timed pass.  It prints READY when set-up and one untimed warm-up
operation are done; unless --setup-only is given it then runs the
closed loop (one operation at a time, whole cycles until the time is
up) and prints one JSON line with the results.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import tracing
import workloads
from run import PROBE_REF_S, ops_per_s, probe

PROBE_GAP_S = 0.05


def run_pass(wl, seconds, tracer=None):
    """Closed loop over whole cycles until `seconds` have passed.

    Latency covers the call only; the check runs after it.  Other
    tenants of the machine slow it by up to half, for seconds at a
    time, so every latency is scaled to a fixed machine speed: divided
    by the mean slowdown the probe showed just before and just after
    the operation.  The probe runs at most every PROBE_GAP_S, so short
    operations share probes.  An operation's latency is the median of
    its scaled repeats (wl.op_set(k) names the set of operations that
    cycle k runs); the fastest unscaled repeat is kept for comparison."""
    scaled, raw, slowdowns = {}, {}, []
    failed = known = 0
    failures, known_messages = [], []
    t0 = probed_at = time.perf_counter()
    slowdown = probe() / PROBE_REF_S
    k = 0
    while True:
        for j, (kind, call, check) in enumerate(wl.cycle(k)):
            span = tracer.open_op(kind) if tracer else None
            ts = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # counted, reported, loop goes on
                result, error = None, exc
            else:
                error = None
            dt = time.perf_counter() - ts
            if span is not None:
                tracer.close(span)
            before = slowdown
            if ts + dt - probed_at >= PROBE_GAP_S:
                slowdown = probe() / PROBE_REF_S
                slowdowns.append(slowdown)
                probed_at = time.perf_counter()
            key = (wl.op_set(k), j)
            scaled.setdefault(key, []).append(dt * 2 / (before + slowdown))
            raw.setdefault(key, []).append(dt)
            try:
                if error is not None:
                    raise error
                check(result)
            except workloads.KnownDefect as exc:
                known += 1
                if len(known_messages) < 3 and str(exc) not in known_messages:
                    known_messages.append(str(exc))
            except Exception as exc:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{kind}: {type(exc).__name__}: {exc}")
        k += 1
        if time.perf_counter() - t0 >= seconds:
            break
    return {"latency": [statistics.median(v) for v in scaled.values()],
            "raw_best": [min(v) for v in raw.values()], "cycles": k,
            "slowdown": statistics.median(slowdowns or [slowdown]),
            "attempted": sum(map(len, raw.values())), "failed": failed,
            "known_defects": known, "known_messages": known_messages,
            "failures": failures}


def _versions():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def _cli_import_s(reps=3):
    """Fresh-interpreter `import treecap.cli`, median of reps."""
    code = ("import time; t = time.perf_counter(); import treecap.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             timeout=60).stdout)
        for _ in range(reps))


def traced_run(wl, args, out_dir):
    """Untraced reference pass, then the traced pass over the same
    operations; each gets half the time."""
    if isinstance(wl, workloads.CliCold):
        wl.in_process_cli = True  # spans need cli.main in this process
    ref = run_pass(wl, args.seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl.stdout_bytes = 0
    res = run_pass(wl, args.seconds / 2, tracer)

    sizes = wl.sizes
    squares = ((sizes["squares_small"], sizes["squares_large"])
               if "squares_small" in sizes else ())
    per_layer = tracing.summarize(tracer.spans, squares)
    mains = per_layer["cli.main.calls"]
    per_layer["cli.import_s"] = (_cli_import_s()
                                 if isinstance(wl, workloads.CliCold)
                                 else 0.0)
    per_layer["cli.stdout_bytes"] = wl.stdout_bytes / mains if mains else 0.0
    # like for like: the operations both passes ran
    n = min(len(ref["latency"]), len(res["latency"]))
    untraced = ops_per_s(ref["latency"][:n])
    traced = ops_per_s(res["latency"][:n])
    per_layer["trace.ops_per_s_untraced"] = untraced
    per_layer["trace.ops_per_s_traced"] = traced
    per_layer["trace.overhead_ratio"] = untraced / traced
    per_layer["trace.spans"] = len(tracer.spans)

    path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    for key in ("attempted", "failed", "known_defects"):
        res[key] += ref[key]
    res["failures"] += ref["failures"]
    res["known_messages"] = ref["known_messages"]
    res["per_layer"] = per_layer
    res["spans_file"] = os.path.relpath(path)
    return res


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    try:
        wl.setup()
        wl.warm_up()  # lazy imports and first-touch costs
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            res = traced_run(wl, args, out_dir)
        else:
            res = run_pass(wl, args.seconds)
        res["peak_rss_mb"] = wl.peak_rss_mb()
        res["tail_pct"] = wl.tail_pct
        res["sizes"] = wl.sizes
        res["env"] = _versions()
        print(json.dumps(res), flush=True)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
