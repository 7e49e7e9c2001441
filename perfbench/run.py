"""treecap benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its src/ directory.  Workloads and metrics are declared in
BENCHMARK.json at the root.  Each invocation starts fresh child
processes, one at a time: SETUP_REPS - 1 that only set up, then the one
that sets up and runs the timed pass, so peak RSS is per workload and
set-up time is the median of SETUP_REPS fresh starts.  Load is a closed
loop with one client.  BLAS and OpenMP pools are pinned to one thread,
and all processes to one core.

Other tenants of a shared machine slow it by up to half, for seconds
at a time.  So every time is scaled to a fixed machine speed: divided
by the slowdown that probe(), a fixed piece of pure-Python work, shows
at the same moment.  The unscaled figures are printed as well.

With --trace 0 the last line holds every end-to-end metric, with
--trace 1 every per-layer metric; the lines before it say the same in
words, with the environment and the input sizes.  --size tiny shrinks
every input, for the smoke test.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPS = 3
DEADLINE_S = 170  # every child must have ended within 180 s
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "python3 -m treecap.cli"


# what probe() takes on an idle core of a 2.1 GHz Xeon; times are
# reported at this machine speed
PROBE_REF_S = 1.7e-3


class RunError(RuntimeError):
    pass


def probe():
    """Time a fixed piece of pure-Python work.  Its ratio to PROBE_REF_S
    is the machine's momentary slowdown, which other tenants' load
    changes by up to half for seconds at a time."""
    t = time.perf_counter()
    s, d = 0, {}
    for i in range(20_000):
        s += i * i
        d[i & 255] = s
    return time.perf_counter() - t


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    for var in PINNED:
        env[var] = "1"
    return env


def spawn(argv, env, timeout):
    """Run one worker; return (seconds until READY, rest of stdout, the
    slowdown probed just before it started)."""
    slowdown = statistics.median(probe() for _ in range(3)) / PROBE_REF_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise RunError(f"worker exited with {code} "
                       f"({'after' if ready else 'before'} set-up)")
    return setup_s, rest, slowdown


def rank(n, pct):
    """Nearest-rank index of the pct-th percentile of n samples."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def ops_per_s(latency):
    """Operations per second inside the program."""
    return len(latency) / sum(latency)


def end_to_end(res, setups):
    """Times are scaled to the machine speed PROBE_REF_S stands for."""
    lat = res["latency"]
    return {
        "setup_s": statistics.median(t / slow for t, slow in setups),
        "ops_per_s": ops_per_s(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": sorted(lat)[rank(len(lat), res["tail_pct"])],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def report(args, spec, res, setups):
    """Print the human-readable lines; return the metrics dict."""
    env = res["env"]
    print(f"treecap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print(f"env: nproc={os.cpu_count()} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
          f"pinned={','.join(v + '=1' for v in PINNED)} cli='{CLI}'")
    print("inputs: " + " ".join(f"{k}={v}" for k, v in res["sizes"].items()))
    lat, pct = res["latency"], res["tail_pct"]
    beyond = len(lat) - 1 - rank(len(lat), pct)
    print(f"ops: {res['attempted']} in {res['cycles']} cycles over "
          f"{len(lat)} distinct operations; tail is p{pct} over those, "
          f"with {beyond} beyond it")
    raw = res["raw_best"]
    print(f"machine slowdown seen by the probe: median {res['slowdown']:.3f}"
          f"; unscaled, fastest repeat: ops_per_s {ops_per_s(raw):.6g}, "
          f"op_p50_s {statistics.median(raw):.6g}, op_tail_s "
          f"{sorted(raw)[rank(len(raw), pct)]:.6g}")
    fail_frac = (res["failed"] + res["known_defects"]) / res["attempted"]
    print(f"fail_frac: {fail_frac} ratio (unexpected {res['failed']}, "
          f"known defect {res['known_defects']}, of {res['attempted']})")
    for msg in res["known_messages"]:
        print(f"known defect: {msg}")
    for msg in res["failures"]:
        print(f"FAILED: {msg}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = res["per_layer"]
        print(f"tracing overhead: {values['trace.overhead_ratio']} "
              f"(traced {values['trace.ops_per_s_traced']} op/s against "
              f"untraced {values['trace.ops_per_s_untraced']} op/s); "
              f"spans in {res['spans_file']}")
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(res, setups)
        print("setup_s samples (s, slowdown): "
              + " ".join(f"{t:.4f} {slow:.3f}" for t, slow in setups))
    if set(values) != set(units):
        raise RunError("metrics disagree with BENCHMARK.json: "
                       f"{sorted(set(values) ^ set(units))}")
    for name in units:
        print(f"{name}: {values[name]} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not (ROOT / "src" / "treecap" / "__init__.py").is_file():
        print(f"run.py: no treecap sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--size", args.size]
    env = child_env()
    # one core for this process and every child: the probe then sees the
    # load on the core the operations run on
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"run.py: running unpinned: {exc}", file=sys.stderr)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        for _ in range(SETUP_REPS - 1):
            setup_s, _, slow = spawn(argv + ["--setup-only"], env,
                                     deadline - time.monotonic())
            setups.append((setup_s, slow))
        setup_s, out, slow = spawn(argv, env, deadline - time.monotonic())
        setups.append((setup_s, slow))
        res = json.loads(out.strip().splitlines()[-1])
        metrics = report(args, spec, res, setups)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
