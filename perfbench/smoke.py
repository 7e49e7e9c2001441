"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 perfbench/smoke.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit, that every timed function got a wrapper in every
module that binds it and recorded spans in the traced runs, and that no
operation fails except by a known defect listed in BENCHMARK.json.
Exits 1 and lists the problems if any check fails.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the failure signatures that workloads.KnownDefect reports
KNOWN = ("verify --measure leaf_masses", "construct-set: ",
         "compact_set_of_capacity: ", "reports converged with certified gap")

problems = []


def expect(cond, message):
    if not cond:
        problems.append(message)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    expect(proc.returncode == 0,
           f"{workload} trace={trace}: exit {proc.returncode}: "
           f"{proc.stderr.strip()[-300:]}")
    return proc.stdout.splitlines()


def check_output(workload, trace, lines, metrics):
    if not lines:
        return None
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0,
           f"{workload} trace={trace}: unexpected failures: "
           + "; ".join(l for l in lines if l.startswith("FAILED")))
    for line in lines:
        if line.startswith("known defect: "):
            expect(any(k in line for k in KNOWN),
                   f"{workload}: unlisted known defect: {line}")
    for m in metrics:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        expect(got is not None and got["unit"] == unit
               and isinstance(got["value"], (int, float)),
               f"{workload}: metric {name} missing or without unit {unit}")
        expect(any(l.startswith(f"{name}: ") and l.endswith(f" {unit}")
                   for l in lines),
               f"{workload}: no printed line for {name} in {unit}")
    return result["metrics"]


def check_bindings():
    """After install(), no treecap module may still bind an original."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    originals = {}
    for layer, path, _ in tracing.TIMED:
        obj = importlib.import_module("treecap." + layer)
        for part in path.split("."):
            obj = getattr(obj, part)
        originals[f"{layer}.{path}"] = getattr(obj, "__func__", obj)
    tracing.install(tracing.Tracer())
    mods = [importlib.import_module("treecap")] + [
        importlib.import_module("treecap." + m) for m in tracing.MODULES]
    for name, fn in originals.items():
        for m in mods:
            for attr, value in vars(m).items():
                expect(value is not fn,
                       f"{m.__name__}.{attr} still binds unwrapped {name}")


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    called = {}
    for w in (w["name"] for w in spec["workloads"]):
        check_output(w, 0, run(w, 0), spec["end_to_end"])
        per_layer = check_output(w, 1, run(w, 1), spec["per_layer"])
        for name, m in (per_layer or {}).items():
            if name.endswith(".calls"):
                called[name] = called.get(name, 0) + m["value"]
    for name, count in called.items():
        expect(count > 0, f"no span recorded for {name[:-len('.calls')]}")
    check_bindings()
    for p in problems:
        print("FAIL:", p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
