"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that no generated argument vector is a CLI usage error, that the
tracer replaces every binding of every traced function and restores them,
that one traced pass of each workload records a call in every layer the
workload is meant to exercise, with every operation enumerating its own Weyl
group (no warm state carried between operations), and that BENCHMARK.json
names the workloads and metrics that run.py prints.  Takes about two minutes.
Exits with status 1 on the first failed check group.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import run
import workloads
from tracer import Tracer, wrapped_bindings

# |W| of every group a workload enumerates, written by hand.
WEYL_ORDER = {"D4": 192, "2D4": 48, "3D4": 12, "G2": 12, "A1": 2,
              "F4": 1152, "E6": 51840}


def check_argv(degeis) -> list[str]:
    problems = []
    negative = False
    for seed in range(1, 51):
        for name in ("pole_sweep", "appendix_checks"):
            argvs = [op.argv for unit in workloads.build(name, degeis, seed) for op in unit]
            problems += [f"seed {seed}: {b}"
                         for b in workloads.usage_errors(degeis, argvs)]
            negative |= any(a.startswith("--point=-") for argv in argvs for a in argv)
    if not negative:
        problems.append("no generated point is negative; the --point= rule is untested")
    # The guard itself must catch the form that argparse misreads.
    spaced = ["poles", "--group", "D4", "--point", str(Fraction(-1, 2))]
    if not workloads.usage_errors(degeis, [spaced]):
        problems.append("usage_errors does not reject '--point -1/2'")
    return problems


def check_bindings() -> list[str]:
    tracer = Tracer()
    tracer.install()
    try:
        problems = [f"still bound to the original: {b}" for b in tracer.unpatched_bindings()]
        if not wrapped_bindings():
            problems.append("no binding was wrapped")
    finally:
        tracer.uninstall()
    return problems + [f"not restored: {b}" for b in wrapped_bindings()]


def check_coverage(degeis) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        units = workloads.build(name, degeis, 1)
        tally = run.Tally()
        metrics, detail = run.per_layer(units, tally, name, 1)
        problems += [f"{name}: {p}" for p in detail["trace_problems"] + tally.failures]
        want = sum(WEYL_ORDER[op.group] for unit in units for op in unit if op.group)
        got = metrics["rootdata.weyl_elements.elements"][0]
        if got != want:
            problems.append(f"{name}: {got} Weyl elements materialised, expected {want}")
        print(f"  {name}: {tally.attempted} ops, {got} Weyl elements", flush=True)
    return problems


def check_manifest(degeis) -> list[str]:
    """BENCHMARK.json names exactly the workloads and metrics run.py prints."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in doc["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workloads differ")
    if [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] != run.PER_LAYER:
        problems.append("per_layer metrics differ")
    units = workloads.build("appendix_checks", degeis, 1)
    metrics, _ = run.end_to_end(units, run.Tally(), 0, 1)
    if {m["name"]: m["unit"] for m in doc["end_to_end"]} != {n: u for n, (_, u) in metrics.items()}:
        problems.append("end_to_end metrics differ")
    return problems


def main() -> int:
    degeis = run.load_program()
    for title, check in (("argument vectors", lambda: check_argv(degeis)),
                         ("tracer bindings", check_bindings),
                         ("trace coverage", lambda: check_coverage(degeis)),
                         ("BENCHMARK.json", lambda: check_manifest(degeis))):
        print(f"{title} ...", flush=True)
        problems = check()
        for p in problems:
            print(f"  FAIL {p}")
        if problems:
            return 1
        print("  ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
