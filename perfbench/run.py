"""Benchmark of the degeis calculator, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload pole_sweep --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py): ``pole_sweep`` (the CLI's table and poles
commands over every preset, parabolic and line), ``appendix_checks``
(``sharp-check`` on every preset) and ``exceptional_cosets`` (library calls
on F4 and E6 maximal parabolics).  The program is imported from ``src/`` of
the checkout and driven in one process with no threads.

With ``--trace 0`` the workload is run in passes for ``--seconds`` (at least
two passes; a further pass starts only if it is expected to end in time),
each pass in a fresh random order and each operation after a garbage
collection.  The host's speed drifts by up to 1.8 times over seconds to
minutes, so a calibration kernel is sampled every few milliseconds while the
operations run and each operation's time is scaled to a reference speed (see
calibrate.py); an operation's latency is the median of its scaled
repetitions.  The end-to-end metrics are:

* ``wall_s``: one pass, the sum of its operations' latencies (answer checks
  and calibration chunks excluded);
* ``op_p50_ms``, ``op_p90_ms``: nearest-rank percentiles of the operations'
  latencies (185 operations on ``pole_sweep``, 5 on the others);
* ``setup_s``: median scaled wall time of several fresh interpreters that
  import ``degeis.cli`` and build the five presets;
* ``peak_rss_mb``: peak resident set size of this process.

With ``--trace 1`` two untraced passes and one traced pass are run and the
per-layer metrics of the traced pass are printed (see tracer.py);
``trace.overhead_s`` is the traced pass's scaled time minus the least
untraced scaled time of each operation, summed.  Self times are not scaled,
and include the calibration chunks that ran inside each span, about 5% of
every span's time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the seed, failures and typed errors by code.  Without
the program's sources next to this directory the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from calibrate import Sampler
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PRESETS = ("split_D4", "quasi_D4", "tri_D4", "G2", "A1")
SETUP_SAMPLES = 11
MIN_PASSES = 2
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import degeis.cli as cli; "
              f"[cli.build_system(p) for p in {PRESETS!r}]")

# Per-layer metrics: (name, unit, better).
PER_LAYER = [
    ("rootdata.weyl_elements.calls", "count", "lower"),
    ("rootdata.weyl_elements.self_s", "s", "lower"),
    ("rootdata.weyl_elements.elements", "count", "lower"),
    ("rootdata.word_on_root.calls", "count", "lower"),
    ("rootdata.word_on_root.self_s", "s", "lower"),
    ("eisenstein.coset_reps.calls", "count", "lower"),
    ("eisenstein.coset_reps.self_s", "s", "lower"),
    ("eisenstein.coset_reps.yield", "ratio", "higher"),
    ("zetas.ZetaExpr.build.calls", "count", "lower"),
    ("zetas.ZetaExpr.build.self_s", "s", "lower"),
    ("zetas.expand_in.calls", "count", "lower"),
    ("zetas.expand_in.self_s", "s", "lower"),
    ("zetas.build_per_expand", "ratio", "lower"),
    ("zetas.laurent_at.calls", "count", "lower"),
    ("zetas.laurent_at.self_s", "s", "lower"),
    ("eisenstein.gk_factor.calls", "count", "lower"),
    ("eisenstein.gk_factor.self_s", "s", "lower"),
    ("eisenstein.pole_report.calls", "count", "lower"),
    ("eisenstein.pole_report.self_s", "s", "lower"),
    ("eisenstein.constant_term.self_s", "s", "lower"),
    ("eisenstein.render_table_rows.self_s", "s", "lower"),
    ("characters.weyl_act.calls", "count", "lower"),
    ("characters.weyl_act.self_s", "s", "lower"),
    ("eisenstein.entireness_report.self_s", "s", "lower"),
    ("eisenstein.sharp_invariance_check.self_s", "s", "lower"),
    ("characters.iota_check.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("rootdata.build_system.calls", "count", "lower"),
    ("rootdata.build_system.self_s", "s", "lower"),
    ("forms.AffineForm.add.calls", "count", "lower"),
    ("forms.AffineForm.subs.calls", "count", "lower"),
    ("eisenstein.siegel_weil_constant.self_s", "s", "lower"),
    ("dualside.self_s", "s", "lower"),
    ("localint.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Spans that must record at least one call on each workload, and spans that
# must record none ("appendix_checks calls coset_reps zero times").
COVERAGE = {
    "pole_sweep": [
        "rootdata.weyl_elements", "rootdata.word_on_root",
        "eisenstein.coset_reps", "zetas.ZetaExpr.build", "zetas.expand_in",
        "zetas.laurent_at", "eisenstein.gk_factor", "eisenstein.pole_report",
        "eisenstein.constant_term", "eisenstein.render_table_rows",
        "characters.weyl_act", "cli.main", "rootdata.build_system",
        "forms.AffineForm.add", "forms.AffineForm.subs",
        "eisenstein.siegel_weil_constant", "dualside", "localint"],
    "appendix_checks": [
        "zetas.ZetaExpr.build", "zetas.expand_in", "eisenstein.entireness_report",
        "eisenstein.sharp_invariance_check", "characters.iota_check", "cli.main",
        "rootdata.build_system", "forms.AffineForm.add", "forms.AffineForm.subs"],
    "exceptional_cosets": [
        "rootdata.weyl_elements", "rootdata.word_on_root",
        "eisenstein.coset_reps", "rootdata.build_system", "eisenstein.pole_report",
        "forms.AffineForm.add", "forms.AffineForm.subs"],
}
NEVER_CALLED = {"appendix_checks": ["eisenstein.coset_reps"]}
# Groups of spans whose self time is reported as a share of the traced pass.
SHARES = {
    "cosets": ["eisenstein.coset_reps", "rootdata.word_on_root", "rootdata.weyl_elements"],
    "zetas": ["zetas.ZetaExpr.build", "zetas.expand_in", "zetas.laurent_at"],
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import degeis from the checkout's src/, never from an installed copy."""
    if not (SRC / "degeis" / "cli.py").is_file():
        raise BenchmarkError(f"no degeis sources under {SRC}")
    sys.path.insert(0, str(SRC))
    degeis = importlib.import_module("degeis")
    importlib.import_module("degeis.cli")
    if Path(degeis.__file__).resolve().parent != SRC / "degeis":
        raise BenchmarkError(f"imported degeis from {degeis.__file__}, not from {SRC}")
    return degeis


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "loadavg": list(os.getloadavg())}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Outcome of every operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.typed = Counter()
        self.chunk_s: list[float] = []    # mean calibration chunk time of each pass

    def record(self, label: str, failure: str | None, typed: list[str]) -> None:
        self.attempted += 1
        self.typed.update(typed)
        if failure is not None:
            self.failures.append(f"{label}: {failure}")


def run_pass(units, tally: Tally, rng: random.Random) -> dict:
    """Run every operation once, the units in a random order.

    A burst of contention from other tenants then slows scattered operations
    instead of every operation of one kind.  Returns each operation's
    latency keyed by (unit index, position in the unit), scaled to the
    reference speed; answer checks are not timed.
    """
    order = list(range(len(units)))
    rng.shuffle(order)
    shared: dict = {}
    keys = []
    with Sampler() as watch:
        for u in order:
            for j, op in enumerate(units[u]):
                keys.append((u, j))
                # Each operation starts with no garbage left by the one before,
                # as a fresh CLI process does, whatever order the pass runs in.
                gc.collect()
                start = watch.begin()
                try:
                    result = op.call()
                except Exception as exc:  # an untyped exception escaped the program
                    watch.end(start)
                    tally.record(op.label, f"untyped {type(exc).__name__}: {exc}", [])
                    continue
                watch.end(start)
                failure, typed = op.judge(result, shared)
                tally.record(op.label, failure, typed)
    # The machine's speed during the pass, recorded with the result.
    tally.chunk_s.append(watch.chunk_s())
    return dict(zip(keys, watch.scaled()))


def measure_setup() -> float:
    """Median scaled wall time of fresh interpreters that import the CLI and build the presets.

    This process and the interpreters it starts share one CPU, so the
    calibration chunks sampled while it waits run where the interpreter runs.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    # An installed CLI starts from cached bytecode, whatever this shell says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        subprocess.run(argv, check=True, env=env)      # write the bytecode cache
        with Sampler() as watch:
            for _ in range(SETUP_SAMPLES):
                # No timeout: with one, the wait polls and rounds the time up to 50 ms.
                start = watch.begin()
                subprocess.run(argv, check=True, env=env)
                watch.end(start)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(watch.scaled())


def end_to_end(units, tally: Tally, seconds: float, seed: int) -> tuple[dict, dict]:
    # Before the passes, while this process is small and has not been slowed
    # by the workload's memory.
    setup_s = measure_setup()
    rng = random.Random(f"{seed}/order")
    reps: dict = {}
    pass_walls, durations = [], []
    start = time.perf_counter()
    # Two passes at least, so that a latency is never a single sample; after
    # that a pass starts only if a pass of the median length so far still fits.
    while len(durations) < MIN_PASSES or (time.perf_counter() - start
                                          + statistics.median(durations) <= seconds):
        begun = time.perf_counter()
        latency = run_pass(units, tally, rng)
        durations.append(time.perf_counter() - begun)
        pass_walls.append(sum(latency.values()))
        for key, value in latency.items():
            reps.setdefault(key, []).append(value)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = [statistics.median(v) for v in reps.values()]
    return {
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (1000 * percentile(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"pass_wall_s": pass_walls, "pass_duration_s": durations, "ops_per_pass": len(lat)}


def coverage_failures(tracer: Tracer, workload: str) -> list[str]:
    def calls(name):
        if "." not in name:
            return tracer.module_calls(name)
        return tracer.calls(name)
    missing = [f"{n} recorded no call" for n in COVERAGE[workload] if calls(n) == 0]
    extra = [f"{n} was called" for n in NEVER_CALLED.get(workload, []) if calls(n) != 0]
    return missing + extra


def per_layer(units, tally: Tally, workload: str, seed: int) -> tuple[dict, dict]:
    # Every pass runs the operations in the same order.  The first pass of a
    # process is slower than the next, so the untraced time is the least of
    # two passes for each operation.
    first, second = (run_pass(units, tally, random.Random(f"{seed}/order")) for _ in range(2))
    untraced = sum(min(first[k], second[k]) for k in first)
    tracer = Tracer()
    tracer.install()
    try:
        unpatched = tracer.unpatched_bindings()
        traced = sum(run_pass(units, tally, random.Random(f"{seed}/order")).values())
    finally:
        tracer.uninstall()
    t = tracer
    expands = t.calls("zetas.expand_in")
    values = {
        "rootdata.weyl_elements.elements": t.elements,
        "eisenstein.coset_reps.yield":
            t.coset_found / t.coset_scanned if t.coset_scanned else 0.0,
        "zetas.build_per_expand":
            t.calls("zetas.ZetaExpr.build") / expands if expands else 0.0,
        "dualside.self_s": t.module_self_s("dualside"),
        "localint.self_s": t.module_self_s("localint"),
        "trace.overhead_s": traced - untraced,
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name not in values:
            span, _, kind = name.rpartition(".")
            values[name] = t.calls(span) if kind == "calls" else t.self_s(span)
        metrics[name] = (values[name], unit)
    top = sorted(t.stats.items(), key=lambda kv: -kv[1][1])[:12]
    spanned = sum(s[1] for s in t.stats.values())
    share = {layer: sum(t.self_s(n) for n in spans) / spanned
             for layer, spans in SHARES.items()}
    detail = {"untraced_wall_s": untraced, "traced_wall_s": traced,
              "top_self_s": {n: round(s[1], 4) for n, s in top},
              "self_share_of_spans": share,
              "trace_problems": [f"binding not traced: {b}" for b in unpatched]
              + coverage_failures(t, workload)}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    before = machine()
    try:
        degeis = load_program()
    except (BenchmarkError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = workloads.build(args.workload, degeis, args.seed)
    bad = workloads.usage_errors(degeis, [op.argv for unit in units for op in unit if op.argv])
    if bad:
        print("perfbench: generated arguments the CLI rejects:", *bad, sep="\n  ",
              file=sys.stderr)
        return 3

    tally = Tally()
    if args.trace:
        metrics, detail = per_layer(units, tally, args.workload, args.seed)
    else:
        metrics, detail = end_to_end(units, tally, args.seconds, args.seed)
    problems = detail.get("trace_problems", [])
    for failure in tally.failures[:20] + problems:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    failed = len(tally.failures)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine_before": before, "machine_after": machine(),
        "ops_failed_frac": failed / tally.attempted,
        "typed_errors": dict(sorted(tally.typed.items())),
        "calibration_chunk_s": tally.chunk_s, **detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": tally.attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
