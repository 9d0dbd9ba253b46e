"""Alternating A/B pairs of ``perfbench/run.py`` between two checkouts.

    python3 tools/bench_pairs.py --base ../parent --change . \\
        --workload exceptional_cosets --seeds 41-50

Each seed is one pair: the benchmark runs once in each checkout, one run at
a time, for the ``run_seconds`` of the change's ``BENCHMARK.json``, and the
side that runs first alternates from pair to pair so that a drift of the
host's speed does not favour one side.  For every end-to-end metric of that
file it prints the median of each side, their relative difference against
the metric's ``bound`` (marked ``!`` where the change is worse by more), the
interquartile range of the base's runs beside the change's first and third
quartiles, and how many pairs the change won; then, per metric, every pair:
its seed, the side that ran first, both values and their relative
difference.  It exits with status 1 if any metric is marked ``!``.  If any run fails,
or reports ``correct`` false or a failed operation, it prints that run's
output and reports nothing.  It runs nothing, and names the files, when the
two checkouts' ``BENCHMARK.json`` or ``perfbench/*.py`` differ: the two
sides would not run the same benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    """'41-50' or '41,43,47' as a list of seeds."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(s) for s in text.split(",")]


def differing_bench_files(base: Path, change: Path) -> list[str]:
    """The benchmark files, relative to the checkout, that are not byte-equal in both
    (a file missing on one side differs)."""
    def files(checkout: Path) -> set[str]:
        found = {p.relative_to(checkout).as_posix() for p in checkout.glob("perfbench/*.py")}
        return found | {"BENCHMARK.json"}

    def content(path: Path) -> bytes | None:
        return path.read_bytes() if path.is_file() else None

    return [name for name in sorted(files(base) | files(change))
            if content(base / name) != content(change / name)]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative(change: float, base: float) -> str:
    """change against base as a signed percentage, or n/a for a zero base."""
    return f"{(change - base) / base:+.1%}" if base else "n/a"


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The metric values of one benchmark run; exits if the run is not correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    except ValueError:
        result = {}
    if not (isinstance(result, dict) and result.get("correct") is True
            and result.get("failed") == 0):
        sys.exit(f"bench_pairs: {checkout} seed {seed} is not a correct run "
                 f"(exit {proc.returncode}); no report\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("41-50"))
    args = parser.parse_args(argv)
    differ = differing_bench_files(args.base, args.change)
    if differ:
        sys.exit(f"bench_pairs: the checkouts' benchmarks differ in {', '.join(differ)}; "
                 "no report")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    sides = {"base": args.base, "change": args.change}
    runs: dict[str, list[dict[str, float]]] = {"base": [], "change": []}
    for k, seed in enumerate(args.seeds):
        for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
            runs[side].append(run(sides[side], args.workload, seed, seconds))

    n = len(args.seeds)
    print(f"{args.workload}: {n} pairs, seeds {args.seeds[0]}..{args.seeds[-1]}, "
          f"{seconds:g} s per run")
    print(f"{'metric':<14}{'base':>12}{'change':>12}{'delta':>9}{'bound':>8}"
          f"{'base IQR':>12}{'change Q1':>12}{'change Q3':>12}  won")
    status = 0
    for metric in bench["end_to_end"]:
        name = metric["name"]
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if metric["better"] == "lower" else -1
        won = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        (q1, mid, q3), (c1, med, c3) = quartiles(base), quartiles(change)
        rel = (med - mid) / mid if mid else 0.0
        worse = " !" if sign * rel > metric["bound"] else ""
        if worse:
            status = 1
        print(f"{name:<14}{mid:>12.6g}{med:>12.6g}{relative(med, mid):>9}"
              f"{metric['bound']:>8.0%}{q3 - q1:>12.3g}{c1:>12.6g}{c3:>12.6g}  {won}/{n}{worse}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        print(f"\npairs of {name}:")
        print(f"  {'seed':>6}  {'first':<7}{'base':>12}{'change':>12}{'delta':>9}")
        for k, (seed, b, c) in enumerate(zip(args.seeds, runs["base"], runs["change"])):
            first = "base" if k % 2 == 0 else "change"
            print(f"  {seed:>6}  {first:<7}{b[name]:>12.6g}{c[name]:>12.6g}"
                  f"{relative(c[name], b[name]):>9}")
    return status


if __name__ == "__main__":
    sys.exit(main())
