"""``tools/bench_pairs.py`` on stubbed runs: its seed lists, its marks, its exit status,
its per-pair lines and its refusal to compare checkouts whose benchmark files differ.

``run`` is replaced by a table of metric values per checkout, and
``subprocess.run`` by a stub that fails the test, so no benchmark starts.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = [m["name"] for m in BENCH["end_to_end"]]


def test_seeds_reads_a_range_and_a_list():
    assert bench_pairs.seeds("41-50") == list(range(41, 51))
    assert bench_pairs.seeds("41,43") == [41, 43]


def _checkouts(tmp_path):
    """Two directories holding this checkout's BENCHMARK.json and perfbench/*.py."""
    sides = tmp_path / "base", tmp_path / "change"
    for side in sides:
        (side / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", side / "BENCHMARK.json")
        for script in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(script, side / "perfbench" / script.name)
    return sides


def _pairs(monkeypatch, tmp_path, change_values, wall_by_seed=None):
    """main() over seeds 41-50 where every base run reads 1.0 on every metric and every
    change run reads change_values (1.0 where not named), or wall_by_seed(seed) on
    wall_s if given: (exit status, calls)."""
    base, change = _checkouts(tmp_path)
    values = {base: dict.fromkeys(METRICS, 1.0),
              change: dict.fromkeys(METRICS, 1.0) | change_values}
    calls = []

    def run(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        if checkout == change and wall_by_seed is not None:
            return values[checkout] | {"wall_s": wall_by_seed(seed)}
        return dict(values[checkout])

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a benchmark process was started")

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    status = bench_pairs.main(["--base", str(base), "--change", str(change),
                               "--workload", "pole_sweep"])
    return status, calls, base, change


def test_equal_metrics_exit_0(monkeypatch, tmp_path, capsys):
    status, calls, base, change = _pairs(monkeypatch, tmp_path, {})
    out = capsys.readouterr().out
    assert status == 0 and "!" not in out
    # ten pairs, the side that runs first alternating, each run for the benchmark's seconds
    assert [c[0] for c in calls[:4]] == [base, change, change, base]
    assert len(calls) == 20 and {c[3] for c in calls} == {BENCH["run_seconds"]}
    assert [c[2] for c in calls[::2]] == list(range(41, 51))


def test_a_wall_time_half_worse_is_marked_and_exits_1(monkeypatch, tmp_path, capsys):
    status, _, _, _ = _pairs(monkeypatch, tmp_path, {"wall_s": 1.5})
    lines = capsys.readouterr().out.splitlines()
    marked = [line.split()[0] for line in lines if line.endswith("!")]
    assert status == 1 and marked == ["wall_s"]
    [wall] = [line for line in lines if line.startswith("wall_s")]
    assert "+50.0%" in wall and "0/10" in wall


@pytest.mark.parametrize("better", [0.5, 1.2])
def test_a_change_within_the_bound_or_better_exits_0(monkeypatch, tmp_path, capsys, better):
    status, _, _, _ = _pairs(monkeypatch, tmp_path, {"wall_s": better})
    assert status == 0 and "!" not in capsys.readouterr().out


def test_every_pair_and_the_change_quartiles_are_printed(monkeypatch, tmp_path, capsys):
    """The change's wall_s reads seed / 50 (0.82 to 1.0): each pair's line gives its seed,
    the side that ran first and both values, and the summary the change's quartiles."""
    status, _, _, _ = _pairs(monkeypatch, tmp_path, {}, wall_by_seed=lambda seed: seed / 50)
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert all(f"pairs of {name}:" in lines for name in METRICS)
    k = lines.index("pairs of wall_s:")
    assert lines[k + 1].split() == ["seed", "first", "base", "change", "delta"]
    rows = [line.split() for line in lines[k + 2:k + 12]]
    assert [row[0] for row in rows] == [str(seed) for seed in range(41, 51)]
    assert [row[1] for row in rows] == ["base", "change"] * 5
    assert [(float(row[2]), float(row[3])) for row in rows] == [
        (1.0, seed / 50) for seed in range(41, 51)]
    assert rows[0][4] == "-18.0%" and rows[-1][4] == "+0.0%"
    [wall] = [line for line in lines if line.startswith("wall_s")]
    fields = wall.split()
    q1, _, q3 = statistics.quantiles([seed / 50 for seed in range(41, 51)], n=4)
    assert (float(fields[6]), float(fields[7])) == pytest.approx((q1, q3), rel=1e-5)
    assert fields[5] == "0" and fields[-1] == "9/10"


def _edit_benchmark(base, change):
    """A base from before a benchmark change: one script and the declaration differ,
    and the change adds a script."""
    with open(base / "perfbench" / "run.py", "a") as f:
        f.write("# older\n")
    bench = json.loads((base / "BENCHMARK.json").read_text())
    bench["run_seconds"] += 1
    (base / "BENCHMARK.json").write_text(json.dumps(bench))
    (change / "perfbench" / "extra.py").write_text("")


def test_differing_benchmark_files_are_named_and_nothing_runs(monkeypatch, tmp_path, capsys):
    base, change = _checkouts(tmp_path)
    _edit_benchmark(base, change)

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run", no_run)
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["--base", str(base), "--change", str(change),
                          "--workload", "pole_sweep"])
    message = str(refused.value.code)
    assert "BENCHMARK.json, perfbench/extra.py, perfbench/run.py" in message
    assert "no report" in message and capsys.readouterr().out == ""


def test_equal_benchmark_files_differ_in_nothing(tmp_path):
    base, change = _checkouts(tmp_path)
    assert bench_pairs.differing_bench_files(base, change) == []
    (change / "perfbench" / "README").write_text("not a script")
    assert bench_pairs.differing_bench_files(base, change) == []
