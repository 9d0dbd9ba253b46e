"""Byte-identity guard for the commands documented in the README.

Each command runs in-process through ``degeis.cli.main`` and its stdout is
compared with a checked-in file under ``tests/golden/``.  To regenerate the
files after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py``.  ``test_cold_process`` runs
a few commands as ``python -m degeis.cli`` in a fresh interpreter, so that the
exit status is seen as a shell sees it.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

from degeis.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
    "table_2D4_Q_1-6": "table --group 2D4 --parabolic Q --point 1/6",
    "table_D4_Q_1-6": "table --group D4 --parabolic Q --point 1/6",
    "table_2D4_Q_1-6_json": "table --group 2D4 --parabolic Q --point 1/6 --format json",
    "table_D4_Q_1-6_json": "table --group D4 --parabolic Q --point 1/6 --format json",
    "poles_D4_P_3-10": "poles --group D4 --parabolic P --point 3/10",
    "poles_2D4_Q_1-6": "poles --group 2D4 --parabolic Q --point 1/6",
    "poles_D4_P_3-10_json": "poles --group D4 --parabolic P --point 3/10 --format json",
    "poles_2D4_Q_1-6_json": "poles --group 2D4 --parabolic Q --point 1/6 --format json",
    "table_D4_borel_1-2": "table --group D4 --parabolic borel --point 1/2",
    "table_D4_borel_1-2_json": "table --group D4 --parabolic borel --point 1/2 --format json",
    "poles_D4_borel_1-2": "poles --group D4 --parabolic borel --point 1/2",
    "poles_D4_borel_1-2_json": "poles --group D4 --parabolic borel --point 1/2 --format json",
    "table_G2_borel_1-2": "table --group G2 --parabolic borel --point 1/2",
    "poles_G2_borel_1-2": "poles --group G2 --parabolic borel --point 1/2",
    "table_3D4_P_muP_3-10": "table --group 3D4 --parabolic P --line muP --point 3/10",
    "poles_3D4_P_muP_3-10": "poles --group 3D4 --parabolic P --line muP --point 3/10",
    "sw_2D4": "sw --group 2D4",
    "sharp-check_D4": "sharp-check --group D4",
    "sharp-check_D4_json": "sharp-check --group D4 --format json",
    "sharp-check_2D4": "sharp-check --group 2D4",
    "sharp-check_3D4": "sharp-check --group 3D4",
    "sharp-check_G2": "sharp-check --group G2",
    "sharp-check_A1": "sharp-check --group A1",
    "lfactor_Vtau_order": "lfactor --source Vtau --order-at 2",
    "lfactor_Vchi_trivial_order": "lfactor --source Vchi --chi trivial --order-at 2",
    "lfactor_Vchi_biweights": "lfactor --source Vchi --biweights",
    "tate_lattice_0": "tate --function lattice:0 --z 2s+3",
    "sw_2D4_json": "sw --group 2D4 --format json",
    "sharp-check_2D4_json": "sharp-check --group 2D4 --format json",
    "lfactor_Vchi_trivial_order_biweights_json":
        "lfactor --source Vchi --chi trivial --order-at 2 --biweights --format json",
    "tate_lattice_0_json": "tate --function lattice:0 --z 2s+3 --format json",
    "poles_G2_borel_1-2_json": "poles --group G2 --parabolic borel --point 1/2 --format json",
}


def run(argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name):
    code, out = run(COMMANDS[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("argv,code,out,err", [
    (COMMANDS["poles_G2_borel_1-2"], 0, (GOLDEN / "poles_G2_borel_1-2.txt").read_bytes(), b""),
    (COMMANDS["poles_G2_borel_1-2_json"], 0,
     (GOLDEN / "poles_G2_borel_1-2_json.txt").read_bytes(), b""),
    ("table --group D4 --parabolic borel --point=1/6", 2, b"",
     b"error[indeterminate-zero-region]: xi_F(1/3) lies in (0,1); possible real zero\n"),
    ("poles --group D4 --parabolic Q --point=0", 4, b"",
     b"error[needs-higher-log-order]: leading coefficients and first-order log terms "
     b"both cancel; expansion to higher log order is not implemented\n"),
])
def test_cold_process(argv, code, out, err):
    """``python -m degeis.cli`` in a fresh interpreter: the bytes and the exit status."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "degeis.cli", *argv.split()],
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(COMMANDS.items()):
        code, out = run(argv)
        if code != 0:
            sys.exit(f"{argv}: exit {code}")
        (GOLDEN / f"{name}.txt").write_text(out)
        print(f"wrote {name}.txt")
