"""Differential sweep of the degeis command line, run in-process.

Calls ``degeis.cli.main`` on a fixed list of commands and prints, for each
command family, the number of calls, the exit codes met and one sha256 over
the argv, exit code, stdout and stderr of every call in the family.  Two
checkouts, or two ``PYTHONHASHSEED`` values, that print the same hashes give
the same bytes on every command of the sweep.

    PYTHONHASHSEED=0 python3 tools/cli_sweep.py > a.txt
    PYTHONHASHSEED=4242 python3 tools/cli_sweep.py > b.txt
    diff a.txt b.txt

``tools/cli_sweep.expected`` pins the output, the same on Python 3.10 to
3.13; CI diffs both runs against it on each of those versions, so a change
of output must update that file on purpose.

The sweep covers ``table`` and ``poles`` (Markdown and JSON) on the 15
preset lines at 81 rational points with |p/q| <= 2, ``sw``, ``sharp-check``,
``lfactor``, ``tate`` and usage errors.  ``tate`` at a constant exponent with
Re z <= 0 is its own family, ``tate-divergent``.  The ``library`` family
calls ``pole_report`` directly, on the four F4 maximal parabolics and E6
without node 1 along the chi line delta_P^{s+1/2} delta_B^{-1/2}, at the same
81 points with and without ``assume_no_real_zeros``; it hashes each report's
order, square-integrability, surviving exponents and groups (exponent, words,
order, leading term, log flag), or the error's code.  The ``appendix``
family calls the appendix checks directly on custom F4, B3, C3 and G2 with
its nodes swapped: ``sharp_invariance_check`` for every simple index (the
flag and the returned word), ``entireness_report`` (all four fields) and
``h0_cancellation_check`` for every simple index on a fixed sample of words.
The ``library_table`` family calls ``render_table_rows`` on the same
maximal parabolics and points as ``library`` and hashes the rows as JSON.
The ``laurent`` family calls ``intertwiner_residue`` for every coset word of
the 15 preset lines at every fifth of the 81 points, and ``expand_in`` in eps
on the L polynomial of every eps character (each simple index, offsets 1, -1
and 0) of the five presets; it hashes each order and leading term, or the
error's code.  The ``laurent2`` family calls ``laurent_at`` on J(u)/J(v)
for every pair u < v of the first 24 coset words of D4 Borel along the
mirrored line (s, t, s, t), at points on and off s = t (where atoms that
differ generically meet), with and without ``assume_no_real_zeros``; it
hashes each order and leading term, or the error's code and message.  The
``walk`` family calls ``constant_term`` on custom E7 without node 7 and
custom E8 without node 1 along their chi lines and hashes the word, J and
exponent text of every term.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from degeis import build_system, cli, constant_term, pole_report  # noqa: E402
from degeis.eisenstein import (_eps_character, _l_poly, _pairings,  # noqa: E402
                               coset_reps, entireness_report, gk_factor, h0_cancellation_check,
                               intertwiner_residue, render_table_rows, sharp_invariance_check)
from degeis.characters import (TorusCharacter, _delta_line, chi_line_for,  # noqa: E402
                               parabolic_levi, standard_line)
from degeis.errors import DegeisError  # noqa: E402
from degeis.forms import AffineForm  # noqa: E402
from degeis.rootdata import WeylWord  # noqa: E402
from degeis.zetas import expand_in, laurent_at  # noqa: E402

GROUPS = ("D4", "2D4", "3D4", "G2", "A1")

# (group, parabolic, --line or None for the default chi line)
LINES = [
    (g, p, line)
    for g in ("D4", "2D4")
    for p, line in (("borel", None), ("P", None), ("Q", None), ("P", "muP"), ("Q", "muQ"))
] + [("3D4", "borel", None), ("3D4", "P", None), ("3D4", "P", "muP"),
     ("G2", "borel", None), ("A1", "borel", None)]

POINTS = sorted({Fraction(p, q) for q in (1, 2, 3, 4, 5, 6, 10, 12)
                 for p in range(-2 * q, 2 * q + 1)})

FORMATS = (["--format", "md"], ["--format", "json"])


def line_commands(command: str):
    for group, parabolic, line in LINES:
        for point in POINTS:
            for fmt in FORMATS:
                argv = [command, "--group", group, "--parabolic", parabolic,
                        f"--point={point}", *fmt]
                if line is not None:
                    argv += ["--line", line]
                yield argv


def group_commands(command: str):
    for group in GROUPS:
        for fmt in FORMATS:
            yield [command, "--group", group, *fmt]


def lfactor_commands():
    for source in ("Vtau", "Vchi", "V7"):
        for chi in ("trivial", "nontrivial"):
            for extra in ([], ["--order-at", "2"], ["--order-at", "3"], ["--biweights"],
                          ["--order-at", "2", "--biweights"]):
                for fmt in FORMATS:
                    yield ["lfactor", "--source", source, "--chi", chi, *extra, *fmt]


TATE_FUNCTIONS = ("lattice:0", "lattice:1", "lattice:-2", "shell:0", "shell:2",
                  "shell:-1", "shell:-2", "lattice:x", "ball:0")
TATE_Z = ("2s+3", "s", "-s", "s-1", "1", "1/2", "5/2", "0", "-1", "-1/2", "s+", "1/0")


def _divergent(z: str) -> bool:
    try:
        return Fraction(z) <= 0
    except (ValueError, ZeroDivisionError):
        return False


def tate_commands(divergent: bool):
    for function in TATE_FUNCTIONS:
        for z in TATE_Z:
            if _divergent(z) != divergent:
                continue
            for fmt in FORMATS:
                yield ["tate", "--function", function, f"--z={z}", *fmt]


F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E6_CARTAN = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
             [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
# E_rank in Bourbaki numbering: the chain 1-3-4-...-rank, with node 2 on node 4
E_EDGES = {(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)}


def e_cartan(rank: int) -> list[list[int]]:
    edges = {(i, j) for i, j in E_EDGES if j <= rank}
    return [[2 if i == j else -1 if (i, j) in edges or (j, i) in edges else 0
             for j in range(1, rank + 1)] for i in range(1, rank + 1)]

# (name, Cartan matrix, the simple root removed from the Levi)
MAXIMAL = [("F4", F4_CARTAN, 1), ("F4", F4_CARTAN, 2), ("F4", F4_CARTAN, 3),
           ("F4", F4_CARTAN, 4), ("E6", E6_CARTAN, 1)]


def _report(rep) -> str:
    return json.dumps({
        "order": rep.order, "square_integrable": rep.square_integrable,
        "surviving": [[str(x) for x in exp] for exp in rep.surviving_exponents],
        "groups": [[[str(x) for x in g.exponent_at_point], [str(w) for w in g.words],
                    g.order, None if g.leading is None else str(g.leading), g.log_term]
                   for g in rep.groups]})


def library_calls(name, report, render):
    """report(ct, point) at every point of every maximal parabolic.

    Yields (label, outcome, text, message): the outcome is "ok", with
    render(result) as text, or the code of the typed error raised.
    """
    for group, cartan, node in MAXIMAL:
        system = build_system("custom", cartan=cartan)
        levi = tuple(i for i in range(1, system.rank + 1) if i != node)
        ct = constant_term(system, levi, _delta_line(system, levi, Fraction(1, 2)))
        for point in POINTS:
            for assume in (False, True):
                label = [name, group, str(node), str(point), str(assume)]
                try:
                    result = report(ct, point, assume_no_real_zeros=assume)
                except DegeisError as exc:
                    yield label, exc.code, "", str(exc)
                else:
                    yield label, "ok", render(result), ""


B3_CARTAN = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
C3_CARTAN = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
G2_SWAPPED = [[2, -1], [-3, 2]]
# (name, Cartan matrix, stride through the shortlex list of W for the h0 sample)
APPENDIX = [("F4", F4_CARTAN, 97), ("B3", B3_CARTAN, 7), ("C3", C3_CARTAN, 7),
            ("G2-swapped", G2_SWAPPED, 1)]


def appendix_calls():
    """The appendix checks on custom systems, as library_calls yields them.

    The h0 sample is every stride-th shortlex element of W, the longest one,
    and the non-reduced word 1 1 2.
    """
    for name, cartan, stride in APPENDIX:
        system = build_system("custom", cartan=cartan)
        indices = range(1, system.rank + 1)
        for i in indices:
            passed, word = sharp_invariance_check(system, i)
            yield ["sharp_invariance_check", name, str(i)], "ok", json.dumps(
                [passed, None if word is None else str(word)]), ""
        rep = entireness_report(system)
        yield ["entireness_report", name], "ok", json.dumps(
            [rep.boundary_ok, rep.h0_ok, rep.orbit_ok, rep.checked_words]), ""
        words = [word for _, word in system.weyl_elements()]
        sample = words[::stride] + [words[-1], WeylWord.of(1, 1, 2)]
        for i in indices:
            for word in sample:
                yield (["h0_cancellation_check", name, str(i), str(word)], "ok",
                       json.dumps(h0_cancellation_check(system, i, word)), "")


def _laurent(label, call):
    """(label, outcome, text, message) of one Laurent call, as library_calls yields them."""
    try:
        ld = call()
    except DegeisError as exc:
        return label, exc.code, "", str(exc)
    return label, "ok", json.dumps([ld.order, str(ld.leading)]), ""


def laurent_calls():
    """intertwiner_residue on every coset word of every preset line at every
    fifth point, then expand_in of the L polynomial of every eps character."""
    for group, parabolic, spec in LINES:
        system = cli._system(group)
        line = chi_line_for(system, parabolic) if spec is None else standard_line(system, spec)
        for word in coset_reps(system, parabolic_levi(system, parabolic)):
            for point in POINTS[::5]:
                yield _laurent(["intertwiner_residue", group, parabolic, str(spec), str(word),
                                str(point)],
                               lambda: intertwiner_residue(system, word, line, point))
    for group in GROUPS:
        system = cli._system(group)
        for i in range(1, system.rank + 1):
            for offset in (1, -1, 0):
                poly = _l_poly(_pairings(system, _eps_character(system, i, offset)))
                yield _laurent(["expand_in", group, str(i), str(offset)],
                               lambda: expand_in(poly, "eps"))


# (s, t): three on s = t, three off it
LAURENT2_POINTS = [(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
                   (Fraction(1), Fraction(1)), (Fraction(1), Fraction(1, 2)),
                   (Fraction(1, 2), Fraction(3, 2)), (Fraction(-1, 3), Fraction(2))]


def laurent2_calls():
    """laurent_at of J(u)/J(v) in two parameters, u < v among the first 24
    coset words of D4 Borel on the line (s, t, s, t)."""
    system = cli._system("D4")
    s, t = AffineForm.var("s"), AffineForm.var("t")
    line = TorusCharacter((s, t, s, t))
    js = [(word, gk_factor(system, word, line)) for word in coset_reps(system, ())[:24]]
    for k, (u, ju) in enumerate(js):
        for v, jv in js[k + 1:]:
            ratio = ju / jv
            for p, q in LAURENT2_POINTS:
                for assume in (False, True):
                    yield _laurent(["laurent_at", str(u), str(v), str(p), str(q), str(assume)],
                                   lambda: laurent_at(ratio, {"s": p, "t": q},
                                                      assume_no_real_zeros=assume))


def walk_calls():
    """Every term of constant_term on E7 without node 7 and E8 without node 1,
    as library_calls yields them: word, J and exponent text."""
    for group, rank, node in (("E7", 7, 7), ("E8", 8, 1)):
        system = build_system("custom", cartan=e_cartan(rank))
        levi = tuple(i for i in range(1, rank + 1) if i != node)
        ct = constant_term(system, levi, _delta_line(system, levi, Fraction(1, 2)))
        for term in ct.terms:
            yield (["constant_term", group, str(node), str(term.word)], "ok",
                   json.dumps([str(term.j_factor), str(term.exponent)]), "")


USAGE = [
    [], ["--help"], ["--version"], ["nonsense"], ["table"], ["table", "--help"],
    ["table", "--group", "D4"], ["table", "--group", "E9", "--point", "1"],
    ["table", "--group", "D4", "--point", "1", "--format", "xml"],
    ["poles", "--group", "D4", "--point", "x"],
    ["poles", "--group", "D4", "--point", "1/0"],
    ["poles", "--group", "D4", "--parabolic", "R", "--point", "1"],
    ["poles", "--group", "3D4", "--parabolic", "Q", "--point", "1"],
    ["poles", "--group", "D4", "--point", "1", "--line", "s,s"],
    ["poles", "--group", "D4", "--point", "1", "--line", "s,t,0,0"],
    ["sw"], ["sw", "--group", "G2"], ["sharp-check", "--group", "B2"],
    ["lfactor"], ["tate", "--function"], ["tate", "--bogus"],
]

def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_calls(commands):
    """(argv, exit code, stdout, stderr) of every command."""
    for argv in commands:
        yield (argv, *run(argv))


FAMILIES = {
    "table": lambda: cli_calls(line_commands("table")),
    "poles": lambda: cli_calls(line_commands("poles")),
    "sw": lambda: cli_calls(group_commands("sw")),
    "sharp-check": lambda: cli_calls(group_commands("sharp-check")),
    "lfactor": lambda: cli_calls(lfactor_commands()),
    "tate": lambda: cli_calls(tate_commands(False)),
    "tate-divergent": lambda: cli_calls(tate_commands(True)),
    "usage": lambda: cli_calls(USAGE),
    "library": lambda: library_calls("pole_report", pole_report, _report),
    "appendix": appendix_calls,
    "library_table": lambda: library_calls("render_table_rows", render_table_rows, json.dumps),
    "laurent": laurent_calls,
    "laurent2": laurent2_calls,
    "walk": walk_calls,
}


def main() -> int:
    for family, commands in FAMILIES.items():
        digest = hashlib.sha256()
        exits: Counter[int | str] = Counter()
        for argv, code, out, err in commands():
            exits[code] += 1
            digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        summary = " ".join(f"exit{code}={n}" if isinstance(code, int) else f"{code}={n}"
                           for code, n in sorted(exits.items()))
        print(f"{family:<15} calls={sum(exits.values()):<5} {summary:<36} {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
