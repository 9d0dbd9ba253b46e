"""Workload generators and answer checks for the degeis benchmark.

Every workload is a list of units of operations, run as a closed loop: one
caller issues the next operation only after the previous one returned, as a
user scripting the CLI does.  Each operation builds its own root system, as every
CLI invocation does, so no cached Weyl group or inversion set carries over
from one operation to the next.

The expected answers below are written by hand from the group theory and
from the paper, never taken from the program's own output.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

SCHEMA = "degeis/1"

# |W| / |W_L| for each (group, parabolic): the number of constant-term rows.
TABLE_ROWS = {
    ("D4", "borel"): 192, ("D4", "P"): 24, ("D4", "Q"): 8,
    ("2D4", "borel"): 48, ("2D4", "P"): 12, ("2D4", "Q"): 6,
    ("3D4", "borel"): 12, ("3D4", "P"): 6,
    ("G2", "borel"): 12,
    ("A1", "borel"): 2,
}

# (group, parabolic, --line or None for the default chi line)
POLE_SWEEP_TRIPLES = [
    (g, p, line)
    for g in ("D4", "2D4")
    for p, line in (("borel", None), ("P", None), ("Q", None), ("P", "muP"), ("Q", "muQ"))
] + [("3D4", "borel", None), ("3D4", "P", None), ("3D4", "P", "muP"),
     ("G2", "borel", None), ("A1", "borel", None)]

# The paper's points: 3/10 on the P lines, 1/6 on the Q lines.  On the Borel
# line the fixed point is 1/2, where the character is rho.
FIXED_POINT = {"P": Fraction(3, 10), "Q": Fraction(1, 6), "borel": Fraction(1, 2)}

# Pole order and square-integrability the paper states at its fixed points
# (None: not stated).
PAPER_POLES = {
    ("D4", "P", None): (2, None),
    ("2D4", "P", None): (1, None),
    ("3D4", "P", None): (0, None),
    ("D4", "Q", None): (1, True),
    ("2D4", "Q", None): (0, False),
}

SEEDED_POINTS_PER_TRIPLE = 5

# sharp-check: every check passes, over rank * |W| H^0 pairs.
SHARP_PAIRS = {"D4": 768, "2D4": 144, "3D4": 24, "G2": 24, "A1": 2}
IOTA_GROUPS = {"D4", "2D4"}

F4_CARTAN = [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
E6_CARTAN = [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
             [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]
# (name, Cartan matrix, removed node, |W| / |W_L|):
# F4 (|W| = 1152) over B3, A1xA2, A2xA1, C3; E6 (|W| = 51840) over D5.
EXCEPTIONAL = [("F4", F4_CARTAN, 1, 24), ("F4", F4_CARTAN, 2, 96),
               ("F4", F4_CARTAN, 3, 96), ("F4", F4_CARTAN, 4, 24),
               ("E6", E6_CARTAN, 1, 27)]
EXCEPTIONAL_POINTS_PER_OP = 2

WORKLOADS = ("pole_sweep", "appendix_checks", "exceptional_cosets")


@dataclass
class Op:
    """One closed-loop operation: ``call`` runs the program, ``judge`` checks it.

    ``judge(result, shared)`` returns ``(failure or None, typed error codes)``;
    ``shared`` lets an operation check an invariant against an earlier one of
    the same pass.
    """

    label: str
    call: Callable[[], object]
    judge: Callable[[object, dict], tuple[str | None, list[str]]]
    argv: list[str] | None = None
    group: str | None = None      # the root system whose Weyl group the op enumerates


def point_pool() -> list[Fraction]:
    """Distinct rationals p/q with |p/q| <= 2 and small denominators."""
    pool = {Fraction(p, q) for q in (1, 2, 3, 4, 5, 6, 10, 12)
            for p in range(-2 * q, 2 * q + 1)}
    return sorted(pool)


def point_arg(point: Fraction) -> str:
    # "--point -1/2" would be read by argparse as an option, so the value is
    # always attached with "=".
    return f"--point={point}"


# -- CLI operations ------------------------------------------------------------

def run_cli(degeis, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = degeis.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


_ERROR_RE = re.compile(r"^error\[([\w-]+)\]:", re.M)


def classify_cli(code: int, err: str) -> tuple[str | None, str | None]:
    """(failure, typed error code) for a CLI call that did not exit 0.

    The generator only emits valid configurations, so a usage error or a
    config-error is a failure: the latter is also how ``cli.main`` reports an
    untyped ValueError.
    """
    if "usage:" in err:
        return "usage error", None
    m = _ERROR_RE.search(err)
    if m is None:
        return f"exit {code} without a typed error", None
    if m.group(1) == "config-error":
        return "config-error on a valid configuration", None
    return None, m.group(1)


def usage_errors(degeis, argvs: list[list[str]]) -> list[str]:
    """Argument vectors that the CLI parser rejects."""
    parser = degeis.cli.build_parser()
    bad = []
    for argv in argvs:
        try:
            with redirect_stderr(io.StringIO()), redirect_stdout(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    return bad


def cli_op(degeis, label, argv, check, group=None) -> Op:
    def judge(result, shared):
        code, out, err = result
        if code != 0:
            failure, typed = classify_cli(code, err)
            if failure is None and check.expects_answer:
                failure = f"typed error {typed} where the paper gives a value"
            return failure, [typed] if typed else []
        return check(out, shared), []
    return Op(label, lambda: run_cli(degeis, argv), judge, argv, group)


class Check:
    """Callable answer check; ``expects_answer`` forbids a typed error."""

    def __init__(self, fn, expects_answer=False):
        self.fn = fn
        self.expects_answer = expects_answer

    def __call__(self, out, shared):
        try:
            return self.fn(out, shared)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"


def _json_doc(out: str, command: str) -> dict:
    doc = json.loads(out)
    if doc.get("schema") != SCHEMA or doc.get("command") != command:
        raise ValueError(f"schema {doc.get('schema')!r} command {doc.get('command')!r}")
    return doc


def table_check(key, point, fmt) -> Check:
    rows_expected = TABLE_ROWS[key[:2]]

    def check(out, shared):
        if fmt == "json":
            doc = _json_doc(out, "table")
            if doc["point"] != str(point):
                return f"point {doc['point']} != {point}"
            orders = [r["pole_order"] for r in doc["rows"]]
        else:
            lines = out.strip().splitlines()
            if not lines[0].startswith(f"| w | J(w,s) | Order of pole at {point} |"):
                return "unexpected table header"
            orders = [int(line.split("|")[3]) for line in lines[2:]]
        if len(orders) != rows_expected:
            return f"{len(orders)} rows, expected {rows_expected}"
        if any(not isinstance(o, int) or o < 0 for o in orders):
            return "negative or non-integer row order"
        shared[(key, point)] = max(orders)
        return None
    return Check(check)


_GROUP_LINE = re.compile(
    r"^  exponent \(.*?\): order -?\d+(?: \(log term survives\))?  \[(.*)\]$")


def poles_check(key, point, fmt) -> Check:
    rows_expected = TABLE_ROWS[key[:2]]
    paper = PAPER_POLES.get(key) if point == FIXED_POINT[key[1]] else None

    def check(out, shared):
        if fmt == "json":
            doc = _json_doc(out, "poles")
            if doc["point"] != str(point):
                return f"point {doc['point']} != {point}"
            order, sq = doc["order"], doc["square_integrable"]
            words = sum(len(g["words"]) for g in doc["groups"])
        else:
            lines = out.strip().splitlines()
            head = f"pole order at {point}: "
            if not lines[0].startswith(head):
                return "unexpected poles header"
            order = int(lines[0][len(head):])
            sq = {"square integrable: True": True,
                  "square integrable: False": False}[lines[1]]
            words = 0
            for line in lines[2:]:
                m = _GROUP_LINE.match(line)
                if m is None:
                    raise ValueError(f"unparseable group line {line!r}")
                words += len(m.group(1).split(", "))
        if not isinstance(order, int) or order < 0:
            return f"pole order {order!r}"
        if words != rows_expected:
            return f"groups cover {words} terms, expected {rows_expected}"
        row_max = shared.get((key, point))
        if row_max is not None and order > row_max:
            return f"pole order {order} exceeds the largest row order {row_max}"
        if paper is not None:
            want_order, want_sq = paper
            if order != want_order:
                return f"pole order {order}, paper gives {want_order}"
            if want_sq is not None and sq != want_sq:
                return f"square integrable {sq}, paper gives {want_sq}"
        return None
    return Check(check, expects_answer=paper is not None)


def expect_lines(*wanted: str) -> Check:
    def check(out, shared):
        lines = out.strip().splitlines()
        missing = [w for w in wanted if w not in lines]
        return f"missing {missing}" if missing else None
    return Check(check, expects_answer=True)


def sharp_check(group) -> Check:
    def check(out, shared):
        doc = _json_doc(out, "sharp-check")
        if doc["failures"]:
            return f"failures {doc['failures']}"
        if not doc["invariance"] or not all(doc["invariance"].values()):
            return "invariance not ok"
        if doc["entire"] is not True:
            return "not entire"
        if doc["h0_pairs_checked"] != SHARP_PAIRS[group]:
            return f"{doc['h0_pairs_checked']} H^0 pairs, expected {SHARP_PAIRS[group]}"
        if doc["iota"] is not (True if group in IOTA_GROUPS else None):
            return f"iota {doc['iota']}"
        return None
    return Check(check, expects_answer=True)


def pole_sweep(degeis, seed: int) -> list[list[Op]]:
    pool = point_pool()
    units = []
    for key in POLE_SWEEP_TRIPLES:
        group, parabolic, line = key
        fixed = FIXED_POINT[parabolic]
        rng = random.Random(f"{seed}/{group}/{parabolic}/{line}")
        points = [fixed] + rng.sample([p for p in pool if p != fixed],
                                      SEEDED_POINTS_PER_TRIPLE)
        for k, point in enumerate(points):
            fmt = "md" if k % 2 == 0 else "json"
            base = ["--group", group, "--parabolic", parabolic]
            base += ["--line", line] if line else []
            base += [point_arg(point), "--assume-no-real-zeros"]
            base += ["--format", "json"] if fmt == "json" else []
            label = f"{group} {parabolic} {line or 'chi'} {point} {fmt}"
            # poles checks its order against the table of the same unit
            units.append([cli_op(degeis, "table " + label, ["table"] + base,
                                 table_check(key, point, fmt), group),
                          cli_op(degeis, "poles " + label, ["poles"] + base,
                                 poles_check(key, point, fmt), group)])
    # The README's remaining commands, once each.
    readme = [
        cli_op(degeis, "sw 2D4", ["sw", "--group", "2D4"],
               expect_lines("Siegel-Weil constant: R/xi_F(2)")),
        cli_op(degeis, "lfactor Vtau", ["lfactor", "--source", "Vtau", "--order-at", "2"],
               expect_lines("degree: 7", "pole order at s=2: 1")),
        cli_op(degeis, "lfactor Vchi trivial",
               ["lfactor", "--source", "Vchi", "--chi", "trivial", "--order-at", "2"],
               expect_lines("degree: 7", "pole order at s=2: 2")),
        cli_op(degeis, "lfactor Vchi biweights", ["lfactor", "--source", "Vchi", "--biweights"],
               expect_lines("degree: 7",
                            "bi-weights: (-1,-1) (-1,1) (0,-2) (0,0) (0,2) (1,-1) (1,1)")),
        cli_op(degeis, "tate lattice:0", ["tate", "--function", "lattice:0", "--z", "2s+3"],
               expect_lines("= zeta_v(2s+3)")),
    ]
    return units + [[op] for op in readme]


def appendix_checks(degeis, seed: int) -> list[list[Op]]:
    return [[cli_op(degeis, f"sharp-check {g}",
                    ["sharp-check", "--group", g, "--format", "json"], sharp_check(g), g)]
            for g in SHARP_PAIRS]


# -- library operations ----------------------------------------------------------

def chi_line(degeis, system, levi):
    """delta_P^{s+1/2} delta_B^{-1/2}, the chi line of the parabolic with Levi ``levi``."""
    s = degeis.forms.AffineForm.var("s")
    delta_p = degeis.characters.modular_character(system, levi)
    delta_b = degeis.characters.modular_character(system, ())
    half = Fraction(1, 2)
    return degeis.characters.TorusCharacter(tuple(
        (s + half) * d.const - half * b.const
        for d, b in zip(delta_p.coords, delta_b.coords)))


def exceptional_op(degeis, name, cartan, node, terms, points) -> Op:
    def call():
        system = degeis.build_system("custom", cartan=cartan)
        levi = tuple(i for i in range(1, len(cartan) + 1) if i != node)
        ct = degeis.constant_term(system, levi, chi_line(degeis, system, levi))
        reports = []
        for point in points:
            try:
                reports.append(degeis.pole_report(ct, point, assume_no_real_zeros=True))
            except degeis.errors.DegeisError as exc:
                if isinstance(exc, degeis.errors.ConfigError):
                    raise
                reports.append(exc.code)
        return ct, reports

    def judge(result, shared):
        ct, reports = result
        if len(ct.terms) != terms:
            return f"{len(ct.terms)} terms, expected {terms}", []
        words = sorted(t.word.letters for t in ct.terms)
        typed = []
        for rep in reports:
            if isinstance(rep, str):
                typed.append(rep)
                continue
            grouped = sorted(w.letters for g in rep.groups for w in g.words)
            if grouped != words:
                return "pole groups do not partition the terms", typed
            if rep.order != max(0, max(-g.order for g in rep.groups)):
                return f"pole order {rep.order} disagrees with its groups", typed
        return None, typed

    label = f"{name} without node {node} at " + ", ".join(map(str, points))
    return Op(label, call, judge, group=name)


def exceptional_cosets(degeis, seed: int) -> list[list[Op]]:
    rng = random.Random(f"{seed}/exceptional")
    pool = point_pool()
    return [[exceptional_op(degeis, name, cartan, node, terms,
                            rng.sample(pool, EXCEPTIONAL_POINTS_PER_OP))]
            for name, cartan, node, terms in EXCEPTIONAL]


def build(workload: str, degeis, seed: int) -> list[list[Op]]:
    """The workload's operations, in units that run back to back."""
    return {"pole_sweep": pole_sweep, "appendix_checks": appendix_checks,
            "exceptional_cosets": exceptional_cosets}[workload](degeis, seed)
