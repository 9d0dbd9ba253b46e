"""Batch command-line front end.

Subcommands expose every computation and emit Markdown or JSON with
deterministic ordering.  Exit codes: 0 success, 1 configuration error,
2 indeterminate zero region, 3 check failure, 4 mathematical limit (the
input is valid but needs what the engine does not model:
needs-higher-log-order, hyperplane-degeneracy, unmodeled-point), 141 stdout
closed by its reader before the output was written (``degeis ... | head``),
with nothing printed to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .characters import (STANDARD_LINES, TorusCharacter, chi_line_for, iota_check,
                         parabolic_levi, standard_line)
from .dualside import lfactor_standard, order_at_2, restrict_via_r
from .eisenstein import (ConstantTerm, _factor_json, _PerCount, constant_term, entireness_report,
                         pole_report, render_markdown_table, render_table_rows,
                         sharp_invariance_check, siegel_weil_constant)
from .errors import (ConfigError, DegeisError, IndeterminateZeroRegionError,
                     MathematicalLimitError)
from .forms import Q, _per_object, parse_affine, parse_rational
from .localint import ShellFunction, tate_integral
from .rootdata import RootSystem, build_system
from .zetas import ZetaAtom

SCHEMA = "degeis/1"
EXIT_CLOSED_STDOUT = 141     # 128 + SIGPIPE, as a shell reports a writer killed by it

_GROUPS = {"D4": "split_D4", "2D4": "quasi_D4", "3D4": "tri_D4",
           "G2": "G2", "A1": "A1"}


def _system(name: str) -> RootSystem:
    if name not in _GROUPS:
        raise ConfigError(f"unknown group {name!r}; choose from {sorted(_GROUPS)}")
    return build_system(_GROUPS[name])


def _parse(parse, text: str):
    """A command-line value read by parse_rational or parse_affine."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except ZeroDivisionError as exc:
        raise ConfigError(f"zero denominator in {text!r}") from exc


def _line(system: RootSystem, spec: str | None, parabolic: str) -> TorusCharacter:
    """The line, which pairs to all -1 (chi) or all +1 (mu) with the parabolic's
    Levi simple coroots; ``borel`` has no Levi and takes any line."""
    if spec is None:
        return chi_line_for(system, parabolic)
    if spec in STANDARD_LINES:
        line = standard_line(system, spec)
    else:
        coords = [_parse(parse_affine, p) for p in spec.split(",")]
        if len(coords) != system.rank:
            raise ConfigError(f"custom line needs {system.rank} coordinates, got {len(coords)}")
        line = TorusCharacter(tuple(coords))
        if line.params != ("s",):
            raise ConfigError("a custom line must be affine in the one parameter s that "
                              f"--point assigns; found parameters {list(line.params)}")
    levi = parabolic_levi(system, parabolic)
    for i in levi:
        c = line.coords[i - 1]
        if c != line.coords[levi[0] - 1] or not (c.is_constant() and abs(c.const) == 1):
            raise ConfigError(f"line coordinate {i} is {c}: on parabolic {parabolic} the Levi "
                              f"coordinates {list(levi)} must be all -1 (chi) or all +1 (mu)")
    return line


class _Encoded(str):
    """JSON text already laid out for the depth where ``_json`` writes it: appended
    as it is."""
    __slots__ = ()


def _json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for the payload types only.

    ``newline`` is the line break and indent of the depth the value is written
    at: the text of a value nested that deep in a document.  Strings are quoted
    by the stdlib's C quoting function, so the bytes are the stdlib's; an
    ``_Encoded`` string is written as it is.  Anything but dict (with str keys),
    list, str, int, bool and None raises TypeError: its encoding is not
    guessed.  Every piece goes into one list, joined once at the end.
    """
    out: list[str] = []
    append = out.append

    def encode(value, newline: str) -> None:
        if isinstance(value, str):
            append(value if value.__class__ is _Encoded else _quote(value))
        elif value is None:
            append("null")
        elif isinstance(value, bool):
            append("true" if value else "false")
        elif isinstance(value, int):
            append(int.__repr__(value))
        elif isinstance(value, dict):
            if not value:
                append("{}")
                return
            for k in value:
                if not isinstance(k, str):
                    raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
            inner = newline + "  "
            opening = "{" + inner
            for k in sorted(value):
                append(opening + _quote(k) + ": ")
                encode(value[k], inner)
                opening = "," + inner
            append(newline + "}")
        elif isinstance(value, list):
            if not value:
                append("[]")
                return
            inner = newline + "  "
            opening = "[" + inner
            for v in value:
                append(opening)
                encode(v, inner)
                opening = "," + inner
            append(newline + "]")
        else:
            raise TypeError(f"cannot encode {type(value).__name__} as JSON")

    encode(value, newline)
    return "".join(out)


def _array(items: list[str], newline: str) -> str:
    """The JSON array of items already encoded one level deeper than ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


_SLOT = _Encoded("%s")
# a row of ``table`` and a group of ``poles``, each at its depth in the document, with
# one %s per value: _json sorts the keys, so the values fill in the order listed here
_ROW = _json({"exponent": _SLOT, "exponent_at_point": _SLOT, "exponent_json": {"coords": _SLOT},
              "j_factor": _SLOT,
              "j_factor_json": dict.fromkeys(("atoms", "den", "num", "residues", "scalar"), _SLOT),
              "pole_order": _SLOT, "word": _SLOT}, "\n    ")
_GROUP = _json(dict.fromkeys(("exponent", "leading", "log_term", "order", "words"), _SLOT),
               "\n    ")
# the lists of ``j_factor_json`` in key order; the depth of a row's lists and of their items
_J_FIELDS = ("atoms", "den", "num", "residues")
_ROW_LIST = "\n        "
_ROW_ITEM = _ROW_LIST + "  "


def _table_rows_json(ct: ConstantTerm, rows: list[dict]) -> list[_Encoded]:
    """The rows of ``table --format json``: ``render_table_rows``' fields, with J as
    ``ZetaExpr.to_json`` and the exponent as ``TorusCharacter.to_json`` lay them out.

    Read off the table: the entries of each (id, count) are encoded once, and
    each exponent coordinate once, at the depth where every row writes them.
    """
    table = ct.table
    sep = "," + _ROW_ITEM

    def encoded(key: object, count: int) -> tuple[int, str]:
        field, items = _factor_json(key, count)
        return _J_FIELDS.index(field), sep.join([_json(x, _ROW_ITEM) for x in items])

    entries = _PerCount(table.keys, encoded)
    coords = [_json(f.to_json(), _ROW_ITEM) for f in table.coords]
    scalar_text = _per_object(lambda q: _quote(str(q)))
    out = []
    for row, (scalar, counts), exp in zip(rows, table.terms, table.exps):
        fields: tuple[list[str], ...] = ([], [], [], [])
        for pair in counts:
            k, text = entries[pair]
            fields[k].append(text)
        out.append(_Encoded(_ROW % (
            _quote(row["exponent"]), _quote(row["exponent_at_point"]),
            _array([coords[c] for c in exp], _ROW_LIST), _quote(row["j_factor"]),
            *[_array(f, _ROW_LIST) for f in fields], scalar_text(scalar),
            row["pole_order"], _quote(row["word"]))))
    return out


def _emit(args, payload: dict, markdown) -> None:
    """Print the payload as JSON, or the text ``markdown()`` renders."""
    print(_json({"schema": SCHEMA, **payload}) if args.format == "json" else markdown())


def _constant_term(args) -> tuple[ConstantTerm, Q]:
    """The constant term and point of ``table`` and ``poles``, read in the order
    group, parabolic, line, point, so that the first bad value is the one reported."""
    system = _system(args.group)
    levi = parabolic_levi(system, args.parabolic)
    line = _line(system, args.line, args.parabolic)
    point = _parse(parse_rational, args.point)
    return constant_term(system, levi, line), point


def cmd_table(args) -> int:
    ct, point = _constant_term(args)
    rows = render_table_rows(ct, point, assume_no_real_zeros=args.assume_no_real_zeros)
    payload = {"command": "table", "group": args.group, "parabolic": args.parabolic,
               "point": str(point), "line": str(ct.line), "rows": rows}
    if args.format == "json":
        payload["rows"] = _table_rows_json(ct, rows)
    _emit(args, payload, lambda: render_markdown_table(rows, point))
    return 0


def cmd_poles(args) -> int:
    ct, point = _constant_term(args)
    rep = pole_report(ct, point, assume_no_real_zeros=args.assume_no_real_zeros)
    # the report shares one Fraction per distinct exponent value: each is rendered once
    value_text = _per_object(str)
    exponents = ["(" + ",".join(map(value_text, g.exponent_at_point)) + ")" for g in rep.groups]
    words = [[str(w) for w in g.words] for g in rep.groups]
    payload = {"command": "poles", "group": args.group, "parabolic": args.parabolic,
               "point": str(point), "order": rep.order,
               "square_integrable": rep.square_integrable, "groups": []}
    if args.format == "json":
        # only JSON prints the leading terms; their atoms are shared, each rendered once
        factor_text = _per_object(ZetaAtom.factor_text)
        payload["groups"] = [_Encoded(_GROUP % (
            _quote(e), "null" if (lead := g.leading) is None else _quote(lead.text(factor_text)),
            "true" if g.log_term else "false", g.order, _array(list(map(_quote, ws)), "\n      ")))
            for e, ws, g in zip(exponents, words, rep.groups)]

    def markdown():
        lines = [f"pole order at {point}: {rep.order}",
                 f"square integrable: {rep.square_integrable}"]
        for e, ws, g in zip(exponents, words, rep.groups):
            extra = " (log term survives)" if g.log_term else ""
            lines.append(f"  exponent {e}: order {g.order}{extra}  [{', '.join(ws)}]")
        return "\n".join(lines)
    _emit(args, payload, markdown)
    return 0


def cmd_sw(args) -> int:
    system = _system(args.group)
    rep = siegel_weil_constant(system)
    payload = {"command": "sw", "group": args.group,
               "constant": str(rep.constant),
               "section_constant": str(rep.section_constant),
               "sharp_limit_P": {"order": rep.sharp_p.order, "leading": str(rep.sharp_p.leading)},
               "sharp_limit_Q": {"order": rep.sharp_q.order, "leading": str(rep.sharp_q.leading)},
               "residue_w2342": {"order": rep.residue_w2342.order,
                                 "leading": str(rep.residue_w2342.leading)}}
    _emit(args, payload, lambda: "\n".join([
        f"Siegel-Weil constant: {rep.constant}",
        f"section-level constant: {rep.section_constant}",
        f"sharp limit along muP (order {rep.sharp_p.order}): {rep.sharp_p.leading}",
        f"sharp limit along muQ (order {rep.sharp_q.order}): {rep.sharp_q.leading}",
        f"A_w[2342] residue (order {rep.residue_w2342.order}): {rep.residue_w2342.leading}",
    ]))
    return 0


def cmd_sharp_check(args) -> int:
    system = _system(args.group)
    failures = []
    inv = {}
    for i in range(1, system.rank + 1):
        ok, _ = sharp_invariance_check(system, i)
        inv[i] = ok
        if not ok:
            failures.append(f"invariance w_{i}")
    ent = entireness_report(system)
    if not ent.entire:
        failures.append("entireness")
    iota = None
    if system.name in ("split_D4", "quasi_D4"):
        iota = iota_check(system).ok
        if not iota:
            failures.append("iota")
    payload = {"command": "sharp-check", "group": args.group,
               "invariance": {str(i): v for i, v in inv.items()},
               "entire": ent.entire, "h0_pairs_checked": ent.checked_words,
               "iota": iota, "failures": failures}

    def markdown():
        lines = [f"invariance under w_{i}: {'ok' if v else 'FAIL'}" for i, v in inv.items()]
        lines.append(f"entireness (boundary + H^0 cancellation over {ent.checked_words} "
                     f"pairs): {'ok' if ent.entire else 'FAIL'}")
        if iota is not None:
            lines.append(f"iota change of variables: {'ok' if iota else 'FAIL'}")
        return "\n".join(lines)
    _emit(args, payload, markdown)
    return 3 if failures else 0


def cmd_lfactor(args) -> int:
    source = {"Vtau": "V_tau", "Vchi": "V_chi"}.get(args.source)
    if source is None:
        raise ConfigError("source must be Vtau or Vchi")
    fact = lfactor_standard(source)
    payload = {"command": "lfactor", "source": args.source,
               "factorization": fact.to_json(), "degree": fact.degree(),
               "display": str(fact)}
    if args.order_at is not None:
        point = _parse(parse_rational, args.order_at)
        if point != 2:
            raise ConfigError("only the point s=2 is modeled")
        payload["order_at_2"] = order_at_2(fact, chi_trivial=(args.chi == "trivial"))
        payload["chi"] = args.chi
    if args.biweights:
        payload["biweights"] = [[str(a), str(b)] for a, b in restrict_via_r()]

    def markdown():
        lines = [payload["display"], f"degree: {payload['degree']}"]
        if "order_at_2" in payload:
            lines.append(f"pole order at s=2: {payload['order_at_2']}")
        if args.biweights:
            lines.append("bi-weights: " + " ".join(f"({a},{b})" for a, b in payload["biweights"]))
        return "\n".join(lines)
    _emit(args, payload, markdown)
    return 0


def cmd_tate(args) -> int:
    kind, _, k = args.function.partition(":")
    try:
        index = int(k or "0")
    except ValueError:
        raise ConfigError(f"shell index must be an integer, got {k!r} in "
                          f"{args.function!r}") from None
    try:
        shell = ShellFunction(kind, index)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    z = _parse(parse_affine, args.z)
    value = tate_integral(shell, z)
    payload = {"command": "tate", "function": args.function, "z": str(z),
               "value": value.to_json(), "display": str(value),
               "is_local_zeta": value.is_local_zeta(),
               "convergence": value.convergence}
    zeta = f"\n= zeta_v({z})" if payload["is_local_zeta"] else ""
    _emit(args, payload, lambda: f"{payload['display']}    [{value.convergence}]{zeta}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degeis",
        description="Exact constant-term, pole and L-factor calculator for "
                    "degenerate Eisenstein series on D4/G2-type groups.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, line=True):
        p.add_argument("--group", required=True, help="D4, 2D4, 3D4, G2 or A1")
        if line:
            p.add_argument("--parabolic", default="borel", help="borel, P or Q")
            p.add_argument("--line", default=None,
                           help="chiQ|chiP|muP|muQ|kappa or comma-separated affine forms "
                                "(default: the chi line of the parabolic); kappa is refused "
                                "on every parabolic, see line_kappa in the library")
            p.add_argument("--point", required=True, help="rational point p/q")
        p.add_argument("--format", choices=("md", "json"), default="md")
        if line:    # after --format, where the usage and help have always listed it
            p.add_argument("--assume-no-real-zeros", action="store_true",
                           help="certify orders even when zeta arguments fall inside (0,1)")

    p_table = sub.add_parser("table", help="Gindikin-Karpelevich constant-term table")
    common(p_table)
    p_table.set_defaults(func=cmd_table)

    p_poles = sub.add_parser("poles", help="pole order report with exponent grouping")
    common(p_poles)
    p_poles.set_defaults(func=cmd_poles)

    p_sw = sub.add_parser("sw", help="Siegel-Weil proportionality constants")
    common(p_sw, line=False)
    p_sw.set_defaults(func=cmd_sw)

    p_sharp = sub.add_parser("sharp-check",
                             help="W-invariance, residue cancellation and entireness")
    common(p_sharp, line=False)
    p_sharp.set_defaults(func=cmd_sharp_check)

    p_lf = sub.add_parser("lfactor", help="standard L-function factorizations")
    p_lf.add_argument("--source", required=True, help="Vtau or Vchi")
    p_lf.add_argument("--chi", choices=("trivial", "nontrivial"), default="nontrivial")
    p_lf.add_argument("--order-at", default=None, help="evaluate the pole order (s=2)")
    p_lf.add_argument("--biweights", action="store_true")
    p_lf.add_argument("--format", choices=("md", "json"), default="md")
    p_lf.set_defaults(func=cmd_lfactor)

    p_tate = sub.add_parser("tate", help="formal shell/lattice Tate integral")
    p_tate.add_argument("--function", default="lattice:0", help="lattice:k or shell:k")
    p_tate.add_argument("--z", default="2s+3", help="exponent affine form")
    p_tate.add_argument("--format", choices=("md", "json"), default="md")
    p_tate.set_defaults(func=cmd_tate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built by the first ``main`` call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()      # a closed stdout raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader closed stdout (``| head``): point the descriptor at devnull,
        # so that what is still buffered is dropped at exit instead of raising
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


def _run(argv: list[str] | None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except DegeisError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        if isinstance(exc, IndeterminateZeroRegionError):
            return 2
        return 4 if isinstance(exc, MathematicalLimitError) else 1


if __name__ == "__main__":
    sys.exit(main())
