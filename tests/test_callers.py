"""No functions without callers: every ``def`` in ``src/degeis`` is reached.

A function or method that is not a dunder passes when one of these holds:

* its name is read elsewhere in the package, outside the ``def``'s own
  body: a method as an attribute (``x.name``), a function by its name or as
  an attribute (``module.name``);
* ``degeis/__init__.py`` exports it;
* README.md names it in code (between backticks, outside a ``#`` comment);
* it is on ``ALLOWED`` below, with the reason it stays.

The check is by name, not by type: a method passes when an attribute of
that name is read on any object.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degeis"

# names nothing in the package reads, kept because tests/test_acceptance.py calls them
ALLOWED = {
    "sym_pole_location": "criterion 9 reads the pole of L(s, Sym^2) from it",
    "residue_symbol": "criteria 5 and 6 write their residue constants with it",
    "atom": "criterion 5 writes its zeta quotients with ZetaExpr.atom (conftest.xi)",
    "pair": "criterion 11 checks Weyl invariance of TorusCharacter.pair",
    "shell": "criterion 10 sums ShellFunction.shell integrals",
}


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _defs(tree: ast.Module):
    """(def, whether it is a method) for every def of the module that is not a dunder."""
    methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node, id(node) in methods


def _reads(tree: ast.Module):
    """(name, line, whether an attribute) of every name and attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def _exports(tree: ast.Module) -> set[str]:
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def uncalled(allowed: dict[str, str] = ALLOWED) -> list[str]:
    """``module:line name`` of every def that nothing reaches."""
    trees = _trees()
    reads = {module: list(_reads(tree)) for module, tree in trees.items()}
    exported = _exports(trees["__init__.py"])
    # the README names a function in code (`name`, `x.name(...)`, a code block), not
    # in a comment
    code = " ".join(re.findall(r"`[^`]*`", (ROOT / "README.md").read_text()))
    readme = re.sub(r"#[^\n]*", "", code)
    out = []
    for module, tree in trees.items():
        for node, method in _defs(tree):
            name, body = node.name, range(node.lineno, node.end_lineno + 1)
            if (name in exported or name in allowed
                    or re.search(rf"\b{re.escape(name)}\b", readme)):
                continue
            # a method is read as an attribute; a function by its name or as module.name
            if not any(read == name and (attr or not method)
                       and (other != module or line not in body)
                       for other, found in reads.items() for read, line, attr in found):
                out.append(f"{module}:{node.lineno} {name}")
    return out


def test_every_function_has_a_caller():
    assert uncalled() == []


def test_an_uncalled_function_is_found(monkeypatch):
    """Negative control: a def that only calls itself, and a method named nowhere, fail."""
    source = PACKAGE / "records.py"
    text = source.read_text()
    extra = ("\n\ndef _orphan(n):\n    return _orphan(n - 1) if n else 0\n"
             "\n\nclass _Unused:\n    def _never_read(self):\n        return 1\n")
    read_text = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda path, *args, **kwargs:
                        text + extra if path == source else read_text(path, *args, **kwargs))
    assert [entry.split()[1] for entry in uncalled()] == ["_orphan", "_never_read"]


def test_every_allowed_name_is_defined_and_otherwise_uncalled():
    """Each allowlist entry is a def of the package that would fail without its entry."""
    assert sorted(entry.split()[1] for entry in uncalled({})) == sorted(ALLOWED)
