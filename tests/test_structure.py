"""The coefficient format of a polynomial is known to `poly.py` alone: no
other module of freediv reads `Poly.terms`, and `poly._integer_form` is the
only code that turns rational coefficients into integers, so the only code
that reads `.numerator` or `.denominator`."""
from __future__ import annotations

import ast
from pathlib import Path

import freediv

MODULES = sorted(Path(freediv.__file__).parent.glob("*.py"))


def _attribute_reads(path: Path, names: set[str]) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, attribute) of every read of an
    attribute in names."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in names:
            found.append((scope, node.lineno, node.attr))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(path.read_text(), str(path)), "")
    return found


def test_the_modules_are_found():
    assert {"poly.py", "linalg.py", "families.py"} <= {p.name for p in MODULES}


def test_only_poly_reads_the_terms():
    reads = {p.name: _attribute_reads(p, {"terms"}) for p in MODULES if p.name != "poly.py"}
    assert {name: r for name, r in reads.items() if r} == {}


def test_only_integer_form_reads_numerators_and_denominators():
    reads = {p.name: [r for r in _attribute_reads(p, {"numerator", "denominator"})
                      if (p.name, r[0]) != ("poly.py", "_integer_form")]
             for p in MODULES}
    assert {name: r for name, r in reads.items() if r} == {}
