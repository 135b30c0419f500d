"""Independent oracle for squarefreeness: sympy's square-free decomposition
on seeded random polynomials, with and without planted squares."""
from __future__ import annotations

import pytest

from freediv.poly import Context, Poly, squarefree_gcd, squarefree_on_line

from helpers import CASES, make_rng, rand_nonzero

sympy = pytest.importorskip("sympy")

CTX = Context(["x", "y", "z", "w"])
SYMS = sympy.symbols(CTX.names)


def to_sympy(p: Poly) -> sympy.Poly:
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        mono = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(SYMS, e):
            mono *= s ** k
        expr += mono
    return sympy.Poly(expr, *SYMS, domain="QQ")


def sympy_squarefree(p: Poly) -> bool:
    _, factors = to_sympy(p).sqf_list()
    return all(mult == 1 for _, mult in factors)


def _cases(salt: int, planted: bool):
    rng = make_rng(salt)
    out = []
    while len(out) < max(CASES // 20, 10):
        f = rand_nonzero(rng, CTX, max_terms=4, max_deg=3)
        if planted:
            a = rand_nonzero(rng, CTX, max_terms=2, max_deg=2)
            if a.is_constant():
                continue
            f = a * a * f
        if not f.is_constant():
            out.append(f)
    return out


@pytest.mark.parametrize("planted", [False, True])
def test_squarefree_gcd_agrees_with_sympy(planted):
    for f in _cases(70 + planted, planted):
        expected = sympy_squarefree(f)
        assert squarefree_gcd(f).is_constant() == expected, f
        if planted:
            assert not expected


@pytest.mark.parametrize("planted", [False, True])
def test_line_certificate_is_one_sided(planted):
    certified = 0
    for f in _cases(80 + planted, planted):
        if squarefree_on_line(f):
            certified += 1
            assert sympy_squarefree(f), f
    if planted:
        assert certified == 0
    else:
        assert certified > 0
