"""The integer kernels of `Poly.__mul__`, `divide_exact` and `Poly.evaluate`
against the term-by-term Fraction loops they replaced, kept here as the
reference: same terms, same values and, for products, the same term order."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freediv.poly import Context, Poly, PolyError, _exp_div, divide_exact

# ---------------------------------------------------------------------------
# the reference loops: every coefficient a Fraction, every step a Fraction op
# ---------------------------------------------------------------------------


def _exp_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_mul(p: Poly, q: Poly) -> Poly:
    if p.is_zero() or q.is_zero():
        return p.ctx.zero()
    a, b = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = _exp_mul(ea, eb)
            s = terms.get(e, Fraction(0)) + ca * cb
            if s:
                terms[e] = s
            else:
                del terms[e]
    return Poly(p.ctx, terms)


def ref_divide_exact(g: Poly, f: Poly) -> Poly | None:
    if g.is_zero():
        return g.ctx.zero()
    lf = f.lead_exponent()
    cf = f.terms[lf]
    q = {}
    r = g
    while not r.is_zero():
        lr = r.lead_exponent()
        e = _exp_div(lr, lf)
        if e is None:
            return None
        c = r.terms[lr] / cf
        q[e] = c
        r = r - Poly(f.ctx, {_exp_mul(e, ef): c * cv for ef, cv in f.terms.items()})
    return Poly(f.ctx, q)


def ref_evaluate(p: Poly, point, modulus=None):
    total = 0
    for e, c in p.terms.items():
        m = 1
        for i, k in enumerate(e):
            if k:
                m = m * (point[i] ** k if modulus is None else pow(point[i], k, modulus))
        if modulus is None:
            total += c * m
        else:
            total += c.numerator * m % modulus
    return Fraction(total) if modulus is None else total % modulus


def same(p: Poly, q: Poly) -> bool:
    """Equal terms, equal values, the same insertion order, and Fractions only."""
    return (p.ctx == q.ctx and list(p.terms.items()) == list(q.terms.items())
            and all(type(c) is Fraction for c in p.terms.values()))


# ---------------------------------------------------------------------------
# explicit cases
# ---------------------------------------------------------------------------

XY = Context(["x", "y"])
X, Y = XY.gens()
XYZ = Context(["x", "y", "z"])


def test_zero_variable_context():
    ctx = Context([])
    a, b = ctx.const(Fraction(3, 2)), ctx.const(-4)
    assert same(a * b, ctx.const(-6))
    assert same(a * b, ref_mul(a, b))
    assert (a * ctx.zero()).is_zero()
    assert divide_exact(b, a) == ctx.const(Fraction(-8, 3))
    assert a.evaluate([]) == Fraction(3, 2)
    assert ctx.zero().evaluate([]) == 0


@pytest.mark.parametrize("big", [2 ** 70, 2 ** 70 - 1, 127, 128])
def test_large_exponents_widen_the_fields(big):
    # 127 + 128 fits one byte and 128 + 128 does not; 2^70 needs 71-bit fields
    a = XY.monomial((big, 0)) + XY.monomial((1, big - 1), Fraction(-1, 3))
    b = XY.monomial((big - 1, 1), 5) + XY.monomial((0, big)) + XY.const(Fraction(2, 7))
    got = a * b
    assert same(got, ref_mul(a, b))
    assert got.coeff((2 * big - 1, 1)) == 5
    assert got.coeff((1, 2 * big - 1)) == Fraction(-1, 3)
    assert same(divide_exact(got, b), a)
    assert divide_exact(got + X, b) is None


def test_mixed_denominators():
    a = X.scale(Fraction(1, 2)) + Y.scale(Fraction(1, 3)) + XY.const(Fraction(5, 4))
    b = X.scale(Fraction(1, 5)) - Y.scale(Fraction(1, 7))
    got = a * b
    assert same(got, ref_mul(a, b))
    assert got.coeff((1, 1)) == Fraction(1, 15) - Fraction(1, 14)
    assert got.coeff((1, 0)) == Fraction(1, 4)


def test_full_and_partial_cancellation():
    assert same((X + Y) * (X - Y), X * X - Y * Y)
    assert same((X + Y) * (X - Y), ref_mul(X + Y, X - Y))
    partial = (X + Y) * (X.scale(2) - Y)
    assert partial.coeff((1, 1)) == 1 and same(partial, ref_mul(X + Y, X.scale(2) - Y))
    # x*y*z cancels on the second pair and comes back on the third: it is
    # inserted again at the end, as the Fraction loop does
    x, y, z = XYZ.gens()
    a, b = x + y + z, y * z - x * z + x * y
    assert same(a * b, ref_mul(a, b))
    assert list((a * b).terms)[-1] == (1, 1, 1)


def test_one_term_operand():
    m = XY.monomial((2, 1), Fraction(-3, 2))
    p = X + Y.scale(Fraction(1, 3)) + XY.const(1)
    assert same(m * p, ref_mul(m, p))
    assert same(p * m, ref_mul(p, m))
    assert (m * p).coeff((2, 2)) == Fraction(-1, 2)
    one = XY.monomial((0, 3))
    assert same(one * p, ref_mul(one, p))
    assert same(m * m, XY.monomial((4, 2), Fraction(9, 4)))


def test_divide_exact_by_a_non_divisor():
    for g, f in [(X * X + Y, X + Y), (X * Y + 1, X), (X.scale(3), Y), (X * X, X * X + 1)]:
        assert divide_exact(g, f) is None
        assert ref_divide_exact(g, f) is None


def test_evaluate_at_a_fraction_coordinate():
    p = X * X.scale(Fraction(2, 3)) - Y.scale(Fraction(1, 5)) + XY.const(Fraction(7, 2))
    for point in [(Fraction(1, 2), 3), (Fraction(-2, 3), Fraction(5, 7)), (2, -1)]:
        got = p.evaluate(point)
        assert type(got) is Fraction
        assert got == ref_evaluate(p, point)
    assert p.evaluate((Fraction(1, 2), 3)) == Fraction(2, 3) * Fraction(1, 4) - Fraction(3, 5) + Fraction(7, 2)


def test_modular_evaluation_needs_integer_coefficients():
    with pytest.raises(PolyError):
        X.scale(Fraction(1, 2)).evaluate((1, 1), 7)
    p = X * X.scale(5) - Y.scale(3) + XY.const(11)
    assert p.evaluate((4, 9), 7) == ref_evaluate(p, (4, 9), 7)


# ---------------------------------------------------------------------------
# property test against the reference loops
# ---------------------------------------------------------------------------

_COEFF = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 1, 2, 3, 6, 35]))
_SMALL_EXP = st.integers(0, 4)
_ANY_EXP = st.one_of(_SMALL_EXP, st.sampled_from([127, 128, 255, 2 ** 70]))


@st.composite
def _polys(draw, nvars: int, count: int, exps):
    ctx = Context([f"x{i}" for i in range(nvars)])
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            e = tuple(draw(exps) for _ in range(nvars))
            c = draw(_COEFF)
            if c:
                terms[e] = c
        out.append(Poly(ctx, terms))
    return out


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_kernels_agree_with_the_reference_loops(data):
    nvars = data.draw(st.integers(0, 4))
    small = data.draw(st.booleans())
    a, b, r = data.draw(_polys(nvars, 3, _SMALL_EXP if small else _ANY_EXP))
    assert same(a * b, ref_mul(a, b))
    assert same(b * a, ref_mul(b, a))
    if not b.is_zero():
        assert same(divide_exact(ref_mul(a, b), b), ref_divide_exact(ref_mul(a, b), b))
        assert divide_exact(ref_mul(a, b), b) == a
        # a failed division may take a step per monomial below the lead
        # term first: only small degrees there
        if small:
            g = ref_mul(a, b) + r
            got, expected = divide_exact(g, b), ref_divide_exact(g, b)
            assert (got is None and expected is None) or same(got, expected)
    point = data.draw(st.lists(st.one_of(st.integers(-3, 3), _COEFF), min_size=nvars, max_size=nvars))
    if all(max(e, default=0) <= 255 for e in a.terms):  # 3^(2^70) does not fit in memory
        assert a.evaluate(point) == ref_evaluate(a, point)
    ints = Poly(a.ctx, {e: Fraction(c.numerator) for e, c in a.terms.items()})
    mod_point = [int(x) for x in point]
    assert ints.evaluate(mod_point, 1009) == ref_evaluate(ints, mod_point, 1009)

