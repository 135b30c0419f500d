"""The one-term paths of `Poly.__pow__` and of the parser's products, the
integer kernels of `Poly.__mul__`, `divide_exact`, `Poly.evaluate` and
`Poly.weighted_degree`, the line restriction `_on_line`, the one-dict sums
of `Context.sum`, the integer chains of `poly_product` and `substitute`, the
column kernel `_gradient_quotients` and the point rows of `_evaluate_rows`,
against the term-by-term Fraction loops they replaced, kept here as the
reference: same terms, same values and, for products, sums, substitutions
and quotients, the same term order.  `_integer_form`, the one conversion of
rational coefficients to integers, against its definition."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from freediv.matrices import PolyMatrix
from freediv.poly import (
    LINE_PRIME, Context, NotHomogeneousError, ParseError, Poly, PolyError, _evaluate_rows, _exp_div, _gradient_quotients,
    _integer_columns, _integer_form, _interpolate_mod, _on_line, divide_exact, grevlex_key, parse_poly,
    poly_product, sample_ints, star, substitute,
)

from helpers import CASES, make_rng, rand_poly, same

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


def ref_on_line(f: Poly) -> list[int] | None:
    """_on_line by the reference evaluation: F = den * f evaluated mod p at
    the d + 1 line points a + t*b, interpolated, None when the degree drops."""
    p = LINE_PRIME
    n, d = f.ctx.nvars, f.total_degree()
    F = f.scale(lcm(*(c.denominator for c in f.terms.values())))
    line = sample_ints(2 * n, p - 1)
    a, b = line[:n], line[n:]
    u = _interpolate_mod([ref_evaluate(F, [(x + t * y) % p for x, y in zip(a, b)], p)
                          for t in range(d + 1)], p)
    return u if u[d] else None


def ref_add(p: Poly, q: Poly) -> Poly:
    terms = dict(p.terms)
    for e, c in q.terms.items():
        s = terms.get(e, Fraction(0)) + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return Poly(p.ctx, terms)


def ref_sum(ctx: Context, polys) -> Poly:
    out = ctx.zero()
    for p in polys:
        out = ref_add(out, p)
    return out


def ref_product(ctx: Context, polys) -> Poly:
    """The fold out = ref_mul(out, p) from the first factor on, with the
    context check of Poly.__mul__."""
    if not polys:
        return ctx.const(1)
    out = polys[0]
    for p in polys[1:]:
        if p.ctx != out.ctx:
            raise PolyError(f"context mismatch: {out.ctx} vs {p.ctx}")
        out = ref_mul(out, p)
    return out


def ref_substitute(h: Poly, args) -> Poly:
    ctx = args[0].ctx
    pows = [{0: ctx.const(1), 1: a} for a in args]

    def power(i, k):
        cache = pows[i]
        if k not in cache:
            cache[k] = ref_mul(power(i, k - 1), cache[1])
        return cache[k]
    out = ctx.zero()
    for e, c in sorted(h.terms.items(), key=lambda t: grevlex_key(t[0])):
        term = ctx.const(c)
        for i, k in enumerate(e):
            if k:
                term = ref_mul(term, power(i, k))
        out = ref_add(out, term)
    return out


def ref_star(p: Poly, big: Context, fresh) -> Poly:
    out = big.zero()
    for i, y in enumerate(fresh):
        d = p.derivative(i)
        if not d.is_zero():
            out = ref_add(out, big.var(y) * d.embedded(big))
    return out


def ref_left_apply(m: PolyMatrix, vec) -> list[Poly]:
    out = []
    for j in range(m.ncols):
        s = m.ctx.zero()
        for i in range(m.nrows):
            v, a = vec[i], m.rows[i][j]
            if not v.is_zero() and not a.is_zero():
                s = ref_add(s, v * a)
        out.append(s)
    return out


def ref_matmul(a: PolyMatrix, b: PolyMatrix) -> list[list[Poly]]:
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            s = a.ctx.zero()
            for k in range(a.ncols):
                x, y = a.rows[i][k], b.rows[k][j]
                if not x.is_zero() and not y.is_zero():
                    s = ref_add(s, x * y)
            row.append(s)
        out.append(row)
    return out


def ref_weighted_degree(p: Poly, weights) -> Fraction:
    w = [Fraction(x) for x in weights]
    if len(w) != p.ctx.nvars:
        raise NotHomogeneousError("weight vector length mismatch")
    if p.is_zero():
        raise PolyError("the zero polynomial has no degree")
    degs = {sum(wi * ei for wi, ei in zip(w, e)) for e in p.terms}
    if len(degs) != 1:
        raise NotHomogeneousError(
            f"not homogeneous for weights {tuple(map(str, w))}: degrees {sorted(map(str, degs))}"
        )
    return degs.pop()


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
    # constants as arguments: no variables to pack
    h = parse_poly("u^2*v - 3*u + 1/2", Context(["u", "v"]))
    assert same(substitute(h, [a, b]), ref_substitute(h, [a, b]))
    assert same(substitute(h, [ctx.zero(), b]), ref_substitute(h, [ctx.zero(), b]))


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


def test_on_line_agrees_with_the_reference_evaluation():
    texts = ["2*x^2*y - 3*z + 5", "1/2*x^2*y - 3*z + 5", "-x^3 + 7/6*y*z - 1/35", "x*y*z", "4"]
    vanishing = parse_poly("x*y + z", XYZ).scale(LINE_PRIME)  # zero mod p: no restriction
    polys = [parse_poly(t, XYZ) for t in texts] + [vanishing, Context([]).const(Fraction(-3, 2))]
    rng = make_rng(62)
    polys += [rand_poly(rng, XYZ) for _ in range(CASES // 10)]
    for f in polys:
        if not f.is_zero():
            assert _on_line(f) == ref_on_line(f), f
    assert _on_line(vanishing) is None


_VALUE = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.fractions(max_denominator=60))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(values=st.lists(_VALUE, max_size=8))
def test_integer_form_agrees_with_its_definition(values):
    den, nums = _integer_form(values)
    assert type(den) is int and all(type(v) is int for v in nums)
    assert len(nums) == len(values)
    assert all(Fraction(v, den) == x for v, x in zip(nums, values))
    # a common factor of den and every numerator would give a smaller den
    assert den >= 1 and gcd(den, *nums) == 1


def test_integer_form_of_no_values():
    assert _integer_form([]) == (1, [])


def test_empty_sum():
    assert same(XY.sum([]), XY.zero())
    assert same(XY.sum(iter(())), XY.zero())


def test_sum_that_cancels_to_zero():
    got = XY.sum([X + Y, -X, -Y])
    assert got.is_zero() and got.terms == {}
    assert same(got, ref_sum(XY, [X + Y, -X, -Y]))


def test_term_that_cancels_and_comes_back():
    # x cancels on the second operand and comes back on the fourth: it is
    # inserted again at the end, as the left-to-right fold does
    polys = [X + Y, -X, Y.scale(2), X.scale(Fraction(1, 3))]
    got = XY.sum(polys)
    assert same(got, ref_sum(XY, polys))
    assert list(got.terms.items()) == [((0, 1), 3), ((1, 0), Fraction(1, 3))]


def test_one_operand_sum_is_a_copy():
    p = X * Y + XY.const(2)
    got = XY.sum([p])
    assert same(got, p)
    assert got.terms is not p.terms


def test_sum_context_mismatch():
    x3 = XYZ.gens()[0]
    with pytest.raises(PolyError, match="context mismatch"):
        XY.sum([X, x3])
    with pytest.raises(PolyError, match="context mismatch"):
        XY.sum([x3])
    with pytest.raises(PolyError, match="context mismatch"):
        X + x3


# ---------------------------------------------------------------------------
# chains: poly_product and substitute against the reference folds
# ---------------------------------------------------------------------------

UVW = Context(["u", "v", "w"])


def _rational(rng) -> Fraction:
    return Fraction(rng.randint(-7, 7), rng.choice([1, 2, 3, 5, 12]))


def test_substitute_under_dense_rational_linear_changes():
    # every argument a rational combination of every variable, and a constant
    rng = make_rng(140)
    for n in (2, 3, 4):
        ctx = Context([f"x{i}" for i in range(n)])
        gens = ctx.gens()
        for _ in range(max(CASES // 50, 5)):
            h = rand_poly(rng, ctx, max_terms=6, max_deg=4)
            args = [ctx.sum([g.scale(_rational(rng)) for g in gens] + [ctx.const(_rational(rng))])
                    for _ in range(n)]
            assert same(substitute(h, args), ref_substitute(h, args))
            assert same(poly_product(ctx, args), ref_product(ctx, args))


@pytest.mark.parametrize("big", [150, 2 ** 70])
def test_chains_wider_than_a_byte(big):
    # 2 * 150 = 300 needs 9-bit fields, 2^71 needs 72
    a = XY.monomial((big, 0)) + Y.scale(Fraction(1, 3))
    b = X + XY.monomial((0, big), 2) - XY.const(Fraction(5, 7))
    h = parse_poly("u^2 - 3*u*v + 1/2*v^2 + 1", Context(["u", "v"]))
    assert same(substitute(h, [a, b]), ref_substitute(h, [a, b]))
    assert substitute(h, [a, b]).coeff((2 * big, 0)) == 1
    assert same(poly_product(XY, [a, b, a]), ref_product(XY, [a, b, a]))
    assert poly_product(XY, [a, b, a]).coeff((2 * big, big)) == 2
    # an argument that h never raises to a power is packed all the same
    h = parse_poly("u^2 - u", Context(["u", "v"]))
    assert same(substitute(h, [X + Y, a]), ref_substitute(h, [X + Y, a]))


@pytest.mark.parametrize("args", [
    [X + Y, XY.zero(), X.scale(2)],
    [XY.zero(), XY.zero(), X - Y],
    [XY.const(3), X * Y, X + XY.const(1)],
    [X.scale(Fraction(-1, 2)), Y, X * Y + Y],
    [XY.zero(), X, Y],
    [XY.const(Fraction(2, 3)), XY.zero(), XY.const(-1)],
])
def test_substitute_with_zero_and_one_term_arguments(args):
    h = parse_poly("u^2*v + 2/3*u*w - w^3 + v^2 + 1/5", UVW)
    got = substitute(h, args)
    assert same(got, ref_substitute(h, args))
    assert got == ref_product(XY, [args[0], args[0], args[1]]) + args[0] * args[2].scale(Fraction(2, 3)) \
        - ref_product(XY, [args[2]] * 3) + args[1] * args[1] + XY.const(Fraction(1, 5))


def test_chains_with_zero_and_one_term_factors():
    for factors in ([X + Y, XY.zero(), X - Y], [X, X + Y, Y.scale(3), X - Y],
                    [XY.const(Fraction(1, 2)), X + Y], [X * Y], [], [XY.zero(), X + Y, Y + 1]):
        assert same(poly_product(XY, factors), ref_product(XY, factors))


def test_substitutions_that_cancel():
    s = X + Y.scale(Fraction(1, 2))
    for text, args in [("u^2 - v^2", [s, s, X]), ("u - v + w", [s, s, XY.zero()]),
                       ("u*v - v*w", [X + Y, s, X + Y]), ("u^3 - 3*u*v + w", [s, s * s, s])]:
        h = parse_poly(text, UVW)
        got = substitute(h, args)
        assert same(got, ref_substitute(h, args))
    zero = substitute(parse_poly("u^2 - v*w", UVW), [s, s, s])
    assert zero.is_zero() and zero.terms == {}
    # x cancels between the second and third terms of h and comes back with
    # the fourth: it is inserted again at the end, as Context.sum does
    h = parse_poly("w^2 + v + u - w", UVW)
    args = [X + XY.const(1), -X + Y, X]
    got = substitute(h, args)
    assert same(got, ref_substitute(h, args))


def test_chain_context_mismatch():
    x3, y3, _ = XYZ.gens()
    factors = [X + Y, X - Y, x3 + y3]
    with pytest.raises(PolyError) as got:
        poly_product(XY, factors)
    with pytest.raises(PolyError) as expected:
        (X + Y) * (X - Y) * (x3 + y3)
    assert str(got.value) == str(expected.value) == f"context mismatch: {XY} vs {XYZ}"
    with pytest.raises(PolyError, match="context mismatch"):
        poly_product(XY, [X + Y, x3, X - Y])
    with pytest.raises(PolyError, match="different contexts"):
        substitute(parse_poly("u*v", UVW), [X + Y, x3 + y3, X])


# ---------------------------------------------------------------------------
# property tests against the reference loops
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
    if small and not a.is_zero():
        assert _on_line(a) == ref_on_line(a)


# exponents in 0..2 collide often, so sums cancel and terms come back
_TINY_EXP = st.integers(0, 2)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_sums_agree_with_the_reference_fold(data):
    nvars = data.draw(st.integers(1, 3))
    ctx = Context([f"x{i}" for i in range(nvars)])
    polys = data.draw(_polys(nvars, data.draw(st.integers(0, 6)), _TINY_EXP))
    assert same(ctx.sum(polys), ref_sum(ctx, polys))
    assert same(ctx.sum(iter(polys)), ref_sum(ctx, polys))
    a, b = data.draw(_polys(nvars, 2, _TINY_EXP))
    assert same(a + b, ref_add(a, b))
    assert same(a - b, ref_add(a, -b))

    k = data.draw(st.integers(1, 3))
    (h,) = data.draw(_polys(k, 1, _SMALL_EXP))
    args = data.draw(_polys(nvars, k, _TINY_EXP))
    assert same(substitute(h, args), ref_substitute(h, args))

    fresh = [f"y{i}" for i in range(nvars)]
    big = ctx.extend(fresh)
    assert same(star(a, big, fresh), ref_star(a, big, fresh))

    r, c, c2 = (data.draw(st.integers(1, 3)) for _ in range(3))
    cells = data.draw(_polys(nvars, r * c + c * c2 + r, _TINY_EXP))
    m = PolyMatrix(ctx, [cells[i * c:(i + 1) * c] for i in range(r)])
    other = PolyMatrix(ctx, [cells[r * c + i * c2:r * c + (i + 1) * c2] for i in range(c)])
    vec = cells[r * c + c * c2:]
    got, expected = m.left_apply(vec), ref_left_apply(m, vec)
    assert len(got) == len(expected) and all(map(same, got, expected))
    product = m @ other
    for row, expected_row in zip(product.rows, ref_matmul(m, other), strict=True):
        assert all(map(same, row, expected_row)) and len(row) == len(expected_row)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_chains_agree_with_the_reference_folds(data):
    nvars = data.draw(st.integers(1, 3))
    ctx = Context([f"x{i}" for i in range(nvars)])
    exps = data.draw(st.sampled_from([_TINY_EXP, _ANY_EXP]))
    factors = data.draw(_polys(nvars, data.draw(st.integers(0, 5)), exps))
    assert same(poly_product(ctx, factors), ref_product(ctx, factors))
    k = data.draw(st.integers(1, 3))
    (h,) = data.draw(_polys(k, 1, _SMALL_EXP))
    args = [Poly(ctx, dict(list(a.terms.items())[:3])) for a in data.draw(_polys(nvars, k, exps))]
    assert same(substitute(h, args), ref_substitute(h, args))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_a_product_is_the_substitution_into_the_product_of_the_variables(data):
    # poly_product with two or more multi-term factors is the chain of
    # substitute at the one term y1*...*yk: both must agree on any factors
    nvars = data.draw(st.integers(1, 3))
    ctx = Context([f"x{i}" for i in range(nvars)])
    exps = data.draw(st.sampled_from([_TINY_EXP, _ANY_EXP]))
    factors = data.draw(_polys(nvars, data.draw(st.integers(1, 5)), exps))
    k = len(factors)
    ys = Context([f"y{i}" for i in range(k)]).monomial((1,) * k)
    assert same(poly_product(ctx, factors), substitute(ys, factors))


_WEIGHT = st.one_of(st.integers(-3, 5), st.builds(Fraction, st.integers(-7, 9), st.sampled_from([1, 2, 3, 4, 6, 35])))


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except PolyError as e:
        return type(e).__name__, str(e)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_weighted_degree_agrees_with_the_reference_loop(data):
    nvars = data.draw(st.integers(0, 4))
    (p,) = data.draw(_polys(nvars, 1, _SMALL_EXP))
    if data.draw(st.booleans()) and not p.is_zero():
        # a homogeneous polynomial for the weights most of the time
        w = data.draw(st.lists(_WEIGHT, min_size=nvars, max_size=nvars))
        target = Fraction(sum(Fraction(x) * k for x, k in zip(w, next(iter(p.terms)))))
        p = Poly(p.ctx, {e: c for e, c in p.terms.items()
                         if sum(Fraction(x) * k for x, k in zip(w, e)) == target})
    else:
        w = data.draw(st.lists(_WEIGHT, min_size=nvars, max_size=nvars))
    kind, got = _outcome(p.weighted_degree, w)
    assert (kind, got) == _outcome(ref_weighted_degree, p, w)
    if kind == "value":
        assert type(got) is Fraction
        assert p.is_homogeneous(w)
    else:
        assert p.is_zero() or not p.is_homogeneous(w)


def test_weighted_degree_message_sorts_the_fraction_strings():
    p = X * X + Y.scale(3) + XY.const(1)
    w = (Fraction(1, 2), Fraction(5, 3))
    with pytest.raises(NotHomogeneousError) as ei:
        p.weighted_degree(w)
    assert str(ei.value) == "not homogeneous for weights ('1/2', '5/3'): degrees ['0', '1', '5/3']"
    assert str(ei.value) == _outcome(ref_weighted_degree, p, w)[1]
    assert (X * Y.scale(7)).weighted_degree((Fraction(1, 6), Fraction(-1, 4))) == Fraction(-1, 12)


def test_a_wrong_length_weight_vector_is_a_weight_error():
    p = X * Y + Y * Y
    assert _outcome(p.weighted_degree, (1,)) == _outcome(ref_weighted_degree, p, (1,)) == (
        "NotHomogeneousError", "weight vector length mismatch")
    for fn in (p.is_homogeneous, p.euler_apply):
        with pytest.raises(NotHomogeneousError, match="weight vector length mismatch"):
            fn((1, 1, 1))


# ---------------------------------------------------------------------------
# the column kernel and the point rows of Saito's criterion
# ---------------------------------------------------------------------------


def ref_column_quotients(g: Poly, m: PolyMatrix) -> list[Poly] | int:
    """The reference of _gradient_quotients: each image (grad g) . A_j by
    ref_left_apply, divided by g in ref_divide_exact; the index of the first
    image g does not divide."""
    out = []
    for j, image in enumerate(ref_left_apply(m, g.gradient())):
        q = ref_divide_exact(image, g)
        if q is None:
            return j
        out.append(q)
    return out


def _column(data, ctx: Context, product: Poly, kind: str) -> list[Poly]:
    """A column of the given kind for the product of the factors: a multiple
    of the product (logarithmic for every factor), a Hamiltonian column of
    the product in two of the variables (also logarithmic for every
    factor), zero, or drawn at random (most often not logarithmic)."""
    n = ctx.nvars
    if kind == "multiple":
        return [product * v for v in data.draw(_polys(n, n, _TINY_EXP))]
    if kind == "hamiltonian" and n >= 2:
        i, k = data.draw(st.permutations(range(n)))[:2]
        c = data.draw(_COEFF)
        col = [ctx.zero()] * n
        col[i], col[k] = product.derivative(k).scale(c), product.derivative(i).scale(-c)
        return col
    if kind == "zero":
        return [ctx.zero()] * n
    return data.draw(_polys(n, n, _TINY_EXP))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_column_kernel_agrees_with_the_reference_loops(data):
    # mixed denominators within a column (every entry of a multiple column
    # scaled on its own), zero entries, zero partials (a factor free of a
    # variable), zero columns, several factors and failing columns
    n = data.draw(st.integers(1, 3))
    ctx = Context([f"x{i}" for i in range(n)])
    factors = [g for g in data.draw(_polys(n, data.draw(st.integers(1, 3)), _TINY_EXP))
               if not g.is_zero()]
    if not factors:
        return
    if n > 1 and data.draw(st.booleans()):
        factors[0] = Poly(ctx, {e[:-1] + (0,): c for e, c in factors[0].terms.items()})
    product = poly_product(ctx, factors)
    kinds = data.draw(st.lists(st.sampled_from(["multiple", "hamiltonian", "zero", "random"]),
                               min_size=n, max_size=n))
    cols = [_column(data, ctx, product, kind) for kind in kinds]
    m = PolyMatrix(ctx, [[col[i] for col in cols] for i in range(n)])
    columns = _integer_columns(m.cols())
    for g in [*factors, product]:
        if g.is_zero():
            continue
        got, expected = _gradient_quotients(g, columns), ref_column_quotients(g, m)
        if isinstance(expected, int):
            assert got == expected
        else:
            assert len(got) == len(expected) and all(map(same, got, expected))
    point = data.draw(st.lists(st.one_of(st.integers(-3, 3), _COEFF), min_size=n, max_size=n))
    for (den, values), col in zip(_evaluate_rows(columns, point), cols, strict=True):
        assert [Fraction(v, den) for v in values] == [ref_evaluate(a, point) for a in col]
        if all(type(x) is int for x in point):
            assert all(type(v) is int for v in values)


def test_column_kernel_names_the_first_failing_column():
    # column 0 is logarithmic for x*y, columns 1 and 2 are not: 1 is named
    f = X * Y
    m = PolyMatrix(XY, [[X.scale(Fraction(1, 2)), XY.const(1), Y], [Y.scale(Fraction(2, 3)), X, X]])
    columns = _integer_columns(m.cols())
    assert ref_column_quotients(f, m) == 1
    assert _gradient_quotients(f, columns) == 1
    # for 2*x + y, column 1 has the image 3*x + y: its leading exponent is
    # divisible and its leading coefficient 3 is not, and the remainder x
    # left by a rounded step would itself divide away
    g = X.scale(2) + Y
    m = PolyMatrix(XY, [[X, X], [Y, X + Y]])
    assert ref_column_quotients(g, m) == 1
    assert _gradient_quotients(g, _integer_columns(m.cols())) == 1
    ok = PolyMatrix(XY, [[X.scale(Fraction(1, 2)), XY.zero()], [Y.scale(Fraction(2, 3)), Y.scale(7)]])
    got = _gradient_quotients(f, _integer_columns(ok.cols()))
    assert got == [XY.const(Fraction(7, 6)), XY.const(7)]
    assert all(map(same, got, ref_column_quotients(f, ok)))


@pytest.mark.parametrize("big", [2 ** 70, 127, 128])
def test_column_kernel_widens_the_fields(big):
    # x^big - x*y/3 with a multiple column, a Hamiltonian column (image zero)
    # and a column (x, 0) it does not divide: the packed images outgrow a byte
    g = XY.monomial((big, 0)) + XY.monomial((1, 1), Fraction(-1, 3))
    gx, gy = g.gradient()
    m = PolyMatrix(XY, [[g * X * X, gy, X], [g.scale(Fraction(2, 5)) * Y, -gx, XY.zero()]])
    expected = ref_column_quotients(g, m)
    assert expected == 2
    assert _gradient_quotients(g, _integer_columns(m.cols())) == 2
    ok = PolyMatrix(XY, [row[:2] for row in m.rows])
    got, expected = _gradient_quotients(g, _integer_columns(ok.cols())), ref_column_quotients(g, ok)
    assert len(got) == 2 and all(map(same, got, expected))
    assert got[1].is_zero() and not got[0].is_zero()


# ---------------------------------------------------------------------------
# one-term powers and the parser's monomial products
# ---------------------------------------------------------------------------


def ref_pow(p: Poly, k: int) -> Poly:
    out = p.ctx.const(1)
    for _ in range(k):
        out = ref_mul(out, p)
    return out


@pytest.mark.parametrize("k", [0, 1, 2, 7, 300])
def test_one_term_power_agrees_with_the_reference_fold(k):
    x, y, z = XYZ.gens()
    for p in (x, XYZ.monomial((2, 0, 1), -1), XYZ.monomial((0, 3, 1), Fraction(-3, 2)),
              XYZ.monomial((1, 1, 1), Fraction(2, 5)), XYZ.const(Fraction(-7, 3)), Context([]).const(-2)):
        assert same(p ** k, ref_pow(p, k)), (p, k)
    assert (x.scale(Fraction(-1, 2)) ** 7).coeff((7, 0, 0)) == Fraction(-1, 128)


def test_power_of_zero_and_bad_exponents():
    zero = XYZ.zero()
    assert same(zero ** 0, XYZ.const(1)) and same(zero ** 0, ref_pow(zero, 0))
    assert (zero ** 3).is_zero()
    for p in (X, X + Y):
        for k in (True, False, -1, -3, 1.0):
            with pytest.raises(PolyError) as ei:
                p ** k
            assert str(ei.value) == f"exponent must be a non-negative integer, got {k!r}"


def _ref_parse_product(factors, ctx):
    out = ctx.const(1)
    for text in factors:
        out = ref_mul(out, parse_poly(text, ctx))
    return out


PARSER_FACTORS = ["0", "1", "2", "-3", "1/2", "-3/4", "x", "y", "z", "-x", "+y", "x^2", "y^3",
                  "-z^2", "2^3", "(1/2)^2", "(-1/2)", "x^0", "(x+y)", "(y-z)", "(x - 1/2)",
                  "(x+y)^2", "--z"]


@pytest.mark.parametrize("factors", [
    ["0", "x"], ["x", "0"], ["-x", "-y"], ["(-1/2)", "x^2", "y"], ["2^3", "x"],
    ["x", "(y+z)", "x^2"], ["x", "y", "z", "x"],
])
def test_parser_products_agree_with_the_reference_fold(factors):
    got = parse_poly("*".join(factors), XYZ)
    assert same(got, _ref_parse_product(factors, XYZ))


def test_random_parser_products_agree_with_the_reference_fold():
    rng = make_rng(307)
    for _ in range(200):
        factors = [rng.choice(PARSER_FACTORS) for _ in range(rng.randint(2, 5))]
        text = rng.choice(["*", " * ", "* "]).join(factors)
        assert same(parse_poly(text, XYZ), _ref_parse_product(factors, XYZ)), text


@pytest.mark.parametrize("text, pos, message", [
    ("x*", 2, "unexpected end of input"),
    ("x**y", 2, "unexpected '*'"),
    ("x*^2", 2, "unexpected '^'"),
    ("2*x^-1", 4, "expected a non-negative integer exponent"),
    ("x*(y", 4, "expected ')'"),
    ("x*/2", 2, "unexpected '/'"),
    ("x*y*w", 4, "unknown variable 'w' (context: x, y, z)"),
    ("3*x*", 4, "unexpected end of input"),
])
def test_parse_errors_in_products_keep_their_positions(text, pos, message):
    with pytest.raises(ParseError) as ei:
        parse_poly(text, XYZ)
    assert ei.value.pos == pos
    assert str(ei.value) == f"{message} at position {pos}: {text[:pos]}>>>{text[pos:]}"
