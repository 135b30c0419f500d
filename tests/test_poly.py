"""Polynomial layer: arithmetic, order, division, gcd, squarefreeness, polar, parsing."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest

import freediv.poly
from freediv.poly import (
    LINE_PRIME,
    Context,
    NotHomogeneousError,
    ParseError,
    Poly,
    PolyError,
    deg_shift_inverse,
    divide_exact,
    grevlex_key,
    is_squarefree,
    normalize_primitive,
    parse_poly,
    poly_gcd,
    poly_to_str,
    product_squarefree,
    sample_ints,
    squarefree_gcd,
    squarefree_on_line,
    star,
    substitute,
)

from helpers import CASES, make_rng, rand_nonzero, rand_poly

XYZ = Context(["x", "y", "z"])
X, Y, Z = XYZ.gens()


def P(text: str, ctx: Context = XYZ) -> Poly:
    return parse_poly(text, ctx)


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------


def test_context_rejects_duplicates_and_bad_names():
    with pytest.raises(PolyError):
        Context(["x", "x"])
    with pytest.raises(PolyError):
        Context(["2bad"])


def test_monomial_rejects_a_non_integer_exponent():
    # int(1.7) would read it as x
    with pytest.raises(PolyError):
        Context(["x", "y"]).monomial((1.7, 0))


def test_monomial_rejects_a_bool_exponent():
    with pytest.raises(PolyError):
        Context(["x", "y"]).monomial((True, 0))


def test_pow_rejects_a_bool_exponent():
    with pytest.raises(PolyError):
        X ** True


def test_extend_rejects_clash():
    with pytest.raises(PolyError):
        XYZ.extend(["y"])
    assert XYZ.extend(["u"]).names == ("x", "y", "z", "u")


def test_zero_and_constant_queries():
    assert XYZ.zero().is_zero()
    assert XYZ.const(0).is_zero()
    assert XYZ.const(Fraction(3, 2)).is_constant()
    assert XYZ.const(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert not (X + 1).is_constant()
    with pytest.raises(PolyError):
        XYZ.zero().total_degree()


# ---------------------------------------------------------------------------
# grevlex order
# ---------------------------------------------------------------------------


def test_grevlex_standard_facts():
    # x > y > z; ties in total degree broken by smallest exponent on the last variable
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))
    # x^2*y > x*y*z (degree 3 each); x^2*z > x*y*z; y^3 > x*z^2
    assert grevlex_key((2, 1, 0)) > grevlex_key((1, 1, 1))
    assert grevlex_key((2, 0, 1)) > grevlex_key((1, 1, 1))
    assert grevlex_key((0, 3, 0)) > grevlex_key((1, 0, 2))
    # degree dominates everything
    assert grevlex_key((0, 0, 2)) > grevlex_key((1, 0, 0))


def test_lead_term():
    f = P("x^2*y - 2*y*z + 1/2")
    assert f.lead_exponent() == (2, 1, 0)
    assert f.lead_coeff() == 1
    assert f.total_degree() == 3
    assert f.coeff((0, 0, 0)) == Fraction(1, 2)
    assert f.support() == [(2, 1, 0), (0, 1, 1), (0, 0, 0)]


# ---------------------------------------------------------------------------
# ring axioms (property suite)
# ---------------------------------------------------------------------------


def test_ring_axioms_random():
    rng = make_rng(1)
    for _ in range(CASES):
        a = rand_poly(rng, XYZ)
        b = rand_poly(rng, XYZ)
        c = rand_poly(rng, XYZ)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + XYZ.zero() == a
        assert a * XYZ.const(1) == a
        assert a - a == XYZ.zero()
        assert a * XYZ.zero() == XYZ.zero()


def test_pow_matches_repeated_product():
    rng = make_rng(2)
    for _ in range(200):
        a = rand_poly(rng, XYZ, max_terms=3, max_deg=2)
        k = rng.randint(0, 4)
        expected = XYZ.const(1)
        for _ in range(k):
            expected = expected * a
        assert a ** k == expected
    with pytest.raises(PolyError):
        X ** (-1)


# ---------------------------------------------------------------------------
# derivative and Euler operators
# ---------------------------------------------------------------------------


def test_derivative_oracle():
    f = P("x^2*y + 3*z")
    assert f.derivative("x") == P("2*x*y")
    assert f.derivative("y") == P("x^2")
    assert f.derivative("z") == P("3")
    assert f.gradient() == (P("2*x*y"), P("x^2"), P("3"))


def test_derivative_is_a_derivation_random():
    rng = make_rng(3)
    for _ in range(CASES):
        a = rand_poly(rng, XYZ)
        b = rand_poly(rng, XYZ)
        i = rng.randrange(3)
        assert (a * b).derivative(i) == a.derivative(i) * b + a * b.derivative(i)
        assert (a + b).derivative(i) == a.derivative(i) + b.derivative(i)


def test_euler_identity_homogeneous_random():
    # E_w(f) = d*f for any w-homogeneous f of w-degree d
    rng = make_rng(4)
    for _ in range(CASES):
        w = [rng.randint(-3, 3) for _ in range(3)]
        d = rng.randint(-4, 6)
        # build a poly supported on exponents of w-degree exactly d
        terms = XYZ.zero()
        for _ in range(20):
            e = [rng.randint(0, 4) for _ in range(3)]
            if sum(wi * ei for wi, ei in zip(w, e)) == d:
                terms = terms + XYZ.monomial(e, rng.randint(-3, 3))
        f = terms
        assert f.euler_apply(w) == f.scale(d)
        if not f.is_zero():
            assert f.weighted_degree(w) == d


def test_euler_operator_is_derivation_random():
    rng = make_rng(5)
    for _ in range(CASES):
        a = rand_poly(rng, XYZ)
        b = rand_poly(rng, XYZ)
        w = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        assert (a * b).euler_apply(w) == a.euler_apply(w) * b + a * b.euler_apply(w)


def test_weighted_degree_errors():
    f = P("x^2 + y^3")
    with pytest.raises(NotHomogeneousError):
        f.weighted_degree([1, 1, 1])
    assert f.weighted_degree([3, 2, 1]) == 6
    assert not f.is_homogeneous()
    assert f.is_homogeneous([3, 2, 5])
    # the field (1,-2,4) annihilates x^2*y - y^2*z
    g = P("x^2*y - y^2*z")
    assert g.weighted_degree([1, -2, 4]) == 0
    assert g.euler_apply([1, -2, 4]).is_zero()


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_divide_exact_oracles():
    assert divide_exact(P("x^2 - y^2"), P("x - y")) == P("x + y")
    assert divide_exact(P("x^2 - y^2"), P("x + z")) is None
    assert divide_exact(XYZ.zero(), X) == XYZ.zero()
    assert divide_exact(P("2*x*y + 4*y^2"), P("2*y")) == P("x + 2*y")
    with pytest.raises(PolyError):
        divide_exact(X, XYZ.zero())


def test_divide_exact_round_trip_random():
    rng = make_rng(6)
    for _ in range(CASES):
        f = rand_nonzero(rng, XYZ)
        g = rand_poly(rng, XYZ)
        q = divide_exact(f * g, f)
        assert q == g
    # and non-multiples are rejected: (f*g + r) / f fails whenever 0 != r has
    # no term divisible by lead(f) ... simplest robust check: deg r < deg f
    for _ in range(CASES // 2):
        f = rand_nonzero(rng, XYZ, max_terms=3, max_deg=2) * XYZ.monomial((1, 1, 1))
        g = rand_poly(rng, XYZ, max_terms=3)
        r = XYZ.const(rng.randint(1, 5))  # constant, f has positive-degree terms only
        assert divide_exact(f * g + r, f) is None


# ---------------------------------------------------------------------------
# gcd and squarefreeness
# ---------------------------------------------------------------------------


def test_gcd_oracles():
    assert poly_gcd(P("x^2 - y^2"), P("x^2 + 2*x*y + y^2")) == P("x + y")
    assert poly_gcd(P("2*x^2*y"), P("4*x*y^2")) == P("x*y")
    assert poly_gcd(P("x^2 + y^2"), P("x + y")) == P("1")
    assert poly_gcd(XYZ.zero(), P("-3*x")) == P("x")
    assert poly_gcd(P("6"), P("4")) == P("1")
    g = P("x + y + z")
    assert poly_gcd(g ** 3 * P("x - y"), g ** 2 * P("y - z")) == g ** 2
    # normalization: integer coefficients, content 1, positive lead
    assert poly_gcd(P("-2*x^2 + 2*y^2"), P("4*x + 4*y")) == P("x + y")
    assert normalize_primitive(P("-1/2*x - 1/3*y")) == P("3*x + 2*y")


def test_gcd_divides_both_random():
    rng = make_rng(7)
    for _ in range(CASES):
        a = rand_nonzero(rng, XYZ, max_terms=3, max_deg=2)
        b = rand_nonzero(rng, XYZ, max_terms=3, max_deg=2)
        g = poly_gcd(a, b)
        assert divide_exact(a, g) is not None
        assert divide_exact(b, g) is not None


def test_gcd_catches_planted_common_factor_random():
    rng = make_rng(8)
    for _ in range(CASES // 2):
        common = rand_nonzero(rng, XYZ, max_terms=2, max_deg=2)
        a = rand_nonzero(rng, XYZ, max_terms=2, max_deg=2) * common
        b = rand_nonzero(rng, XYZ, max_terms=2, max_deg=2) * common
        g = poly_gcd(a, b)
        # gcd is a multiple of every common factor
        assert divide_exact(g, poly_gcd(common, g)) is not None
        assert divide_exact(g, common) is not None or common.is_constant() or \
            not poly_gcd(divide_exact(a, common), divide_exact(b, common)).is_constant()


def test_is_squarefree_oracles():
    assert is_squarefree(P("x"))
    assert is_squarefree(P("x*y*z"))
    assert is_squarefree(P("x^2 - y^2"))
    assert is_squarefree(P("x^2 + y^2"))
    assert is_squarefree(P("x^2*y - y^2*z"))
    assert not is_squarefree(P("x^2*y"))
    assert not is_squarefree(P("x^2 + 2*x*y + y^2"))
    assert not is_squarefree(XYZ.zero())
    assert is_squarefree(P("7"))


def test_squarefree_detects_squares_random():
    rng = make_rng(9)
    for _ in range(CASES // 2):
        a = rand_nonzero(rng, XYZ, max_terms=2, max_deg=2)
        b = rand_nonzero(rng, XYZ, max_terms=2, max_deg=1)
        if a.is_constant():
            continue
        assert not is_squarefree(a * a * b)


def test_line_certificate_oracles():
    for text in ("x", "x*y*z", "x^2 - y^2", "x^2 + y^2", "x^2*y - y^2*z", "1/2*x*y + 1/3*z"):
        assert squarefree_on_line(P(text)), text
    for text in ("x^2*y", "x^2 + 2*x*y + y^2", "(x + y*z)^2*(x - 1)"):
        assert not squarefree_on_line(P(text)), text


def test_line_certificate_never_certifies_squares_random():
    rng = make_rng(61)
    for _ in range(CASES // 5):
        a = rand_nonzero(rng, XYZ, max_terms=3, max_deg=2)
        b = rand_nonzero(rng, XYZ, max_terms=3, max_deg=2)
        if a.is_constant():
            continue
        assert not squarefree_on_line(a * a * b)


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    gcd = freediv.poly.poly_gcd
    monkeypatch.setattr(freediv.poly, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
    return calls


def test_squarefree_gcd_certified_on_the_line_runs_no_gcd(gcd_calls):
    assert squarefree_gcd(P("x^2*y - y^2*z + 3*x*z")) == XYZ.const(1)
    assert gcd_calls == []


def test_content_divisible_by_the_line_prime_takes_the_gcd_path(gcd_calls):
    # the integer multiple vanishes mod the prime, so the line certifies nothing
    f = P("x*y + z").scale(LINE_PRIME)
    assert not squarefree_on_line(f)
    assert squarefree_gcd(f) == XYZ.const(1)
    assert gcd_calls
    # a denominator divisible by the prime is cleared first, and certifies
    g = P("x*y + z").scale(Fraction(1, LINE_PRIME)) + P("x")
    assert squarefree_on_line(g)


def test_line_certificate_needs_the_kept_degree():
    # g = b2*x - b1*y + 1 is constant along the fixed line, so f = g^2 * x
    # restricts to a squarefree linear U: only the dropped degree stops the
    # certificate
    ctx = Context(["x", "y"])
    b1, b2 = sample_ints(4, LINE_PRIME - 1)[2:]
    x, y = ctx.gens()
    f = (x.scale(b2) - y.scale(b1) + 1) ** 2 * x
    assert not squarefree_on_line(f)
    assert not squarefree_gcd(f).is_constant()


def test_sample_ints_is_fixed():
    a = sample_ints(20, 97)
    assert a == sample_ints(20, 97)
    assert all(1 <= v <= 97 for v in a)
    assert a != sample_ints(20, 97, salt=1)
    assert len(set(sample_ints(50, LINE_PRIME - 1))) == 50


def test_evaluate_oracles():
    f = P("1/2*x^2*y - 3*z + 5")
    assert f.evaluate([2, 3, Fraction(1, 3)]) == Fraction(10)
    assert f.evaluate([Fraction(1, 2), 1, 0]) == Fraction(41, 8)
    assert isinstance(XYZ.const(2).evaluate([0, 0, 0]), Fraction)
    assert P("2*x^2*y - 3*z + 5").evaluate([2, 3, 7], 101) == 2 * 4 * 3 - 21 + 5
    with pytest.raises(PolyError):
        f.evaluate([2, 3, 7], 101)
    with pytest.raises(PolyError):
        f.evaluate([1, 2])


def test_evaluate_matches_substitute_random():
    rng = make_rng(62)
    for _ in range(CASES // 10):
        h = rand_poly(rng, XYZ)
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]
        value = substitute(h, [XYZ.const(v) for v in point]).constant_value()
        assert h.evaluate(point) == value
        H = h.scale(lcm(*(c.denominator for c in h.terms.values()), 1))
        ints = [rng.randint(-9, 9) for _ in range(3)]
        assert H.evaluate(ints, 10007) == H.evaluate(ints) % 10007


def test_product_squarefree_matches_direct():
    rng = make_rng(10)
    for _ in range(200):
        fs = [rand_nonzero(rng, XYZ, max_terms=2, max_deg=2) for _ in range(3)]
        flag, witness = product_squarefree(fs)
        prod = fs[0] * fs[1] * fs[2]
        assert flag == is_squarefree(prod)
        if not flag:
            assert witness is not None


# ---------------------------------------------------------------------------
# substitution, polar polynomial, degree shift
# ---------------------------------------------------------------------------


def test_substitute_oracle():
    H = parse_poly("y1*y2*(y1 + y2)", Context(["y1", "y2"]))
    f, g = P("x"), P("y + z")
    assert substitute(H, [f, g]) == P("x*(y + z)*(x + y + z)")


def test_substitute_is_a_ring_map_random():
    rng = make_rng(11)
    ctx2 = Context(["u", "v"])
    for _ in range(CASES // 2):
        h1 = rand_poly(rng, ctx2, max_terms=3, max_deg=2)
        h2 = rand_poly(rng, ctx2, max_terms=3, max_deg=2)
        args = [rand_poly(rng, XYZ, max_terms=2, max_deg=2) for _ in range(2)]
        assert substitute(h1 * h2, args) == substitute(h1, args) * substitute(h2, args)
        assert substitute(h1 + h2, args) == substitute(h1, args) + substitute(h2, args)


def test_star_oracle():
    f = P("x^2*y")
    big = XYZ.extend(["u", "v", "w"])
    assert star(f, big, ["u", "v", "w"]) == parse_poly("2*x*y*u + x^2*v", big)
    with pytest.raises(PolyError):
        star(f, big, ["u", "v"])


def test_star_product_rule_random():
    # (fg)* = f g* + g f* since star is y-linear in the gradient
    rng = make_rng(12)
    fresh = ["u", "v", "w"]
    big = XYZ.extend(fresh)
    for _ in range(CASES):
        f = rand_poly(rng, XYZ, max_terms=3, max_deg=2)
        g = rand_poly(rng, XYZ, max_terms=3, max_deg=2)
        fg_star = star(f * g, big, fresh)
        f_star = star(f, big, fresh)
        g_star = star(g, big, fresh)
        assert fg_star == f.embedded(big) * g_star + g.embedded(big) * f_star


def test_deg_shift_inverse_oracle():
    ctx = Context(["x", "y1", "y2"])
    f = parse_poly("x*y1 + y1*y2", ctx)
    got = deg_shift_inverse(f, 1, ["y1", "y2"])
    assert got == parse_poly("1/2*x*y1 + 1/3*y1*y2", ctx)


def test_deg_shift_inverse_is_inverse_random():
    rng = make_rng(13)
    for _ in range(CASES):
        f = rand_poly(rng, XYZ)
        d = rng.randint(1, 3)
        sub = sorted(rng.sample(range(3), rng.randint(0, 3)))
        names = [XYZ.names[i] for i in sub] or None
        idx = sub if names else [0, 1, 2]
        g = deg_shift_inverse(f, d, names)
        # applying (deg_y + d) term-wise recovers f
        back = g.map_terms(lambda e, c: c * (sum(e[i] for i in idx) + d))
        assert back == f


def test_deg_shift_inverse_rejects_zero_eigenvalue():
    with pytest.raises(PolyError):
        deg_shift_inverse(P("1 + x"), 0)


# ---------------------------------------------------------------------------
# context surgery
# ---------------------------------------------------------------------------


def test_embedded_and_renamed_and_reordered():
    f = P("x^2*y - z")
    big = XYZ.extend(["u"])
    assert f.embedded(big) == parse_poly("x^2*y - z", big)
    g = f.renamed({"x": "a"})
    assert g.ctx.names == ("a", "y", "z")
    assert poly_to_str(g) == "a^2*y - z"
    h = f.reordered(["z", "x", "y"])
    assert h.ctx.names == ("z", "x", "y")
    assert h == parse_poly("x^2*y - z", h.ctx)
    with pytest.raises(PolyError):
        f.reordered(["x", "y"])


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------


def test_parse_oracles():
    assert P("x + y") == X + Y
    assert P("x - - y") == X + Y
    assert P("-x^2") == -(X ** 2)
    assert P("(x + y)^2") == X ** 2 + 2 * X * Y + Y ** 2
    assert P("1/2*x") == X.scale(Fraction(1, 2))
    assert P("3/6") == XYZ.const(Fraction(1, 2))
    assert P("2^3") == XYZ.const(8)
    assert P(" x \t* y ") == X * Y
    assert P("x*(y + z)*(x + y)") == X * (Y + Z) * (X + Y)


def test_parse_errors():
    for bad in ["x**2", "x^-1", "x^(2)", "2x", "x +", "(x", "x)", "1/0", "w", "x$y", ""]:
        with pytest.raises(ParseError):
            P(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as ei:
        P("x**2")
    assert "position 2" in str(ei.value)


def test_print_parse_round_trip_random():
    rng = make_rng(14)
    for _ in range(CASES):
        f = rand_poly(rng, XYZ, max_terms=6, max_deg=4, coeff_bound=9)
        assert parse_poly(poly_to_str(f), XYZ) == f


def test_print_oracles():
    assert poly_to_str(XYZ.zero()) == "0"
    assert poly_to_str(P("y*z*2 - x^2*y - 1/2")) == "-x^2*y + 2*y*z - 1/2"
    assert poly_to_str(P("-x")) == "-x"
    assert poly_to_str(XYZ.const(Fraction(-3, 4))) == "-3/4"
