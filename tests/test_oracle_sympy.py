"""Independent oracles from sympy: its square-free decomposition for
squarefreeness and its gcd for common factors, on seeded random polynomials
with and without planted squares and factors; its polynomial product, exact division, gcd and determinant for
`Poly.__mul__`, `divide_exact`, `poly_gcd` and `PolyMatrix.det`; its
substitution for `substitute` under invertible linear changes of coordinates; its exact
row reduction for rref and for the solution and kernel basis of `_solve`, on derandomized sparse
and dense rational systems; and its determinant for the integer elimination
of `fraction_det`, beside the Fraction loop that elimination replaced, and
for the integer Bareiss loop `_bareiss` behind it and behind the point
determinants of `saito`; and its polynomial determinants and cancellation
(Cramer's rule) for the column that `euler_frame` exchanges for the Euler
field, on derandomized unimodular transforms of normal crossings."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from freediv.linalg import _bareiss, _solve, fraction_det, rref
from freediv.matrices import PolyMatrix
from freediv.poly import (
    Context, Poly, _integer_form, divide_exact, normalize_primitive, poly_gcd, poly_product,
    squarefree_gcd, squarefree_on_line, substitute,
)
from freediv.saito import FramingError, euler_frame

from helpers import CASES, make_rng, rand_nonzero, rand_poly

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

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


def from_sympy(p: sympy.Poly) -> Poly:
    return Poly(CTX, {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in p.terms() if c})


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


def ref_squarefree_fold(f: Poly) -> Poly:
    """The gcd fold of squarefree_gcd without any certificate: f and its
    nonzero partials, in ascending size, until the gcd is constant."""
    g = f
    for d in sorted((d for d in f.gradient() if not d.is_zero()), key=Poly.num_terms):
        g = poly_gcd(g, d)
        if g.is_constant():
            break
    return g


_COEFFS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(content=st.tuples(*[st.sampled_from([0, 1, 0, 1, 2])] * 4),
       terms=st.integers(1, 4).flatmap(lambda k: st.dictionaries(
           st.tuples(*[st.integers(0, 2)] * 4), _COEFFS, min_size=k, max_size=k)),
       scale=_COEFFS, square=st.booleans())
def test_support_certificate_agrees_with_sympy(content, terms, scale, square):
    # f = c * x^l * h with h free of monomial content (one term: a constant),
    # or its square; the 0 and 1 exponents are drawn twice as often as 2 so
    # that the contents are squarefree about as often as not
    low = [min(col) for col in zip(*terms)]
    h = Poly(CTX, {tuple(a - b for a, b in zip(e, low)): c for e, c in terms.items()})
    f = CTX.monomial(content, scale) * (h * h if square else h)
    if f.is_constant():
        return
    witness = squarefree_gcd(f)
    expected = sympy_squarefree(f)
    assert witness.is_constant() == expected, f
    if not expected:
        assert witness == ref_squarefree_fold(f), f


# ---------------------------------------------------------------------------
# products, exact division, gcd and determinants against sympy
# ---------------------------------------------------------------------------


def _pairs(salt: int, count: int, **kw):
    """Seeded pairs of nonzero polynomials with mixed denominators."""
    rng = make_rng(salt)
    return [(rand_nonzero(rng, CTX, **kw), rand_nonzero(rng, CTX, **kw)) for _ in range(count)]


def test_mul_agrees_with_sympy():
    pairs = _pairs(100, max(CASES // 10, 20), max_terms=6, max_deg=4)
    x, y = CTX.gens()[:2]
    pairs += [(x + y, x - y), (x - y, x - y), (CTX.monomial((2, 0, 1, 0), Fraction(-3, 2)), x + y),
              (CTX.const(Fraction(5, 7)), x * y - 1)]
    for a, b in pairs:
        assert a * b == from_sympy(to_sympy(a) * to_sympy(b)), (a, b)


def _signed_permutation_of_i_plus_j(perm, s, t) -> list[list[int]]:
    """The coefficient rows the refute_syzygy benchmark draws: a signed
    permutation of I + J, with determinant +-(n + 1)."""
    n = len(perm)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][perm[j]] = s[i] * t[j] * (2 if i == j else 1)
    return rows


_SIGNS = st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4)
_FORMS = st.one_of(
    st.builds(_signed_permutation_of_i_plus_j, st.permutations(range(4)), _SIGNS, _SIGNS),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4),
)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(rows=_FORMS, k=st.integers(3, 5),
       extra=st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), _COEFFS, max_size=4))
def test_substitute_agrees_with_sympy_under_linear_changes(rows, k, extra):
    # as smooth_times_nc_verdict does: the inverse of the forms' coefficient
    # matrix gives the new coordinates, which straighten each form to its
    # variable; a Fermat form of degree k, plus a few terms, is substituted
    matrix = sympy.Matrix(rows)
    if matrix.det() == 0:
        return
    inverse = matrix.inv()
    gens = CTX.gens()
    coords = [CTX.sum(g.scale(Fraction(int(inverse[i, j].p), int(inverse[i, j].q)))
                      for j, g in enumerate(gens)) for i in range(4)]
    fermat = {tuple(k * (j == i) for j in range(4)): Fraction(1) for i in range(4)}
    f = Poly(CTX, {**fermat, **extra})
    subs = {sym: to_sympy(c).as_expr() for sym, c in zip(SYMS, coords)}
    expected = from_sympy(sympy.Poly(to_sympy(f).as_expr().subs(subs, simultaneous=True), *SYMS,
                                     domain="QQ"))
    assert substitute(f, coords) == expected
    for i, row in enumerate(rows):
        ell = CTX.sum(g.scale(c) for g, c in zip(gens, row))
        assert substitute(ell, coords) == gens[i]


def test_divide_exact_agrees_with_sympy_on_divisible_pairs():
    for a, b in _pairs(101, max(CASES // 20, 20), max_terms=5, max_deg=3):
        g = to_sympy(a) * to_sympy(b)  # the dividend is built by sympy, not by Poly.__mul__
        q, r = g.div(to_sympy(b))
        assert r.is_zero
        assert divide_exact(from_sympy(g), b) == from_sympy(q), (a, b)


def test_divide_exact_returns_none_on_non_divisible_pairs():
    seen = 0
    for g, f in _pairs(102, max(CASES // 20, 20), max_terms=5, max_deg=3):
        if f.is_constant():
            continue
        _, r = to_sympy(g).div(to_sympy(f))
        if r.is_zero:
            continue
        seen += 1
        assert divide_exact(g, f) is None, (g, f)
        # a non-divisible dividend that shares a factor with the divisor
        h = to_sympy(g) * to_sympy(f) + to_sympy(g)
        assert divide_exact(from_sympy(h), f) is None, (g, f)
    assert seen >= 10


def test_poly_gcd_agrees_with_sympy_up_to_normalization():
    rng = make_rng(103)
    for _ in range(max(CASES // 20, 20)):
        a, b, c = (rand_nonzero(rng, CTX, max_terms=3, max_deg=2) for _ in range(3))
        p, q = to_sympy(a) * to_sympy(c), to_sympy(b) * to_sympy(c)
        expected = normalize_primitive(from_sympy(sympy.gcd(p, q)))
        assert poly_gcd(from_sympy(p), from_sympy(q)) == expected, (a, b, c)


def test_det_agrees_with_sympy():
    rng = make_rng(104)
    for _ in range(max(CASES // 40, 15)):
        n = rng.randint(1, 4)
        rows = [[rand_poly(rng, CTX, max_terms=3, max_deg=2) for _ in range(n)] for _ in range(n)]
        m = sympy.Matrix([[to_sympy(p).as_expr() for p in r] for r in rows])
        expected = from_sympy(sympy.Poly(m.det(method="berkowitz"), *SYMS, domain="QQ"))
        pm = PolyMatrix(CTX, rows)
        for det in (pm.det, pm._det_bareiss, pm._det_cofactor):
            assert det() == expected, (det.__name__, rows)


# ---------------------------------------------------------------------------
# exact row reduction: rref, and the solution and kernel basis of _solve, against sympy
# ---------------------------------------------------------------------------


def _to_fractions(m: sympy.Matrix) -> list[list[Fraction]]:
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def _normalized(v: sympy.Matrix) -> list[Fraction]:
    """Integer entries with content 1 and a positive first nonzero entry."""
    den = math.lcm(*[int(x.q) for x in v])
    ints = [int(x * den) for x in v]
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    if next((x for x in ints if x), 0) < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def _system(rng, nrows: int, ncols: int, density: float) -> list[list[Fraction]]:
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.15:
            rows.append([Fraction(0)] * ncols)  # an all-zero row
            continue
        rows.append([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density
                     else Fraction(0) for _ in range(ncols)])
    if rows and rng.random() < 0.5:
        # a combination of two rows, so the rank falls short of the row count
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        rows.append([x + c * y for x, y in zip(rows[a], rows[b])])
    return rows


def _systems(salt: int):
    """Empty, sparse and dense rational systems, derandomized by the salt."""
    rng = make_rng(salt)
    out = [[], [[Fraction(0)] * 3], [[Fraction(0)] * 4 for _ in range(3)]]
    while len(out) < max(CASES // 8, 40):
        density = rng.choice((0.1, 0.25, 1.0))
        out.append(_system(rng, rng.randint(1, 9), rng.randint(1, 9), density))
    return out


def test_rref_agrees_with_sympy():
    for rows in _systems(90):
        red, pivots = rref(rows)
        expected, expected_pivots = sympy.Matrix(rows).rref()
        assert red == _to_fractions(expected), rows
        assert pivots == list(expected_pivots), rows


def test_nullspace_agrees_with_sympy():
    for rows in _systems(91):
        ncols = len(rows[0]) if rows else 3
        m = sympy.Matrix(rows) if rows else sympy.zeros(0, ncols)
        assert _solve(rows, [0] * len(rows), ncols)[1] == [_normalized(v) for v in m.nullspace()], rows


@pytest.mark.parametrize("consistent", [True, False])
def test_solve_linear_agrees_with_sympy(consistent):
    rng = make_rng(94 + consistent)
    seen = 0
    for rows in _systems(92 + consistent):
        if not rows:
            continue
        m = sympy.Matrix(rows)
        if consistent:
            x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows[0]]
            rhs = [sum((a * x for a, x in zip(r, x0)), Fraction(0)) for r in rows]
        else:
            rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in rows]
            if m.rank() == m.row_join(sympy.Matrix(rhs)).rank():
                continue
        b = sympy.Matrix(rhs)
        got = _solve(rows, rhs, len(rows[0]))[0]
        if consistent:
            sol, params = m.gauss_jordan_solve(b)
            expected = sol.subs({t: 0 for t in params})  # free variables set to zero
            assert got == [Fraction(int(x.p), int(x.q)) for x in expected], (rows, rhs)
        else:
            with pytest.raises(ValueError):
                m.gauss_jordan_solve(b)
            assert got is None, (rows, rhs)
        seen += 1
    assert seen >= 10


# ---------------------------------------------------------------------------
# fraction_det against sympy and the Fraction elimination it replaced
# ---------------------------------------------------------------------------


def ref_fraction_det(rows) -> Fraction:
    """The Fraction Gaussian elimination, kept as the test-only reference."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                factor = m[i][c] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[c])]
    return det


def _square_matrices(salt: int):
    """Derandomized rational matrices up to 12x12: the 0x0 and 1x1 cases,
    pivots that need a row swap, singular matrices (a zero column, a
    dependent row) and mixed denominators, dense and sparse."""
    rng = make_rng(salt)
    F = Fraction
    out = [[], [[F(0)]], [[F(-7, 3)]], [[F(0), F(1)], [F(1), F(0)]],
           [[F(0), F(2), F(1)], [F(0), F(1, 2), F(3)], [F(5, 7), F(1), F(1)]],
           [[F(1), F(2)], [F(1, 2), F(1)]]]
    while len(out) < max(CASES // 25, 40):
        n = rng.randint(1, 12)
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [[F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7, 12))) if rng.random() < density
                 else F(0) for _ in range(n)] for _ in range(n)]
        kind = rng.random()
        if kind < 0.2 and n > 1:  # a dependent row: singular
            a, b = rng.sample(range(n), 2)
            c = F(rng.randint(-3, 3), rng.randint(1, 4))
            rows[b] = [c * x for x in rows[a]]
        elif kind < 0.3:  # a zero column: singular
            j = rng.randrange(n)
            for r in rows:
                r[j] = F(0)
        elif kind < 0.5 and n > 1:  # a zero leading entry: the first pivot needs a swap
            rows[0][0] = F(0)
        out.append(rows)
    return out


def test_fraction_det_agrees_with_sympy():
    singular = swapped = 0
    for rows in _square_matrices(120):
        expected = sympy.Matrix(rows).det() if rows else sympy.Integer(1)
        got = fraction_det(rows)
        assert type(got) is Fraction
        assert got == Fraction(int(expected.p), int(expected.q)), rows
        assert got == ref_fraction_det(rows), rows
        singular += got == 0
        swapped += bool(rows) and rows[0][0] == 0 and got != 0
    assert singular >= 5 and swapped >= 3
    assert fraction_det([[1, 2], [3, 4]]) == -2  # integer entries are accepted


def test_integer_bareiss_agrees_with_sympy():
    # the rows of the rational matrices scaled to integers, and integer
    # entries as large as the point determinants of saito meet
    rng = make_rng(121)
    matrices = [[_integer_form(r)[1] for r in rows] for rows in _square_matrices(121)]
    for _ in range(20):
        n = rng.randint(1, 10)
        matrices.append([[rng.randint(-97 ** 6, 97 ** 6) for _ in range(n)] for _ in range(n)])
    singular = 0
    for m in matrices:
        expected = int(sympy.Matrix(m).det()) if m else 1
        got = _bareiss([list(r) for r in m])
        assert type(got) is int and got == expected, m
        singular += got == 0
    assert singular >= 5


def _unimodular_frames(salt: int, count: int):
    """(f, w, A) with f = x_1...x_n, n = 2 or 3, positive integer weights w,
    and A = diag(x_i) U, U unimodular: elementary column operations with
    constant or linear multipliers, column scalings and a column permutation."""
    rng = make_rng(salt)
    for _ in range(count):
        n = rng.choice((2, 3))
        ctx = Context(CTX.names[:n])
        u = [[ctx.const(int(i == j)) for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            p = rand_nonzero(rng, ctx, max_terms=2, max_deg=1, coeff_bound=2)
            for row in u:
                row[j] = row[j] + p * row[i]
        scales = [Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))) for _ in range(n)]
        perm = rng.sample(range(n), n)
        u = [[row[j].scale(scales[j]) for j in perm] for row in u]
        xs = ctx.gens()
        yield (poly_product(ctx, xs), [rng.randint(1, 3) for _ in range(n)],
               PolyMatrix.diagonal(xs) @ PolyMatrix(ctx, u))


def _constant_ratio(num, den) -> Fraction | None:
    """num / den for sympy ring elements, reduced by sympy's cancel: a
    Fraction when it is a constant, else None."""
    p, q = num.cancel(den)
    if not (p.is_ground and q.is_ground):
        return None
    r = p.LC / q.LC
    return Fraction(int(r.numerator), int(r.denominator))


def test_euler_frame_exchange_agrees_with_sympy():
    # E_w/d = sum_j h_j A_j over Q(x), h_j by Cramer's rule; the exchange of
    # column j0 verifies exactly when h_j0 is a nonzero constant, and then
    # det = (-1)^j0 * h_j0 * det A.  The loop tries the columns with a nonzero
    # constant logarithmic quotient q_j first, each group in index order
    outcomes = []
    for f, w, a in _unimodular_frames(130, 60):
        n = f.ctx.nvars
        ring = sympy.QQ[SYMS[:n]]

        def element(p):
            return ring.ring.from_dict({e: ring.domain(c.numerator, c.denominator)
                                        for e, c in p.items()})

        big_a, fx = [[element(e) for e in row] for row in a.rows], element(f)
        det_a = DomainMatrix(big_a, (n, n), ring).det()
        euler = [ring.domain(wi, sum(w)) * x for wi, x in zip(w, ring.gens)]
        h = [_constant_ratio(DomainMatrix([row[:j] + [e] + row[j + 1:] for row, e in
                                           zip(big_a, euler)], (n, n), ring).det(), det_a)
             for j in range(n)]
        q = [_constant_ratio(sum((fx.diff(i) * row[j] for i, row in enumerate(big_a)), ring.zero),
                             fx) for j in range(n)]
        unit = [j for j in sorted(range(n), key=lambda j: not q[j]) if h[j]]
        if not unit:
            with pytest.raises(FramingError):
                euler_frame(f, w, a)
            outcomes.append("framing")
            continue
        j0 = unit[0]
        scalar = (-1) ** j0 * h[j0] * _constant_ratio(det_a, fx)
        assert euler_frame(f, w, a).certificate.det_scalar == scalar
        outcomes.append("scalar quotient" if q[j0] else "other")
    assert all(outcomes.count(k) >= 5 for k in ("framing", "scalar quotient", "other"))
