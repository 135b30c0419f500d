"""Rational linear algebra, annihilating Euler fields, graded membership,
bounded syzygies, and the Koszul homotopy postcondition suite."""
from __future__ import annotations

from fractions import Fraction

import pytest

from freediv.linalg import (
    _solve,
    bounded_syzygy_solve,
    euler_annihilators,
    graded_membership,
    koszul_contract_1form,
    koszul_contract_2form,
    koszul_homotopy_1cycle,
    monomials_of_degree,
    monomials_up_to_degree,
    rref,
    two_weight_annihilator,
)
from freediv.matrices import PolyMatrix
from freediv.poly import Context, NotHomogeneousError, PolyError, parse_poly

from helpers import CASES, make_rng, rand_nonzero, rand_poly

XYZ = Context(["x", "y", "z"])
F = Fraction


def P(s: str, ctx=XYZ):
    return parse_poly(s, ctx)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


def test_rref_oracle():
    red, piv = rref([[F(2), F(1)], [F(4), F(3)]])
    assert piv == [0, 1]
    assert red == [[F(1), F(0)], [F(0), F(1)]]


def test_solve_linear_oracles():
    assert _solve([[F(2), F(1)], [F(0), F(3)]], [F(5), F(6)], 2)[0] == [F(3, 2), F(2)]
    assert _solve([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], 2)[0] is None
    # underdetermined: free variables pinned to zero
    assert _solve([[F(1), F(1), F(1)]], [F(3)], 3)[0] == [F(3), F(0), F(0)]


def test_nullspace_oracle_and_normalization():
    basis = _solve([[F(1), F(1), F(1)]], [0], 3)[1]
    assert basis == [[F(1), F(-1), F(0)], [F(1), F(0), F(-1)]]
    # entries are integers with content 1 and positive first nonzero entry
    basis2 = _solve([[F(1, 2), F(1, 3)]], [0], 2)[1]
    assert basis2 == [[F(2), F(-3)]]
    assert _solve([[F(1), F(0)], [F(0), F(1)]], [0, 0], 2)[1] == []


def test_nullspace_solves_random():
    rng = make_rng(30)
    for _ in range(300):
        rows = [[F(rng.randint(-4, 4)) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        kernel = _solve(rows, [0] * len(rows), 4)[1]
        for v in kernel:
            assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
        assert len(rref(rows)[1]) + len(kernel) == 4


# ---------------------------------------------------------------------------
# annihilating Euler fields
# ---------------------------------------------------------------------------


def test_euler_annihilators_two_term_oracle():
    ann = euler_annihilators(P("x^2*y - y^2*z"))
    assert ann.basis == ((F(1), F(-2), F(4)),)
    assert len(ann.basis) == 1
    assert ann.unit_degree_field is not None
    assert ann.unit_degree_field == (F(1, 4), F(1, 2), F(0))


def test_euler_annihilators_monomial():
    ann = euler_annihilators(P("x*y*z"))
    assert ann.basis == ((F(1), F(-1), F(0)), (F(1), F(0), F(-1)))
    assert ann.unit_degree_field == (F(1), F(0), F(0))


def test_euler_annihilators_generic_poly_has_none():
    ann = euler_annihilators(P("1 + x + y^2 + z^3 + x*y*z"))
    assert ann.basis == ()
    # the constant term forces degree 0, so E_a(f) = f is unsolvable
    assert ann.unit_degree_field is None


def test_euler_annihilators_verify_random():
    rng = make_rng(31)
    for _ in range(CASES // 2):
        f = rand_nonzero(rng, XYZ, max_terms=4, max_deg=3)
        ann = euler_annihilators(f)
        for a in ann.basis:
            assert f.euler_apply(a).is_zero()
        if ann.unit_degree_field is not None:
            assert f.euler_apply(ann.unit_degree_field) == f


def test_two_weight_annihilator():
    f = P("x*y")
    e = two_weight_annihilator(f, [1, 0, 0], [0, 1, 0])
    assert e == (F(-1), F(1), F(0))
    assert f.euler_apply(e).is_zero()
    with pytest.raises(NotHomogeneousError):
        two_weight_annihilator(P("x + y^2"), [1, 0, 0], [0, 1, 0])


# ---------------------------------------------------------------------------
# monomial enumeration, membership
# ---------------------------------------------------------------------------


def test_monomials_of_degree():
    ctx2 = Context(["x", "y"])
    assert monomials_of_degree(ctx2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(monomials_of_degree(XYZ, 3)) == 10
    assert monomials_up_to_degree(ctx2, 1) == [(0, 0), (0, 1), (1, 0)]


def test_graded_membership_oracles():
    r = graded_membership(P("x^2"), [P("x"), P("y")])
    assert r.member
    assert r.multipliers[0] * P("x") + r.multipliers[1] * P("y") == P("x^2")
    assert not graded_membership(P("y"), [P("x")]).member
    assert graded_membership(XYZ.zero(), [P("x")]).member
    with pytest.raises(PolyError):
        graded_membership(P("x + x^2"), [P("x")])


def test_graded_membership_euler_scalars():
    # for f = xy+xz+yz: sum x_i f_i = 2f, and x*f_x + y*f_y - z*f_z = 2xy
    f = P("x*y + x*z + y*z")
    gens = [XYZ.var(v) * f.derivative(v) for v in ("x", "y", "z")]
    r = graded_membership(f.scale(2), gens)
    assert r.member
    r2 = graded_membership(P("2*x*y"), gens)
    assert r2.member
    # and the membership is witnessed exactly
    assert sum((m * g for m, g in zip(r2.multipliers, gens)), XYZ.zero()) == P("2*x*y")


def test_graded_membership_random_products():
    rng = make_rng(32)
    for _ in range(200):
        # targets built inside the ideal are always found
        g1 = XYZ.monomial([rng.randint(0, 2) for _ in range(3)])
        g2 = XYZ.monomial([rng.randint(0, 2) for _ in range(3)])
        d = rng.randint(0, 2)
        m1 = XYZ.monomial([rng.randint(0, 1) for _ in range(3)])
        target = g1 * m1
        # pad target to be homogeneous of one degree: multiply by nothing else
        r = graded_membership(target, [g1, g2])
        assert r.member
        assert r.multipliers[0] * g1 + r.multipliers[1] * g2 == target


# ---------------------------------------------------------------------------
# bounded syzygies
# ---------------------------------------------------------------------------


def test_bounded_syzygy_basis_koszul():
    r = bounded_syzygy_solve([P("x"), P("y")], XYZ.zero(), 1)
    assert r.particular == (XYZ.zero(), XYZ.zero())
    assert len(r.basis) == 1
    h = r.basis[0]
    assert h[0] * P("x") + h[1] * P("y") == XYZ.zero()
    assert not (h[0].is_zero() and h[1].is_zero())


def test_bounded_syzygy_particular():
    r = bounded_syzygy_solve([P("x")], P("x^2 + x*y"), 1)
    assert r.particular is not None
    assert r.particular[0] * P("x") == P("x^2 + x*y")
    none = bounded_syzygy_solve([P("x")], P("y"), 3)
    assert none.particular is None


def test_bounded_syzygy_vector_version():
    gens = [[P("x"), P("y")], [P("y"), P("x")]]
    target = [P("x^2 + y^2"), P("2*x*y")]
    r = bounded_syzygy_solve(gens, target, 1)
    assert r.particular is not None
    h1, h2 = r.particular
    assert h1 * P("x") + h2 * P("y") == target[0]
    assert h1 * P("y") + h2 * P("x") == target[1]


def test_bounded_syzygy_respects_bound():
    # the only syzygies of (x^2, y^2) start at multiplier degree 2
    r = bounded_syzygy_solve([P("x^2"), P("y^2")], XYZ.zero(), 1)
    assert r.basis == ()
    r2 = bounded_syzygy_solve([P("x^2"), P("y^2")], XYZ.zero(), 2)
    assert len(r2.basis) == 1


def test_random_syzygies_verify():
    rng = make_rng(33)
    for _ in range(100):
        gens = [rand_nonzero(rng, XYZ, max_terms=2, max_deg=2) for _ in range(3)]
        r = bounded_syzygy_solve(gens, XYZ.zero(), 2)
        for h in r.basis:
            s = XYZ.zero()
            for hi, gi in zip(h, gens):
                s = s + hi * gi
            assert s.is_zero()
            assert all(hi.is_zero() or hi.total_degree() <= 2 for hi in h)


# ---------------------------------------------------------------------------
# Koszul homotopy
# ---------------------------------------------------------------------------


def rand_two_form(rng, ctx, weights):
    n = ctx.nvars
    zero = ctx.zero()
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rand_poly(rng, ctx, max_terms=3, max_deg=3)
            mat[i][j] = p
            mat[j][i] = -p
    return PolyMatrix(ctx, mat)


def test_koszul_homotopy_postcondition_random():
    # boundaries are cycles; the homotopy must reproduce them exactly
    rng = make_rng(34)
    for k in range(CASES):
        weights = [F(rng.randint(1, 4)) for _ in range(3)]
        if k % 3 == 0:
            weights = [F(1), F(1), F(1)]
        m = rand_two_form(rng, XYZ, weights)
        omega = koszul_contract_2form(m, weights)
        assert koszul_contract_1form(omega, weights).is_zero()
        got = koszul_homotopy_1cycle(omega, weights, d=1)
        assert got is not None
        assert koszul_contract_2form(got, weights) == omega
        # antisymmetry of the produced 2-form
        for i in range(3):
            for j in range(3):
                assert got.entry(i, j) == -got.entry(j, i)


def test_koszul_homotopy_mixed_weights_random():
    # weights with zeros: boundaries still verify (inert components get no
    # form-degree shift), so the homotopy applies whenever the obstruction allows
    rng = make_rng(35)
    ok = 0
    for _ in range(CASES // 2):
        weights = [F(rng.choice([0, 1, 2])) for _ in range(3)]
        if all(w == 0 for w in weights):
            weights[rng.randrange(3)] = F(1)
        m = rand_two_form(rng, XYZ, weights)
        omega = koszul_contract_2form(m, weights)
        got = koszul_homotopy_1cycle(omega, weights, d=1)
        assert got is not None
        assert koszul_contract_2form(got, weights) == omega
        ok += 1
    assert ok > 0


def test_koszul_homotopy_obstruction():
    # component outside the weighted set that misses the weighted ideal:
    # omega = (0, 0, y) is a cycle for weights (1, 0, 0)... contraction = x*0 = 0;
    # but omega_3 = y is not in (x), so the lemma's hypothesis fails
    omega = [XYZ.zero(), XYZ.zero(), P("y")]
    assert koszul_homotopy_1cycle(omega, [1, 0, 0], d=1) is None


def test_koszul_homotopy_rejects_non_cycle():
    with pytest.raises(PolyError):
        koszul_homotopy_1cycle([P("1"), P("0"), P("0")], [1, 1, 1], d=1)


def test_koszul_homotopy_wrong_d_fails_verification():
    # with d = 2 the boundary comes back scaled (q+1)/(q+2) term-wise: never equal
    omega = [P("y"), P("-x"), P("0")]
    assert koszul_homotopy_1cycle(omega, [1, 1, 1], d=2) is None
    assert koszul_homotopy_1cycle(omega, [1, 1, 1]) is not None
