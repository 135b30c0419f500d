"""Tests for the freeness obstructions on coordinate-hyperplane multiples.

Golden values derived by hand before running the code: the Fermat
determinant k^n, the cyclic-support determinant (k-1)^3 + 1, the symmetric
quadric membership vector (1/2, 1/2, -1/2), and the degree-count
refusals.
"""

from fractions import Fraction

import pytest

from freediv.poly import Context, parse_poly, poly_to_str, substitute
import freediv.obstruction
from freediv.linalg import graded_membership, monomials_of_degree, rref
from freediv.saito import (
    PreconditionError,
    VerificationError,
    free_multiple_via_xifi,
    xifi_generators,
)
from freediv.obstruction import (
    ExponentIndependence,
    Membership,
    ObstructionCheck,
    ObstructionReport,
    SmoothnessRefutedError,
    exponent_independence,
    homogeneous_degree,
    monomial_graded_membership,
    obstruction_report_to_json,
    scalar_membership_obstruction,
    smooth_times_nc_verdict,
)
from freediv.matrices import InternalCheckError

from helpers import make_rng


CTX3 = Context(("x", "y", "z"))
FERMAT = parse_poly("x^3 + y^3 + z^3", CTX3)
QUADRIC = parse_poly("x*y + x*z + y*z", CTX3)
CYCLIC = parse_poly("x^2*y + y^2*z + z^2*x", CTX3)


def graded_piece_rank(gens, d):
    ctx = gens[0].ctx
    products = []
    for g in gens:
        dg = g.total_degree()
        if dg > d:
            continue
        for e in monomials_of_degree(ctx, d - dg):
            products.append(g * ctx.monomial(e))
    if not products:
        return 0
    monos = sorted({e for p in products for e in p.terms})
    rows = [[p.terms.get(e, Fraction(0)) for e in monos] for p in products]
    _, pivots = rref(rows)
    return len(pivots)


class TestHomogeneousDegree:
    def test_degree(self):
        assert homogeneous_degree(FERMAT) == 3

    def test_rejects_inhomogeneous(self):
        with pytest.raises(PreconditionError):
            homogeneous_degree(parse_poly("x^2 + y", CTX3))

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            homogeneous_degree(CTX3.zero())


class TestScaledJacobianIdeal:
    def test_fermat_generators(self):
        assert xifi_generators(FERMAT) == [
            parse_poly("3*x^3", CTX3),
            parse_poly("3*y^3", CTX3),
            parse_poly("3*z^3", CTX3),
        ]

    def test_coprime_monomial_ideal(self):
        # f = 2*x^2*y + 3*z^3: the scaled Jacobian ideal equals the
        # complete-intersection ideal of the two monomials, checked rank by
        # rank in every degree up to deg f + n.
        f = parse_poly("2*x^2*y + 3*z^3", CTX3)
        gens = xifi_generators(f)
        targets = [parse_poly("x^2*y", CTX3), parse_poly("z^3", CTX3)]
        for d in range(3, 3 + 3 + 1):
            r1 = graded_piece_rank(gens, d)
            r2 = graded_piece_rank(targets, d)
            r_union = graded_piece_rank(gens + targets, d)
            assert r1 == r2 == r_union

    def test_coprime_monomial_ideal_second_instance(self):
        f = parse_poly("x^3*y + z^4", CTX3)
        gens = xifi_generators(f)
        targets = [parse_poly("x^3*y", CTX3), parse_poly("z^4", CTX3)]
        for d in range(4, 4 + 3 + 1):
            r1 = graded_piece_rank(gens, d)
            r2 = graded_piece_rank(targets, d)
            r_union = graded_piece_rank(gens + targets, d)
            assert r1 == r2 == r_union


class TestScalarMembership:
    def test_fermat_excluded(self):
        res = scalar_membership_obstruction(FERMAT)
        assert not res.member
        assert res.witness is None
        assert "inconsistent" in res.reason

    def test_symmetric_quadric_member(self):
        res = scalar_membership_obstruction(QUADRIC)
        assert res.member
        assert res.witness == (
            Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2),
        )
        # the witness really reproduces the coordinate monomial
        gens = xifi_generators(QUADRIC)
        total = CTX3.zero()
        for lam, g in zip(res.witness, gens):
            total = total + g.scale(lam)
        assert total == parse_poly("x*y", CTX3)

    def test_degree_above_dimension(self):
        ctx = Context(("x", "y"))
        res = scalar_membership_obstruction(parse_poly("x^5 + y^5", ctx))
        assert not res.member
        assert "degree count" in res.reason

    def test_quartic_in_three_variables(self):
        res = scalar_membership_obstruction(parse_poly("x^4 + y^4 + z^4", CTX3))
        assert not res.member
        assert "degree count" in res.reason

    def test_witness_is_the_constant_graded_multipliers(self):
        # the scalar solve is the degree-matched graded solve: its witness is
        # the constant multipliers of graded_membership, on named forms, on
        # seeded squarefree quadrics (members when every coefficient is
        # nonzero) and on seeded forms after a signed I + J change of
        # coordinates (mostly not members)
        rng = make_rng(73)
        forms = [FERMAT, QUADRIC, CYCLIC, parse_poly("x*y*z + x^3", CTX3),
                 parse_poly("x^4 + y^4 + z^4", CTX3)]
        for _ in range(6):
            forms.append(CTX3.sum(
                CTX3.monomial(e, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
                for e in ((1, 1, 0), (1, 0, 1), (0, 1, 1))))
        for _ in range(12):
            k = rng.choice((2, 3))
            monos = rng.sample(monomials_of_degree(CTX3, k), rng.randint(2, 5))
            f = CTX3.sum(CTX3.monomial(e, Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
                         for e in monos)
            perm = rng.sample(range(3), 3)
            s, t = ([rng.choice((-1, 1)) for _ in range(3)] for _ in range(2))
            coords = [CTX3.sum(CTX3.gens()[perm[j]].scale(s[i] * t[j] * (2 if i == j else 1))
                               for j in range(3)) for i in range(3)]
            forms.append(substitute(f, coords))
        members = 0
        for f in forms:
            k = f.total_degree()
            gens = xifi_generators(f)
            target = CTX3.monomial(tuple(int(i < k) for i in range(3)))
            res = scalar_membership_obstruction(f)
            graded = graded_membership(target, gens)
            assert res.member == graded.member, f
            if not res.member:
                assert res.witness is None
                continue
            members += 1
            assert res.witness == tuple(h.constant_value() for h in graded.multipliers), f
            assert CTX3.sum(g.scale(c) for g, c in zip(gens, res.witness)) == target, f
        assert members >= 8

    def test_rejects_constant(self):
        with pytest.raises(PreconditionError):
            scalar_membership_obstruction(parse_poly("1", CTX3))

    def test_rejects_inhomogeneous(self):
        with pytest.raises(PreconditionError):
            scalar_membership_obstruction(parse_poly("x^2 + y", CTX3))


class TestExponentIndependence:
    def test_fermat_diagonal(self):
        res = exponent_independence(FERMAT)
        assert res == ExponentIndependence(True, (0, 1, 2), Fraction(27))

    def test_fermat_power_grid(self):
        # diagonal case: determinant k^n for each Fermat-type form
        for k in (3, 4, 5):
            f = parse_poly(f"x^{k} + y^{k} + z^{k}", CTX3)
            res = exponent_independence(f)
            assert res.det_value == Fraction(k ** 3)

    def test_cyclic_support(self):
        res = exponent_independence(CYCLIC)
        assert res.independent
        assert res.j_map == (1, 2, 0)
        assert res.det_value == Fraction((3 - 1) ** 3 + 1)

    def test_degree_two_can_fail(self):
        # k = 2 makes -(k-1) = -1 an eigenvalue candidate: x*y gives the
        # same exponent vector twice and independence honestly fails.
        ctx = Context(("x", "y"))
        res = exponent_independence(parse_poly("x*y", ctx))
        assert not res.independent
        assert res.det_value == 0
        assert res.j_map == (1, 0)

    def test_smoothness_refuted(self):
        with pytest.raises(SmoothnessRefutedError) as exc:
            exponent_independence(parse_poly("x^3 + y^3", CTX3))
        assert "z-axis" in str(exc.value)
        assert exc.value.axis == 2

    def test_rejects_linear(self):
        with pytest.raises(PreconditionError):
            exponent_independence(parse_poly("x + y + z", CTX3))

    def test_tie_break_smallest(self):
        # x^2*y + x^2*z both available for i = 0: j(0) must be 1, not 2
        f = parse_poly("x^2*y + x^2*z + y^3 + z^3", CTX3)
        res = exponent_independence(f)
        assert res.j_map[0] == 1


class TestMonomialGradedMembership:
    def test_fermat_coordinate_product(self):
        assert monomial_graded_membership((0, 1, 2), FERMAT) is False

    def test_fermat_below_degree(self):
        assert monomial_graded_membership(("x", "y"), FERMAT) is False

    def test_quadric_pair(self):
        assert monomial_graded_membership(("x", "y"), QUADRIC) is True

    def test_quadric_triple(self):
        # x*y*z = x * (y*z) lies in (x*y, x*z, y*z) at degree 3
        assert monomial_graded_membership(("x", "y", "z"), QUADRIC) is True

    def test_final_remark_products(self):
        ctx4 = Context(("x1", "x2", "x3", "x4"))
        f = parse_poly("x1^2*x2 + x2^3 + x3^2*x4 + x4^3", ctx4)
        assert monomial_graded_membership((0, 1, 2), f) is False
        assert monomial_graded_membership((0, 1, 2, 3), f) is False

    def test_rejects_empty_subset(self):
        with pytest.raises(PreconditionError):
            monomial_graded_membership((), FERMAT)

    def test_rejects_unknown_variable(self):
        with pytest.raises(PreconditionError):
            monomial_graded_membership(("w",), FERMAT)


class TestSmoothTimesNcVerdict:
    def test_fermat_not_free(self):
        rep = smooth_times_nc_verdict(FERMAT, list(CTX3.gens()), True)
        assert rep.conclusion == "NotFree"
        x, y, z = CTX3.gens()
        assert rep.candidate == FERMAT * x * y * z
        by_name = {c.name: c for c in rep.checks}
        assert by_name["coordinate_monomial_membership"].verdict == "violated"
        assert by_name["exponent_independence"].verdict == "satisfied"
        assert by_name["exponent_independence"].witness == Fraction(27)

    def test_fermat_skewed_forms(self):
        x, y, z = CTX3.gens()
        rep = smooth_times_nc_verdict(FERMAT, (x + y, y - z, z), True)
        assert rep.conclusion == "NotFree"
        assert rep.candidate == FERMAT * (x + y) * (y - z) * z

    def test_smoothness_not_asserted(self):
        rep = smooth_times_nc_verdict(FERMAT, list(CTX3.gens()), False)
        assert rep.conclusion == "Inconclusive"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["smoothness_assertion"].verdict == "not_asserted"
        # the obstruction facts are still reported
        assert by_name["coordinate_monomial_membership"].verdict == "violated"

    def test_quadric_out_of_hypotheses(self):
        rep = smooth_times_nc_verdict(QUADRIC, list(CTX3.gens()), True)
        assert rep.conclusion == "Inconclusive"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["degree_and_dimension"].verdict == "failed"
        assert by_name["coordinate_monomial_membership"].verdict == "skipped"

    def test_quadric_is_nevertheless_free(self):
        # cross-module sanity: the same candidate has a genuine certificate,
        # and the obstruction report must not contradict it
        cert = free_multiple_via_xifi(QUADRIC)
        x, y, z = CTX3.gens()
        assert cert.divisor == QUADRIC * x * y * z
        rep = smooth_times_nc_verdict(QUADRIC, list(CTX3.gens()), True)
        assert rep.conclusion != "NotFree"

    def test_symmetric_cubic_in_four_variables(self):
        # the degree-3 elementary symmetric form in 4 variables: singular at
        # the axes, caught by the support check; and its coordinate multiple
        # has a genuine certificate, consistent with Inconclusive
        ctx4 = Context(("x1", "x2", "x3", "x4"))
        e3 = parse_poly("x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4", ctx4)
        rep = smooth_times_nc_verdict(e3, list(ctx4.gens()), True)
        assert rep.conclusion == "Inconclusive"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["exponent_independence"].verdict == "refuted"
        cert = free_multiple_via_xifi(e3)
        g = e3
        for v in ctx4.gens():
            g = g * v
        assert cert.divisor == g

    def test_final_remark_candidate(self):
        ctx4 = Context(("x1", "x2", "x3", "x4"))
        f = parse_poly("x1^2*x2 + x2^3 + x3^2*x4 + x4^3", ctx4)
        rep = smooth_times_nc_verdict(f, list(ctx4.gens()), True)
        assert rep.conclusion == "NotFree"

    def test_singular_cubic_refuted(self):
        rep = smooth_times_nc_verdict(
            parse_poly("x^3 + y^3", CTX3), list(CTX3.gens()), True
        )
        assert rep.conclusion == "Inconclusive"
        by_name = {c.name: c for c in rep.checks}
        assert by_name["exponent_independence"].verdict == "refuted"
        assert "z-axis" in by_name["exponent_independence"].witness

    def test_rejects_dependent_forms(self):
        x, y, z = CTX3.gens()
        with pytest.raises(PreconditionError, match="dependent"):
            smooth_times_nc_verdict(FERMAT, (x + y, x + y, z), True)

    def test_rejects_wrong_count(self):
        x, y, z = CTX3.gens()
        with pytest.raises(PreconditionError):
            smooth_times_nc_verdict(FERMAT, (x, y), True)

    def test_rejects_nonlinear_form(self):
        x, y, z = CTX3.gens()
        with pytest.raises(PreconditionError):
            smooth_times_nc_verdict(FERMAT, (x * x, y, z), True)

    def test_corrupted_inverse_fails_the_straightening(self, monkeypatch):
        ells = [parse_poly(t, CTX3) for t in ("1/2*x + y", "y - 1/3*z", "x + z")]
        smooth_times_nc_verdict(FERMAT, ells, True)
        rref_exact = freediv.obstruction.rref

        def corrupted(rows):
            red, pivots = rref_exact(rows)
            if len(rows[0]) == 2 * len(rows):  # [L | I] reduced to [I | L^-1]
                red[1][-1] += Fraction(1, 5)
            return red, pivots

        monkeypatch.setattr(freediv.obstruction, "rref", corrupted)
        with pytest.raises(InternalCheckError, match="does not straighten"):
            smooth_times_nc_verdict(FERMAT, ells, True)

    def test_not_free_requires_violation(self):
        with pytest.raises(InternalCheckError):
            ObstructionReport(
                FERMAT,
                (ObstructionCheck("anything", "satisfied"),),
                "NotFree",
            )

    def test_coordinate_change_invariance(self):
        rng = make_rng(72)
        x, y, z = CTX3.gens()
        base_ells = (x + y, y - z, z)
        base = smooth_times_nc_verdict(FERMAT, base_ells, True)
        skip = {"linear_independence"}
        base_facts = [
            (c.name, c.verdict, c.witness)
            for c in base.checks
            if c.name not in skip
        ]
        for _ in range(8):
            while True:
                t = [[Fraction(rng.randrange(-2, 3)) for _ in range(3)]
                     for _ in range(3)]
                det = (
                    t[0][0] * (t[1][1] * t[2][2] - t[1][2] * t[2][1])
                    - t[0][1] * (t[1][0] * t[2][2] - t[1][2] * t[2][0])
                    + t[0][2] * (t[1][0] * t[2][1] - t[1][1] * t[2][0])
                )
                if det != 0:
                    break
            subs = [
                sum((CTX3.gens()[j].scale(t[i][j]) for j in range(3)),
                    CTX3.zero())
                for i in range(3)
            ]
            f_t = substitute(FERMAT, subs)
            ells_t = [substitute(e, subs) for e in base_ells]
            rep = smooth_times_nc_verdict(f_t, ells_t, True)
            assert rep.conclusion == base.conclusion
            facts = [
                (c.name, c.verdict, c.witness)
                for c in rep.checks
                if c.name not in skip
            ]
            assert facts == base_facts


class TestReportJson:
    def test_structure_and_rationals(self):
        rep = smooth_times_nc_verdict(FERMAT, list(CTX3.gens()), True)
        data = obstruction_report_to_json(rep)
        assert data["conclusion"] == "NotFree"
        assert data["vars"] == ["x", "y", "z"]
        assert data["candidate"] == poly_to_str(rep.candidate)
        names = [c["name"] for c in data["checks"]]
        assert "coordinate_monomial_membership" in names
        det = next(
            c["witness"] for c in data["checks"]
            if c["name"] == "exponent_independence"
        )
        assert det == "27"

    def test_lambda_vector_serialized(self):
        # f = x*y*z: the target equals the first generator, so membership is
        # satisfied with a scalar vector (and smoothness is later refuted)
        rep = smooth_times_nc_verdict(
            parse_poly("x*y*z", CTX3), list(CTX3.gens()), True
        )
        assert rep.conclusion == "Inconclusive"
        data = obstruction_report_to_json(rep)
        member = next(
            c for c in data["checks"]
            if c["name"] == "coordinate_monomial_membership"
        )
        assert member["verdict"] == "satisfied"
        assert member["witness"] == ["1", "0", "0"]

    def test_deterministic(self):
        import json

        rep = smooth_times_nc_verdict(FERMAT, list(CTX3.gens()), True)
        a = json.dumps(obstruction_report_to_json(rep), sort_keys=True)
        b = json.dumps(
            obstruction_report_to_json(
                smooth_times_nc_verdict(FERMAT, list(CTX3.gens()), True)
            ),
            sort_keys=True,
        )
        assert a == b
