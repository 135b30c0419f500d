"""Tests for the divisor-family constructors.

Every golden value below was derived by hand from the defining formulas
before the constructors were run: determinant scalars from the closed form
beta*alpha + u*beta + t*alpha, matrix entries from the construction tables,
and product expansions by direct multiplication.
"""

from fractions import Fraction

import pytest

import freediv.families
import freediv.saito
from freediv.poly import (
    Context,
    Poly,
    PolyError,
    divide_exact,
    parse_poly,
    poly_to_str,
)
from freediv.matrices import PolyMatrix
from freediv.saito import (
    FramingError,
    HilbertBurch,
    PreconditionError,
    VerificationError,
    euler_frame,
    frame_divisor,
    column_roles,
    hilbert_burch_from_framed,
    verify_saito,
)
from freediv.families import (
    BinomialSpec,
    CommonFactorError,
    TriangularStep,
    binomial_divisor,
    brieskorn_chain,
    brieskorn_seed,
    compose,
    compose_factors,
    cone_family,
    euler3_divisor,
    is_free_binomial,
    iterate_tangent,
    multi_jet_extend,
    normal_crossing_matrix,
    sum_compose,
    tangent_extend,
    triangular_extend,
)

from helpers import CASES, make_rng


def mat(ctx: Context, rows) -> PolyMatrix:
    return PolyMatrix(ctx, [[parse_poly(e, ctx) for e in row] for row in rows])


@pytest.fixture(autouse=True)
def bareiss_oracle(monkeypatch):
    """Check every certificate built in this module against the polynomial
    determinant: det_scalar must equal det(matrix) / f by Bareiss."""
    verify = freediv.saito.verify_saito
    checked = []

    def checking(f, matrix):
        cert = verify(f, matrix)
        scalar = divide_exact(matrix.det(strategy="bareiss"), f)
        assert scalar is not None and scalar.is_constant()
        assert cert.det_scalar == scalar.constant_value()
        checked.append(matrix.nrows)
        return cert

    for module in (freediv.saito, freediv.families):
        monkeypatch.setattr(module, "verify_saito", checking)
    return checked


@pytest.fixture(autouse=True)
def hilbert_burch_oracle(monkeypatch):
    """Check every Hilbert-Burch matrix built in this module against its
    definition: the signed maximal minors must equal scalar * grad f.  The
    constructors rescale a column instead of recomputing the minors."""
    build = freediv.saito.HilbertBurch
    checked = []

    def checking(divisor, matrix, scalar):
        expected = [g.scale(scalar) for g in divisor.gradient()]
        assert matrix.signed_maximal_minors() == expected
        checked.append(matrix.nrows)
        return build(divisor, matrix, scalar)

    for module in (freediv.saito, freediv.families):
        monkeypatch.setattr(module, "HilbertBurch", checking)
    return checked


# ---------------------------------------------------------------------------
# monomial-times-binomial divisors
# ---------------------------------------------------------------------------


class TestBinomialSpec:
    def test_variable_names_default(self):
        spec = BinomialSpec(n=2, a=(1, 0), b=(0, 2), alpha=1, beta=2, u=0, t=1)
        assert spec.variable_names() == ("x1", "x2", "y", "z")

    def test_variable_names_custom(self):
        spec = BinomialSpec(
            n=1, a=(0,), b=(0,), alpha=3, beta=2, u=1, t=1,
            x_names=("y3",), y_name="y1", z_name="y2",
        )
        assert spec.variable_names() == ("y3", "y1", "y2")

    def test_rejects_shared_support(self):
        # some min(a_i, b_i) != 0
        with pytest.raises(PreconditionError):
            BinomialSpec(n=1, a=(1,), b=(2,), alpha=1, beta=1, u=0, t=0)

    def test_rejects_bad_exponents(self):
        with pytest.raises(PreconditionError):
            BinomialSpec(n=0, a=(), b=(), alpha=0, beta=1, u=0, t=0)
        with pytest.raises(PreconditionError):
            BinomialSpec(n=0, a=(), b=(), alpha=1, beta=1, u=2, t=0)
        with pytest.raises(PreconditionError):
            BinomialSpec(n=2, a=(1,), b=(0, 0), alpha=1, beta=1, u=0, t=0)

    def test_rejects_non_integer_exponent(self):
        # int(1.7) would build x1^2*y + x1*z
        with pytest.raises(PreconditionError, match="exponents must be integers, got 1.7"):
            BinomialSpec(n=1, a=(1.7,), b=(0,), alpha=1, beta=1, u=0, t=1)
        with pytest.raises(PreconditionError, match="got True"):
            BinomialSpec(n=1, a=(1,), b=(0,), alpha=1, beta=1, u=True, t=0)

    def test_rejects_duplicate_names(self):
        with pytest.raises(PreconditionError):
            BinomialSpec(
                n=1, a=(1,), b=(0,), alpha=1, beta=1, u=0, t=0,
                x_names=("y",), y_name="y", z_name="z",
            )


class TestBinomialDivisor:
    def test_basic_example(self):
        # F = x1 * (x1^2 y + z^3); scalar = 3*1 + 0*3 + 0*1 = 3.
        spec = BinomialSpec(n=1, a=(2,), b=(0,), alpha=1, beta=3, u=0, t=0)
        cert = binomial_divisor(spec)
        ctx = cert.divisor.ctx
        assert ctx.names == ("x1", "y", "z")
        assert cert.divisor == parse_poly("x1^3*y + x1*z^3", ctx)
        assert cert.det_scalar == 3
        expected = mat(ctx, [
            ["x1", "0", "0"],
            ["0", "3*y", "-3*z^2"],
            ["2/3*z", "z", "x1^2"],
        ])
        assert cert.matrix == expected

    def test_plane_cusp(self):
        # n = 0, u = t = 0: the bare binomial y^3 + z^2, scalar 2*3 = 6.
        spec = BinomialSpec(n=0, a=(), b=(), alpha=3, beta=2, u=0, t=0)
        cert = binomial_divisor(spec)
        assert cert.divisor == parse_poly("y^3 + z^2", cert.divisor.ctx)
        assert cert.det_scalar == 6

    def test_renamed_instance(self):
        # y3*y1*y2*(y1^3 + y2^2); scalar = 2*3 + 1*2 + 1*3 = 11.
        spec = BinomialSpec(
            n=1, a=(0,), b=(0,), alpha=3, beta=2, u=1, t=1,
            x_names=("y3",), y_name="y1", z_name="y2",
        )
        cert = binomial_divisor(spec)
        ctx = cert.divisor.ctx
        assert ctx.names == ("y3", "y1", "y2")
        assert cert.divisor == parse_poly("y3*y1^4*y2 + y3*y1*y2^3", ctx)
        assert cert.det_scalar == 11

    def test_coordinate_cone_section(self):
        # x1*x2*z*(x1*x2*y + z^3); scalar = 3*1 + 0*3 + 1*1 = 4.
        spec = BinomialSpec(n=2, a=(1, 1), b=(0, 0), alpha=1, beta=3, u=0, t=1)
        cert = binomial_divisor(spec)
        ctx = cert.divisor.ctx
        assert cert.divisor == parse_poly("x1^2*x2^2*y*z + x1*x2*z^4", ctx)
        assert cert.det_scalar == 4

    def test_random_grid(self):
        rng = make_rng(61)
        for _ in range(max(60, CASES // 16)):
            n = rng.randrange(4)
            a, b = [], []
            for _ in range(n):
                if rng.random() < 0.5:
                    a.append(rng.randrange(1, 4))
                    b.append(0)
                else:
                    a.append(0)
                    b.append(rng.randrange(1, 4))
            spec = BinomialSpec(
                n=n, a=tuple(a), b=tuple(b),
                alpha=rng.randrange(1, 4), beta=rng.randrange(1, 4),
                u=rng.randrange(2), t=rng.randrange(2),
            )
            cert = binomial_divisor(spec)
            expected = spec.beta * spec.alpha + spec.u * spec.beta + spec.t * spec.alpha
            assert cert.det_scalar == expected
            assert cert.matrix.nrows == n + 2


class TestIsFreeBinomial:
    def test_not_free_two_missing(self):
        ctx = Context(("x", "y", "z"))
        verdict = is_free_binomial(parse_poly("x^2*y + z^3", ctx))
        assert verdict.status == "not_free"
        assert "x" in verdict.reason and "y" in verdict.reason

    def test_free_with_normal_form(self):
        ctx = Context(("y1", "y2", "y3"))
        verdict = is_free_binomial(parse_poly("y1^4*y2*y3 + y1*y2^3*y3", ctx))
        assert verdict.is_free
        nf = verdict.normal_form
        assert nf == BinomialSpec(
            n=1, a=(0,), b=(0,), alpha=3, beta=2, u=1, t=1,
            x_names=("y3",), y_name="y1", z_name="y2",
        )
        assert verdict.certificate.det_scalar == 11
        assert verdict.certificate.divisor.ctx is ctx

    def test_free_coordinate_triangle(self):
        ctx = Context(("x", "y"))
        verdict = is_free_binomial(parse_poly("x^2*y + x*y^2", ctx))
        assert verdict.is_free
        assert verdict.certificate.det_scalar == 3
        assert verdict.normal_form.n == 0

    def test_free_cusp(self):
        ctx = Context(("y", "z"))
        verdict = is_free_binomial(parse_poly("y^3 + z^2", ctx))
        assert verdict.is_free
        assert verdict.certificate.det_scalar == 6

    def test_free_with_coefficients(self):
        # Coefficients ride along: certificate reproduces the input exactly.
        ctx = Context(("x", "y"))
        f = parse_poly("2*x^2*y + 3*x*y^2", ctx)
        verdict = is_free_binomial(f)
        assert verdict.is_free
        assert verdict.certificate.divisor == f
        assert verdict.certificate.det_scalar == 3

    def test_unused_ambient_variables(self):
        ctx = Context(("w", "y", "z", "q"))
        f = parse_poly("y^3 + z^2", ctx)
        verdict = is_free_binomial(f)
        assert verdict.is_free
        cert = verdict.certificate
        assert cert.matrix.nrows == 4
        # unused variables get constant diagonal entries so the determinant
        # stays a scalar multiple of the divisor
        assert cert.matrix.entry(0, 0) == parse_poly("1", ctx)
        assert cert.matrix.entry(3, 3) == parse_poly("1", ctx)
        assert cert.det_scalar == 6
        assert cert.divisor == f

    def test_unknown_when_inhomogeneous(self):
        ctx = Context(("x", "y", "z"))
        verdict = is_free_binomial(parse_poly("x^3*y + z^2", ctx))
        assert verdict.status == "unknown"

    def test_rejects_three_terms(self):
        ctx = Context(("x", "y"))
        with pytest.raises(PreconditionError):
            is_free_binomial(parse_poly("x^2 + x*y + y^2", ctx))

    def test_rejects_non_squarefree(self):
        ctx = Context(("x", "y"))
        with pytest.raises(PreconditionError):
            is_free_binomial(parse_poly("x^2*y + x^2*y^2", ctx))

    def test_rejects_monomial_plus_constant_cofactor(self):
        ctx = Context(("x", "y"))
        with pytest.raises(PreconditionError):
            is_free_binomial(parse_poly("x*y + x^2*y^2", ctx))


# ---------------------------------------------------------------------------
# three-variable divisors with a diagonal annihilating field
# ---------------------------------------------------------------------------


class TestEuler3:
    def test_worked_example(self):
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^2*y - y^2*z", ctx)
        verdict = euler3_divisor(f, (1, -2, 4))
        assert verdict.is_free
        assert "all coefficients nonzero" in verdict.reason
        hb = verdict.hilbert_burch
        assert hb.scalar == 1
        assert hb.matrix == mat(ctx, [
            ["x", "-1/2*y"],
            ["-2*y", "0"],
            ["4*z", "-x"],
        ])
        assert hb.matrix.signed_maximal_minors() == [
            parse_poly("2*x*y", ctx),
            parse_poly("x^2 - 2*y*z", ctx),
            parse_poly("-y^2", ctx),
        ]
        cert = verdict.certificate
        assert cert.det_scalar == 1
        assert cert.matrix == mat(ctx, [
            ["1/4*x", "x", "-1/2*y"],
            ["1/2*y", "-2*y", "0"],
            ["0", "4*z", "-x"],
        ])
        roles = column_roles(verdict.framed)
        assert roles[0] == "euler:0"

    def test_one_zero_coefficient(self):
        # f = y*z*(x^2 - y*z) is annihilated by (0, 1, -1).
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^2*y*z - y^2*z^2", ctx)
        verdict = euler3_divisor(f, (0, 1, -1))
        assert verdict.is_free
        assert "one vanishing coefficient at x" in verdict.reason
        assert verdict.hilbert_burch.matrix.signed_maximal_minors() == list(f.gradient())

    def test_one_zero_permuted(self):
        # zero coefficient in the middle slot: f = x*z*(y^2 - x*z).
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x*y^2*z - x^2*z^2", ctx)
        verdict = euler3_divisor(f, (1, 0, -1))
        assert verdict.is_free
        assert "one vanishing coefficient at y" in verdict.reason
        assert verdict.hilbert_burch.matrix.signed_maximal_minors() == list(f.gradient())

    def test_one_zero_not_free(self):
        # f = x*(x^2 - y*z)*(x^2 - 2*y*z): df/dx has the pure term 5*x^4.
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^5 - 3*x^3*y*z + 2*x*y^2*z^2", ctx)
        verdict = euler3_divisor(f, (0, -1, 1))
        assert verdict.status == "not_free"
        assert verdict.witness == parse_poly("5*x^4", ctx)

    def test_suspension(self):
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^2 - y^3", ctx)
        verdict = euler3_divisor(f, (0, 0, 5))
        assert verdict.status == "suspension"
        assert "z" in verdict.reason

    def test_requires_three_variables(self):
        ctx = Context(("x", "y"))
        with pytest.raises(PreconditionError):
            euler3_divisor(parse_poly("x^2 - y^3", ctx), (0, 0))

    def test_rejects_zero_field(self):
        ctx = Context(("x", "y", "z"))
        with pytest.raises(PreconditionError):
            euler3_divisor(parse_poly("x^2*y - y^2*z", ctx), (0, 0, 0))

    def test_rejects_non_annihilating_field(self):
        ctx = Context(("x", "y", "z"))
        with pytest.raises(PreconditionError):
            euler3_divisor(parse_poly("x^2*y - y^2*z", ctx), (1, 1, 1))

    def test_rejects_non_reduced(self):
        ctx = Context(("x", "y", "z"))
        with pytest.raises(PreconditionError):
            euler3_divisor(parse_poly("x^2*y^2", ctx), (1, -1, 1))

    def test_rejects_without_unit_degree_field(self):
        # f = x*y*(1 + x*y) is annihilated by (1, -1, 0) but no diagonal field
        # gives every exponent vector degree one.
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x*y + x^2*y^2", ctx)
        with pytest.raises(PreconditionError):
            euler3_divisor(f, (1, -1, 0))

    def test_smooth_caveat_documented_behavior(self):
        # x - y*z satisfies every hypothesis yet is smooth; the refutation
        # branch (which presumes a singular divisor) reports not_free.  The
        # docstring warns callers to screen smooth inputs.
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x - y*z", ctx)
        verdict = euler3_divisor(f, (0, 1, -1))
        assert verdict.status == "not_free"
        assert verdict.witness == parse_poly("1", ctx)


class TestConeFamily:
    def test_three_cones_through_axes(self):
        verdict = cone_family(3, (0, 1, 1), 2, 1, 1, (5, Fraction(1, 2), -1))
        assert verdict.is_free
        f = verdict.certificate.divisor
        ctx = f.ctx
        x, y, z = ctx.gens()
        expected = (
            y * z
            * (x ** 2 - (y * z).scale(5))
            * (x ** 2 - (y * z).scale(Fraction(1, 2)))
            * (x ** 2 + y * z)
        )
        assert f == expected
        assert poly_to_str(f) == (
            "x^6*y*z - 9/2*x^4*y^2*z^2 - 3*x^2*y^3*z^3 + 5/2*y^4*z^4"
        )
        assert "one vanishing coefficient" in verdict.reason

    def test_two_cones_unequal_weights(self):
        verdict = cone_family(2, (0, 1, 1), 2, 2, 1, (Fraction(1, 2), -5))
        assert verdict.is_free
        f = verdict.certificate.divisor
        x, y, z = f.ctx.gens()
        expected = (
            y * z
            * (x ** 2 - (y ** 2 * z).scale(Fraction(1, 2)))
            * (x ** 2 + (y ** 2 * z).scale(5))
        )
        assert f == expected
        assert "all coefficients nonzero" in verdict.reason

    def test_not_free_without_axis_factors(self):
        verdict = cone_family(2, (0, 0, 0), 2, 1, 1, (1, 2))
        assert verdict.status == "not_free"

    def test_not_free_with_x_factor_only(self):
        verdict = cone_family(2, (1, 0, 0), 2, 1, 1, (1, 2))
        assert verdict.status == "not_free"
        assert verdict.witness == parse_poly("5*x^4", verdict.witness.ctx)

    def test_rejects_repeated_scalars(self):
        with pytest.raises(PreconditionError):
            cone_family(2, (0, 1, 1), 2, 1, 1, (3, 3))

    def test_rejects_zero_scalar(self):
        with pytest.raises(PreconditionError):
            cone_family(1, (0, 1, 1), 2, 1, 1, (0,))

    def test_rejects_smooth_instance(self):
        with pytest.raises(PreconditionError):
            cone_family(1, (0, 0, 0), 1, 1, 1, (2,))

    def test_rejects_bad_gamma(self):
        with pytest.raises(PreconditionError):
            cone_family(1, (0, 2, 0), 2, 1, 1, (1,))

    def test_rejects_non_integer_exponent(self):
        # int(0.9) would certify the divisor with g1 = 0
        with pytest.raises(PreconditionError, match="gammas must be three exponents"):
            cone_family(2, (0.9, 1, 1), 2, 1, 1, [1, 2])
        with pytest.raises(PreconditionError, match="a must be a positive integer, got True"):
            cone_family(2, (0, 1, 1), True, 1, 1, [1, 2])

    def test_closed_form_grid(self):
        rng = make_rng(62)
        gammas = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                  (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        for _ in range(40):
            k = rng.randrange(1, 3)
            g = rng.choice(gammas)
            a = rng.randrange(1, 3)
            b = rng.randrange(1, 3)
            c = rng.randrange(1, 3)
            if k == 1 and a == 1 and g == (0, 0, 0):
                continue  # rejected smooth instance
            alphas = rng.sample([1, 2, 3, -1, Fraction(1, 2)], k)
            verdict = cone_family(k, g, a, b, c, alphas)
            assert verdict.is_free == (g[1] + g[2] > 0)


# ---------------------------------------------------------------------------
# triangular chains
# ---------------------------------------------------------------------------


class TestTriangular:
    def test_seed_matrix(self):
        fd = brieskorn_seed(2, 3, ("x", "y"))
        ctx = fd.ctx
        assert fd.matrix == mat(ctx, [["3*x", "-3*y^2"], ["2*y", "2*x"]])
        assert fd.certificate.det_scalar == 6
        assert fd.weight == (3, 2)
        assert column_roles(fd) == ["euler:0", "annihilator"]

    def test_seed_rejects_bad_exponents(self):
        with pytest.raises(PreconditionError):
            brieskorn_seed(0, 2)

    def test_seed_rejects_bool_exponent(self):
        with pytest.raises(PreconditionError, match="got True"):
            brieskorn_seed(True, 2)

    def test_nested_spheres_golden_matrix(self):
        fd = brieskorn_chain(2, 2, 2, 2, 2)
        ctx = fd.ctx
        assert ctx.names == ("x1", "x2", "x3", "x4", "x5")
        g3 = "x1^2 + x2^2 + x3^2"
        g4 = g3 + " + x4^2"
        g5 = g4 + " + x5^2"
        expected = mat(ctx, [
            ["x1", "-x2", "0", "0", "0"],
            ["x2", "x1", "0", "0", "0"],
            ["x3", "0", g3, "0", "0"],
            ["x4", "0", "x3*x4", g4, "0"],
            ["x5", "0", "x3*x5", "x4*x5", g5],
        ])
        assert fd.matrix == expected
        assert fd.certificate.det_scalar == 1
        assert [poly_to_str(g) for g in fd.factors] == [
            "x1^2 + x2^2", g3, g4, g5,
        ]
        assert column_roles(fd) == [
            "mixed", "annihilator", "mixed", "mixed", "mixed",
        ]

    def test_hyperplane_arrangement_chain(self):
        fd = brieskorn_chain(1, 1, 1)
        ctx = fd.ctx
        expected = parse_poly("(0)", ctx) if False else (
            (ctx.var("x1") + ctx.var("x2"))
            * (ctx.var("x1") + ctx.var("x2") + ctx.var("x3"))
        )
        assert fd.product == expected

    def test_cusp_extension(self):
        fd = brieskorn_seed(2, 3, ("x", "y"))
        fd = triangular_extend(
            fd, TriangularStep(a=5, b=1, alpha=-1, beta=1, new_var="z")
        )
        ctx = fd.ctx
        x, y, z = ctx.gens()
        assert fd.product == (x ** 2 + y ** 3) * (x ** 2 + y ** 3 - z ** 5)
        assert fd.weight == (3, 2, Fraction(6, 5))

    def test_cusp_extension_sign_flip(self):
        # swapping the signs of alpha and beta negates the new factor:
        # the same divisor up to a unit.
        fd = brieskorn_seed(2, 3, ("x", "y"))
        fd = triangular_extend(
            fd, TriangularStep(a=5, b=1, alpha=1, beta=-1, new_var="z")
        )
        x, y, z = fd.ctx.gens()
        assert fd.product == ((x ** 2 + y ** 3) * (x ** 2 + y ** 3 - z ** 5)).scale(-1)

    def test_manual_frame_extension(self):
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        fd = frame_divisor([x * x - y * y], mat(ctx, [["x", "y"], ["y", "x"]]))
        fd = triangular_extend(
            fd, TriangularStep(a=3, b=1, alpha=1, beta=1, new_var="z")
        )
        x, y, z = fd.ctx.gens()
        assert fd.product == (x ** 2 - y ** 2) * (x ** 2 - y ** 2 + z ** 3)

    def test_rejects_variable_collision(self):
        fd = brieskorn_seed(2, 2)
        with pytest.raises(PolyError):
            triangular_extend(
                fd, TriangularStep(a=2, b=1, alpha=1, beta=1, new_var="x1")
            )

    def test_step_rejects_bool_exponents(self):
        with pytest.raises(PreconditionError, match="a must be a positive integer, got True"):
            TriangularStep(a=True, b=1, alpha=1, beta=1, new_var="x3")
        with pytest.raises(PreconditionError, match="b must be a positive integer, got True"):
            TriangularStep(a=2, b=True, alpha=1, beta=1, new_var="x3")

    def test_rejects_zero_alpha_with_high_a(self):
        # alpha = 0 leaves the factor beta*(previous)^b: non-reduced product.
        fd = brieskorn_seed(2, 2)
        with pytest.raises((PreconditionError, VerificationError)):
            triangular_extend(
                fd, TriangularStep(a=2, b=1, alpha=0, beta=1, new_var="x3")
            )

    def test_step_validation(self):
        with pytest.raises(PreconditionError):
            TriangularStep(a=0, b=1, alpha=1, beta=1, new_var="z")
        with pytest.raises(PreconditionError):
            TriangularStep(a=1, b=0, alpha=1, beta=1, new_var="z")

    def test_multiplier_law(self):
        # Extending multiplies the column quotients as: the new total on
        # column j equals (b + 1) * c_prev + sum of the older quotients.
        rng = make_rng(63)
        for _ in range(25):
            t1, t2 = rng.randrange(1, 4), rng.randrange(1, 4)
            fd = brieskorn_seed(t1, t2)
            for step_no in range(rng.randrange(1, 3)):
                a = rng.randrange(1, 4)
                b = rng.randrange(1, 3)
                alpha = rng.choice([1, -1, 2])
                beta = rng.choice([1, -1, 2])
                step = TriangularStep(
                    a=a, b=b, alpha=alpha, beta=beta,
                    new_var=f"w{step_no}",
                )
                before = fd
                try:
                    fd = triangular_extend(fd, step)
                except VerificationError:
                    # a rare non-reduced combination (e.g. repeated factor);
                    # the constructor must refuse it rather than mis-certify
                    break
                big = fd.ctx
                last = len(before.factors) - 1
                for j in range(before.matrix.ncols):
                    total_new = big.zero()
                    for q in fd.multipliers[j]:
                        total_new = total_new + q
                    expected = before.multipliers[j][last].scale(b + 1)
                    for i in range(last):
                        expected = expected + before.multipliers[j][i]
                    assert total_new == expected.embedded(big)

    def test_random_chains(self):
        rng = make_rng(64)
        for _ in range(20):
            length = rng.randrange(2, 5)
            t = [rng.randrange(1, 4) for _ in range(length)]
            fd = brieskorn_chain(*t)
            assert fd.ctx.nvars == length
            assert len(fd.factors) == length - 1
            assert fd.certificate.divisor == fd.product
            # seed weight propagates through every extension
            assert fd.weight is not None and len(fd.weight) == length


# ---------------------------------------------------------------------------
# substitution into coordinate-product divisors
# ---------------------------------------------------------------------------


def _sum_frame_2():
    hctx = Context(("y1", "y2"))
    y1, y2 = hctx.gens()
    return frame_divisor(
        [y1, y2, y1 + y2],
        PolyMatrix(hctx, [[y1, y1 * y1], [y2, -(y2 * y2)]]),
    )


class TestCompose:
    def test_normal_crossing_into_sum(self):
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        fd = frame_divisor([x, y], mat(ctx, [["x", "0"], ["0", "y"]]))
        out = compose(fd, _sum_frame_2())
        assert tuple(out.factors) == (x, y, x + y)
        assert out.product == x * y * (x + y)
        assert out.certificate.det_scalar == -1

    def test_euler_columns_rescaled(self):
        # a strict frame whose diagonal quotients are 2 and 1 works the same
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        fd = frame_divisor([x, y], mat(ctx, [["2*x", "0"], ["0", "y"]]))
        assert column_roles(fd) == ["euler:0", "euler:1"]
        assert fd.multipliers[0][0] == parse_poly("2", ctx)
        out = compose(fd, _sum_frame_2())
        assert out.product == x * y * (x + y)
        assert tuple(out.factors) == (x, y, x + y)

    def test_requires_frame(self):
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        with pytest.raises(PreconditionError, match="strict frame"):
            compose_factors((x, y), _sum_frame_2(), frame=None)

    def test_rejects_factor_mismatch(self):
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        fd = frame_divisor([x, y], mat(ctx, [["x", "0"], ["0", "y"]]))
        with pytest.raises(PreconditionError, match="factor list"):
            compose_factors((y, x), _sum_frame_2(), frame=fd)

    def test_rejects_non_strict_frame(self):
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        fd = frame_divisor([x, y], mat(ctx, [["x", "x"], ["0", "y"]]))
        assert "mixed" in column_roles(fd)
        with pytest.raises(FramingError):
            compose_factors((x, y), _sum_frame_2(), frame=fd)

    def test_rejects_outer_without_coordinate_product(self):
        hctx = Context(("y1", "y2"))
        y1, y2 = hctx.gens()
        outer = frame_divisor(
            [y1, y1 + y2],
            PolyMatrix(hctx, [[y1, -y1], [y2, (y1 + y1) + y2]]),
        )
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        fd = frame_divisor([x, y], mat(ctx, [["x", "0"], ["0", "y"]]))
        with pytest.raises(PreconditionError, match="product of its variables"):
            compose_factors((x, y), outer, frame=fd)

    def test_rejects_constant_substituent(self):
        ctx = Context(("x", "y"))
        x = ctx.var("x")
        with pytest.raises(PreconditionError):
            compose_factors((x, parse_poly("1", ctx)), _sum_frame_2())

    def test_non_reduced_substitution_detected_without_frame(self):
        # f1 = x, f2 = x*(x + y): the substituted product is divisible by x^2.
        ctx = Context(("x", "y"))
        x, y = ctx.gens()
        with pytest.raises((CommonFactorError, VerificationError)):
            compose_factors((x, x * (x + y)), _sum_frame_2(), frame=None)

    def test_substitution_to_zero_reports_the_shared_factor(self):
        # f1 + f2 = 0, so the substituted divisor is zero
        ctx = Context(("x", "y"))
        x = ctx.var("x")
        with pytest.raises(CommonFactorError) as exc:
            compose_factors((x, -x), _sum_frame_2(), frame=None)
        assert exc.value.witness == x
        assert exc.value.substituted.is_zero()
        assert str(exc.value) == (
            "substituent 0 shares the factor x with the substituted cofactor; "
            "the substituted divisor is not reduced"
        )

    def test_iterated_plane_curves_share_a_factor(self):
        # f1, f2, f3 as unit multiples of x^2 - y^3, y^2 - x^3, f1^3 + f2^2:
        # substitution into y1*y2*y3*(y1^3 + y2^2) repeats the factor
        # f1^3 + f2^2, and the reported witness is exactly that polynomial.
        ctx = Context(("x", "y", "u", "v", "w"))
        x, y, u, v, w = ctx.gens()
        one = parse_poly("1", ctx)
        f1 = (one + u) * (x ** 2 - y ** 3)
        f2 = (one + v) * (y ** 2 - x ** 3)
        f3 = (one + w) * (f1 ** 3 + f2 ** 2)
        hctx = Context(("y1", "y2", "y3"))
        h = parse_poly("y1^4*y2*y3 + y1*y2^3*y3", hctx)
        hverdict = is_free_binomial(h)
        assert hverdict.is_free
        y1, y2, y3 = hctx.gens()
        outer = frame_divisor(
            [y1, y2, y3, y1 ** 3 + y2 ** 2], hverdict.certificate.matrix
        )
        with pytest.raises(CommonFactorError) as exc:
            compose_factors((f1, f2, f3), outer, frame=None)
        err = exc.value
        assert err.witness == f1 ** 3 + f2 ** 2
        assert err.substituted == f1 * f2 * f3 * (f1 ** 3 + f2 ** 2)
        assert err.substituted.num_terms() == 1272


class TestSumCompose:
    def test_two_lines(self):
        ctx_x = Context(("x",))
        ctx_y = Context(("y",))
        fd_f = frame_divisor([ctx_x.var("x")], mat(ctx_x, [["x"]]), weight=(1,))
        fd_g = frame_divisor([ctx_y.var("y")], mat(ctx_y, [["y"]]), weight=(1,))
        out = sum_compose(fd_f, fd_g)
        ctx = out.ctx
        assert ctx.names == ("x", "y")
        x, y = ctx.gens()
        assert out.product == x * y * (x + y)
        assert tuple(out.factors) == (x, y, x + y)

    def test_two_normal_crossings(self):
        cx = Context(("x1", "x2"))
        cy = Context(("y1", "y2"))
        fd_f = frame_divisor(
            [cx.var("x1") * cx.var("x2")],
            mat(cx, [["x1", "0"], ["0", "x2"]]),
            weight=(1, 1),
        )
        fd_g = frame_divisor(
            [cy.var("y1") * cy.var("y2")],
            mat(cy, [["y1", "0"], ["0", "y2"]]),
            weight=(1, 1),
        )
        out = sum_compose(fd_f, fd_g)
        assert poly_to_str(out.product) == "x1^2*x2^2*y1*y2 + x1*x2*y1^2*y2^2"

    def test_sphere_and_crossing(self):
        fd_f = brieskorn_seed(2, 2, ("x1", "x2"))
        cy = Context(("y1", "y2"))
        fd_g = frame_divisor(
            [cy.var("y1") * cy.var("y2")],
            mat(cy, [["y1", "0"], ["0", "y2"]]),
            weight=(1, 1),
        )
        out = sum_compose(fd_f, fd_g)
        ctx = out.ctx
        s = parse_poly("x1^2 + x2^2", ctx)
        t = parse_poly("y1*y2", ctx)
        assert out.product == s * t * (s + t)
        assert tuple(out.factors) == (s, t, s + t)

    def test_rejects_shared_names(self):
        cx = Context(("x", "y"))
        cy = Context(("y",))
        fd_f = frame_divisor(
            [cx.var("x")], mat(cx, [["x", "0"], ["0", "1"]]), weight=(1, 1)
        )
        fd_g = frame_divisor([cy.var("y")], mat(cy, [["y"]]), weight=(1,))
        with pytest.raises(PreconditionError):
            sum_compose(fd_f, fd_g)

    def test_rejects_missing_weight(self):
        cx = Context(("x",))
        cy = Context(("y",))
        fd_f = frame_divisor([cx.var("x")], mat(cx, [["x"]]))
        fd_g = frame_divisor([cy.var("y")], mat(cy, [["y"]]), weight=(1,))
        with pytest.raises(PreconditionError):
            sum_compose(fd_f, fd_g)


# ---------------------------------------------------------------------------
# jet extensions
# ---------------------------------------------------------------------------


def _hb_for(f: Poly, w, matrix: PolyMatrix) -> HilbertBurch:
    return hilbert_burch_from_framed(euler_frame(f, w, matrix))


def _nc_hb(f: Poly, w) -> HilbertBurch:
    matrix = normal_crossing_matrix(f)
    assert matrix is not None
    return _hb_for(f, w, matrix)


class TestJets:
    def test_tangent_of_triple_crossing(self):
        ctx = Context(("x1", "x2", "x3"))
        f = parse_poly("x1*x2*x3", ctx)
        cert = tangent_extend(f, _nc_hb(f, (1, 1, 1)), (1, 1, 1))
        big = cert.divisor.ctx
        assert big.names == ("x1", "x2", "x3", "y1", "y2", "y3")
        expected = f.embedded(big) * parse_poly(
            "x2*x3*y1 + x1*x3*y2 + x1*x2*y3", big
        )
        assert cert.divisor == expected
        assert cert.matrix.nrows == 6
        for i in range(6):
            for j in range(6):
                e = cert.matrix.entry(i, j)
                assert e.is_zero() or e.total_degree() <= 1
        assert cert.log_quotients == (0, 0, 6, 0, 0, 1)

    def test_tangent_of_a_line(self):
        ctx = Context(("x",))
        f = ctx.var("x")
        cert = tangent_extend(f, _nc_hb(f, (1,)), (1,))
        big = cert.divisor.ctx
        assert big.names == ("x", "y")
        assert cert.divisor == parse_poly("x*y", big)

    def test_tangent_of_euler3_output(self):
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^2*y - y^2*z", ctx)
        verdict = euler3_divisor(f, (1, -2, 4))
        cert = tangent_extend(f, verdict.hilbert_burch, (1, 1, 1))
        assert cert.matrix.nrows == 6
        # d = 3, so the full diagonal column has quotient (m + 1) d = 6
        assert cert.log_quotients[2] == 6

    def test_rejects_zero_weighted_degree(self):
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^2*y - y^2*z", ctx)
        verdict = euler3_divisor(f, (1, -2, 4))
        with pytest.raises(PreconditionError, match="nonzero"):
            tangent_extend(f, verdict.hilbert_burch, (1, -2, 4))

    def test_multi_jet_line_chain(self):
        ctx = Context(("x0",))
        f = ctx.var("x0")
        hb = _nc_hb(f, (1,))
        for m in range(1, 5):
            cert = multi_jet_extend(f, hb, (1,), m)
            big = cert.divisor.ctx
            assert big.names == tuple(f"x{j}" for j in range(m + 1))
            expected = parse_poly("*".join(f"x{j}" for j in range(m + 1)), big)
            assert cert.divisor == expected
            assert cert.matrix.nrows == m + 1

    def test_multi_jet_two_levels(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        cert = multi_jet_extend(f, _nc_hb(f, (1, 1)), (1, 1), 2)
        big = cert.divisor.ctx
        assert big.names == ("x1", "x2", "y1", "y2", "z1", "z2")
        expected = (
            parse_poly("x1*x2", big)
            * parse_poly("x2*y1 + x1*y2", big)
            * parse_poly("x2*z1 + x1*z2", big)
        )
        assert cert.divisor == expected
        assert cert.matrix.nrows == 6
        assert cert.log_quotients == (0, 6, 0, 1, 0, 1)

    def test_single_level_matches_tangent(self):
        ctx = Context(("x1", "x2", "x3"))
        f = parse_poly("x1*x2*x3", ctx)
        hb = _nc_hb(f, (1, 1, 1))
        a = tangent_extend(f, hb, (1, 1, 1))
        b = multi_jet_extend(f, hb, (1, 1, 1), 1)
        assert a.divisor == b.divisor
        assert a.matrix == b.matrix
        assert a.det_scalar == b.det_scalar
        assert a.log_quotients == b.log_quotients

    def test_explicit_fresh_names(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        cert = multi_jet_extend(f, _nc_hb(f, (1, 1)), (1, 1), 1, [["a1", "a2"]])
        big = cert.divisor.ctx
        assert big.names == ("x1", "x2", "a1", "a2")
        assert cert.divisor == parse_poly("x1*x2", big) * parse_poly(
            "x2*a1 + x1*a2", big
        )

    def test_rejects_bad_fresh_shape(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        hb = _nc_hb(f, (1, 1))
        with pytest.raises(PreconditionError):
            multi_jet_extend(f, hb, (1, 1), 2, [["a1", "a2"]])
        with pytest.raises(PreconditionError):
            multi_jet_extend(f, hb, (1, 1), 1, [["a1"]])

    def test_rejects_colliding_fresh_names(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        hb = _nc_hb(f, (1, 1))
        with pytest.raises(PolyError):
            multi_jet_extend(f, hb, (1, 1), 1, [["x1", "a2"]])

    def test_rejects_tampered_hilbert_burch(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        hb = _nc_hb(f, (1, 1))
        bad = HilbertBurch(f, hb.matrix.scale_column(0, 2), hb.scalar)
        with pytest.raises(PreconditionError, match="re-validation"):
            multi_jet_extend(f, bad, (1, 1), 1)

    def test_rejects_wrong_divisor(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        hb = _nc_hb(f, (1, 1))
        with pytest.raises(PreconditionError):
            multi_jet_extend(parse_poly("x1", ctx), hb, (1, 1), 1)

    def test_rejects_zero_levels(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        hb = _nc_hb(f, (1, 1))
        with pytest.raises(PreconditionError):
            multi_jet_extend(f, hb, (1, 1), 0)

    def test_rejects_bool_levels(self):
        ctx = Context(("x1", "x2"))
        f = parse_poly("x1*x2", ctx)
        hb = _nc_hb(f, (1, 1))
        with pytest.raises(PreconditionError, match="m must be a positive integer, got True"):
            multi_jet_extend(f, hb, (1, 1), True)

    def test_linearity_preserved_on_random_crossings(self):
        # tangent extensions of linear free divisors stay linear
        rng = make_rng(65)
        for _ in range(10):
            n = rng.randrange(1, 4)
            ctx = Context(tuple(f"x{i + 1}" for i in range(n)))
            coef = rng.choice([1, 2, Fraction(1, 3)])
            f = parse_poly("*".join(ctx.names), ctx).scale(coef)
            cert = tangent_extend(f, _nc_hb(f, (1,) * n), (1,) * n)
            for i in range(cert.matrix.nrows):
                for j in range(cert.matrix.ncols):
                    e = cert.matrix.entry(i, j)
                    assert e.is_zero() or e.total_degree() <= 1


class TestIterate:
    def test_three_steps_from_a_line(self):
        ctx = Context(("x",))
        seq = iterate_tangent(ctx.var("x"), (1,), 3)
        assert len(seq) == 4
        assert [c.divisor.ctx.nvars for c in seq] == [1, 2, 4, 8]
        assert seq[1].divisor.ctx.names == ("x", "y")
        assert poly_to_str(seq[1].divisor) == "x*y"
        assert seq[2].divisor.ctx.names == ("x", "y", "z1", "z2")
        assert poly_to_str(seq[2].divisor) == "x*y^2*z1 + x^2*y*z2"
        assert seq[3].divisor.ctx.names == (
            "x", "y", "z1", "z2", "u1", "u2", "u3", "u4"
        )
        # the step-3 divisor, after the variable swaps z1 <-> z2 and
        # u3 <-> u4, equals this reference product:
        display_ctx = Context(("x", "y", "z1", "z2", "u1", "u2", "u3", "u4"))
        reference = parse_poly("x*y", display_ctx) * parse_poly(
            "x*z1 + y*z2", display_ctx
        ) * parse_poly(
            "2*x*y*z1*u1 + y^2*z2*u1 + x^2*z1*u2 + 2*x*y*z2*u2"
            " + x^2*y*u3 + x*y^2*u4",
            display_ctx,
        )
        renamed = seq[3].divisor.renamed(
            {"z1": "z2", "z2": "z1", "u3": "u4", "u4": "u3"}
        ).reordered(display_ctx.names)
        assert renamed == reference

    def test_factor_tracking_via_division(self):
        ctx = Context(("x",))
        seq = iterate_tangent(ctx.var("x"), (1,), 3)
        for prev, cur in zip(seq, seq[1:]):
            big = cur.divisor.ctx
            jet = divide_exact(cur.divisor, prev.divisor.embedded(big))
            assert jet is not None and not jet.is_constant()

    def test_one_step_from_a_crossing(self):
        ctx = Context(("x1", "x2"))
        seq = iterate_tangent(parse_poly("x1*x2", ctx), (1, 1), 1)
        f1 = seq[1].divisor
        assert f1.ctx.nvars == 4
        assert f1.total_degree() == 4
        assert f1 == parse_poly("x1*x2", f1.ctx) * parse_poly(
            "x2*y1 + x1*y2", f1.ctx
        )

    def test_scaled_single_variable_seed(self):
        # f0 = 2x has an empty Hilbert-Burch matrix whose only minor is the
        # empty determinant 1; the honest scalar 1/2 must flow through.
        ctx = Context(("x",))
        f = ctx.var("x").scale(2)
        hb = _nc_hb(f, (1,))
        assert hb.matrix.ncols == 0
        assert hb.scalar == Fraction(1, 2)
        seq = iterate_tangent(f, (1,), 1)
        big = seq[1].divisor.ctx
        assert seq[1].divisor == parse_poly("4*x*y", big)

    def test_zero_steps(self):
        ctx = Context(("x",))
        seq = iterate_tangent(ctx.var("x"), (1,), 0)
        assert len(seq) == 1
        assert seq[0].divisor == ctx.var("x")

    def test_rejects_bool_steps(self):
        ctx = Context(("x",))
        with pytest.raises(PreconditionError, match="non-negative integer, got True"):
            iterate_tangent(ctx.var("x"), (1,), True)

    def test_requires_matrix_for_non_monomial(self):
        ctx = Context(("x", "y"))
        with pytest.raises(PreconditionError, match="matrix"):
            iterate_tangent(parse_poly("x + y", ctx), (1, 1), 1)

    def test_explicit_matrix_seed(self):
        ctx = Context(("x", "y"))
        f = parse_poly("x + y", ctx)
        matrix = mat(ctx, [["x + y", "1"], ["0", "-1"]])
        seq = iterate_tangent(f, (1, 1), 1, matrix=matrix)
        big = seq[1].divisor.ctx
        assert big.names == ("x", "y", "z1", "z2")
        assert seq[1].divisor == parse_poly("x + y", big) * parse_poly(
            "z1 + z2", big
        )

    def test_three_steps_to_sixteen_variables(self, bareiss_oracle, hilbert_burch_oracle):
        ctx = Context(("x1", "x2"))
        seq = iterate_tangent(parse_poly("x1*x2", ctx), (1, 1), 3)
        assert seq[3].divisor.ctx.nvars == 16
        assert seq[3].det_scalar == 8
        assert max(bareiss_oracle) == 16
        assert hilbert_burch_oracle == [2, 4, 8]


class TestNormalCrossing:
    def test_scaled_monomial(self):
        ctx = Context(("x1", "x2", "x3", "x4"))
        m = normal_crossing_matrix(parse_poly("3*x1*x3", ctx))
        expected = mat(ctx, [
            ["x1", "0", "0", "0"],
            ["0", "1", "0", "0"],
            ["0", "0", "x3", "0"],
            ["0", "0", "0", "1"],
        ])
        assert m == expected
        verify_saito(parse_poly("3*x1*x3", ctx), m)

    def test_rejects_sums(self):
        ctx = Context(("x", "y"))
        assert normal_crossing_matrix(parse_poly("x + y", ctx)) is None

    def test_rejects_powers(self):
        ctx = Context(("x",))
        assert normal_crossing_matrix(parse_poly("x^2", ctx)) is None
