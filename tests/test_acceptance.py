"""Acceptance gate: one test per shipped guarantee, all with exact arithmetic.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the explicit summary lines).  Everything here is
exact rational arithmetic: there are no numeric tolerances anywhere.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

import helpers
from freediv.cli import _load_corpus, _run_entry
from freediv.families import (
    BinomialSpec,
    CommonFactorError,
    TriangularStep,
    binomial_divisor,
    brieskorn_chain,
    brieskorn_seed,
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
from freediv.matrices import PolyMatrix
from freediv.obstruction import (
    exponent_independence,
    monomial_graded_membership,
    scalar_membership_obstruction,
    smooth_times_nc_verdict,
)
from freediv.poly import (
    Context,
    divide_exact,
    parse_poly,
    poly_to_str,
    squarefree_gcd,
)
from freediv.saito import (
    euler_frame,
    frame_divisor,
    free_multiple_via_xifi,
    hilbert_burch_from_framed,
    verify_saito,
)


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {desc}")
        raise
    print(f"criterion {num:2d}: PASS  {desc}")


def mat(ctx: Context, rows) -> PolyMatrix:
    return PolyMatrix(ctx, [[parse_poly(e, ctx) for e in row] for row in rows])


def test_criterion_01_normal_crossing_all_sizes():
    with criterion(1, "diagonal certificate for x1*...*xn, n = 1..8, each < 1s"):
        for n in range(1, 9):
            ctx = Context(tuple(f"x{i+1}" for i in range(n)))
            f = ctx.const(1)
            for g in ctx.gens():
                f = f * g
            rows = [
                [ctx.var(ctx.names[i]) if i == j else ctx.zero() for j in range(n)]
                for i in range(n)
            ]
            start = time.monotonic()
            cert = verify_saito(f, PolyMatrix(ctx, rows))
            elapsed = time.monotonic() - start
            assert cert.det_scalar == 1
            assert elapsed < 1.0, f"n={n} took {elapsed:.3f}s"


def test_criterion_02_binomial_grid():
    with criterion(2, "binomial grid: >= 500 squarefree instances, exact det scalar"):
        pairs = [(i, j) for i in range(4) for j in range(4) if min(i, j) == 0]
        verified = 0
        for n in (0, 1, 2, 3):
            combos = itertools.product(
                itertools.product(pairs, repeat=n),
                range(1, 4),
                range(1, 4),
                (0, 1),
                (0, 1),
            )
            for idx, (ab, alpha, beta, u, t) in enumerate(combos):
                if n == 3 and idx % 61 != 0:
                    continue
                a = tuple(p[0] for p in ab)
                b = tuple(p[1] for p in ab)
                spec = BinomialSpec(n=n, a=a, b=b, alpha=alpha, beta=beta, u=u, t=t)
                cert = binomial_divisor(spec)
                if not squarefree_gcd(cert.divisor).is_constant():
                    continue
                assert cert.det_scalar == Fraction(
                    beta * alpha + u * beta + t * alpha
                ), f"det scalar off for {spec}"
                verified += 1
        assert verified >= 500, f"only {verified} squarefree instances verified"


def test_criterion_03_hilbert_burch_minors_equal_gradient():
    with criterion(3, "x^2*y - y^2*z with field (1,-2,4): minors reproduce the gradient"):
        ctx = Context(("x", "y", "z"))
        f = parse_poly("x^2*y - y^2*z", ctx)
        verdict = euler3_divisor(f, (1, -2, 4))
        assert verdict.is_free and verdict.hilbert_burch is not None
        minors = helpers.signed_maximal_minors(verdict.hilbert_burch.matrix)
        expected = (
            parse_poly("2*x*y", ctx),
            parse_poly("x^2 - 2*y*z", ctx),
            parse_poly("-y^2", ctx),
        )
        assert tuple(minors) == expected
        assert expected == tuple(f.derivative(i) for i in range(3))


def test_criterion_04_figure_divisors():
    with criterion(4, "four displayed divisors certified; axis-free cones refuted"):
        # three cones and two cones through the axes y = z = 0
        left = cone_family(3, (0, 1, 1), 2, 1, 1, (5, Fraction(1, 2), -1))
        assert left.is_free and left.certificate is not None
        assert poly_to_str(left.certificate.divisor) == (
            "x^6*y*z - 9/2*x^4*y^2*z^2 - 3*x^2*y^3*z^3 + 5/2*y^4*z^4"
        )
        right = cone_family(2, (0, 1, 1), 2, 2, 1, (Fraction(1, 2), -5))
        assert right.is_free and right.certificate is not None

        # split quadric times its cubic translate
        ctx = Context(("x", "y"))
        seed = frame_divisor(
            [parse_poly("x^2 - y^2", ctx)], mat(ctx, [["x", "y"], ["y", "x"]])
        )
        sphere_cubic = triangular_extend(seed, TriangularStep(3, 1, 1, 1, "z"))
        ctx3 = sphere_cubic.ctx
        assert sphere_cubic.product == parse_poly(
            "(x^2 - y^2)*(x^2 - y^2 + z^3)", ctx3
        )
        verify_saito(sphere_cubic.product, sphere_cubic.matrix)

        # cusp times its quintic translate
        cusp = triangular_extend(
            brieskorn_seed(2, 3, names=("x", "y")), TriangularStep(5, 1, -1, 1, "z")
        )
        assert cusp.product == parse_poly(
            "(x^2 + y^3)*(x^2 + y^3 - z^5)", cusp.ctx
        )
        verify_saito(cusp.product, cusp.matrix)

        # with no coordinate-plane factors the same cones are not free
        for gammas in ((0, 0, 0), (1, 0, 0)):
            refuted = cone_family(2, gammas, 2, 1, 1, (1, 2))
            assert refuted.status == "not_free", gammas


def test_criterion_05_nested_spheres_chain():
    with criterion(5, "chain (2,2,2,2,2) reproduces the displayed 5x5 matrix"):
        fd = brieskorn_chain(2, 2, 2, 2, 2)
        ctx = fd.ctx
        s3 = "x1^2 + x2^2 + x3^2"
        s4 = s3 + " + x4^2"
        s5 = s4 + " + x5^2"
        displayed = mat(
            ctx,
            [
                ["x1", "-x2", "0", "0", "0"],
                ["x2", "x1", "0", "0", "0"],
                ["x3", "0", s3, "0", "0"],
                ["x4", "0", "x3*x4", s4, "0"],
                ["x5", "0", "x3*x5", "x4*x5", s5],
            ],
        )
        assert fd.matrix == displayed
        cert = verify_saito(fd.product, fd.matrix)
        assert cert.det_scalar == 1


def test_criterion_06_sum_and_substitution():
    with criterion(6, "three sum compositions certified; shared-factor substitution refused"):
        def crossing(names):
            ctx = Context(names)
            f = ctx.const(1)
            for g in ctx.gens():
                f = f * g
            return frame_divisor(
                [f], normal_crossing_matrix(f), weight=(1,) * ctx.nvars
            )

        # two lines
        out = sum_compose(crossing(("x",)), crossing(("y",)))
        assert poly_to_str(out.product) == "x^2*y + x*y^2"
        verify_saito(out.product, out.matrix)

        # two plane crossings
        out = sum_compose(crossing(("x1", "x2")), crossing(("y1", "y2")))
        assert poly_to_str(out.product) == "x1^2*x2^2*y1*y2 + x1*x2*y1^2*y2^2"
        verify_saito(out.product, out.matrix)

        # sphere plus crossing
        sph = brieskorn_seed(2, 2, names=("x1", "x2"))
        out = sum_compose(
            frame_divisor([sph.product], sph.matrix, weight=(1, 1)),
            crossing(("y1", "y2")),
        )
        assert poly_to_str(out.product) == (
            "x1^4*y1*y2 + 2*x1^2*x2^2*y1*y2 + x2^4*y1*y2"
            " + x1^2*y1^2*y2^2 + x2^2*y1^2*y2^2"
        )
        verify_saito(out.product, out.matrix)

        # three plane-curve units substituted into y1*y2*y3*(y1^3 + y2^2):
        # the third substituent repeats the cofactor, so composition must refuse
        ctx = Context(("x", "y", "u", "v", "w"))
        x, y, u, v, w = ctx.gens()
        one = ctx.const(1)
        f1 = (one + u) * (x**2 - y**3)
        f2 = (one + v) * (y**2 - x**3)
        f3 = (one + w) * (f1**3 + f2**2)
        hctx = Context(("y1", "y2", "y3"))
        hverdict = is_free_binomial(parse_poly("y1^4*y2*y3 + y1*y2^3*y3", hctx))
        assert hverdict.is_free
        y1, y2, y3 = hctx.gens()
        outer = frame_divisor(
            [y1, y2, y3, y1**3 + y2**2], hverdict.certificate.matrix
        )
        with pytest.raises(CommonFactorError) as exc:
            compose_factors((f1, f2, f3), outer, frame=None)
        assert exc.value.witness == f1**3 + f2**2
        assert exc.value.substituted == f1 * f2 * (one + w) * (f1**3 + f2**2) ** 2


def test_criterion_07_jet_extensions():
    with criterion(7, "tangent/jet extensions: linear certificates, doubling iteration"):
        # the triple crossing times its polar form, certified by a 6x6 matrix
        # with entries of degree <= 1
        ctx = Context(("x1", "x2", "x3"))
        f = parse_poly("x1*x2*x3", ctx)
        w = (1, 1, 1)
        hb = hilbert_burch_from_framed(euler_frame(f, w, normal_crossing_matrix(f)))
        cert = tangent_extend(f, hb, w)
        big = cert.divisor.ctx
        assert big.names == ("x1", "x2", "x3", "y1", "y2", "y3")
        assert cert.divisor == parse_poly(
            "x1*x2*x3 * (x2*x3*y1 + x1*x3*y2 + x1*x2*y3)", big
        )
        assert cert.matrix.nrows == 6 and cert.matrix.ncols == 6
        for i in range(6):
            for j in range(6):
                e = cert.matrix.entry(i, j)
                assert e.is_zero() or e.total_degree() <= 1

        # iterating from a single line doubles the variables and the degree at
        # each step, and each divisor exactly divides the next (one new factor
        # per step, so steps 0..3 carry 1, 2, 3, 4 factors)
        certs = iterate_tangent(parse_poly("x", Context(("x",))), (1,), 3)
        assert [c.divisor.ctx.nvars for c in certs] == [1, 2, 4, 8]
        prev = None
        for step, c in enumerate(certs):
            assert c.divisor.total_degree() == 2**step
            if prev is not None:
                quotient = divide_exact(c.divisor, prev.embedded(c.divisor.ctx))
                assert quotient is not None and not quotient.is_constant()
            prev = c.divisor

        # multi-jet chain from one variable: f * f' * ... * f^(m) = x0*...*xm
        ctx0 = Context(("x0",))
        f0 = parse_poly("x0", ctx0)
        hb0 = hilbert_burch_from_framed(
            euler_frame(f0, (1,), normal_crossing_matrix(f0))
        )
        for m in range(1, 5):
            cj = multi_jet_extend(f0, hb0, (1,), m)
            names = tuple(f"x{i}" for i in range(m + 1))
            assert cj.divisor.ctx.names == names
            chain = Context(names)
            expected = chain.const(1)
            for g in chain.gens():
                expected = expected * g
            assert cj.divisor == expected

        # m = 1 agrees with the tangent map bit for bit
        cj1 = multi_jet_extend(f, hb, w, 1)
        assert cj1.divisor == cert.divisor
        assert cj1.matrix == cert.matrix
        assert cj1.det_scalar == cert.det_scalar


def test_criterion_08_obstructions_and_syzygies():
    with criterion(8, "diagonal cubic refuted; symmetric forms certified via syzygies"):
        ctx = Context(("x", "y", "z"))
        fermat = parse_poly("x^3 + y^3 + z^3", ctx)
        membership = scalar_membership_obstruction(fermat)
        assert membership.member is False
        independence = exponent_independence(fermat)
        assert independence.independent and independence.det_value == Fraction(27)
        report = smooth_times_nc_verdict(fermat, list(ctx.gens()), smooth_asserted=True)
        assert report.conclusion == "NotFree"

        e2 = parse_poly("x*y + x*z + y*z", ctx)
        cert3 = free_multiple_via_xifi(e2)
        assert poly_to_str(cert3.divisor) == "x^2*y^2*z + x^2*y*z^2 + x*y^2*z^2"

        ctx4 = Context(("x1", "x2", "x3", "x4"))
        e3 = parse_poly(
            "x1*x2*x3 + x1*x2*x4 + x1*x3*x4 + x2*x3*x4", ctx4
        )
        cert4 = free_multiple_via_xifi(e3)
        assert cert4.divisor == e3 * parse_poly("x1*x2*x3*x4", ctx4)

        quartic = parse_poly("x1^2*x2 + x2^3 + x3^2*x4 + x4^3", ctx4)
        assert monomial_graded_membership(("x1", "x2", "x3", "x4"), quartic) is False
        report4 = smooth_times_nc_verdict(
            quartic, list(ctx4.gens()), smooth_asserted=True
        )
        assert report4.conclusion == "NotFree"


def test_criterion_09_property_suites_sized():
    with criterion(9, "randomized property suites run >= 1000 cases each"):
        # the ring-axiom, exact-division, gcd, star-derivation, Euler-identity,
        # degree-shift, determinant-agreement, and contraction suites in
        # test_poly / test_matrices / test_linalg all draw helpers.CASES cases
        assert helpers.CASES >= 1000
        import test_linalg
        import test_matrices
        import test_poly  # noqa: F401  (imported to prove the suites exist)


def test_criterion_10_corpus_cross_consistency():
    with criterion(10, "no divisor is both certified and refuted across the corpus"):
        entries = _load_corpus(None)
        results = [_run_entry(e) for e in entries]
        bad = [r["id"] for r in results if not r["ok"]]
        assert not bad, f"corpus expectations failed: {bad}"
        certified: set[str] = set()
        refuted: set[str] = set()
        for r in results:
            certified.update(r["certified"])
            refuted.update(r["refuted"])
        assert certified, "the corpus certified nothing"
        assert refuted, "the corpus refuted nothing"
        assert not (certified & refuted)
