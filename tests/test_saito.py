"""Certification core: Saito verification, framed divisors, Euler frames,
Hilbert-Burch extraction, and free multiples from scaled-Jacobian syzygies."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

import freediv.families
import freediv.poly
import freediv.saito
from freediv.cli import _matrix_entries, _parse_matrix
from freediv.families import (
    brieskorn_chain,
    brieskorn_seed,
    iterate_tangent,
    multi_jet_extend,
    sum_compose,
)
from freediv.linalg import bounded_syzygy_solve
from freediv.matrices import InternalCheckError, PolyMatrix, block_diagonal
from freediv.poly import (
    Context,
    NotHomogeneousError,
    divide_exact,
    parse_poly,
    poly_product,
    poly_to_str,
    sample_ints,
)
from freediv.saito import (
    FramingError,
    HilbertBurch,
    PreconditionError,
    VerificationError,
    certificate_to_json,
    column_roles,
    euler_frame,
    frame_divisor,
    free_multiple_via_xifi,
    hilbert_burch_from_framed,
    saito_from_xifi,
    verify_saito,
    xifi_generators,
)

import helpers
from helpers import make_rng, signed_maximal_minors

XYZ = Context(["x", "y", "z"])
F = Fraction


def P(s, ctx=XYZ):
    return parse_poly(s, ctx)


def M(rows, ctx=XYZ):
    return PolyMatrix(ctx, [[parse_poly(s, ctx) for s in r] for r in rows])


def normal_crossing(n):
    ctx = Context([f"x{i}" for i in range(1, n + 1)])
    f = ctx.const(1)
    for nm in ctx.names:
        f = f * ctx.var(nm)
    return ctx, f


# ---------------------------------------------------------------------------
# verify_saito
# ---------------------------------------------------------------------------


def test_normal_crossing_diagonal_all_sizes():
    for n in range(1, 9):
        ctx, f = normal_crossing(n)
        mat = PolyMatrix.diagonal([ctx.var(nm) for nm in ctx.names])
        cert = verify_saito(f, mat)
        assert cert.det_scalar == 1
        assert all(q == ctx.const(1) for q in cert.log_quotients)
        assert cert.squarefree_witness.is_constant()


def test_det_scalar_recorded():
    f = P("x*y", Context(["x", "y"]))
    mat = M([["2*x", "0"], ["0", "y"]], f.ctx)
    cert = verify_saito(f, mat)
    assert cert.det_scalar == 2


def test_rejects_non_squarefree():
    with pytest.raises(VerificationError) as ei:
        verify_saito(P("x^2"), PolyMatrix.diagonal([P("x"), P("y"), P("z")]))
    assert ei.value.kind == "not_squarefree"
    assert not ei.value.witness.is_constant()


def test_rejects_det_mismatch():
    ctx = Context(["x", "y"])
    with pytest.raises(VerificationError) as ei:
        verify_saito(parse_poly("x*y", ctx), M([["x", "0"], ["0", "x"]], ctx))
    assert ei.value.kind == "det_mismatch"


def test_rejects_non_logarithmic_column_with_index():
    ctx = Context(["x", "y"])
    # det = xy and columns are not logarithmic: (grad xy) . (y,0) = y^2
    with pytest.raises(VerificationError) as ei:
        verify_saito(parse_poly("x*y", ctx), M([["y", "0"], ["0", "x"]], ctx))
    assert ei.value.kind == "not_logarithmic"
    assert ei.value.column == 0


def test_rejects_shape_and_context():
    with pytest.raises(PreconditionError):
        verify_saito(P("x"), M([["x", "0"], ["0", "y"]]))
    with pytest.raises(PreconditionError):
        verify_saito(P("x*y"), PolyMatrix.diagonal([parse_poly("x", Context(["x"]))]))
    with pytest.raises(PreconditionError):
        verify_saito(XYZ.const(3), PolyMatrix.identity(XYZ, 3))


def test_reducible_derived_example():
    # f = y*(x^2 - y*z): columns = quotient-one field, two annihilators
    f = P("x^2*y - y^2*z")
    mat = M([["0", "x", "y"], ["y", "-2*y", "0"], ["-z", "4*z", "2*x"]])
    cert = verify_saito(f, mat)
    assert cert.det_scalar == -2
    assert [str(q) for q in cert.log_quotients] == ["1", "0", "0"]


def test_certificate_json_shape():
    ctx, f = normal_crossing(2)
    cert = verify_saito(f, PolyMatrix.diagonal([ctx.var(n) for n in ctx.names]))
    obj = certificate_to_json(cert)
    assert obj["status"] == "verified"
    assert obj["f"] == "x1*x2"
    assert obj["det_scalar"] == "1"
    assert obj["matrix"]["entries"] == [["x1", "0"], ["0", "x2"]]
    assert _parse_matrix(_matrix_entries(obj["matrix"]), ctx) == cert.matrix


def test_random_normal_crossing_products():
    rng = make_rng(40)
    for _ in range(200):
        n = rng.randint(1, 4)
        ctx, f = normal_crossing(n)
        mat = PolyMatrix.diagonal([ctx.var(nm).scale(rng.randint(1, 3)) for nm in ctx.names])
        cert = verify_saito(f, mat)
        assert cert.det_scalar != 0


# ---------------------------------------------------------------------------
# the determinant from Saito's lemma and its fallback
# ---------------------------------------------------------------------------


@pytest.fixture
def det_calls(monkeypatch):
    """Count polynomial determinants: the lemma path takes none."""
    calls = []
    det = PolyMatrix.det

    def counting(self):
        calls.append(self.nrows)
        return det(self)

    monkeypatch.setattr(PolyMatrix, "det", counting)
    return calls


def test_lemma_reads_the_scalar_without_a_determinant(det_calls):
    f = P("x^2*y - y^2*z")
    mat = M([["0", "x", "y"], ["y", "-2*y", "0"], ["-z", "4*z", "2*x"]])
    cert = verify_saito(f, mat)
    assert det_calls == []
    assert cert.det_scalar == divide_exact(mat._det_bareiss(), f).constant_value()


def test_high_degree_unimodular_transform_falls_back_to_bareiss(det_calls):
    # A @ U with U unimodular: the same divisor and determinant, every column
    # still logarithmic, but the degree bound now exceeds deg f
    f = P("x^2*y - y^2*z")
    a = M([["0", "x", "y"], ["y", "-2*y", "0"], ["-z", "4*z", "2*x"]])
    u = M([["1", "x^3*z^2", "0"], ["0", "1", "y^4"], ["0", "0", "1"]])
    base = verify_saito(f, a)
    assert det_calls == []
    cert = verify_saito(f, a @ u)
    assert det_calls == [3]
    assert cert.det_scalar == base.det_scalar == -2


def test_zero_scalar_proves_the_determinant_error(det_calls):
    ctx = Context(["x", "y"])
    # both columns logarithmic and within the degree bound: det A(p) = 0
    # proves det A = 0, with no polynomial determinant
    with pytest.raises(VerificationError) as ei:
        verify_saito(parse_poly("x*y", ctx), M([["x", "x"], ["0", "0"]], ctx))
    assert ei.value.kind == "det_mismatch"
    assert str(ei.value) == "determinant 0 is not a nonzero rational multiple of the divisor"
    assert det_calls == []


def test_zero_determinant_over_the_degree_bound_expands_bareiss(det_calls):
    ctx = Context(["x", "y"])
    # both columns logarithmic, det A = 0, but the degree bound 3 exceeds deg f
    with pytest.raises(VerificationError) as ei:
        verify_saito(parse_poly("x*y", ctx), M([["x^3", "x^3"], ["0", "0"]], ctx))
    assert ei.value.kind == "det_mismatch"
    assert str(ei.value) == "determinant 0 is not a nonzero rational multiple of the divisor"
    assert det_calls == [2]


def test_divisor_vanishing_at_every_candidate_point_falls_back(det_calls):
    ctx = Context(["x"])
    roots = {sample_ints(1, freediv.saito._POINT_BOUND, salt)[0]
             for salt in range(freediv.saito._POINT_TRIES)}
    f = ctx.const(1)
    for r in sorted(roots):
        f = f * (ctx.var("x") - r)
    cert = verify_saito(f, PolyMatrix(ctx, [[f]]))
    assert det_calls == [1]
    assert cert.det_scalar == 1


def test_failing_determinant_and_column_reports_the_determinant(det_calls):
    ctx = Context(["x", "y"])
    # det = y is not a multiple of xy, and column 0 gives (grad xy) . (1, 0) = y
    with pytest.raises(VerificationError) as ei:
        verify_saito(parse_poly("x*y", ctx), M([["1", "0"], ["0", "y"]], ctx))
    assert ei.value.kind == "det_mismatch"
    assert str(ei.value) == "determinant y is not a nonzero rational multiple of the divisor"
    assert det_calls == [2]


def test_non_logarithmic_column_message_unchanged():
    ctx = Context(["x", "y"])
    with pytest.raises(VerificationError) as ei:
        verify_saito(parse_poly("x*y", ctx), M([["x", "y"], ["0", "y"]], ctx))
    assert ei.value.kind == "not_logarithmic"
    assert ei.value.column == 1
    assert str(ei.value) == (
        "column 1 applied to the divisor gives x*y + y^2, not a multiple of the divisor"
    )


def test_lemma_scalar_matches_bareiss_on_random_crossings():
    rng = make_rng(41)
    for _ in range(50):
        n = rng.randint(1, 4)
        ctx, f = normal_crossing(n)
        rows = [[ctx.var(nm).scale(rng.randint(1, 3)) if i == j else ctx.zero()
                 for j, nm in enumerate(ctx.names)] for i in range(n)]
        # constant column shears keep the columns logarithmic and the degree bound
        for j in range(1, n):
            c = rng.randint(-2, 2)
            for row in rows:
                row[j - 1] = row[j - 1] + row[j].scale(c)
        mat = PolyMatrix(ctx, rows)
        cert = verify_saito(f, mat)
        assert cert.det_scalar == divide_exact(mat._det_bareiss(), f).constant_value()


# ---------------------------------------------------------------------------
# framed divisors
# ---------------------------------------------------------------------------


def test_frame_divisor_multiplier_table():
    ctx = Context(["x", "y"])
    fd = frame_divisor([parse_poly("x", ctx), parse_poly("y", ctx)],
                       M([["x", "0"], ["0", "y"]], ctx))
    assert fd.product == parse_poly("x*y", ctx)
    assert [[str(q) for q in col] for col in fd.multipliers] == [["1", "0"], ["0", "1"]]
    assert column_roles(fd) == ["euler:0", "euler:1"]


def test_frame_divisor_mixed_role():
    ctx = Context(["x", "y"])
    fd = frame_divisor([parse_poly("x", ctx), parse_poly("y", ctx)],
                       M([["x", "x"], ["0", "y"]], ctx))
    assert column_roles(fd) == ["euler:0", "mixed"]


def test_frame_divisor_rejects_common_factor():
    ctx = Context(["x", "y"])
    with pytest.raises(VerificationError) as ei:
        frame_divisor([parse_poly("x", ctx), parse_poly("x + x^2", ctx)],
                      M([["x", "0"], ["0", "y"]], ctx))
    assert ei.value.kind == "not_squarefree"


def test_frame_divisor_reduced_product_runs_no_gcd(monkeypatch):
    calls = []
    gcd = freediv.poly.poly_gcd
    monkeypatch.setattr(freediv.poly, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
    ctx = Context(["x", "y"])
    fd = frame_divisor([parse_poly("x", ctx), parse_poly("y", ctx), parse_poly("x + y", ctx)],
                       M([["x", "x^2"], ["y", "-y^2"]], ctx))
    assert calls == []
    assert fd.certificate.squarefree_witness == ctx.const(1)


def test_frame_divisor_reports_the_first_offending_factor():
    ctx = Context(["x", "y"])
    mat = M([["x", "0"], ["0", "y"]], ctx)
    with pytest.raises(VerificationError) as ei:
        frame_divisor([parse_poly("x^2", ctx), parse_poly("y", ctx)], mat)
    assert ei.value.witness == parse_poly("x^2", ctx)
    with pytest.raises(VerificationError) as ei:
        frame_divisor([parse_poly("y", ctx), ctx.zero()], mat)
    assert str(ei.value) == "factor list is not squarefree/coprime; witness 0"
    with pytest.raises(VerificationError) as ei:
        frame_divisor([parse_poly("x*y", ctx), parse_poly("x + x*y", ctx)], mat)
    assert ei.value.witness == parse_poly("x", ctx)


def test_frame_divisor_weight_checked():
    ctx = Context(["x", "y"])
    factors = [parse_poly("x + y^2", ctx)]
    mat = M([["x + y^2", "-2*y"], ["0", "1"]], ctx)
    fd = frame_divisor(factors, mat, weight=[2, 1])
    assert fd.weight == (2, 1)
    with pytest.raises(NotHomogeneousError):
        frame_divisor(factors, mat, weight=[1, 1])


@pytest.fixture
def gradient_passes(monkeypatch):
    """The factor of every pass of a gradient against the columns of a matrix
    (the kernel poly._gradient_quotients, as saito calls it)."""
    seen = []
    kernel = freediv.saito._gradient_quotients

    def recording(g, columns):
        seen.append(g)
        return kernel(g, columns)

    monkeypatch.setattr(freediv.saito, "_gradient_quotients", recording)
    return seen


def test_single_factor_frame_reuses_the_certificate_quotients(gradient_passes):
    fd = brieskorn_seed(2, 3)
    assert gradient_passes == [fd.product]
    assert fd.multipliers == tuple((q,) for q in fd.certificate.log_quotients)


@pytest.fixture
def line_calls(monkeypatch):
    """Record the argument of every line certificate."""
    calls = []
    on_line = freediv.poly.squarefree_on_line

    def counting(f):
        calls.append(f)
        return on_line(f)

    for module in (freediv.poly, freediv.saito, freediv.families):
        monkeypatch.setattr(module, "squarefree_on_line", counting, raising=False)
    return calls


def test_brieskorn_seed_runs_no_line_certificate(line_calls):
    # the two-term product x1^2 + x2^3 is proved reduced by its support
    brieskorn_seed(2, 3)
    assert line_calls == []


def test_frame_runs_the_line_certificate_once(line_calls):
    # a five-term product without monomial content: one certificate, on it
    fd = brieskorn_chain(2, 3, 2)
    assert fd.product.num_terms() == 5
    assert line_calls == [fd.product]


# ---------------------------------------------------------------------------
# the factor-wise verification core
# ---------------------------------------------------------------------------


def _outcome(run):
    """("verified", certificate fields..., table) of a check that returns a
    certificate and its multiplier table, or ("error", kind, message, column,
    witness)."""
    try:
        cert, table = run()
    except VerificationError as e:
        return ("error", e.kind, str(e), e.column, e.witness)
    return ("verified", cert.divisor, cert.det_scalar, cert.log_quotients,
            [poly_to_str(q) for q in cert.log_quotients], cert.squarefree_witness, table)


def _framed(factors, matrix):
    fd = frame_divisor(factors, matrix)
    return fd.certificate, fd.multipliers


def _factor_table(factors, matrix):
    """table[j][i] = ((grad g_i) . A_j) / g_i by per-factor division."""
    per_factor = [[divide_exact(v, g) for v in matrix.left_apply(g.gradient())] for g in factors]
    return tuple(zip(*per_factor))


def _agrees_with_the_product(factors, matrix, got) -> bool:
    """got, the outcome of the core on the factors, is that of verify_saito on
    their product, with the per-factor quotients as its table."""
    product = poly_product(factors[0].ctx, factors)
    return got == _outcome(lambda: (verify_saito(product, matrix), _factor_table(factors, matrix)))


@pytest.fixture
def factored_checks(monkeypatch):
    """(factors, matrix, outcome) of every core check on two or more factors."""
    seen = []
    verify = freediv.saito._verify_factors

    def recording(factors, matrix):
        got = verify(factors, matrix)
        if len(factors) > 1:
            seen.append((tuple(factors), matrix, _outcome(lambda: got)))
        return got

    for module in (freediv.saito, freediv.families):
        monkeypatch.setattr(module, "_verify_factors", recording)
    return seen


def _factored_constructions(rng):
    """Chains, sum compositions, jets and x_i f_i multiples, with seeded
    exponents: the constructors that hand the core a factor list."""
    chain = [rng.randint(2, 4) for _ in range(rng.randint(3, 4))]
    yield lambda: brieskorn_chain(*chain)
    left, right = [rng.randint(2, 3) for _ in range(2)], [rng.randint(2, 3) for _ in range(2)]
    yield lambda: sum_compose(brieskorn_seed(*left), brieskorn_seed(*right, names=("y1", "y2")))
    seed = brieskorn_seed(*left)
    hb = hilbert_burch_from_framed(euler_frame(seed.product, seed.weight, seed.matrix))
    yield lambda: multi_jet_extend(seed.product, hb, seed.weight, rng.randint(1, 2))
    yield lambda: iterate_tangent(parse_poly("x1*x2", Context(("x1", "x2"))), (1, 1), 2)
    yield lambda: free_multiple_via_xifi(P("x*y + x*z + y*z"))


def test_core_agrees_with_the_product_check(factored_checks):
    rng = make_rng(42)
    for _ in range(2):
        for build in _factored_constructions(rng):
            before = len(factored_checks)
            build()
            assert len(factored_checks) > before
    for factors, matrix, got in factored_checks:
        assert got[0] == "verified"
        assert _agrees_with_the_product(factors, matrix, got)


@pytest.mark.parametrize("factors, rows, kind, message, column", [
    # column 0 is logarithmic for x, not for y; det = x*y
    (("x", "y"), [["x", "0"], ["x", "y"]], "not_logarithmic",
     "column 0 applied to the divisor gives x^2 + x*y, not a multiple of the divisor", 0),
    # the same column with det = x
    (("x", "y"), [["x", "0"], ["x", "1"]], "det_mismatch",
     "determinant x is not a nonzero rational multiple of the divisor", None),
    # column 0 fails for the last factor x + y only; det = x*y*(x + y)
    (("x", "y", "x + y"), [["x", "x^2"], ["2*y", "3*x*y + y^2"]], "not_logarithmic",
     "column 0 applied to the divisor gives 4*x^2*y + 5*x*y^2, not a multiple of the divisor", 0),
    # the same column with a determinant that is no multiple of the divisor
    (("x", "y", "x + y"), [["x", "x^2 + 1"], ["2*y", "3*x*y + y^2"]], "det_mismatch",
     "determinant x^2*y + x*y^2 - 2*y is not a nonzero rational multiple of the divisor", None),
])
def test_a_failed_factor_reports_the_product_error(factors, rows, kind, message, column):
    ctx = Context(["x", "y"])
    factors = [parse_poly(g, ctx) for g in factors]
    matrix = M(rows, ctx)
    got = _outcome(lambda: _framed(factors, matrix))
    assert got == ("error", kind, message, column, None)
    assert _agrees_with_the_product(factors, matrix, got)


def _unit_triangular(rng, ctx, n, upper):
    """A seeded n x n unit triangular matrix with entries 0, +-1 and +-x_i."""
    choices = [ctx.const(1), *ctx.gens()]

    def entry(i, j):
        if i == j:
            return ctx.const(1)
        if (i < j) != upper:
            return ctx.zero()
        return rng.choice(choices).scale(rng.randint(-1, 1))

    return PolyMatrix(ctx, [[entry(i, j) for j in range(n)] for i in range(n)])


def test_core_agrees_with_the_product_check_on_perturbed_frames():
    # V @ A @ U with V, U unit triangular has the determinant of A; U keeps the
    # columns logarithmic, V mostly breaks one, and a column times a variable
    # breaks the determinant
    rng = make_rng(43)
    xy = Context(["x", "y"])
    frames = [frame_divisor([P(g, xy) for g in ("x", "y", "x + y")],
                            M([["x", "x^2"], ["y", "-y^2"]], xy)),
              brieskorn_chain(2, 3, 2)]
    kinds = set()
    for fd in frames:
        ctx, n = fd.ctx, fd.matrix.nrows
        for _ in range(25):
            matrix = (_unit_triangular(rng, ctx, n, rng.random() < 0.5) @ fd.matrix
                      @ _unit_triangular(rng, ctx, n, True))
            if rng.random() < 0.3:
                j, x = rng.randrange(n), rng.choice(ctx.gens())
                matrix = PolyMatrix(ctx, [[p * x if k == j else p for k, p in enumerate(row)]
                                          for row in matrix.rows])
            got = _outcome(lambda: _framed(fd.factors, matrix))
            kinds.add(got[1] if got[0] == "error" else got[0])
            assert _agrees_with_the_product(fd.factors, matrix, got)
    assert kinds == {"verified", "not_logarithmic", "det_mismatch"}


def test_a_factor_failing_under_a_passing_product_is_an_internal_error(monkeypatch):
    # unreachable over Q (see _verify_factors): a column pass that wrongly
    # fails on the factor y stands in for a fault in the kernel
    ctx = Context(["x", "y"])
    y = parse_poly("y", ctx)
    kernel = freediv.saito._gradient_quotients
    monkeypatch.setattr(freediv.saito, "_gradient_quotients",
                        lambda g, columns: 1 if g == y else kernel(g, columns))
    with pytest.raises(InternalCheckError):
        frame_divisor([parse_poly("x", ctx), y], M([["x", "0"], ["0", "y"]], ctx))


@pytest.fixture
def divisors(monkeypatch, gradient_passes):
    """The divisor of every divide_exact call made by saito and families, and
    the factor of every gradient pass, whose column images it divides."""
    seen = []
    divide = freediv.poly.divide_exact
    kernel = freediv.saito._gradient_quotients

    def recording(g, f):
        seen.append(f)
        return divide(g, f)

    def passing(g, columns):
        seen.append(g)
        return kernel(g, columns)

    for module in (freediv.saito, freediv.families):
        monkeypatch.setattr(module, "divide_exact", recording)
    monkeypatch.setattr(freediv.saito, "_gradient_quotients", passing)
    return seen


def test_a_chain_is_never_divided_by_its_product(divisors, gradient_passes):
    fd = brieskorn_chain(2, 3, 2)
    assert fd.product not in divisors
    # one gradient against the columns per factor: the seed's, then the chain's two
    assert len(gradient_passes) == 3
    assert gradient_passes[1:] == list(fd.factors)


def test_a_jet_is_never_divided_by_its_product(divisors):
    seed = brieskorn_seed(2, 3)
    hb = hilbert_burch_from_framed(euler_frame(seed.product, seed.weight, seed.matrix))
    divisors.clear()
    cert = multi_jet_extend(seed.product, hb, seed.weight, 2)
    assert divisors
    assert cert.divisor not in divisors


# ---------------------------------------------------------------------------
# euler_frame and Hilbert-Burch
# ---------------------------------------------------------------------------


def test_euler_frame_normal_crossing():
    ctx, f = normal_crossing(3)
    fd = euler_frame(f, [1, 1, 1], PolyMatrix.diagonal([ctx.var(n) for n in ctx.names]))
    assert column_roles(fd) == ["euler:0", "annihilator", "annihilator"]
    assert fd.matrix.col(0) == tuple(ctx.var(nm).scale(F(1, 3)) for nm in ctx.names)
    hb = hilbert_burch_from_framed(fd)
    assert hb.scalar == 1
    assert signed_maximal_minors(hb.matrix) == list(f.gradient())


def test_euler_frame_takes_no_polynomial_determinant(det_calls):
    ctx, f = normal_crossing(4)
    fd = euler_frame(f, [1, 2, 1, 3], PolyMatrix.diagonal([ctx.var(n) for n in ctx.names]))
    assert det_calls == []
    assert column_roles(fd)[0] == "euler:0"


def test_euler_frame_derived_example_hilbert_burch():
    # minors of the normalized annihilator block reproduce the gradient exactly
    f = P("x^2*y - y^2*z")
    mat = M([["0", "x", "y"], ["y", "-2*y", "0"], ["-z", "4*z", "2*x"]])
    fd = euler_frame(f, [1, 1, 1], mat)
    assert column_roles(fd) == ["euler:0", "annihilator", "annihilator"]
    hb = hilbert_burch_from_framed(fd)
    assert signed_maximal_minors(hb.matrix) == [P("2*x*y"), P("x^2 - 2*y*z"), P("-y^2")]
    assert signed_maximal_minors(hb.matrix) == list(f.gradient())


def test_euler_frame_single_variable():
    ctx = Context(["x"])
    f = parse_poly("x", ctx)
    fd = euler_frame(f, [1], PolyMatrix.diagonal([f]))
    hb = hilbert_burch_from_framed(fd)
    assert hb.matrix.ncols == 0
    assert signed_maximal_minors(hb.matrix) == [ctx.const(1)]


def test_euler_frame_weight_preconditions():
    ctx, f = normal_crossing(2)
    diag = PolyMatrix.diagonal([ctx.var(n) for n in ctx.names])
    with pytest.raises(PreconditionError):
        euler_frame(f, [1, -1], diag)  # annihilating weight: degree 0
    with pytest.raises(NotHomogeneousError):
        euler_frame(parse_poly("x1*x2 + x1", ctx), [1, 1], diag)


@pytest.fixture
def bounds(monkeypatch):
    """The degree bound of every bounded syzygy solve that saito runs."""
    bounds = []
    solve = freediv.saito.bounded_syzygy_solve

    def recording(gens, target, bound):
        bounds.append(bound)
        return solve(gens, target, bound)

    monkeypatch.setattr(freediv.saito, "bounded_syzygy_solve", recording)
    return bounds


@pytest.fixture
def frame_failures(monkeypatch):
    """The kind of every VerificationError that frame_divisor raises in saito."""
    failures = []
    frame = freediv.saito.frame_divisor

    def recording(factors, matrix, weight=None):
        try:
            return frame(factors, matrix, weight=weight)
        except VerificationError as e:
            failures.append(e.kind)
            raise

    monkeypatch.setattr(freediv.saito, "frame_divisor", recording)
    return failures


def test_euler_frame_exchanges_a_column_without_a_scalar_quotient(bounds):
    # diag(x, y) times a unimodular matrix: no column has a scalar logarithmic
    # quotient, but E/2 = (c0 + c1)/2, so the exchange of column 0 leaves
    # det = 1/2 * det A; the determinant decides it, with no syzygy solve
    ctx = Context(["x", "y"])
    fd = euler_frame(P("x*y", ctx), [1, 1], M([["x - x^2", "x^2"], ["-x*y", "y + x*y"]], ctx))
    assert bounds == []
    assert fd.certificate.det_scalar == F(1, 2)
    assert column_roles(fd) == ["euler:0", "annihilator"]
    assert fd.matrix == M([["1/2*x", "-1/2*x"], ["1/2*y", "1/2*y"]], ctx)


_DET_MISMATCH_BLOCK = [["3/2*{x}", "1/2*{x}^2 - (1 - {x})*{x}"],
                       ["-1/2*{y}", "1/2*{x}*{y} + (1 - {x})*{y}"]]


def test_euler_frame_falls_back_after_a_det_mismatch(frame_failures):
    # D0 = (3/2*x, -1/2*y) has D0(f) = f, but exchanging it for E/2 leaves
    # the determinant x*y*(1 - x); the loop then exchanges D1 instead
    ctx = Context(["x", "y"])
    matrix = M([[e.format(x="x", y="y") for e in row] for row in _DET_MISMATCH_BLOCK], ctx)
    fd = euler_frame(P("x*y", ctx), [1, 1], matrix)
    assert frame_failures == ["det_mismatch"]
    assert fd.certificate.det_scalar == -1
    assert column_roles(fd) == ["euler:0", "annihilator"]


def test_euler_frame_exchanges_without_a_syzygy_solve_in_four_variables(frame_failures, bounds):
    # the matrix above on (x1, y1) and on (x2, y2): both columns with quotient
    # 1 fail the determinant, and the first other column is exchanged, found
    # by its determinant with no syzygy solve
    ctx = Context(["x1", "y1", "x2", "y2"])
    matrix = block_diagonal([M([[e.format(x=x, y=y) for e in row] for row in _DET_MISMATCH_BLOCK],
                               ctx) for x, y in (("x1", "y1"), ("x2", "y2"))])
    fd = euler_frame(P("x1*y1*x2*y2", ctx), [1, 1, 1, 1], matrix)
    assert frame_failures == ["det_mismatch", "det_mismatch"]
    assert fd.certificate.det_scalar == F(-1, 2)
    assert column_roles(fd) == ["euler:0"] + ["annihilator"] * 3
    assert bounds == []


def test_euler_frame_without_a_unit_exchange_raises():
    # the quotients are 1 and -1, and E/2 = (1 + x)*D0 + x*D1, so neither
    # column can be exchanged for E/2 with a unit multiple of f left
    ctx = Context(["x", "y"])
    matrix = M([["1/2*x - x^2", "-1/2*x + x + x^2"], ["1/2*y + x*y", "-1/2*y - y - x*y"]], ctx)
    assert verify_saito(P("x*y", ctx), matrix).log_quotients == (ctx.const(1), ctx.const(-1))
    with pytest.raises(FramingError,
                       match="^no column admits a scalar exchange with the Euler field$"):
        euler_frame(P("x*y", ctx), [1, 1], matrix)


# ---------------------------------------------------------------------------
# the Hilbert-Burch scalar from the frame's certificate
# ---------------------------------------------------------------------------


@pytest.fixture
def minors_calls(monkeypatch):
    """Count full expansions of the signed maximal minors by the oracle."""
    calls = []

    def counting(matrix):
        calls.append(matrix.nrows)
        return signed_maximal_minors(matrix)

    monkeypatch.setattr(helpers, "signed_maximal_minors", counting)
    return calls


def test_hilbert_burch_and_jets_take_no_determinant_and_no_minors(det_calls, minors_calls):
    ctx, f = normal_crossing(3)
    fd = euler_frame(f, [1, 1, 1], PolyMatrix.diagonal([ctx.var(n) for n in ctx.names]))
    hb = hilbert_burch_from_framed(fd)
    assert hb.scalar == 1
    cert = multi_jet_extend(f, hb, (1, 1, 1), 2)
    assert minors_calls == []
    assert det_calls == []
    assert cert.divisor.ctx.nvars == 9
    assert signed_maximal_minors(hb.matrix) == list(f.gradient())


def test_certificate_scalar_agrees_with_the_full_minors(det_calls):
    # frame [s * E_w/d | B @ U] over a Hilbert-Burch block B, a constant
    # s != 0 (so D(f) = s * f) and a constant U of nonzero determinant or an
    # upper unit triangular U with entries 0, +-1, +-x_i: the frame is
    # strict, its minors are det U times those of B, det_scalar is
    # s * det U, and the extracted matrix must reproduce the gradient
    # exactly; a constant U keeps the frame's degree bound (the point
    # lemma), an entry +-x_i may raise it above deg f (the Bareiss
    # determinant)
    rng = make_rng(140)
    bases = []
    for n in (2, 3, 4):
        ctx, f = normal_crossing(n)
        fd = euler_frame(f, [1] * n, PolyMatrix.diagonal([ctx.var(nm) for nm in ctx.names]))
        bases.append((f, hilbert_burch_from_framed(fd).matrix))
    f = P("x^2*y - y^2*z")
    fd = euler_frame(f, [1, 1, 1], M([["0", "x", "y"], ["y", "-2*y", "0"], ["-z", "4*z", "2*x"]]))
    bases.append((f, hilbert_burch_from_framed(fd).matrix))
    by_lemma = by_bareiss = 0
    for _ in range(40):
        f, b = bases[rng.randrange(len(bases))]
        ctx, k = f.ctx, b.ncols
        if rng.random() < 0.5:
            u = _unit_triangular(rng, ctx, k, upper=True)
        else:
            u = PolyMatrix(ctx, [[ctx.const(F(rng.randint(-3, 3), rng.randint(1, 3)))
                                  for _ in range(k)] for _ in range(k)])
            if not u._det_bareiss().constant_value():
                continue
        bu = b @ u
        w = [rng.randint(1, 3) for _ in ctx.names] if f.num_terms() == 1 else [1] * ctx.nvars
        scale = rng.choice([F(1), F(-2), F(3, 2)]) / f.weighted_degree(w)
        euler = [ctx.var(nm).scale(wi * scale) for nm, wi in zip(ctx.names, w)]
        before = len(det_calls)
        fd = frame_divisor([f], PolyMatrix(ctx, [(e,) + r for e, r in zip(euler, bu.rows)]))
        if len(det_calls) == before:
            by_lemma += 1
        else:
            by_bareiss += 1
        lam = u._det_bareiss().constant_value()
        assert fd.certificate.det_scalar == lam * scale * f.weighted_degree(w)
        assert signed_maximal_minors(bu) == [g.scale(lam) for g in f.gradient()]
        hb = hilbert_burch_from_framed(fd)
        assert hb.scalar == 1
        assert signed_maximal_minors(hb.matrix) == list(f.gradient())
    assert by_lemma >= 10 and by_bareiss >= 5


def test_wrong_declared_scalar_fails_the_jet_revalidation():
    ctx, f = normal_crossing(3)
    fd = euler_frame(f, [1, 1, 1], PolyMatrix.diagonal([ctx.var(n) for n in ctx.names]))
    hb = hilbert_burch_from_framed(fd)
    for scalar in (F(2), F(0), F(-1)):
        with pytest.raises(PreconditionError, match="re-validation"):
            multi_jet_extend(f, HilbertBurch(f, hb.matrix, scalar), (1, 1, 1), 1)


@pytest.mark.parametrize("rows", [
    # column 1 is not logarithmic: (grad f) . (1, 0, 0) = y*z
    [["x", "1"], ["-y", "0"], ["0", "0"]],
    # column 1 is logarithmic but does not annihilate: (x, 0, 0)(f) = f
    [["x", "x"], ["-y", "0"], ["0", "0"]],
    # rank deficient: two annihilating columns, det [E_w | B] = 0
    [["x", "2*x"], ["-y", "-2*y"], ["0", "0"]],
    # the zero matrix: with the scalar 0 its minors are 0 * grad f, but
    # [E_w | 0] is no Saito matrix, so the re-validation refuses it
    [["0", "0"], ["0", "0"], ["0", "0"]],
])
def test_jet_revalidation_rejects_a_matrix_that_is_not_hilbert_burch(rows):
    # det [E | B] / 3 is 1/3 for the logarithmic column that does not annihilate
    f, b = P("x*y*z"), M(rows)
    for scalar in (F(0), F(1), F(1, 3), F(-1, 3)):
        with pytest.raises(PreconditionError, match="re-validation"):
            multi_jet_extend(f, HilbertBurch(f, b, scalar), (1, 1, 1), 1)


def test_jet_revalidation_of_a_non_reduced_divisor_is_not_squarefree():
    ctx = Context(["x", "y"])
    f = parse_poly("x^2*y", ctx)
    # the minors (-y, -x) of the column (x, -y) are not a multiple of grad f,
    # but the first failed condition is that f is not reduced
    with pytest.raises(VerificationError) as ei:
        multi_jet_extend(f, HilbertBurch(f, M([["x"], ["-y"]], ctx), F(1)), (1, 1), 1)
    assert ei.value.kind == "not_squarefree"


def test_jet_weight_errors_come_before_the_revalidation():
    ctx, f = normal_crossing(2)
    hb = HilbertBurch(f, PolyMatrix(ctx, [[ctx.zero()], [ctx.zero()]]), F(0))
    with pytest.raises(PreconditionError, match="weight vector length"):
        multi_jet_extend(f, hb, (1, 1, 1), 1)
    with pytest.raises(PreconditionError, match="weighted degree must be nonzero"):
        multi_jet_extend(f, hb, (1, -1), 1)


def test_hilbert_burch_requires_strict_frame():
    ctx = Context(["x", "y"])
    fd = frame_divisor([parse_poly("x*y", ctx)], M([["x", "x"], ["0", "y"]], ctx))
    with pytest.raises(PreconditionError):
        hilbert_burch_from_framed(fd)


# ---------------------------------------------------------------------------
# free multiples from syzygies of (x_i f_i)
# ---------------------------------------------------------------------------


def test_xifi_generators():
    f = P("x*y + x*z + y*z")
    assert xifi_generators(f) == [P("x*(y + z)"), P("y*(x + z)"), P("z*(x + y)")]


def test_saito_from_xifi_rejects_non_syzygy():
    f = P("x*y + x*z + y*z")
    bad = M([["1", "0"], ["0", "1"], ["0", "0"]])
    with pytest.raises(PreconditionError):
        saito_from_xifi(f, bad)


def test_free_multiple_symmetric_quadric():
    # the scaled-Jacobian route certifies xyz * (xy + xz + yz)
    f = P("x*y + x*z + y*z")
    cert = free_multiple_via_xifi(f)
    assert cert.divisor == P("x*y*z") * f
    assert cert.det_scalar != 0


def test_saito_from_xifi_certifies_the_subset_the_search_picks():
    # the first 2-subset of the bounded syzygies that saito_from_xifi accepts
    # gives the certificate of free_multiple_via_xifi
    f = P("x*y + x*z + y*z")
    basis = bounded_syzygy_solve(xifi_generators(f), XYZ.zero(), 1).basis
    for subset in combinations(range(len(basis)), 2):
        syzygies = PolyMatrix(XYZ, [[basis[k][i] for k in subset] for i in range(3)])
        try:
            cert = saito_from_xifi(f, syzygies)
        except VerificationError:
            continue
        break
    assert cert.det_scalar == -4
    assert certificate_to_json(cert) == certificate_to_json(free_multiple_via_xifi(f))


def test_free_multiple_stops_at_a_repeated_factor(monkeypatch):
    # x*y*z * f does not depend on the syzygy subset, so the first
    # not_squarefree failure decides every subset
    calls = []
    verify = freediv.saito._verify_factors
    monkeypatch.setattr(freediv.saito, "_verify_factors",
                        lambda gs, m: calls.append(gs) or verify(gs, m))
    with pytest.raises(VerificationError) as ei:
        free_multiple_via_xifi(P("x*y*z"))
    assert ei.value.kind == "not_squarefree"
    assert str(ei.value) == "divisor has the repeated factor witness x*y*z"
    assert ei.value.witness == P("x*y*z")
    assert len(calls) == 1


def test_free_multiple_zero_determinants_within_the_bound_take_no_det(line_calls, det_calls):
    # x*y*z*w * (x*y + z*w) is reduced by its support.  Every subset's
    # determinant is 0: the 72 subsets within the degree bound (5 or 6 against
    # deg 6) prove it at one point, and only the 48 over it (7) expand Bareiss
    ctx = Context(["x", "y", "z", "w"])
    with pytest.raises(VerificationError) as ei:
        free_multiple_via_xifi(parse_poly("x*y + z*w", ctx))
    assert str(ei.value) == (
        "no 3-subset of 10 bounded syzygies yields a Saito matrix (last failure: "
        "determinant 0 is not a nonzero rational multiple of the divisor)"
    )
    assert line_calls == []
    assert det_calls == [4] * 48


def test_free_multiple_checks_the_syzygies_once(monkeypatch):
    # one left_apply over all 10 basis vectors, not one per 3-subset (120)
    ctx = Context(["x", "y", "z", "w"])
    f = parse_poly("x*y + z*w", ctx)
    gens = xifi_generators(f)
    calls = []
    left_apply = PolyMatrix.left_apply

    def counting(self, vector):
        if list(vector) == gens:
            calls.append(self.ncols)
        return left_apply(self, vector)

    monkeypatch.setattr(PolyMatrix, "left_apply", counting)
    with pytest.raises(VerificationError):
        free_multiple_via_xifi(f)
    assert calls == [10]


def test_free_multiple_reports_failure():
    ctx = Context(["x", "y"])
    # f = x^2 + y^2: x_i f_i = (2x^2, 2y^2) has no low-degree syzygies
    with pytest.raises(VerificationError):
        free_multiple_via_xifi(parse_poly("x^2 + y^2", ctx), bound=0)
