"""Saito's criterion and framed free divisors.

A square matrix A over R = Q[x_1..x_n] certifies that a reduced f is a free
divisor when (i) f is squarefree, (ii) det A = c * f for a nonzero rational c,
and (iii) every column D of A is logarithmic: D(f) = (grad f) . D lies in (f).
verify_saito checks all three exactly and returns a SaitoCertificate, or
raises VerificationError pinpointing the first violated condition, in that
order.

(i) is proved by squarefree_gcd, which first tries the one-sided support
certificate (the monomial content and the term count settle a monomial times
a binomial), then the line certificate of poly.squarefree_on_line on f
without its monomial content, and falls back to the multivariate gcd.
(iii) is checked by exact division, factor by factor when the divisor is
known as a product (frame_divisor, the jet extensions, the x_1...x_n f
multiples); _verify_factors proves that exact, and verify_saito is its
one-factor case.  Both checks below run on integers: the entries of A are put
in integer form once per verification, column j as integer numerators over
the lcm D_j of its denominators (poly._integer_columns).  For a factor
g = (content/den) * G, G primitive over Z, poly._gradient_quotients sums each
image (grad G) . (D_j A_j) over Z and divides it by G in the remainder loop
of divide_exact; by Gauss's lemma the quotient is over Z when G divides, and
q_j is that quotient over D_j.  Fractions are built for the quotients only,
and the image of a failing column is built as a polynomial (left_apply) only
for its error message.  For (ii), Saito's lemma (K. Saito,
"Theory of logarithmic differential forms and logarithmic vector fields",
J. Fac. Sci. Univ. Tokyo 27, 1980, (1.8)) gives f | det A once (i) and (iii)
hold; when in addition the degree bound min(sum_j max_i deg A_ij,
sum_i max_j deg A_ij) is at most deg f, det A = c * f with c constant, and c
is read exactly as det A(p) / f(p) at a fixed integer point p with
f(p) != 0: f and the integer columns are evaluated at p with one table of
powers (poly._evaluate_rows), and det A(p) is the integer Bareiss
determinant (linalg._bareiss) of those columns over the product of the D_j,
so c is the only Fraction built.  c = 0 proves det A = 0, a det_mismatch.
Otherwise (bound too large, no such point among the fixed candidates, or a
column not logarithmic) det A is expanded by the Bareiss / cofactor
determinant, exactly as without the lemma.

A FramedDivisor couples a factored divisor with a verified Saito matrix plus
the exact per-column, per-factor logarithmic multipliers, which are the
quotients of the factor-wise check.  euler_frame normalizes any Saito matrix
of a weighted-homogeneous divisor into the strict shape
[E_w/d | annihilators] by exchanging one column for E_w/d, which the
determinant of the candidate decides (see _strict_frame; no syzygy is
solved), and from which hilbert_burch_from_framed extracts the
(n)x(n-1) block whose signed maximal minors reproduce the gradient.  The
scalar of those minors is read from the frame's certificate, with no minor
expanded (see hilbert_burch_from_framed); the test suite's exact expansion of
the minors is the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Sequence

from .linalg import _bareiss, _weighted_coordinates, bounded_syzygy_solve
from .matrices import InternalCheckError, PolyMatrix, matrix_to_json
from .poly import (
    Context,
    Poly,
    _evaluate_rows,
    _gradient_quotients,
    _integer_columns,
    divide_exact,
    poly_product,
    poly_to_str,
    product_squarefree,
    sample_ints,
    squarefree_gcd,
)


class PreconditionError(Exception):
    """Inputs violate a documented hypothesis (caller error, not a refutation)."""


class VerificationError(Exception):
    """A certificate check failed.  `kind` names the first violated condition."""

    def __init__(self, kind: str, message: str, column: int | None = None,
                 witness: Poly | None = None):
        self.kind = kind
        self.column = column
        self.witness = witness
        super().__init__(message)


class FramingError(VerificationError):
    """No strict Euler frame could be produced from the given Saito matrix."""

    def __init__(self, message: str):
        super().__init__("framing", message)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SaitoCertificate:
    divisor: Poly
    matrix: PolyMatrix
    det_scalar: Fraction                 # det(matrix) = det_scalar * divisor
    log_quotients: tuple[Poly, ...]      # (grad f) . col_j = log_quotients[j] * f
    squarefree_witness: Poly             # constant gcd(f, partials)


# evaluation points for the determinant: coordinates in [1, _POINT_BOUND],
# at most _POINT_TRIES candidates before the polynomial determinant is used
_POINT_BOUND = 97
_POINT_TRIES = 4


def _degree_bound(columns: list) -> int:
    """A bound on the total degree of every term of det(A), for the square
    matrix A whose columns are given in the integer form of
    poly._integer_columns: the smaller of the sum over columns and the sum
    over rows of the largest entry degree (0 for a zero entry)."""
    degs = [[max(map(sum, a)) if a else 0 for a in col] for _, col in columns]
    return min(sum(map(max, degs)), sum(map(max, zip(*degs))))


def _ratio_at_point(columns: list, g: Poly) -> Fraction | None:
    """det(A)(p) / g(p) at the first candidate point p with g(p) != 0, for
    the square matrix A whose columns are given in the integer form of
    poly._integer_columns; None when no candidate has g(p) != 0.

    g and the columns are evaluated with one table of powers; det(A)(p) is
    the integer determinant of _bareiss over the product of the column
    denominators (the columns of A as the rows of its transpose).
    """
    (at,) = _integer_columns([(g,)])  # g as a one-entry column
    for salt in range(_POINT_TRIES):
        point = sample_ints(g.ctx.nvars, _POINT_BOUND, salt)
        (den_g, (at_g,)), *rows = _evaluate_rows([at, *columns], point)
        if at_g:
            det = _bareiss([values for _, values in rows])
            return Fraction(det * den_g, prod(den for den, _ in rows) * at_g)
    return None


def _det_scalar_by_lemma(f: Poly, columns: list) -> Fraction | None:
    """c with det A = c * f for a reduced f and logarithmic columns, or None;
    columns are those of A in the integer form of poly._integer_columns.

    Saito's lemma gives f | det A.  If every term of det A has degree at most
    deg f (the row and column degree bounds), the quotient is a constant c,
    and c = det A(p) / f(p) at any point with f(p) != 0; c = 0 proves
    det A = 0.  None when the bound fails or no candidate point has
    f(p) != 0.
    """
    if _degree_bound(columns) > f.total_degree():
        return None
    return _ratio_at_point(columns, f)


def _verify_factors(factors: Sequence[Poly], matrix: PolyMatrix
                    ) -> tuple[SaitoCertificate, tuple[tuple[Poly, ...], ...]]:
    """Check Saito's criterion for the product f of the factors, exactly;
    return the certificate and the multiplier table, or raise
    VerificationError.  table[j][i] * g_i = (grad g_i) . A_j for factor g_i.

    The columns are checked factor by factor.  By Leibniz,
    (grad f) . A_j = sum_i (prod_{k != i} g_k) (grad g_i) . A_j, so when every
    g_i divides its own image, log_quotients[j] = sum_i table[j][i] exactly.
    Conversely, with f proved squarefree first, a column logarithmic for f is
    logarithmic for every factor: g_i divides (grad f) . A_j and every summand
    but the i-th, so it divides (prod_{k != i} g_k) (grad g_i) . A_j, and g_i is
    coprime to the other factors (K. Saito, J. Fac. Sci. Univ. Tokyo 27, 1980,
    section 1).  So a failed factor proves that f fails, and the check of f
    itself then names the column and its image, as it does for one factor; f
    passing after a factor failed is an InternalCheckError.

    The determinant error takes precedence over the column error, as the
    criterion lists them, although the columns are checked first."""
    factors = tuple(factors)
    f = poly_product(factors[0].ctx, factors)
    if f.is_zero() or f.is_constant():
        raise PreconditionError("the divisor must be nonzero and nonconstant")
    n = f.ctx.nvars
    if matrix.ctx != f.ctx:
        raise PreconditionError("matrix and divisor contexts differ")
    if matrix.nrows != n or matrix.ncols != n:
        raise PreconditionError(f"matrix must be {n}x{n}, got {matrix.nrows}x{matrix.ncols}")
    witness = squarefree_gcd(f)
    if not witness.is_constant():
        raise VerificationError(
            "not_squarefree",
            f"divisor has the repeated factor witness {poly_to_str(witness)}",
            witness=witness,
        )
    columns = _integer_columns(matrix.cols())
    per_factor, failed = [], None
    for g in factors:
        quotients = _gradient_quotients(g, columns)
        if isinstance(quotients, int):
            failed = quotients
            break
        per_factor.append(quotients)
    if failed is not None and len(factors) > 1:
        failed = _gradient_quotients(f, columns)
        if not isinstance(failed, int):
            raise InternalCheckError("a column logarithmic for the reduced product fails on a factor")
    scalar = None if failed is not None else _det_scalar_by_lemma(f, columns)
    det = f.ctx.zero()  # what a zero scalar proves
    if scalar is None:
        det = matrix.det()
        quotient = divide_exact(det, f)
        if quotient is not None and quotient.is_constant():
            scalar = quotient.constant_value()
    if not scalar:
        raise VerificationError(
            "det_mismatch",
            f"determinant {poly_to_str(det)} is not a nonzero rational multiple of the divisor",
        )
    if failed is not None:
        applied = matrix.left_apply(f.gradient())[failed]
        raise VerificationError(
            "not_logarithmic",
            f"column {failed} applied to the divisor gives {poly_to_str(applied)}, "
            f"not a multiple of the divisor",
            column=failed,
        )
    table = tuple(zip(*per_factor))
    log_quotients = tuple(f.ctx.sum(row) for row in table)
    return SaitoCertificate(f, matrix, scalar, log_quotients, witness), table


def verify_saito(f: Poly, matrix: PolyMatrix) -> SaitoCertificate:
    """Check Saito's criterion exactly; raise VerificationError on failure,
    the determinant error before the column error (see _verify_factors)."""
    return _verify_factors((f,), matrix)[0]


def certificate_to_json(cert: SaitoCertificate) -> dict:
    return {
        "status": "verified",
        "vars": list(cert.divisor.ctx.names),
        "f": poly_to_str(cert.divisor),
        "matrix": matrix_to_json(cert.matrix),
        "det_scalar": str(cert.det_scalar),
        "log_quotients": [poly_to_str(q) for q in cert.log_quotients],
    }


# ---------------------------------------------------------------------------
# framed divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FramedDivisor:
    """A factored free divisor with a verified Saito matrix and the exact
    multiplier table: multipliers[j][i] * factors[i] = (column j)(factors[i])."""

    factors: tuple[Poly, ...]
    product: Poly
    matrix: PolyMatrix
    certificate: SaitoCertificate
    multipliers: tuple[tuple[Poly, ...], ...]
    weight: tuple[Fraction, ...] | None = None

    @property
    def ctx(self) -> Context:
        return self.product.ctx


def frame_divisor(factors: Sequence[Poly], matrix: PolyMatrix,
                  weight: Sequence | None = None) -> FramedDivisor:
    """Verify a Saito matrix against a factored divisor, recording all multipliers.

    The multiplier table is the factor-wise quotients of the verification
    itself; a certificate for the product proves every factor logarithmic."""
    factors = tuple(factors)
    if not factors:
        raise PreconditionError("at least one factor required")
    try:
        cert, table = _verify_factors(factors, matrix)
    except (PreconditionError, VerificationError) as e:
        # the product is proved squarefree before any check but its
        # preconditions; the factor-wise pass names the offending factor or
        # pairwise gcd, and takes precedence as the first check of the frame
        if isinstance(e, VerificationError) and e.kind != "not_squarefree":
            raise
        ok, offender = product_squarefree(factors)
        if not ok:
            raise VerificationError(
                "not_squarefree",
                f"factor list is not squarefree/coprime; witness {poly_to_str(offender)}",
                witness=offender,
            ) from None
        raise
    w = None
    if weight is not None:
        w = tuple(Fraction(x) for x in weight)
        cert.divisor.weighted_degree(w)  # raises NotHomogeneousError when it fails
    return FramedDivisor(factors, cert.divisor, matrix, cert, table, w)


def column_roles(fd: FramedDivisor) -> list[str]:
    """Classify each column: "euler:<i>" (scalar delta pattern on factor i),
    "annihilator" (kills every factor), or "mixed"."""
    roles = []
    for j in range(fd.matrix.ncols):
        row = fd.multipliers[j]
        if all(q.is_zero() for q in row):
            roles.append("annihilator")
            continue
        hot = [i for i, q in enumerate(row) if not q.is_zero()]
        if len(hot) == 1 and row[hot[0]].is_constant():
            roles.append(f"euler:{hot[0]}")
        else:
            roles.append("mixed")
    return roles


# ---------------------------------------------------------------------------
# strict Euler frames and Hilbert-Burch extraction
# ---------------------------------------------------------------------------


def euler_frame(f: Poly, weight: Sequence, matrix: PolyMatrix) -> FramedDivisor:
    """Normalize a Saito matrix of a w-homogeneous divisor to [E_w/d | annihilators].

    The weights are checked before the matrix is verified; _strict_frame
    then exchanges one column for E_w/d, or raises FramingError when no
    column admits a scalar exchange."""
    w = tuple(Fraction(x) for x in weight)
    _euler_column(f, w)
    return _strict_frame(verify_saito(f, matrix), w)


def _euler_column(f: Poly, w: tuple[Fraction, ...]) -> list[Poly]:
    """E_w/d, with E_w/d(f) = f, for f w-homogeneous of weighted degree d != 0."""
    d = f.weighted_degree(w)  # raises NotHomogeneousError if inapplicable
    if d == 0:
        raise PreconditionError("weighted degree is zero; no Euler column can be normalized")
    return _weighted_coordinates(f.ctx, [x / d for x in w])


def _strict_frame(cert: SaitoCertificate, w: tuple[Fraction, ...]) -> FramedDivisor:
    """The strict frame [E_w/d | annihilators] from a verified certificate of
    a w-homogeneous divisor; the certificate is not verified again.

    The candidate for column j0 exchanges A_j0 for E = E_w/d and corrects
    every other column A_j to the annihilator A_j - q_j * E, with q_j its
    logarithmic quotient.  The columns with a nonzero constant q_j are tried
    first, then the rest, each group in index order, and the first candidate
    that verifies is the frame.  The loop is complete: det A = c * f != 0, so
    A is invertible over Q(x) and E = sum_j h_j A_j for unique rational h_j.
    Subtracting multiples of the column E leaves the determinant unchanged,
    so the candidate has det = h_j0 * det[A_j0 | the other A_j] =
    (-1)^j0 * h_j0 * c * f.  Its columns are logarithmic (E(f) = f, and the
    others annihilate f) and f is reduced, so it verifies exactly when h_j0
    is a nonzero constant; FramingError when no h_j is.
    """
    f, quotients = cert.divisor, cert.log_quotients
    euler_col = _euler_column(f, w)
    cols = cert.matrix.cols()
    for j0 in sorted(range(len(cols)), key=lambda j: quotients[j].is_zero()
                     or not quotients[j].is_constant()):
        candidate = [euler_col] + [[a - quotients[j] * e for a, e in zip(col, euler_col)]
                                   for j, col in enumerate(cols) if j != j0]
        try:
            return frame_divisor([f], PolyMatrix(f.ctx, list(zip(*candidate))), weight=w)
        except VerificationError as e:
            if e.kind != "det_mismatch":
                raise
    raise FramingError("no column admits a scalar exchange with the Euler field")


@dataclass(frozen=True)
class HilbertBurch:
    """An n x (n-1) matrix whose signed maximal minors equal scalar * grad(f)."""

    divisor: Poly
    matrix: PolyMatrix
    scalar: Fraction


def hilbert_burch_from_framed(fd: FramedDivisor) -> HilbertBurch:
    """Drop the Euler column of a strict single-factor frame and normalize the
    annihilator block so its signed maximal minors equal the gradient exactly.

    The frame's certificate fixes the scalar.  Let [D | B] be the frame, with
    f reduced, det[D | B] = c * f, c != 0, D(f) = c0 * f, c0 a nonzero
    constant, and B^T grad f = 0.  Then the signed maximal minors m of B are
    (c / c0) * grad f (K. Saito, J. Fac. Sci. Univ. Tokyo 27, 1980, (1.8);
    the Hilbert-Burch theorem, D. Eisenbud, Commutative Algebra, Thm. 20.15):
    1. c != 0 gives rank B = n - 1, so the left kernel of B over Q(x) is a
       line; it holds m (Laplace expansion: B^T m = 0) and grad f.
    2. The partials of f have no common factor: an irreducible common
       factor p divides D(f) = c0 * f; write f = p * g with p not dividing g
       (f is reduced); then p divides every dp/dx_i * g, so every partial of
       p, which forces p to be constant.
    3. So m = h * grad f with h a polynomial: by 1, m = (a / b) * grad f
       with a, b coprime, and b divides every partial, so b is constant.
    4. Expanding det[D | B] along column 0 gives h * D(f) = h * c0 * f = c * f,
       so h = c / c0.
    With two or more variables a column is rescaled to make the scalar 1; with
    one variable the matrix has no columns and the scalar is reported as is.
    """
    if len(fd.factors) != 1:
        raise PreconditionError("Hilbert-Burch extraction needs a single-factor frame")
    roles = column_roles(fd)
    if roles[0] != "euler:0" or any(r != "annihilator" for r in roles[1:]):
        raise PreconditionError(
            f"frame is not strict (column roles {roles}); euler_frame produces strict frames"
        )
    f = fd.product
    n = f.ctx.nvars
    b = fd.matrix.submatrix(range(n), range(1, n))
    lam = fd.certificate.det_scalar / fd.multipliers[0][0].constant_value()
    if lam != 1:
        if b.ncols == 0:
            # one variable: the only minor is the empty determinant 1, and no
            # column exists to absorb the ratio, so report the scalar as is
            return HilbertBurch(f, b, lam)
        # every maximal minor of an n x (n-1) matrix holds column 0 once,
        # so this scales each of them, and the scalar, by 1/lam
        b = b.scale_column(0, 1 / lam)
    return HilbertBurch(f, b, Fraction(1))


# ---------------------------------------------------------------------------
# free multiples x_1...x_n * f from syzygies of (x_i f_i)
# ---------------------------------------------------------------------------


def xifi_generators(f: Poly) -> list[Poly]:
    """The scaled Jacobian generators x_i * df/dx_i."""
    ctx = f.ctx
    return [ctx.var(nm) * f.derivative(i) for i, nm in enumerate(ctx.names)]


def saito_from_xifi(f: Poly, syzygies: PolyMatrix) -> SaitoCertificate:
    """Certify g = x_1...x_n * f from an n x (n-1) matrix of syzygies of (x_i f_i).

    Row i of the syzygy matrix is scaled by x_i and the Euler column
    (x_1,...,x_n) is appended: every column is then logarithmic for g, and the
    construction succeeds exactly when the determinant is a unit multiple of g.
    The columns are checked factor by factor, on f and on x_1...x_n.
    """
    ctx = f.ctx
    n = ctx.nvars
    if syzygies.ctx != ctx or syzygies.nrows != n or syzygies.ncols != n - 1:
        raise PreconditionError(f"need an {n}x{n - 1} syzygy matrix over the divisor context")
    for j, s in enumerate(syzygies.left_apply(xifi_generators(f))):
        if not s.is_zero():
            raise PreconditionError(f"column {j} is not a syzygy of (x_i f_i)")
    return _xifi_certificate(f, PolyMatrix.diagonal(ctx.gens()) @ syzygies)


def _xifi_certificate(f: Poly, scaled: PolyMatrix) -> SaitoCertificate:
    """The certificate of saito_from_xifi from its syzygies, row i times x_i."""
    xs = f.ctx.gens()
    return _verify_factors((f, poly_product(f.ctx, xs)), scaled.with_column(xs))[0]


def free_multiple_via_xifi(f: Poly, bound: int = 1) -> SaitoCertificate:
    """Search bounded-degree syzygies of (x_i f_i) for a Saito matrix of x_1...x_n f.

    All (n-1)-subsets of the syzygy basis are tried in deterministic order;
    the first verified certificate wins.  Raises VerificationError when no
    subset passes (larger bounds may still succeed).  The basis vectors are
    checked to be syzygies, and scaled, once before the search.  The
    product x_1...x_n f is the same for every subset, so the not_squarefree
    error on the first subset is raised as it is.  That error is about the
    product, not about f: for the squarefree f = x*y*z its witness is x*y*z.
    """
    gens = xifi_generators(f)
    n = f.ctx.nvars
    if n < 2:
        raise PreconditionError("need at least two variables")
    basis = bounded_syzygy_solve(gens, f.ctx.zero(), bound).basis
    if len(basis) < n - 1:
        raise VerificationError(
            "xifi_search",
            f"only {len(basis)} syzygies of degree <= {bound}; {n - 1} needed",
        )
    syzygies = PolyMatrix(f.ctx, [[v[i] for v in basis] for i in range(n)])
    if any(not s.is_zero() for s in syzygies.left_apply(gens)):
        raise InternalCheckError("a bounded syzygy basis vector is not a syzygy of (x_i f_i)")
    scaled = PolyMatrix.diagonal(f.ctx.gens()) @ syzygies
    last_error: VerificationError | None = None
    for subset in combinations(range(len(basis)), n - 1):
        try:
            return _xifi_certificate(f, scaled.submatrix(range(n), subset))
        except VerificationError as e:
            if e.kind == "not_squarefree":
                raise
            last_error = e
    raise VerificationError(
        "xifi_search",
        f"no {n - 1}-subset of {len(basis)} bounded syzygies yields a Saito matrix"
        + (f" (last failure: {last_error})" if last_error else ""),
    )
