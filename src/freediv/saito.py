"""Saito's criterion and framed free divisors.

A square matrix A over R = Q[x_1..x_n] certifies that a reduced f is a free
divisor when (i) f is squarefree, (ii) det A = c * f for a nonzero rational c,
and (iii) every column D of A is logarithmic: D(f) = (grad f) . D lies in (f).
verify_saito checks all three exactly and returns a SaitoCertificate, or
raises VerificationError pinpointing the first violated condition, in that
order.

(i) is proved by squarefree_gcd, which first tries the one-sided line
certificate of poly.squarefree_on_line and falls back to the multivariate gcd.
(iii) is checked by exact division.  For (ii), Saito's lemma (K. Saito,
"Theory of logarithmic differential forms and logarithmic vector fields",
J. Fac. Sci. Univ. Tokyo 27, 1980, (1.8)) gives f | det A once (i) and (iii)
hold; when in addition the degree bound min(sum_j max_i deg A_ij,
sum_i max_j deg A_ij) is at most deg f, det A = c * f with c constant, and c
is read exactly as det A(p) / f(p) at a fixed rational point p with
f(p) != 0.  Otherwise (bound too large, c = 0, no such point among the fixed
candidates, or a column not logarithmic) det A is expanded by the Bareiss /
cofactor determinant, exactly as without the lemma.

A FramedDivisor couples a factored divisor with a verified Saito matrix plus
the exact per-column, per-factor logarithmic multipliers.  euler_frame
normalizes any Saito matrix of a weighted-homogeneous divisor into the strict
shape [E_w/d | annihilators], from which hilbert_burch_from_framed extracts
the (n)x(n-1) block whose signed maximal minors reproduce the gradient.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .linalg import bounded_syzygy_solve, fraction_det
from .matrices import PolyMatrix, matrix_to_json
from .poly import (
    Context,
    Poly,
    divide_exact,
    poly_product,
    poly_to_str,
    product_squarefree,
    sample_ints,
    squarefree_gcd,
    squarefree_on_line,
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


def _det_scalar_by_lemma(f: Poly, matrix: PolyMatrix) -> Fraction | None:
    """c with det A = c * f for a reduced f and logarithmic columns, or None.

    Saito's lemma gives f | det A.  If every term of det A has degree at most
    deg f (the row and column degree bounds), the quotient is a constant c,
    and c = det A(p) / f(p) at any point with f(p) != 0.  None when the bound
    fails, no candidate point has f(p) != 0, or c = 0.
    """
    degs = [[0 if a.is_zero() else a.total_degree() for a in row] for row in matrix.rows]
    bound = min(sum(max(col) for col in zip(*degs)), sum(max(row) for row in degs))
    if bound > f.total_degree():
        return None
    for salt in range(_POINT_TRIES):
        point = sample_ints(f.ctx.nvars, _POINT_BOUND, salt)
        at_f = f.evaluate(point)
        if at_f:
            at_det = fraction_det([[a.evaluate(point) for a in row] for row in matrix.rows])
            return at_det / at_f if at_det else None
    return None


def verify_saito(f: Poly, matrix: PolyMatrix) -> SaitoCertificate:
    """Check Saito's criterion exactly; raise VerificationError on failure.

    The determinant error takes precedence over the column error, as the
    criterion lists them, although the columns are checked first."""
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
    quotients = []
    failed = None
    for j, applied in enumerate(matrix.left_apply(f.gradient())):
        q = divide_exact(applied, f)
        if q is None:
            failed = (j, applied)
            break
        quotients.append(q)
    scalar = None if failed else _det_scalar_by_lemma(f, matrix)
    if scalar is None:
        det = matrix.det()
        quotient = divide_exact(det, f)
        if quotient is None or not quotient.is_constant() or quotient.is_zero():
            raise VerificationError(
                "det_mismatch",
                f"determinant {poly_to_str(det)} is not a nonzero rational multiple of the divisor",
            )
        scalar = quotient.constant_value()
    if failed:
        j, applied = failed
        raise VerificationError(
            "not_logarithmic",
            f"column {j} applied to the divisor gives {poly_to_str(applied)}, "
            f"not a multiple of the divisor",
            column=j,
        )
    return SaitoCertificate(f, matrix, scalar, tuple(quotients), witness)


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
    """Verify a Saito matrix against a factored divisor, recording all multipliers."""
    factors = tuple(factors)
    if not factors:
        raise PreconditionError("at least one factor required")
    product = poly_product(factors[0].ctx, factors)
    if not squarefree_on_line(product):
        # exact factor-wise pass: names the offending factor or pairwise gcd
        ok, offender = product_squarefree(factors)
        if not ok:
            raise VerificationError(
                "not_squarefree",
                f"factor list is not squarefree/coprime; witness {poly_to_str(offender)}",
                witness=offender,
            )
    cert = verify_saito(product, matrix)
    if len(factors) == 1:  # the product is the factor: its quotients are the table
        table = [(q,) for q in cert.log_quotients]
    else:
        applied = [matrix.left_apply(g.gradient()) for g in factors]
        table = []
        for j in range(matrix.ncols):
            row = []
            for i, g in enumerate(factors):
                q = divide_exact(applied[i][j], g)
                if q is None:
                    raise VerificationError(
                        "factor_not_logarithmic",
                        f"column {j} is not logarithmic for factor {i}",
                        column=j,
                    )
                row.append(q)
            table.append(tuple(row))
    w = None
    if weight is not None:
        w = tuple(Fraction(x) for x in weight)
        product.weighted_degree(w)  # raises NotHomogeneousError when it fails
    return FramedDivisor(factors, product, matrix, cert, tuple(table), w)


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

    Candidate columns with scalar logarithmic quotient are swapped out for the
    normalized Euler column E_w/d; the remaining columns are corrected to
    annihilators by subtracting their quotient times E_w/d.  Each candidate is
    accepted only if the determinant stays a unit multiple of f.  When no
    single column works, E_w/d is expanded over the columns by a bounded
    syzygy solve and the pivot is chosen from that expansion.
    """
    w = tuple(Fraction(x) for x in weight)
    d = f.weighted_degree(w)  # raises NotHomogeneousError if inapplicable
    if d == 0:
        raise PreconditionError("weighted degree is zero; no Euler column can be normalized")
    cert = verify_saito(f, matrix)
    ctx = f.ctx
    n = ctx.nvars
    euler_col = [ctx.var(ctx.names[i]).scale(w[i] / d) for i in range(n)]
    quotients = cert.log_quotients

    def attempt(j0: int) -> FramedDivisor | None:
        cols = [euler_col]
        for j in range(n):
            if j == j0:
                continue
            q = quotients[j]
            col = [matrix.entry(i, j) - q * euler_col[i] for i in range(n)]
            cols.append(col)
        candidate = PolyMatrix(ctx, [[cols[c][r] for c in range(n)] for r in range(n)])
        try:
            return frame_divisor([f], candidate, weight=w)
        except VerificationError as e:
            if e.kind != "det_mismatch":
                raise
            return None

    for j0 in range(n):
        if quotients[j0].is_constant() and not quotients[j0].is_zero():
            got = attempt(j0)
            if got is not None:
                return got
    # fallback: expand E_w/d over the columns with bounded-degree multipliers
    sol = bounded_syzygy_solve(matrix.cols(), euler_col, f.total_degree() + n)
    if sol.particular is not None:
        for j0, h in enumerate(sol.particular):
            if h.is_constant() and not h.is_zero():
                got = attempt(j0)
                if got is not None:
                    return got
    raise FramingError(
        "no column admits a scalar exchange with the Euler field within the bound"
    )


@dataclass(frozen=True)
class HilbertBurch:
    """An n x (n-1) matrix whose signed maximal minors equal scalar * grad(f)."""

    divisor: Poly
    matrix: PolyMatrix
    scalar: Fraction


def minors_scalar(matrix: PolyMatrix, f: Poly) -> Fraction | None:
    """The scalar lam with signed maximal minors of the n x (n-1) matrix equal
    to lam * grad f, or None when there is none.

    lam is read off the first nonzero partial derivative; None also when f has
    no nonzero partial."""
    minors = matrix.signed_maximal_minors()
    grad = f.gradient()
    g0 = next((i for i, g in enumerate(grad) if not g.is_zero()), None)
    if g0 is None:
        return None
    q = divide_exact(minors[g0], grad[g0])
    if q is None or not q.is_constant():
        return None
    lam = q.constant_value()
    if any(m != g.scale(lam) for m, g in zip(minors, grad)):
        return None
    return lam


def hilbert_burch_from_framed(fd: FramedDivisor) -> HilbertBurch:
    """Drop the Euler column of a strict single-factor frame and normalize the
    annihilator block so its signed maximal minors equal the gradient exactly.

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
    lam = minors_scalar(b, f)
    if lam is None or lam == 0:
        raise VerificationError(
            "hilbert_burch_mismatch",
            "signed maximal minors are not a nonzero scalar multiple of the gradient",
        )
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
    """
    ctx = f.ctx
    n = ctx.nvars
    if syzygies.ctx != ctx or syzygies.nrows != n or syzygies.ncols != n - 1:
        raise PreconditionError(f"need an {n}x{n - 1} syzygy matrix over the divisor context")
    for j, s in enumerate(syzygies.left_apply(xifi_generators(f))):
        if not s.is_zero():
            raise PreconditionError(f"column {j} is not a syzygy of (x_i f_i)")
    xs = [ctx.var(nm) for nm in ctx.names]
    scaled = PolyMatrix(ctx, [[xs[i] * syzygies.entry(i, j) for j in range(n - 1)]
                              for i in range(n)])
    full = scaled.with_column(xs)
    return verify_saito(poly_product(ctx, [f, *xs]), full)


def free_multiple_via_xifi(f: Poly, bound: int = 1) -> SaitoCertificate:
    """Search bounded-degree syzygies of (x_i f_i) for a Saito matrix of x_1...x_n f.

    All (n-1)-subsets of the syzygy basis are tried in deterministic order;
    the first verified certificate wins.  Raises VerificationError when no
    subset passes (larger bounds may still succeed).
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
    last_error: VerificationError | None = None
    for subset in combinations(range(len(basis)), n - 1):
        cols = [basis[k] for k in subset]
        mat = PolyMatrix(f.ctx, [[cols[j][i] for j in range(n - 1)] for i in range(n)])
        try:
            return saito_from_xifi(f, mat)
        except VerificationError as e:
            last_error = e
    raise VerificationError(
        "xifi_search",
        f"no {n - 1}-subset of {len(basis)} bounded syzygies yields a Saito matrix"
        + (f" (last failure: {last_error})" if last_error else ""),
    )
