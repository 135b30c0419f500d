"""Linear-algebra obstructions to freeness of coordinate-hyperplane multiples.

For a homogeneous form f of degree k in n variables, the product
g = x_1 * ... * x_n * f is free exactly when the ideal generated by the
scaled Jacobian entries x_i * df/dx_i is perfect of codimension two, and
that forces strong membership properties on small coordinate monomials.
Two exact checks refute those properties for smooth forms of degree k > 2
in n > 2 variables:

* the coordinate monomial x_1 ... x_min(k,n) fails a degree-forced scalar
  membership test against the x_i * df/dx_i, and
* the n support exponents x_i^(k-1) x_j(i) guaranteed by smoothness are
  linearly independent, which pins the failure on the ideal rather than on
  a degenerate support.

Smoothness itself is an input assertion, never computed; when a cheap
support-based necessary condition fails, the assertion is refuted and
reported instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .poly import Poly, _integer_form, poly_product, poly_to_str, substitute
from .linalg import _solve_in_multiples, fraction_det, graded_membership, rref
from .saito import (
    PreconditionError,
    xifi_generators,
)
from .matrices import InternalCheckError

__all__ = [
    "ObstructionCheck",
    "ObstructionReport",
    "Membership",
    "ExponentIndependence",
    "SmoothnessRefutedError",
    "homogeneous_degree",
    "xifi_generators",
    "scalar_membership_obstruction",
    "exponent_independence",
    "monomial_graded_membership",
    "smooth_times_nc_verdict",
    "obstruction_report_to_json",
]


CONCLUSIONS = ("NotFree", "FreeCertificate", "Inconclusive")


@dataclass(frozen=True)
class ObstructionCheck:
    """One named check inside an :class:`ObstructionReport`.

    witness carries the exact mathematical payload: a scalar vector, a
    determinant value, a polynomial, or a short explanatory string.
    """

    name: str
    verdict: str
    witness: object = None


@dataclass(frozen=True)
class ObstructionReport:
    candidate: Poly
    checks: tuple[ObstructionCheck, ...]
    conclusion: str

    def __post_init__(self):
        if self.conclusion not in CONCLUSIONS:
            raise InternalCheckError(f"unknown conclusion {self.conclusion!r}")
        if self.conclusion == "NotFree" and not any(
            c.verdict == "violated" for c in self.checks
        ):
            raise InternalCheckError(
                "a NotFree conclusion needs at least one violated obstruction check"
            )


@dataclass(frozen=True)
class Membership:
    member: bool
    witness: tuple[Fraction, ...] | None
    reason: str


@dataclass(frozen=True)
class ExponentIndependence:
    independent: bool
    j_map: tuple[int, ...]
    det_value: Fraction


class SmoothnessRefutedError(PreconditionError):
    """A support condition implied by smoothness fails; the assertion that the
    form is smooth is therefore wrong.  Carries the offending axis index."""

    def __init__(self, axis: int, name: str, degree: int):
        self.axis = axis
        super().__init__(
            f"smoothness assertion refuted at the {name}-axis: no monomial "
            f"{name}^{degree - 1}*x_j appears in the support, so every partial "
            f"derivative vanishes at that axis point"
        )


def homogeneous_degree(f: Poly) -> int:
    """Total degree of a homogeneous nonzero polynomial; PreconditionError otherwise."""
    if f.is_zero():
        raise PreconditionError("the zero polynomial has no degree")
    if not f.is_homogeneous():
        raise PreconditionError("the form must be homogeneous in total degree")
    return f.total_degree()


# ---------------------------------------------------------------------------
# scalar membership of the coordinate monomial
# ---------------------------------------------------------------------------


def scalar_membership_obstruction(f: Poly) -> Membership:
    """Decide x_1 * ... * x_min(k,n) against the span of the x_i * df/dx_i.

    For k <= n the target has degree k, equal to the generators' degree, so
    ideal membership at that degree is the graded solve with constant
    multipliers; the witness is their exact values when a solution exists.
    For k > n the target x_1...x_n has degree n below every generator: no
    membership.
    """
    ctx = f.ctx
    n = ctx.nvars
    k = homogeneous_degree(f)
    if k < 1:
        raise PreconditionError("the form must have degree at least 1")
    if k > n:
        return Membership(
            False,
            None,
            f"degree count: the target x_1...x_{n} has degree {n} below the "
            f"generator degree {k}, and the ideal has no elements there",
        )
    target = ctx.monomial(tuple(1 if i < k else 0 for i in range(n)))
    sol = _solve_in_multiples([[g] for g in xifi_generators(f)], [target],
                              [[(0,) * n]] * n).particular
    if sol is None:
        return Membership(
            False,
            None,
            f"the scalar system over the degree-{k} monomials is inconsistent: "
            f"{poly_to_str(target)} is outside the span of the x_i * df/dx_i",
        )
    return Membership(
        True,
        tuple(h.constant_value() for h in sol),
        f"{poly_to_str(target)} equals the displayed scalar combination of "
        "the x_i * df/dx_i",
    )


# ---------------------------------------------------------------------------
# independence of the smoothness-forced support exponents
# ---------------------------------------------------------------------------


def exponent_independence(f: Poly) -> ExponentIndependence:
    """Independence of the exponents x_i^(k-1) x_j(i) found in the support.

    Smoothness of f forces, for every i, some monomial x_i^(k-1) x_j in the
    support (else every partial vanishes at the x_i-axis point); j(i) is the
    smallest such j.  The exponent vectors (k-1) e_i + e_j(i) are the columns
    of (k-1) I + h for the 0/1 transition matrix h, whose eigenvalues are
    zeros and roots of unity, so the determinant is nonzero whenever
    k - 1 > 1.  The determinant is evaluated exactly and cross-checked
    against a direct rank computation.
    """
    ctx = f.ctx
    n = ctx.nvars
    k = homogeneous_degree(f)
    if k < 2:
        raise PreconditionError("the support argument needs degree at least 2")
    support = set(f.support())
    j_map = []
    for i in range(n):
        found = None
        for j in range(n):
            e = tuple(
                (k - 1) * (idx == i) + (idx == j) for idx in range(n)
            )
            if e in support:
                found = j
                break
        if found is None:
            raise SmoothnessRefutedError(i, ctx.names[i], k)
        j_map.append(found)
    matrix = [
        [Fraction((k - 1) * (r == i) + (r == j_map[i])) for i in range(n)]
        for r in range(n)
    ]
    det = fraction_det(matrix)
    _, pivots = rref(matrix)
    if (det != 0) != (len(pivots) == n):
        raise InternalCheckError(
            "determinant and rank computations disagree on independence"
        )
    return ExponentIndependence(det != 0, tuple(j_map), det)


# ---------------------------------------------------------------------------
# graded membership of squarefree coordinate monomials
# ---------------------------------------------------------------------------


def monomial_graded_membership(A: Sequence, f: Poly) -> bool:
    """Decide x_A = prod_{i in A} x_i against the ideal (x_i * df/dx_i).

    A lists variable names or indices.  Below the generator degree the ideal
    is empty; otherwise the degree-|A| graded piece is searched exactly.
    """
    ctx = f.ctx
    idxs = set()
    for a in A:
        if isinstance(a, str):
            if a not in ctx.names:
                raise PreconditionError(f"unknown variable {a!r}")
            idxs.add(ctx.names.index(a))
        else:
            i = int(a)
            if not 0 <= i < ctx.nvars:
                raise PreconditionError(f"variable index {i} out of range")
            idxs.add(i)
    if not idxs:
        raise PreconditionError("the variable subset must be nonempty")
    k = homogeneous_degree(f)
    if len(idxs) < k:
        return False
    target = ctx.monomial(tuple(1 if i in idxs else 0 for i in range(ctx.nvars)))
    return graded_membership(target, xifi_generators(f)).member


# ---------------------------------------------------------------------------
# the full verdict for products of hyperplanes with a smooth form
# ---------------------------------------------------------------------------


def _linear_form_coefficients(ell: Poly) -> list[Fraction]:
    if ell.is_zero() or not ell.is_homogeneous() or ell.total_degree() != 1:
        raise PreconditionError(
            f"{poly_to_str(ell)} is not a homogeneous linear form"
        )
    return [d.constant_value() for d in ell.gradient()]


def smooth_times_nc_verdict(
    f: Poly, ells: Sequence[Poly], smooth_asserted: bool
) -> ObstructionReport:
    """Obstruction report for g = ell_1 * ... * ell_n * f with f a smooth form.

    The linear forms are sent to the coordinates by an exact change of
    variables; the two obstructions then run on the transformed form.  The
    conclusion is NotFree only when smoothness is asserted, the degree and
    dimension hypotheses k > 2 and n > 2 hold, the coordinate monomial
    membership is violated, and the support exponents are independent;
    anything less yields Inconclusive with the partial findings attached.
    The forms must be linearly independent.
    """
    ctx = f.ctx
    n = ctx.nvars
    k = homogeneous_degree(f)
    ells = list(ells)
    if len(ells) != n:
        raise PreconditionError(f"need {n} linear forms, got {len(ells)}")
    for ell in ells:
        if ell.ctx != ctx:
            raise PreconditionError("the linear forms must share the form's context")
    coeff_rows = [_linear_form_coefficients(ell) for ell in ells]
    det_l = fraction_det(coeff_rows)
    if det_l == 0:
        raise PreconditionError("the linear forms are linearly dependent")
    candidate = poly_product(ctx, [f, *ells])

    checks: list[ObstructionCheck] = [
        ObstructionCheck("linear_independence", "satisfied", det_l),
        ObstructionCheck(
            "smoothness_assertion",
            "asserted" if smooth_asserted else "not_asserted",
        ),
    ]
    if k <= 2 or n <= 2:
        checks.append(
            ObstructionCheck(
                "degree_and_dimension",
                "failed",
                f"need degree > 2 and more than 2 variables, got degree {k} "
                f"in {n} variables",
            )
        )
        checks.append(ObstructionCheck("coordinate_monomial_membership", "skipped"))
        checks.append(ObstructionCheck("exponent_independence", "skipped"))
        return ObstructionReport(candidate, tuple(checks), "Inconclusive")
    checks.append(ObstructionCheck("degree_and_dimension", "satisfied", f"{k} > 2, {n} > 2"))

    # det_l != 0, so [L | I] reduces to [I | L^-1]
    reduced, _ = rref([row + [Fraction(int(i == j)) for j in range(n)]
                       for i, row in enumerate(coeff_rows)])
    inverse = [row[n:] for row in reduced]
    # L * L^-1 = I, on the integer forms of the rows of L and the columns of
    # L^-1: then each ell_i becomes x_i under the new coordinates
    columns = [_integer_form(col) for col in zip(*inverse)]
    for i, (d_row, row) in enumerate(map(_integer_form, coeff_rows)):
        for j, (d_col, col) in enumerate(columns):
            if sum(map(mul, row, col)) != (d_row * d_col if i == j else 0):
                raise InternalCheckError(
                    "the coordinate change does not straighten the linear forms"
                )
    new_coords = [
        ctx.sum(ctx.var(ctx.names[j]).scale(inverse[i][j]) for j in range(n))
        for i in range(n)
    ]
    f_t = substitute(f, new_coords)

    membership = scalar_membership_obstruction(f_t)
    if membership.member:
        checks.append(
            ObstructionCheck(
                "coordinate_monomial_membership", "satisfied", membership.witness
            )
        )
    else:
        checks.append(
            ObstructionCheck(
                "coordinate_monomial_membership", "violated", membership.reason
            )
        )

    refuted = False
    independence = None
    try:
        independence = exponent_independence(f_t)
    except SmoothnessRefutedError as err:
        refuted = True
        checks.append(ObstructionCheck("exponent_independence", "refuted", str(err)))
    if independence is not None:
        checks.append(
            ObstructionCheck(
                "exponent_independence",
                "satisfied" if independence.independent else "failed",
                independence.det_value,
            )
        )

    not_free = (
        smooth_asserted
        and not refuted
        and not membership.member
        and independence is not None
        and independence.independent
    )
    return ObstructionReport(
        candidate, tuple(checks), "NotFree" if not_free else "Inconclusive"
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _witness_json(w):
    if w is None:
        return None
    if isinstance(w, Poly):
        return poly_to_str(w)
    if isinstance(w, Fraction):
        return str(w)
    if isinstance(w, (tuple, list)):
        return [_witness_json(x) for x in w]
    return str(w)


def obstruction_report_to_json(report: ObstructionReport) -> dict:
    return {
        "candidate": poly_to_str(report.candidate),
        "vars": list(report.candidate.ctx.names),
        "conclusion": report.conclusion,
        "checks": [
            {"name": c.name, "verdict": c.verdict, "witness": _witness_json(c.witness)}
            for c in report.checks
        ],
    }
