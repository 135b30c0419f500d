"""Constructors for families of free divisors, each returning verified data.

Every constructor in this module re-verifies its output at runtime: a
returned certificate or frame has passed the determinant and logarithmic
checks in :mod:`freediv.saito`, and documented identities between
independently computed quantities are asserted (an
:class:`~freediv.matrices.InternalCheckError` means a bug in this library,
never bad user input).

Families covered:

* monomial-times-binomial divisors with an explicit square matrix and a
  freeness classifier (:func:`binomial_divisor`, :func:`is_free_binomial`);
* three-variable divisors annihilated by a diagonal vector field
  (:func:`euler3_divisor`) and the cone-of-plane-curves instances built on
  them (:func:`cone_family`);
* triangular chains grown one variable at a time from a framed seed
  (:func:`triangular_extend`, :func:`brieskorn_chain`);
* substitution of a framed divisor into a free divisor of coordinate
  hyperplanes times a unit (:func:`compose_factors`, :func:`compose`,
  :func:`sum_compose`);
* tangent-direction and multi-jet extensions driven by a Hilbert-Burch
  matrix (:func:`tangent_extend`, :func:`multi_jet_extend`,
  :func:`iterate_tangent`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add
from typing import Sequence

from .poly import (
    Context,
    Poly,
    deg_shift_inverse,
    divide_exact,
    is_integer,
    normalize_primitive,
    poly_gcd,
    poly_product,
    poly_to_str,
    squarefree_gcd,
    squarefree_on_line,
    star,
    substitute,
)
from .matrices import InternalCheckError, PolyMatrix, block_diagonal
from .linalg import _weighted_coordinates, euler_annihilators, two_weight_annihilator
from .saito import (
    FramedDivisor,
    FramingError,
    HilbertBurch,
    PreconditionError,
    SaitoCertificate,
    VerificationError,
    _strict_frame,
    _verify_factors,
    column_roles,
    frame_divisor,
    hilbert_burch_from_framed,
    verify_saito,
)

__all__ = [
    "FamilyVerdict",
    "BinomialSpec",
    "binomial_divisor",
    "is_free_binomial",
    "euler3_divisor",
    "cone_family",
    "TriangularStep",
    "triangular_extend",
    "brieskorn_seed",
    "brieskorn_chain",
    "CommonFactorError",
    "compose_factors",
    "compose",
    "sum_compose",
    "multi_jet_extend",
    "tangent_extend",
    "iterate_tangent",
    "normal_crossing_matrix",
    "given_or_normal_crossing",
]


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyVerdict:
    """Outcome of a freeness classification.

    status is one of:

    * ``"free"`` -- a verified certificate is attached;
    * ``"not_free"`` -- freeness is refuted, with a witness where available;
    * ``"suspension"`` -- the divisor does not involve all variables and the
      question reduces to fewer variables; no certificate is attempted;
    * ``"unknown"`` -- the sufficient conditions fail but no refutation is
      available.
    """

    status: str
    reason: str
    certificate: SaitoCertificate | None = None
    hilbert_burch: HilbertBurch | None = None
    framed: FramedDivisor | None = None
    normal_form: "BinomialSpec | None" = None
    witness: Poly | None = None

    @property
    def is_free(self) -> bool:
        return self.status == "free"


# ---------------------------------------------------------------------------
# monomial-times-binomial divisors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinomialSpec:
    """Normal form x1*...*xn * y^u * z^t * (x^a y^alpha + x^b z^beta).

    The exponent vectors a and b are componentwise coprime
    (min(a_i, b_i) = 0), alpha and beta are positive, and u, t lie in {0, 1}.
    Custom variable names may be supplied; defaults are x1..xn, y, z.
    """

    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    alpha: int
    beta: int
    u: int
    t: int
    x_names: tuple[str, ...] | None = None
    y_name: str = "y"
    z_name: str = "z"

    def __post_init__(self):
        if not is_integer(self.n) or self.n < 0:
            raise PreconditionError(f"n must be a non-negative integer, got {self.n!r}")
        object.__setattr__(self, "a", tuple(self.a))
        object.__setattr__(self, "b", tuple(self.b))
        for v in self.a + self.b + (self.u, self.t):
            if not is_integer(v):
                raise PreconditionError(f"exponents must be integers, got {v!r}")
        if len(self.a) != self.n or len(self.b) != self.n:
            raise PreconditionError("exponent vectors a, b must have length n")
        if any(v < 0 for v in self.a + self.b):
            raise PreconditionError("exponents must be non-negative")
        for i, (ai, bi) in enumerate(zip(self.a, self.b)):
            if min(ai, bi) != 0:
                raise PreconditionError(
                    f"a and b must be componentwise coprime; position {i} has "
                    f"min({ai}, {bi}) != 0"
                )
        if not (is_integer(self.alpha) and self.alpha >= 1):
            raise PreconditionError(f"alpha must be a positive integer, got {self.alpha!r}")
        if not (is_integer(self.beta) and self.beta >= 1):
            raise PreconditionError(f"beta must be a positive integer, got {self.beta!r}")
        if self.u not in (0, 1) or self.t not in (0, 1):
            raise PreconditionError("u and t must lie in {0, 1}")
        if self.x_names is not None:
            object.__setattr__(self, "x_names", tuple(self.x_names))
            if len(self.x_names) != self.n:
                raise PreconditionError("x_names must list one name per x-variable")
        names = (self.x_names or ()) + (self.y_name, self.z_name)
        if len(set(names)) != len(names):
            raise PreconditionError(f"variable names must be distinct, got {names}")

    def variable_names(self) -> tuple[str, ...]:
        xs = self.x_names or tuple(f"x{i + 1}" for i in range(self.n))
        return xs + (self.y_name, self.z_name)


def _binomial_saito(
    ctx: Context,
    x_idx: Sequence[int],
    y_idx: int,
    z_idx: int,
    a: Sequence[int],
    b: Sequence[int],
    alpha: int,
    beta: int,
    u: int,
    t: int,
    c1: Fraction,
    c2: Fraction,
) -> tuple[Poly, PolyMatrix]:
    """Divisor and square matrix for X y^u z^t (c1 x^a y^alpha + c2 x^b z^beta).

    Variables of ctx outside x_idx + {y_idx, z_idx} receive identity columns,
    so the construction embeds into any ambient context.  Every entry is read
    from exponent vectors, with no polynomial product: with A and B the
    exponents of x^a y^alpha and x^b z^beta, L that of X y^u z^t and e_v the
    unit vector of v,

    * f = {L+A: c1, L+B: c2} and g = {A: c1, B: c2};
    * p = u*g + {A+(u-1)e_y: alpha*c1} and q = t*g + {B+(t-1)e_z: beta*c2},
      summed by Context.sum, so that for u = 1 (t = 1) the two terms at A
      (at B) merge;
    * -(y^u) q and z^t p are q and p shifted by u*e_y and t*e_z.

    Terms, values and term order are those of the products that they stand
    for.
    """
    xs = [ctx.var(ctx.names[i]) for i in x_idx]
    y = ctx.var(ctx.names[y_idx])
    z = ctx.var(ctx.names[z_idx])
    nall = ctx.nvars
    A, B, L = [0] * nall, [0] * nall, [0] * nall
    for i, ai, bi in zip(x_idx, a, b):
        A[i], B[i], L[i] = ai, bi, 1
    A[y_idx], B[z_idx], L[y_idx], L[z_idx] = alpha, beta, u, t
    f = Poly(ctx, {tuple(map(add, L, A)): c1, tuple(map(add, L, B)): c2})
    g = Poly(ctx, {tuple(A): c1, tuple(B): c2})
    A[y_idx] += u - 1
    B[z_idx] += t - 1
    p = g.scale(u) + Poly(ctx, {tuple(A): alpha * c1})
    q = g.scale(t) + Poly(ctx, {tuple(B): beta * c2})

    def shifted(h: Poly, v: int, k: int) -> Poly:
        return Poly(ctx, {e[:v] + (e[v] + k,) + e[v + 1:]: c for e, c in h.items()})

    zero = ctx.zero()
    rows = [[zero] * nall for _ in range(nall)]
    special = set(x_idx) | {y_idx, z_idx}
    for k, i in enumerate(x_idx):
        rows[i][i] = xs[k]
        rows[z_idx][i] = z.scale(Fraction(a[k] - b[k], beta))
    rows[y_idx][y_idx] = y.scale(beta)
    rows[z_idx][y_idx] = z.scale(alpha)
    rows[y_idx][z_idx] = -shifted(q, y_idx, u)
    rows[z_idx][z_idx] = shifted(p, z_idx, t)
    for i in range(nall):
        if i not in special:
            rows[i][i] = ctx.const(1)
    return f, PolyMatrix(ctx, rows)


def _verify_binomial(
    f: Poly, matrix: PolyMatrix, alpha: int, beta: int, u: int, t: int
) -> SaitoCertificate:
    """verify_saito(f, matrix) for a matrix of _binomial_saito, whose
    determinant scalar must be beta*alpha + u*beta + t*alpha exactly."""
    cert = verify_saito(f, matrix)
    expected = Fraction(beta * alpha + u * beta + t * alpha)
    if cert.det_scalar != expected:
        raise InternalCheckError(
            f"determinant scalar {cert.det_scalar} differs from the closed form {expected}"
        )
    return cert


def binomial_divisor(spec: BinomialSpec) -> SaitoCertificate:
    """Build and certify the divisor of a :class:`BinomialSpec`.

    The determinant scalar is asserted to equal
    beta*alpha + u*beta + t*alpha exactly.
    """
    names = spec.variable_names()
    ctx = Context(names)
    f, matrix = _binomial_saito(
        ctx,
        range(spec.n),
        spec.n,
        spec.n + 1,
        spec.a,
        spec.b,
        spec.alpha,
        spec.beta,
        spec.u,
        spec.t,
        Fraction(1),
        Fraction(1),
    )
    return _verify_binomial(f, matrix, spec.alpha, spec.beta, spec.u, spec.t)


def is_free_binomial(F: Poly) -> FamilyVerdict:
    """Classify a squarefree two-term polynomial: monomial times binomial.

    Writes F = L * (c1*M + c2*N) with L the componentwise-minimum monomial and
    M, N coprime monomials, then tests the two support conditions: at most one
    variable of M is missing from L, and at most one variable of N is missing
    from L.  When both hold the divisor is free and an explicit certificate is
    returned together with the detected normal form.  When a condition fails,
    the answer is ``not_free`` if M and N have equal total degree (the
    conditions are then necessary) and ``unknown`` otherwise.

    Raises PreconditionError for inputs outside the family: not exactly two
    terms, not squarefree, or one of M, N constant.
    """
    if F.is_zero() or F.is_constant():
        raise PreconditionError("the divisor must be nonzero and nonconstant")
    if F.num_terms() != 2:
        raise PreconditionError(
            f"expected exactly two terms, got {F.num_terms()}: not of monomial-times-binomial shape"
        )
    wit = squarefree_gcd(F)
    if not wit.is_constant():
        raise PreconditionError(
            f"the divisor is not squarefree; repeated factor witness {poly_to_str(wit)}"
        )
    ctx = F.ctx
    e1, e2 = F.support()
    c1, c2 = F.coeff(e1), F.coeff(e2)
    l_exp = tuple(min(p, q) for p, q in zip(e1, e2))
    m_exp = tuple(p - q for p, q in zip(e1, l_exp))
    n_exp = tuple(p - q for p, q in zip(e2, l_exp))
    supp_l = {i for i, v in enumerate(l_exp) if v}
    supp_m = {i for i, v in enumerate(m_exp) if v}
    supp_n = {i for i, v in enumerate(n_exp) if v}
    if any(v > 1 for v in l_exp):
        raise InternalCheckError("squarefree divisor with a squared shared variable")
    if not supp_m or not supp_n:
        raise PreconditionError(
            "one term divides the other's monomial part; the binomial cofactor "
            "is monomial-plus-constant and outside this family"
        )
    missing_m = sorted(supp_m - supp_l)
    missing_n = sorted(supp_n - supp_l)
    if len(missing_m) <= 1 and len(missing_n) <= 1:
        y_idx = missing_m[0] if missing_m else min(supp_m)
        z_idx = missing_n[0] if missing_n else min(supp_n)
        u = l_exp[y_idx]
        t = l_exp[z_idx]
        x_idx = sorted(supp_l - {y_idx, z_idx})
        a = tuple(m_exp[i] for i in x_idx)
        b = tuple(n_exp[i] for i in x_idx)
        alpha = m_exp[y_idx]
        beta = n_exp[z_idx]
        f_check, matrix = _binomial_saito(
            ctx, x_idx, y_idx, z_idx, a, b, alpha, beta, u, t, c1, c2
        )
        if f_check != F:
            raise InternalCheckError("normal-form reconstruction does not reproduce the input")
        cert = _verify_binomial(F, matrix, alpha, beta, u, t)
        spec = BinomialSpec(
            n=len(x_idx),
            a=a,
            b=b,
            alpha=alpha,
            beta=beta,
            u=u,
            t=t,
            x_names=tuple(ctx.names[i] for i in x_idx),
            y_name=ctx.names[y_idx],
            z_name=ctx.names[z_idx],
        )
        return FamilyVerdict(
            "free",
            "both support conditions hold; explicit certificate constructed",
            certificate=cert,
            normal_form=spec,
        )
    fails = []
    if len(missing_m) > 1:
        fails.append(
            "term 1 has several variables missing from the shared squarefree part: "
            + ", ".join(ctx.names[i] for i in missing_m)
        )
    if len(missing_n) > 1:
        fails.append(
            "term 2 has several variables missing from the shared squarefree part: "
            + ", ".join(ctx.names[i] for i in missing_n)
        )
    homogeneous = sum(m_exp) == sum(n_exp)
    if homogeneous:
        return FamilyVerdict(
            "not_free",
            "; ".join(fails) + " (the two terms have equal cofactor degrees, so the "
            "support conditions are necessary: the divisor is not free)",
        )
    return FamilyVerdict(
        "unknown",
        "; ".join(fails) + " (unequal cofactor degrees: the sufficient conditions "
        "fail but are not known to be necessary here)",
    )


# ---------------------------------------------------------------------------
# three-variable divisors with a diagonal annihilating field
# ---------------------------------------------------------------------------


def _euler3_case_all_nonzero(f: Poly, e: tuple[Fraction, ...]) -> PolyMatrix:
    """Hilbert-Burch matrix when all three coefficients are nonzero."""
    ctx = f.ctx
    x, y, z = ctx.gens()
    a, b, c = e
    f_yz = f.derivative(1).derivative(2)
    f_xz = f.derivative(0).derivative(2)
    f_xy = f.derivative(0).derivative(1)
    shift = lambda g: deg_shift_inverse(g, 2)
    col2 = [
        shift(f_yz).scale(Fraction(1, 1) / c - Fraction(1, 1) / b),
        shift(f_xz).scale(Fraction(1, 1) / a - Fraction(1, 1) / c),
        shift(f_xy).scale(Fraction(1, 1) / b - Fraction(1, 1) / a),
    ]
    return PolyMatrix(ctx, [
        [x.scale(a), col2[0]],
        [y.scale(b), col2[1]],
        [z.scale(c), col2[2]],
    ])


def _euler3_case_one_zero(
    f: Poly, e: tuple[Fraction, ...], p: int
) -> tuple[PolyMatrix | None, Poly | None]:
    """Hilbert-Burch matrix (or a refutation witness) when exactly one
    coefficient, e_p, vanishes.  Returns (matrix, None) or (None, witness).

    Every term x^a of f, so of df/dx_p, has e_q*a_q + e_r*a_r = 0 (the field
    annihilates f, and e_p = 0).  So a term without x_q has no x_r:
    df/dx_p lies in (x_q, x_r) only as x_q * g, its terms without x_q are
    the witness, and the entry that would hold a part in (x_r) is 0.
    """
    ctx = f.ctx
    q, r = (i for i in range(3) if i != p)
    fp = f.derivative(p)
    bad = {exp: coef for exp, coef in fp.items() if not exp[q]}
    if bad:
        return None, Poly(ctx, bad)
    g = Poly(ctx, {exp[:q] + (exp[q] - 1,) + exp[q + 1:]: coef for exp, coef in fp.items()})
    x = ctx.gens()
    top = divide_exact(f.derivative(q), x[r].scale(e[r]))
    if top is None:
        raise InternalCheckError(
            "the second partial is not divisible by the third variable despite the "
            "annihilation relation"
        )
    rows = [None] * 3
    rows[p] = [ctx.zero(), top]
    rows[q] = [x[q].scale(e[q]), ctx.zero()]
    rows[r] = [x[r].scale(e[r]), g.scale(1 / e[q])]
    return PolyMatrix(ctx, rows), None


_EULER3_MINORS = "signed maximal minors of the constructed matrix do not reproduce the gradient"


def _unit_frame(f: Poly, unit: Sequence, b: PolyMatrix) -> FramedDivisor:
    """The strict frame [E_unit | b] of the reduced f, E_unit(f) = f.

    Its det_scalar is the scalar of the signed maximal minors of b (see
    saito.hilbert_burch_from_framed, with c0 = 1).  A frame that fails or is
    not strict is an InternalCheckError: the constructions build annihilators
    whose minors are a unit multiple of the gradient.
    """
    euler_col = _weighted_coordinates(f.ctx, unit)
    full = PolyMatrix(f.ctx, [(euler_col[i],) + b.rows[i] for i in range(3)])
    try:
        fd = frame_divisor([f], full)
    except VerificationError:
        raise InternalCheckError(_EULER3_MINORS) from None
    if column_roles(fd) != ["euler:0", "annihilator", "annihilator"]:
        raise InternalCheckError(_EULER3_MINORS)
    return fd


def euler3_divisor(f: Poly, e: Sequence) -> FamilyVerdict:
    """Classify a reduced three-variable divisor annihilated by a diagonal field.

    Given f with e1*x*df/dx + e2*y*df/dy + e3*z*df/dz = 0 for a nonzero
    vector e, and f lying in the ideal of its own partials (detected through
    a unit-degree diagonal field), the outcome depends on how many entries of
    e vanish:

    * none -- f is free; a two-column matrix with signed maximal minors equal
      to the gradient is built from the shifted mixed partials;
    * exactly one (say at position p) -- f is free exactly when df/dx_p lies
      in the ideal of the other two variables; otherwise ``not_free`` with the
      offending terms as witness;
    * two -- f does not involve the remaining variable: ``suspension``.

    The refutation branch presumes a singular divisor.  A smooth divisor can
    satisfy every hypothesis (for example x - y*z with e = (0, 1, -1)) and
    still be free even though the branch reports otherwise; callers able to
    detect smoothness should screen such inputs first.
    """
    ctx = f.ctx
    if ctx.nvars != 3:
        raise PreconditionError(f"need exactly 3 variables, got {ctx.nvars}")
    e = tuple(Fraction(v) for v in e)
    if len(e) != 3:
        raise PreconditionError("the field must have 3 coefficients")
    if all(v == 0 for v in e):
        raise PreconditionError("the annihilating field must be nonzero")
    if f.is_zero() or f.is_constant():
        raise PreconditionError("the divisor must be nonzero and nonconstant")
    wit = squarefree_gcd(f)
    if not wit.is_constant():
        raise PreconditionError(
            f"the divisor is not reduced; repeated factor witness {poly_to_str(wit)}"
        )
    if not f.euler_apply(e).is_zero():
        raise PreconditionError("the given diagonal field does not annihilate f")
    ann = euler_annihilators(f)
    if ann.unit_degree_field is None:
        raise PreconditionError(
            "no diagonal field of unit degree exists; cannot place f inside the "
            "ideal of its partial derivatives"
        )
    unit = ann.unit_degree_field
    zeros = [i for i in range(3) if e[i] == 0]
    if len(zeros) == 2:
        alive = next(i for i in range(3) if e[i] != 0)
        if not f.derivative(alive).is_zero():
            raise InternalCheckError(
                "annihilation by a single-variable field must kill that partial"
            )
        return FamilyVerdict(
            "suspension",
            f"f does not involve {ctx.names[alive]}; it is a suspended plane "
            "curve and freeness reduces to two variables",
        )
    if zeros:
        b, witness = _euler3_case_one_zero(f, e, zeros[0])
        if b is None:
            p = zeros[0]
            rest = [ctx.names[i] for i in range(3) if i != p]
            return FamilyVerdict(
                "not_free",
                f"d f/d {ctx.names[p]} has terms outside the ideal "
                f"({rest[0]}, {rest[1]}); the divisor is not free",
                witness=witness,
            )
        reason = (
            f"one vanishing coefficient at {ctx.names[zeros[0]]}: partial-splitting "
            "construction succeeded"
        )
    else:
        b = _euler3_case_all_nonzero(f, e)
        reason = "all coefficients nonzero: diagonal-plus-polar construction succeeded"
    fd = _unit_frame(f, unit, b)
    if fd.certificate.det_scalar == -1:
        # every maximal minor of the 3 x 2 matrix holds column 0 once
        b = b.scale_column(0, -1)
        fd = _unit_frame(f, unit, b)
    if fd.certificate.det_scalar != 1:
        raise InternalCheckError(_EULER3_MINORS)
    hb = HilbertBurch(f, b, Fraction(1))
    return FamilyVerdict(
        "free",
        reason,
        certificate=fd.certificate,
        hilbert_burch=hb,
        framed=fd,
    )


def cone_family(
    k: int,
    gammas: Sequence[int],
    a: int,
    b: int,
    c: int,
    alphas: Sequence,
) -> FamilyVerdict:
    """Classify x^g1 y^g2 z^g3 * prod_i (x^a - alpha_i y^b z^c).

    Parameters: k >= 1 factors, exponents g1, g2, g3 in {0, 1}, positive
    integers a, b, c, and k pairwise distinct nonzero scalars alpha_i.  The
    divisor is bihomogeneous for the weights (0, c, -b) and (b, a, 0); the
    induced diagonal annihilating field feeds :func:`euler3_divisor`, and the
    verdict is cross-checked against the closed-form answer g2 + g3 > 0.

    The single smooth instance class (k = 1, a = 1, g = (0, 0, 0)) is
    rejected: the refutation branch presumes a singular divisor.
    """
    if not is_integer(k) or k < 1:
        raise PreconditionError(f"k must be a positive integer, got {k!r}")
    gammas = tuple(gammas)
    if len(gammas) != 3 or any(not is_integer(g) or g not in (0, 1) for g in gammas):
        raise PreconditionError("gammas must be three exponents in {0, 1}")
    for nm, v in (("a", a), ("b", b), ("c", c)):
        if not is_integer(v) or v < 1:
            raise PreconditionError(f"{nm} must be a positive integer, got {v!r}")
    alphas = tuple(Fraction(x) for x in alphas)
    if len(alphas) != k:
        raise PreconditionError(f"need {k} scalars alpha, got {len(alphas)}")
    if any(x == 0 for x in alphas):
        raise PreconditionError("the scalars alpha must be nonzero")
    if len(set(alphas)) != k:
        raise PreconditionError("repeated alpha values produce a non-reduced divisor")
    if gammas == (0, 0, 0) and k == 1 and a == 1:
        raise PreconditionError(
            "this instance is a smooth hypersurface; the refutation branch "
            "presumes a singular divisor and does not apply"
        )
    ctx = Context(("x", "y", "z"))
    x, y, z = ctx.gens()
    f = x ** gammas[0] * y ** gammas[1] * z ** gammas[2]
    base = y ** b * z ** c
    for alpha in alphas:
        f = f * (x ** a - base.scale(alpha))
    e = two_weight_annihilator(f, (0, c, -b), (b, a, 0))
    verdict = euler3_divisor(f, e)
    expected_free = gammas[1] + gammas[2] > 0
    if verdict.status == "suspension" or verdict.is_free != expected_free:
        raise InternalCheckError(
            f"constructive outcome {verdict.status} contradicts the closed-form "
            f"answer (free iff g2 + g3 > 0)"
        )
    return verdict


# ---------------------------------------------------------------------------
# triangular chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangularStep:
    """One extension step F = alpha * x_new^a + beta * (previous factor)^b."""

    a: int
    b: int
    alpha: Fraction
    beta: Fraction
    new_var: str

    def __post_init__(self):
        if not is_integer(self.a) or self.a < 1:
            raise PreconditionError(f"a must be a positive integer, got {self.a!r}")
        if not is_integer(self.b) or self.b < 1:
            raise PreconditionError(f"b must be a positive integer, got {self.b!r}")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.alpha == 0:
            raise PreconditionError("alpha must be nonzero")


def triangular_extend(fd: FramedDivisor, step: TriangularStep) -> FramedDivisor:
    """Append a fresh variable and the factor alpha*x^a + beta*(last factor)^b.

    The new matrix keeps the old block, adds a bottom row whose entry under
    column j is (b/a) * q_j * x_new where q_j is the column's logarithmic
    quotient on the last factor, and a final column carrying the new factor.
    The result is re-verified from scratch by :func:`frame_divisor`.
    """
    prev = fd.factors[-1]
    big = fd.ctx.extend([step.new_var])
    xnew = big.var(step.new_var)
    prev_big = prev.embedded(big)
    new_factor = (xnew ** step.a).scale(step.alpha) + (prev_big ** step.b).scale(step.beta)
    n_old = fd.ctx.nvars
    m_old = fd.matrix.ncols
    last = len(fd.factors) - 1
    rows = [
        [fd.matrix.entry(i, j).embedded(big) for j in range(m_old)] + [big.zero()]
        for i in range(n_old)
    ]
    bottom = [
        (fd.multipliers[j][last].embedded(big) * xnew).scale(Fraction(step.b, step.a))
        for j in range(m_old)
    ]
    bottom.append(new_factor)
    rows.append(bottom)
    factors = [g.embedded(big) for g in fd.factors] + [new_factor]
    weight = None
    if fd.weight is not None:
        d_prev = prev.weighted_degree(fd.weight)
        weight = fd.weight + (Fraction(step.b) * d_prev / step.a,)
    return frame_divisor(factors, PolyMatrix(big, rows), weight=weight)


def brieskorn_seed(t1: int, t2: int, names: Sequence[str] = ("x1", "x2")) -> FramedDivisor:
    """Framed plane curve x1^t1 + x2^t2 with its weighted-Euler/rotation matrix."""
    for v in (t1, t2):
        if not is_integer(v) or v < 1:
            raise PreconditionError(f"exponents must be positive integers, got {v!r}")
    names = tuple(names)
    if len(names) != 2:
        raise PreconditionError("exactly two variable names required")
    ctx = Context(names)
    x1, x2 = ctx.gens()
    g = gcd(t1, t2)
    ell = lcm(t1, t2)
    curve = x1 ** t1 + x2 ** t2
    matrix = PolyMatrix(ctx, [
        [x1.scale(Fraction(ell, t1)), (x2 ** (t2 - 1)).scale(-Fraction(t2, g))],
        [x2.scale(Fraction(ell, t2)), (x1 ** (t1 - 1)).scale(Fraction(t1, g))],
    ])
    return frame_divisor([curve], matrix, weight=(Fraction(ell, t1), Fraction(ell, t2)))


def brieskorn_chain(*t: int, names: Sequence[str] | None = None) -> FramedDivisor:
    """Chain x1^t1 + x2^t2, then x_j^t_j + (previous factor) for j >= 3.

    Returns the framed product of all chain members; with every t_i = 2 the
    matrix reproduces the block pattern of nested spheres exactly.
    """
    if len(t) < 2:
        raise PreconditionError("at least two exponents required")
    if names is None:
        names = tuple(f"x{i + 1}" for i in range(len(t)))
    names = tuple(names)
    if len(names) != len(t):
        raise PreconditionError("one variable name per exponent required")
    fd = brieskorn_seed(t[0], t[1], names[:2])
    for j in range(2, len(t)):
        fd = triangular_extend(
            fd, TriangularStep(a=t[j], b=1, alpha=Fraction(1), beta=Fraction(1), new_var=names[j])
        )
    return fd


# ---------------------------------------------------------------------------
# substitution into a product of coordinates times a unit cofactor
# ---------------------------------------------------------------------------


class CommonFactorError(VerificationError):
    """The substituted divisor is non-reduced: a substituent shares a factor
    with the substituted cofactor.  Carries the gcd as witness (primitive,
    normalized to a positive trailing coefficient) and the full substituted
    polynomial."""

    def __init__(self, witness: Poly, substituted: Poly, message: str):
        super().__init__("common_factor", message, witness=witness)
        self.substituted = substituted


def _normalize_witness(p: Poly) -> Poly:
    """Primitive representative with positive trailing (grevlex-least) coefficient."""
    p = normalize_primitive(p)
    if p.coeff(p.support()[-1]) < 0:
        p = p.scale(-1)
    return p


def compose_factors(
    factors: Sequence[Poly],
    outer: FramedDivisor,
    frame: FramedDivisor | None = None,
) -> FramedDivisor:
    """Substitute the given factors into an outer free divisor y1*...*yk*H1.

    The outer frame must be square with every row divisible by its own
    variable; the substituents must admit a strict frame (one scalar diagonal
    column per factor, every other column annihilating all factors), passed
    as ``frame``.  Reducedness of the substituted divisor is proved once, by
    the line certificate of :func:`squarefree_on_line` on the full product.
    Only when that certificate is not obtained do the exact checks run:
    factor-wise gcds against the substituted cofactor (raising
    :class:`CommonFactorError` with the offending factor), then a squarefree
    test of the full product.  All of this runs *before* the frame is
    consulted, so a non-reduced substitution is reported even when no frame
    exists.

    The factor gcds stay ahead of squarefree_gcd of the product: its gcd fold
    on the 1,272-term product of corpus entry compose-01-shared-factor had
    not finished after 5 minutes (Python 3.11, a 2-core VM), while a factor
    gcd names that entry's shared factor at once.
    """
    factors = tuple(factors)
    k = outer.ctx.nvars
    if len(factors) != k:
        raise PreconditionError(f"need {k} substituents for this outer divisor, got {len(factors)}")
    if not factors:
        raise PreconditionError("at least one substituent required")
    ctx = factors[0].ctx
    for i, fi in enumerate(factors):
        if fi.ctx != ctx:
            raise PreconditionError("all substituents must share one context")
        if fi.is_zero() or fi.is_constant():
            raise PreconditionError(f"substituent {i} must be nonzero and nonconstant")
    ygens = outer.ctx.gens()
    coord_product = poly_product(outer.ctx, ygens)
    cofactor = divide_exact(outer.product, coord_product)
    if cofactor is None:
        raise PreconditionError(
            "the outer divisor must be divisible by the product of its variables"
        )
    substituted = substitute(outer.product, factors)
    if not squarefree_on_line(substituted):
        cofactor_sub = substitute(cofactor, factors)
        for i, fi in enumerate(factors):
            shared = poly_gcd(fi, cofactor_sub)
            if not shared.is_constant():
                shared = _normalize_witness(shared)
                raise CommonFactorError(
                    shared,
                    substituted,
                    f"substituent {i} shares the factor {poly_to_str(shared)} with the "
                    "substituted cofactor; the substituted divisor is not reduced",
                )
        sq = squarefree_gcd(substituted)
        if not sq.is_constant():
            raise VerificationError(
                "not_squarefree",
                f"the substituted divisor is not reduced; repeated factor witness "
                f"{poly_to_str(sq)}",
                witness=sq,
            )
    if frame is None:
        raise PreconditionError(
            "a strict frame for the substituents is required (a scalar diagonal "
            "column per factor plus annihilating columns)"
        )
    if tuple(frame.factors) != factors:
        raise PreconditionError("the frame's factor list does not match the substituents")
    roles = column_roles(frame)
    wanted = [f"euler:{i}" for i in range(k)]
    if roles[:k] != wanted or any(r != "annihilator" for r in roles[k:]):
        raise FramingError(
            f"the frame is not strict for {k} substituents: column roles {roles}"
        )
    inner = frame.matrix
    for j in range(k):
        scalar = frame.multipliers[j][j].constant_value()
        if scalar != 1:
            inner = inner.scale_column(j, Fraction(1, 1) / scalar)
    reduced_rows = []
    for i in range(k):
        row = []
        for j in range(k):
            q = divide_exact(outer.matrix.entry(i, j), ygens[i])
            if q is None:
                raise PreconditionError(
                    f"row {i} of the outer matrix is not divisible by {outer.ctx.names[i]}"
                )
            row.append(q)
        reduced_rows.append(row)
    reduced_sub = PolyMatrix(ctx, [
        [substitute(q, factors) for q in row] for row in reduced_rows
    ])
    n = ctx.nvars
    if n == k:
        right = reduced_sub
    else:
        right = block_diagonal([reduced_sub, PolyMatrix.identity(ctx, n - k)])
    new_matrix = inner @ right
    new_factors = [substitute(h, factors) for h in outer.factors]
    return frame_divisor(new_factors, new_matrix)


def compose(fd: FramedDivisor, outer: FramedDivisor) -> FramedDivisor:
    """Substitute the factors of a strictly framed divisor into an outer one."""
    return compose_factors(fd.factors, outer, frame=fd)


@cache
def _sum_outer_frame() -> FramedDivisor:
    """The frame of y1*y2*(y1 + y2), built and verified once, on first use."""
    hctx = Context(("y1", "y2"))
    y1, y2 = hctx.gens()
    matrix = PolyMatrix(hctx, [[y1, y1 * y1], [y2, -(y2 * y2)]])
    return frame_divisor([y1, y2, y1 + y2], matrix)


def sum_compose(fd_f: FramedDivisor, fd_g: FramedDivisor) -> FramedDivisor:
    """Free divisor f*g*(f+g) from weighted-homogeneous framed f and g on
    disjoint variable sets.

    Both inputs are normalized to strict frames, juxtaposed over the union
    context, and substituted into y1*y2*(y1+y2).  The inputs' certificates
    are trusted, as every FramedDivisor is, and not verified again; the
    composed frame is verified by compose_factors."""
    names_f = fd_f.ctx.names
    names_g = fd_g.ctx.names
    if set(names_f) & set(names_g):
        raise PreconditionError(
            f"variable sets must be disjoint; shared: {sorted(set(names_f) & set(names_g))}"
        )
    for fd, label in ((fd_f, "first"), (fd_g, "second")):
        if fd.weight is None:
            raise PreconditionError(
                f"the {label} input carries no weight vector; sum composition "
                "needs weighted-homogeneous inputs"
            )
    strict_f = _strict_frame(fd_f.certificate, fd_f.weight)
    strict_g = _strict_frame(fd_g.certificate, fd_g.weight)
    big = Context(names_f + names_g)
    nf, ng = len(names_f), len(names_g)

    def embed_right(p: Poly) -> Poly:
        tmp = p.embedded(Context(names_g + names_f))
        return tmp.reordered(big.names)

    f_big = strict_f.product.embedded(big)
    g_big = embed_right(strict_g.product)
    blocks = block_diagonal([
        strict_f.matrix.embedded(big),
        PolyMatrix(big, [[embed_right(p) for p in row] for row in strict_g.matrix.rows]),
    ])
    # the two Euler columns first, then the annihilators of f and of g
    matrix = blocks.submatrix(range(nf + ng), [0, nf, *range(1, nf), *range(nf + 1, nf + ng)])
    weight = tuple(fd_f.weight) + tuple(fd_g.weight)
    pair = frame_divisor([f_big, g_big], matrix, weight=weight)
    return compose_factors((f_big, g_big), _sum_outer_frame(), frame=pair)


# ---------------------------------------------------------------------------
# tangent-direction and multi-jet extensions
# ---------------------------------------------------------------------------

_TRAILING_NUM = re.compile(r"^(.*?)(\d+)$")
_JET_LETTERS = ("y", "z", "u", "v", "w", "p", "q", "r", "s", "t")


def _letter_available(letter: str, taken: set[str]) -> bool:
    for nm in taken:
        if nm == letter:
            return False
        if nm.startswith(letter) and nm[len(letter):].isdigit():
            return False
    return True


def _default_jet_names(ctx: Context, m: int) -> list[list[str]]:
    """Deterministic fresh names for m jet copies of the variables.

    A single variable whose name ends in digits continues the numbering
    (x0 -> x1, x2, ...).  Otherwise each jet copy takes the next letter from
    y, z, u, v, w, ... -- the bare letter for one variable, letter1..letterN
    for several."""
    n = ctx.nvars
    taken = set(ctx.names)
    if n == 1:
        match = _TRAILING_NUM.match(ctx.names[0])
        if match:
            prefix, num = match.group(1), int(match.group(2))
            groups = [[f"{prefix}{num + j}"] for j in range(1, m + 1)]
            flat = [nm for grp in groups for nm in grp]
            if len(set(flat)) == len(flat) and not (set(flat) & taken):
                return groups
    groups = []
    for _ in range(m):
        for letter in _JET_LETTERS:
            if not _letter_available(letter, taken):
                continue
            names = [letter] if n == 1 else [f"{letter}{i + 1}" for i in range(n)]
            groups.append(names)
            taken.update(names)
            break
        else:
            raise PreconditionError(
                "no unused letter available for jet variable names; pass fresh="
            )
    return groups


def normal_crossing_matrix(f: Poly) -> PolyMatrix | None:
    """Diagonal matrix certifying a scaled squarefree monomial, else None."""
    if f.is_zero() or f.is_constant() or f.num_terms() != 1:
        return None
    exp = f.lead_exponent()
    if any(v > 1 for v in exp):
        return None
    ctx = f.ctx
    entries = [
        ctx.var(ctx.names[i]) if exp[i] else ctx.const(1) for i in range(ctx.nvars)
    ]
    return PolyMatrix.diagonal(entries)


def given_or_normal_crossing(f: Poly, matrix: PolyMatrix | None, message: str) -> PolyMatrix:
    """The given matrix, else the normal-crossing matrix of a scaled
    squarefree monomial f, else PreconditionError(message)."""
    if matrix is None:
        matrix = normal_crossing_matrix(f)
        if matrix is None:
            raise PreconditionError(message)
    return matrix


def multi_jet_extend(
    f: Poly,
    hb: HilbertBurch,
    w: Sequence,
    m: int,
    fresh: Sequence[Sequence[str]] | None = None,
) -> SaitoCertificate:
    """Certify f * f^(1) * ... * f^(m), the product of f with its m polar forms.

    Here f^(j) = sum_i y_ji * df/dx_i over a fresh set of variables y_j1..y_jn
    for each jet level j.  Requires a weight vector w making f homogeneous of
    nonzero degree and a Hilbert-Burch matrix B for f (signed maximal minors
    equal to scalar * gradient).  The supplied B is user data, so it is
    re-validated here by verifying the Saito matrix [E_w | B]; the jet matrix
    is then built and verified by _jet_certificate.
    """
    ctx = f.ctx
    n = ctx.nvars
    if not is_integer(m) or m < 1:
        raise PreconditionError(f"m must be a positive integer, got {m!r}")
    if hb.divisor != f:
        raise PreconditionError("the Hilbert-Burch data describes a different divisor")
    if hb.matrix.ctx != ctx or hb.matrix.nrows != n or hb.matrix.ncols != n - 1:
        raise PreconditionError(
            f"the Hilbert-Burch matrix must be {n}x{n - 1} over the divisor's context"
        )
    w = tuple(Fraction(x) for x in w)
    if len(w) != n:
        raise PreconditionError("weight vector length mismatch")
    d = f.weighted_degree(w)
    if d == 0:
        raise PreconditionError("the weighted degree must be nonzero")
    # E_w(f) = d * f, so the minors of B are (det_scalar / d) * grad f when
    # [E_w | B] is a Saito matrix of the reduced f and B annihilates f
    # (saito.hilbert_burch_from_framed); conversely, minors lam * grad f with
    # lam != 0 make [E_w | B] such a matrix, with det_scalar = lam * d
    euler_col = _weighted_coordinates(ctx, w)
    try:
        check = verify_saito(f, PolyMatrix(ctx, [(euler_col[i],) + hb.matrix.rows[i]
                                                 for i in range(n)]))
    except VerificationError as e:
        if e.kind == "not_squarefree":
            raise
        check = None
    if (check is None or any(not q.is_zero() for q in check.log_quotients[1:])
            or check.det_scalar / d != hb.scalar):
        raise PreconditionError(
            "Hilbert-Burch re-validation failed: signed maximal minors do not "
            "match the declared multiple of the gradient"
        )
    return _jet_certificate(f, hb.matrix, w, m, fresh)


def _jet_certificate(f: Poly, b: PolyMatrix, w: tuple[Fraction, ...], m: int,
                     fresh: Sequence[Sequence[str]] | None) -> SaitoCertificate:
    """multi_jet_extend for a Hilbert-Burch matrix b of f known to be one.

    The jet matrix is square of size (m+1)*n: b stacked with its polars, a
    full weighted diagonal column, and per jet level a shifted copy of b
    plus that level's plain diagonal column.  It alone is verified, factor
    by factor, on f and on each f^(j), never on the expanded product.
    """
    ctx = f.ctx
    n = ctx.nvars
    if fresh is None:
        fresh = _default_jet_names(ctx, m)
    else:
        fresh = [list(grp) for grp in fresh]
        if len(fresh) != m or any(len(grp) != n for grp in fresh):
            raise PreconditionError(f"fresh must supply {m} groups of {n} names")
    big = ctx.extend([nm for grp in fresh for nm in grp])
    base = b.embedded(big)
    stacked = base.rows + tuple(tuple(star(p, big, grp) for p in row)
                                for grp in fresh for row in b.rows)
    # big's names are ctx's followed by the fresh groups in order
    head = PolyMatrix(big, stacked).with_column(_weighted_coordinates(big, w * (m + 1)))
    levels = block_diagonal([PolyMatrix(big, [()] * n)] + [
        base.with_column([big.var(nm) for nm in grp]) for grp in fresh])
    matrix = PolyMatrix(big, [h + t for h, t in zip(head.rows, levels.rows)])
    factors = [f.embedded(big)] + [star(f, big, grp) for grp in fresh]
    cert = _verify_factors(factors, matrix)[0]
    if cert.divisor.weighted_degree(w * (m + 1)) != (m + 1) * f.weighted_degree(w):
        raise InternalCheckError("the jet product has the wrong weighted degree")
    return cert


def tangent_extend(
    f: Poly,
    hb: HilbertBurch,
    w: Sequence,
    fresh: Sequence[str] | None = None,
) -> SaitoCertificate:
    """Single-level jet extension: certify f * (sum_i y_i df/dx_i)."""
    groups = None if fresh is None else [list(fresh)]
    return multi_jet_extend(f, hb, w, 1, groups)


def iterate_tangent(
    f0: Poly,
    w0: Sequence,
    steps: int,
    matrix: PolyMatrix | None = None,
) -> list[SaitoCertificate]:
    """Iterate the jet extension, re-framing the output of each step.

    Starts from f0 with weight vector w0 and a verified matrix (detected
    automatically when f0 is a scaled squarefree monomial), and applies the
    single-level jet extension ``steps`` times, returning the certificate
    chain including the seed.  Each step frames the certificate it holds and
    builds the jets on that frame's Hilbert-Burch matrix, so each divisor
    is verified by its strict frame and by its jet matrix, not again.  After
    step i the divisor lives in 2^i times as many variables, has 2^i times
    the seed's weighted degree, and is a product of i + 1 tracked factors;
    all three invariants are asserted.
    """
    if not is_integer(steps) or steps < 0:
        raise PreconditionError(f"steps must be a non-negative integer, got {steps!r}")
    matrix = given_or_normal_crossing(
        f0, matrix, "f0 is not a scaled squarefree monomial; supply a verified matrix"
    )
    weight = tuple(Fraction(x) for x in w0)
    cert = verify_saito(f0, matrix)
    certificates = [cert]
    factors = [f0]
    n0 = f0.ctx.nvars
    d0 = f0.weighted_degree(weight)
    for step in range(1, steps + 1):
        current = cert.divisor
        hb = hilbert_burch_from_framed(_strict_frame(cert, weight))
        cert = _jet_certificate(current, hb.matrix, weight, 1, None)
        big = cert.divisor.ctx
        # the jet factor _jet_certificate multiplied in: the polar form of
        # current over the fresh names
        jet = star(current, big, big.names[current.ctx.nvars:])
        factors = [g.embedded(big) for g in factors] + [jet]
        weight = weight + weight
        if big.nvars != (2 ** step) * n0:
            raise InternalCheckError("variable count drifted from 2^step * n")
        if cert.divisor.weighted_degree(weight) != (2 ** step) * d0:
            raise InternalCheckError("weighted degree drifted from 2^step * d")
        if len(factors) != step + 1:
            raise InternalCheckError("factor count drifted from step + 1")
        if poly_product(big, factors) != cert.divisor:
            raise InternalCheckError("tracked factors no longer multiply to the divisor")
        certificates.append(cert)
    return certificates
