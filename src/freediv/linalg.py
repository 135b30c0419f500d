"""Exact rational linear algebra and graded ideal computations.

Everything reduces to row reduction over Q: annihilating Euler fields from
support exponents, degree-matched ideal membership, bounded-degree syzygies,
and the Koszul homotopy that trivializes 1-cycles against a weighted Euler
derivation.  Polynomial identities become one rational system, a row per
(coordinate, exponent), built by _coefficient_system for every solve.

`rref` eliminates on sparse rows (a dict from column to nonzero entry), since
these systems are mostly zeros: the largest from the x_i * df/dx_i syzygy
searches are 65x43 at 7.5% nonzero.  The reduced row echelon form of a
matrix is unique, so neither the pivot rows an elimination picks nor the
order it clears them in can change the result: it is the dense Gauss-Jordan
output, entry for entry.  Each system is reduced once: `_solve` reduces the
augmented [A | b] and reads both the solution with free variables set to
zero and the kernel basis of A from it, because the pivots of [A | b] left
of its last column are exactly those of A.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from typing import Sequence

from .matrices import PolyMatrix
from .poly import (
    Context,
    Poly,
    PolyError,
    deg_shift_inverse,
    grevlex_key,
)

Vec = list[Fraction]


# ---------------------------------------------------------------------------
# rational row reduction
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Vec], list[int]]:
    """Reduced row echelon form and pivot column indices (columns scanned left to right).

    The elimination runs on sparse rows (column -> nonzero entry): a forward
    pass that takes, for each column, the shortest remaining row holding it as
    the pivot row, then back substitution from the last pivot up.  The
    result is returned dense: the pivot rows in pivot order, then the zero rows.
    """
    ncols = len(rows[0]) if rows else 0
    pending: list[dict[int, Fraction]] = []
    for r in rows:
        row = {}
        for c, x in enumerate(r):
            x = x if type(x) is Fraction else Fraction(x)
            if x:
                row[c] = x
        if row:
            pending.append(row)
    echelon: list[dict[int, Fraction]] = []
    pivots: list[int] = []
    for c in range(ncols):
        if not pending:
            break
        best = -1
        for i, row in enumerate(pending):
            if c in row and (best < 0 or len(row) < len(pending[best])):
                best = i
        if best < 0:
            continue
        pivot = pending.pop(best)
        inv = 1 / pivot.pop(c)
        rest = [(k, v * inv) for k, v in pivot.items()]
        for row in pending:
            _eliminate(row, c, rest)
        echelon.append(dict(rest))
        pivots.append(c)
    for i in range(len(echelon) - 1, 0, -1):
        c, rest = pivots[i], list(echelon[i].items())
        for row in echelon[:i]:
            _eliminate(row, c, rest)
    zero = Fraction(0)
    out: list[Vec] = []
    for c, row in zip(pivots, echelon):
        dense = [zero] * ncols
        dense[c] = Fraction(1)
        for k, v in row.items():
            dense[k] = v
        out.append(dense)
    out.extend([zero] * ncols for _ in range(len(rows) - len(out)))
    return out, pivots


def _eliminate(row: dict[int, Fraction], c: int, rest: list[tuple[int, Fraction]]) -> None:
    """Subtract row[c] times the normalized pivot row (1 at column c, rest elsewhere)."""
    f = row.pop(c, None)
    if f is None:
        return
    for k, v in rest:
        if k in row:
            x = row[k] - f * v
            if x:
                row[k] = x
            else:
                del row[k]
        else:
            row[k] = -f * v


def fraction_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square rational matrix by Gaussian elimination."""
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


def _normalize_integer_vector(v: Vec) -> Vec:
    """Clear denominators, divide by content, make the first nonzero entry positive."""
    den = 1
    for x in v:
        den = den * x.denominator // int_gcd(den, x.denominator)
    ints = [x * den for x in v]
    g = 0
    for x in ints:
        g = int_gcd(g, int(x))
    if g:
        ints = [x / g for x in ints]
    lead = next((x for x in ints if x != 0), None)
    if lead is not None and lead < 0:
        ints = [-x for x in ints]
    return [Fraction(x) for x in ints]


def _solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], ncols: int,
           kernel: bool = True) -> tuple[Vec | None, list[Vec]]:
    """One solution of A x = b (free variables set to zero, None when
    inconsistent) and, when asked, the kernel basis of A, from one
    reduction of [A | b].  Its pivots below column ncols are those of A."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)]
                       or [[Fraction(0)] * (ncols + 1)])
    particular = None
    if pivots and pivots[-1] == ncols:
        pivots = pivots[:-1]  # pivot in the augmented column: inconsistent
    else:
        particular = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            particular[pc] = red[r][ncols]
    basis: list[Vec] = []
    if kernel:
        pivot_set = set(pivots)
        for c in range(ncols):
            if c in pivot_set:
                continue
            v = [Fraction(0)] * ncols
            v[c] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][c]
            basis.append(_normalize_integer_vector(v))
    return particular, basis


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int | None = None) -> list[Vec]:
    """Deterministic basis of the right kernel.

    One basis vector per free column (in column order), normalized to integer
    entries with content 1 and positive first nonzero entry.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("nullspace of an empty system needs ncols")
        ncols = len(rows[0])
    return _solve(rows, [Fraction(0)] * len(rows), ncols)[1]


def solve_linear(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vec | None:
    """One exact solution of A x = b (free variables set to zero), or None."""
    rows = list(rows)
    if not rows or not rhs:
        return []
    return _solve(rows, rhs, len(rows[0]), kernel=False)[0]


# ---------------------------------------------------------------------------
# annihilating Euler fields from the support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorSpace:
    """Weight vectors a with E_a(f) = 0, plus solvability of E_a(f) = f."""

    basis: tuple[tuple[Fraction, ...], ...]
    unit_degree_field: tuple[Fraction, ...] | None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def admits_nonzero_degree(self) -> bool:
        return self.unit_degree_field is not None


def euler_annihilators(f: Poly) -> AnnihilatorSpace:
    """All weight vectors a with sum_i a_i e_i = 0 across supp(f), and a witness
    for the affine system sum_i a_i e_i = 1 when solvable (then E_a(f) = f)."""
    if f.is_zero():
        raise PolyError("the zero polynomial spans no support")
    support = f.support()
    rows = [[Fraction(e[i]) for i in range(f.ctx.nvars)] for e in support]
    unit, basis = _solve(rows, [Fraction(1)] * len(rows), f.ctx.nvars)
    return AnnihilatorSpace(tuple(tuple(v) for v in basis),
                            tuple(unit) if unit is not None else None)


def two_weight_annihilator(f: Poly, v: Sequence, w: Sequence) -> tuple[Fraction, ...]:
    """The field deg_v(f) * w - deg_w(f) * v, which annihilates any (v,w)-bihomogeneous f."""
    dv = f.weighted_degree(v)
    dw = f.weighted_degree(w)
    e = tuple(dv * Fraction(wi) - dw * Fraction(vi) for vi, wi in zip(v, w))
    assert f.euler_apply(e).is_zero(), "bihomogeneity check passed yet the field fails"
    return e


# ---------------------------------------------------------------------------
# linear solving with polynomial columns
# ---------------------------------------------------------------------------


def _coefficient_system(
    columns: Sequence[Sequence[Poly]], target: Sequence[Poly]
) -> tuple[list[Vec], Vec]:
    """The rational system for sum_j c_j * columns[j] = target (vectors of
    polynomials of one length): a row per occurring (coordinate, exponent)."""
    index: dict[tuple[int, tuple], int] = {}
    for vec in list(columns) + [target]:
        for k, p in enumerate(vec):
            for e in p.terms:
                index.setdefault((k, e), len(index))
    rows = [[Fraction(0)] * len(columns) for _ in range(len(index))]
    for j, vec in enumerate(columns):
        for k, p in enumerate(vec):
            for e, c in p.terms.items():
                rows[index[(k, e)]][j] = c
    rhs = [Fraction(0)] * len(index)
    for k, p in enumerate(target):
        for e, c in p.terms.items():
            rhs[index[(k, e)]] = c
    return rows, rhs


def poly_linear_solve(columns: Sequence[Poly], target: Poly) -> Vec | None:
    """Rational c with sum_i c_i * columns[i] = target."""
    return solve_linear(*_coefficient_system([[p] for p in columns], [target]))


# ---------------------------------------------------------------------------
# graded membership and bounded syzygies
# ---------------------------------------------------------------------------


def monomials_of_degree(ctx: Context, d: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree exactly d, ascending grevlex."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == ctx.nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, pos + 1)

    if ctx.nvars == 0:
        return [()] if d == 0 else []
    rec([], d, 0)
    out.sort(key=grevlex_key)
    return out


def monomials_up_to_degree(ctx: Context, bound: int) -> list[tuple[int, ...]]:
    out = []
    for d in range(bound + 1):
        out.extend(monomials_of_degree(ctx, d))
    return out


def _multipliers(ctx: Context, count: int, owners: Sequence[tuple[int, tuple[int, ...]]],
                 coeffs: Sequence[Fraction]) -> tuple[Poly, ...]:
    """Multiplier i of a solution: the sum of c * x^e over the unknowns (i, e)
    it owns.  The exponents of one multiplier are distinct, so its terms are
    set, not summed."""
    terms: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(count)]
    for c, (i, e) in zip(coeffs, owners):
        if c:
            terms[i][e] = c
    return tuple(Poly(ctx, t) for t in terms)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    multipliers: tuple[Poly, ...] | None


def graded_membership(target: Poly, gens: Sequence[Poly]) -> MembershipResult:
    """Is a homogeneous target in the ideal of homogeneous gens?

    Degree-matched exact solve: multiplier i ranges over monomials of degree
    deg(target) - deg(gen_i); the coefficient-matching system is solved over Q.
    """
    if target.is_zero():
        return MembershipResult(True, tuple(g.ctx.zero() for g in gens))
    if not gens:
        return MembershipResult(False, None)
    ctx = gens[0].ctx
    d = target.total_degree()
    if not target.is_homogeneous():
        raise PolyError("graded membership needs a homogeneous target")
    columns: list[Poly] = []
    owners: list[tuple[int, tuple[int, ...]]] = []
    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise PolyError("graded membership needs homogeneous generators")
        dg = g.total_degree()
        if dg > d:
            continue
        for e in monomials_of_degree(ctx, d - dg):
            columns.append(g * ctx.monomial(e))
            owners.append((i, e))
    sol = poly_linear_solve(columns, target)
    if sol is None:
        return MembershipResult(False, None)
    return MembershipResult(True, _multipliers(ctx, len(gens), owners, sol))


@dataclass(frozen=True)
class SyzygyResult:
    """Solutions h (one tuple of multipliers per gen) of sum h_i gen_i = target."""

    particular: tuple[Poly, ...] | None
    basis: tuple[tuple[Poly, ...], ...]  # syzygies of the gens within the bound


def bounded_syzygy_solve(gens: Sequence[Sequence[Poly] | Poly], target, bound: int) -> SyzygyResult:
    """Multipliers of total degree <= bound with sum_i h_i gen_i = target.

    Generators and target may be single polynomials or vectors of polynomials
    (solved coordinate-wise).  target = 0 yields the syzygy basis alone.
    """
    gvecs: list[list[Poly]] = [[g] if isinstance(g, Poly) else list(g) for g in gens]
    if not gvecs:
        raise PolyError("no generators")
    ctx = gvecs[0][0].ctx
    coords = len(gvecs[0])
    tvec: list[Poly] = [target] if isinstance(target, Poly) else list(target)
    if len(tvec) != coords or any(len(g) != coords for g in gvecs):
        raise PolyError("generator/target vector lengths disagree")
    monos = monomials_up_to_degree(ctx, bound)
    columns: list[list[Poly]] = []
    owners: list[tuple[int, tuple[int, ...]]] = []
    for i, g in enumerate(gvecs):
        for e in monos:
            m = ctx.monomial(e)
            columns.append([m * p for p in g])
            owners.append((i, e))
    rows, rhs = _coefficient_system(columns, tvec)

    particular, kernel = _solve(rows, rhs, len(columns))
    return SyzygyResult(
        _multipliers(ctx, len(gvecs), owners, particular) if particular is not None else None,
        tuple(_multipliers(ctx, len(gvecs), owners, v) for v in kernel),
    )


# ---------------------------------------------------------------------------
# Koszul homotopy for 1-cycles against a weighted Euler derivation
# ---------------------------------------------------------------------------


def _weighted_coordinates(ctx: Context, a: Sequence) -> list[Poly]:
    """The polynomials a_i x_i."""
    return [ctx.var(nm).scale(ai) for nm, ai in zip(ctx.names, a)]


def koszul_contract_1form(omega: Sequence[Poly], a: Sequence) -> Poly:
    """The contraction sum_i a_i x_i omega_i (zero iff omega is a cycle)."""
    ctx = omega[0].ctx
    return ctx.sum(v * p for v, p in zip(_weighted_coordinates(ctx, a), omega)
                   if not v.is_zero() and not p.is_zero())


def koszul_contract_2form(m, a: Sequence) -> list[Poly]:
    """Contraction of an antisymmetric matrix 2-form: component k is sum_j a_j x_j M[j][k]."""
    return m.left_apply(_weighted_coordinates(m.ctx, a))


def koszul_homotopy_1cycle(omega: Sequence[Poly], a: Sequence, d=1):
    """A 2-form with boundary omega, for a 1-cycle against the weights a.

    Returns the antisymmetric coefficient matrix (entry [j][i] multiplies the
    basis 2-vector e_j ^ e_i), or None when the construction does not apply:
    some component outside the support of `a` fails to vanish modulo the
    supported variables, or the verified boundary disagrees with omega.
    Raises if omega is not a cycle.
    """
    omega = list(omega)
    if not omega:
        raise PolyError("empty 1-form")
    ctx = omega[0].ctx
    n = ctx.nvars
    if len(omega) != n:
        raise PolyError("1-form length must match the variable count")
    a = [Fraction(x) for x in a]
    if len(a) != n:
        raise PolyError("weight length must match the variable count")
    if not koszul_contract_1form(omega, a).is_zero():
        raise PolyError("not a cycle: the contraction against the weights is nonzero")
    w_idx = [i for i in range(n) if a[i] != 0]
    w_set = set(w_idx)
    # applicability: components outside the weighted variables must vanish
    # modulo the ideal of the weighted variables
    for i in range(n):
        if i in w_set:
            continue
        for e in omega[i].terms:
            if not any(e[j] for j in w_idx):
                return None
    # shift: weighted components carry the form-degree contribution d, while
    # components outside the weighted set carry none (their basis vector is
    # inert for the weighted Euler grading); every affected term has weighted
    # degree >= 1 (cycles force it on weighted components, the applicability
    # check above forces it on the rest), so d = 1 is invertible throughout
    d = Fraction(d)
    try:
        shifted = [
            deg_shift_inverse(p, d if i in w_set else 0, w_idx)
            for i, p in enumerate(omega)
        ]
    except PolyError:
        return None
    zero = ctx.zero()
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for j in w_idx:
        inv = 1 / a[j]
        for i in range(n):
            if i == j:
                continue
            dji = shifted[i].derivative(j)
            if not dji.is_zero():
                mat[j][i] = mat[j][i] + dji.scale(inv)
                mat[i][j] = mat[i][j] - dji.scale(inv)
    result = PolyMatrix(ctx, mat)
    if koszul_contract_2form(result, a) != omega:
        return None
    return result
