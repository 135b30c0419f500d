"""Shared helpers for the test suite: seeded random polynomial generators, the
storage-order comparison `same`, and two oracles that freediv replaced by
cheaper constructions: the signed maximal minors and the binomial Saito matrix
built by polynomial products.

The seed and case count are overridable via FREEDIV_TEST_SEED / FREEDIV_TEST_CASES
so failures reproduce exactly.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction
from typing import Sequence

from freediv.matrices import MatrixError, PolyMatrix
from freediv.poly import Context, Poly, poly_product

SEED = int(os.environ.get("FREEDIV_TEST_SEED", "20260819"))
CASES = int(os.environ.get("FREEDIV_TEST_CASES", "1000"))


def make_rng(salt: int = 0) -> random.Random:
    return random.Random(SEED + salt)


def rand_poly(rng: random.Random, ctx: Context, max_terms: int = 4, max_deg: int = 3,
              coeff_bound: int = 6, allow_zero: bool = True) -> Poly:
    k = rng.randint(0 if allow_zero else 1, max_terms)
    p = ctx.zero()
    for _ in range(k):
        e = [0] * ctx.nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            e[rng.randrange(ctx.nvars)] += 1
        num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, 3)
        p = p + ctx.monomial(e, Fraction(num, den))
    return p


def rand_nonzero(rng: random.Random, ctx: Context, **kw) -> Poly:
    kw.setdefault("allow_zero", False)
    while True:
        p = rand_poly(rng, ctx, **kw)
        if not p.is_zero():
            return p


def same(p: Poly, q: Poly) -> bool:
    """Equal terms, equal values, the same insertion order, and Fractions only."""
    return (p.ctx == q.ctx and list(p.terms.items()) == list(q.terms.items())
            and all(type(c) is Fraction for c in p.terms.values()))


def signed_maximal_minors(matrix: PolyMatrix) -> list[Poly]:
    """For an n x (n-1) matrix: entry i (0-based) is (-1)^i * det(matrix minus row i).

    The resulting vector m satisfies m . column = 0 for every column (Laplace
    on a matrix with a repeated column), i.e. it spans the left kernel.  This
    exact expansion is the oracle for the Hilbert-Burch scalars, which freediv
    reads from a verified Saito certificate instead.
    """
    if matrix.ncols != matrix.nrows - 1:
        raise MatrixError("signed maximal minors need an n x (n-1) matrix")
    out = []
    for i in range(matrix.nrows):
        rest = [r for r in range(matrix.nrows) if r != i]
        d = matrix.submatrix(rest, range(matrix.ncols)).det()
        out.append(d.scale(-1) if i % 2 else d)
    return out


def binomial_saito_by_products(
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
    """Divisor and square matrix for X y^u z^t (c1 x^a y^alpha + c2 x^b z^beta),
    every entry built by powers and polynomial products.

    This is the oracle for `families._binomial_saito`, which reads the same
    entries from exponent vectors: same terms, values and term order.
    """
    xs = [ctx.var(ctx.names[i]) for i in x_idx]
    y = ctx.var(ctx.names[y_idx])
    z = ctx.var(ctx.names[z_idx])
    mono_a = poly_product(ctx, [x ** e for x, e in zip(xs, a)])
    mono_b = poly_product(ctx, [x ** e for x, e in zip(xs, b)])
    g = (mono_a * y ** alpha).scale(c1) + (mono_b * z ** beta).scale(c2)
    f = poly_product(ctx, xs) * y ** u * z ** t * g
    p = g.scale(u) + (mono_a * y ** (alpha - 1 + u)).scale(alpha * c1)
    q = g.scale(t) + (mono_b * z ** (beta - 1 + t)).scale(beta * c2)
    nall = ctx.nvars
    zero = ctx.zero()
    rows = [[zero] * nall for _ in range(nall)]
    special = set(x_idx) | {y_idx, z_idx}
    for k, i in enumerate(x_idx):
        rows[i][i] = xs[k]
        rows[z_idx][i] = z.scale(Fraction(a[k] - b[k], beta))
    rows[y_idx][y_idx] = y.scale(beta)
    rows[z_idx][y_idx] = z.scale(alpha)
    rows[y_idx][z_idx] = -(y ** u) * q
    rows[z_idx][z_idx] = (z ** t) * p
    for i in range(nall):
        if i not in special:
            rows[i][i] = ctx.const(1)
    return f, PolyMatrix(ctx, rows)
