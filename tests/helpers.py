"""Shared helpers for the test suite: seeded random polynomial generators and
the signed maximal minors oracle.

The seed and case count are overridable via FREEDIV_TEST_SEED / FREEDIV_TEST_CASES
so failures reproduce exactly.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction

from freediv.matrices import MatrixError, PolyMatrix
from freediv.poly import Context, Poly

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
