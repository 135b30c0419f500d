"""Independent reference arithmetic: exact evaluation and elimination over Fraction.

Nothing here calls freediv.  Polynomials that freediv returns are read as data
(their exponent -> coefficient maps) and evaluated with this module's own
arithmetic, so a defect in freediv's kernel cannot vouch for itself.  Every
check returns None when it passes and a one-line message when it fails.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Mapping, Sequence

Terms = Mapping[tuple[int, ...], Fraction]
Point = Sequence[Fraction]


def random_point(rng: random.Random, n: int) -> list[Fraction]:
    """A point with small nonzero rational coordinates."""
    return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)]


def evaluate(terms: Terms, point: Point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = coeff
        for x, k in zip(point, exps):
            if k:
                value *= x ** k
        total += value
    return total


def gradient_at(terms: Terms, point: Point) -> list[Fraction]:
    grad = [Fraction(0)] * len(point)
    for exps, coeff in terms.items():
        for i, k in enumerate(exps):
            if not k:
                continue
            value = coeff * k
            for j, (x, kj) in enumerate(zip(point, exps)):
                e = kj - 1 if j == i else kj
                if e:
                    value *= x ** e
            grad[i] += value
    return grad


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination with exact pivots."""
    m = [list(r) for r in rows]
    n = len(m)
    result = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            result = -result
        pv = m[c][c]
        result *= pv
        for r in range(c + 1, n):
            factor = m[r][c] / pv
            if factor:
                row_c = m[c]
                m[r] = [a - factor * b for a, b in zip(m[r], row_c)]
    return result


def crossing_value(point: Point) -> Fraction:
    """x1*...*xn at a point."""
    out = Fraction(1)
    for x in point:
        out *= x
    return out


def crossing_gradient(point: Point) -> list[Fraction]:
    return [crossing_value([x for j, x in enumerate(point) if j != i]) for i in range(len(point))]


def check_certificate(cert, rng: random.Random,
                      closed_form: Callable[[Point], Fraction] | None = None,
                      nvars: int | None = None) -> str | None:
    """Spot-check a Saito certificate at a seeded rational point.

    Checks det A(p) = c*f(p) with c nonzero and grad f(p) . A(p)_j = q_j(p)*f(p)
    for every column j; when a closed form is given, also f(p) against it.
    """
    f_terms = cert.divisor.terms
    n = len(cert.divisor.ctx.names)
    if nvars is not None and n != nvars:
        return f"divisor has {n} variables, expected {nvars}"
    if cert.det_scalar == 0:
        return "det_scalar is zero"
    point = random_point(rng, n)
    fp = evaluate(f_terms, point)
    if closed_form is not None and fp != closed_form(point):
        return "divisor differs from its closed form at a rational point"
    a = [[evaluate(entry.terms, point) for entry in row] for row in cert.matrix.rows]
    if len(a) != n or any(len(row) != n for row in a):
        return "certificate matrix is not square of the divisor's size"
    if det(a) != cert.det_scalar * fp:
        return "det A(p) != c*f(p)"
    grad = gradient_at(f_terms, point)
    for j, q in enumerate(cert.log_quotients):
        applied = sum((grad[i] * a[i][j] for i in range(n)), Fraction(0))
        if applied != evaluate(q.terms, point) * fp:
            return f"column {j} is not logarithmic at a rational point"
    return None
