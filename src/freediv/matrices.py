"""Dense matrices of exact polynomials.

Two independent determinant strategies (fraction-free Bareiss elimination and
memoized cofactor expansion along the sparsest line) are cross-checked against
each other on small matrices; a disagreement raises InternalCheckError, since
it can only mean a bug in this library.
"""
from __future__ import annotations

from typing import Sequence

from .poly import Context, Poly, PolyError, divide_exact, poly_to_str

# determinants of size <= CROSSCHECK_LIMIT are computed by both strategies
# whenever crosscheck_enabled holds (cheap at these sizes, and a live guard)
CROSSCHECK_LIMIT = 6
crosscheck_enabled = True


class MatrixError(PolyError):
    """Shape or content error in a matrix operation."""


class InternalCheckError(Exception):
    """Two independent computations of the same quantity disagreed."""


class PolyMatrix:
    """Immutable dense matrix of Poly entries over a shared context."""

    __slots__ = ("ctx", "nrows", "ncols", "rows")

    def __init__(self, ctx: Context, rows: Sequence[Sequence[Poly]]):
        rows = tuple(tuple(r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise MatrixError("ragged rows")
            for p in r:
                if not isinstance(p, Poly) or p.ctx != ctx:
                    raise MatrixError("entry is not a polynomial over the matrix context")
        self.ctx = ctx
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(ctx: Context, n: int) -> "PolyMatrix":
        one, zero = ctx.const(1), ctx.zero()
        return PolyMatrix(ctx, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diagonal(entries: Sequence[Poly]) -> "PolyMatrix":
        if not entries:
            raise MatrixError("diagonal needs at least one entry")
        ctx = entries[0].ctx
        zero = ctx.zero()
        n = len(entries)
        return PolyMatrix(ctx, [[entries[i] if i == j else zero for j in range(n)]
                                for i in range(n)])

    # -- basic access ---------------------------------------------------------

    def entry(self, i: int, j: int) -> Poly:
        return self.rows[i][j]

    def col(self, j: int) -> tuple[Poly, ...]:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple[Poly, ...]]:
        return [self.col(j) for j in range(self.ncols)]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyMatrix) and self.ctx == other.ctx
                and self.rows == other.rows
                and self.nrows == other.nrows and self.ncols == other.ncols)

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(", ".join(poly_to_str(p) for p in r) for r in self.rows)
        return f"PolyMatrix[{self.nrows}x{self.ncols}]({body})"

    # -- surgery ----------------------------------------------------------------

    def submatrix(self, keep_rows: Sequence[int], keep_cols: Sequence[int]) -> "PolyMatrix":
        return PolyMatrix(self.ctx, [[self.rows[i][j] for j in keep_cols] for i in keep_rows])

    def with_column(self, col: Sequence[Poly]) -> "PolyMatrix":
        if len(col) != self.nrows:
            raise MatrixError("column length mismatch")
        return PolyMatrix(self.ctx, [r + (c,) for r, c in zip(self.rows, col)])

    def scale_column(self, j: int, c) -> "PolyMatrix":
        rows = [tuple(p.scale(c) if k == j else p for k, p in enumerate(r)) for r in self.rows]
        return PolyMatrix(self.ctx, rows)

    def embedded(self, big: Context) -> "PolyMatrix":
        return PolyMatrix(big, [[p.embedded(big) for p in r] for r in self.rows])

    # -- arithmetic ---------------------------------------------------------------

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ctx != other.ctx or self.ncols != other.nrows:
            raise MatrixError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        return PolyMatrix(self.ctx, [other.left_apply(row) for row in self.rows])

    def left_apply(self, vec: Sequence[Poly]) -> list[Poly]:
        """Row vector times matrix (e.g. a gradient against columns)."""
        if len(vec) != self.nrows:
            raise MatrixError("vector length mismatch")
        return [self.ctx.sum(v * a for v, a in zip(vec, col) if not v.is_zero() and not a.is_zero())
                for col in zip(*self.rows)]

    # -- determinants ---------------------------------------------------------------

    def det(self) -> Poly:
        """Determinant by Bareiss elimination, cross-checked by cofactor
        expansion up to CROSSCHECK_LIMIT rows."""
        if not self.is_square():
            raise MatrixError("determinant of a non-square matrix")
        if self.nrows == 0:
            return self.ctx.const(1)
        d = self._det_bareiss()
        if crosscheck_enabled and self.nrows <= CROSSCHECK_LIMIT:
            d2 = self._det_cofactor()
            if d != d2:
                raise InternalCheckError(
                    f"determinant strategies disagree on a {self.nrows}x{self.nrows} matrix: "
                    f"bareiss={poly_to_str(d)} cofactor={poly_to_str(d2)}"
                )
        return d

    def _det_bareiss(self) -> Poly:
        n = self.nrows
        M = [list(r) for r in self.rows]
        sign = 1
        prev = self.ctx.const(1)
        for k in range(n - 1):
            # pivot: among rows with a nonzero entry in column k, pick the sparsest
            best = None
            for r in range(k, n):
                p = M[r][k]
                if not p.is_zero() and (best is None or p.num_terms() < M[best][k].num_terms()):
                    best = r
            if best is None:
                return self.ctx.zero()
            if best != k:
                M[k], M[best] = M[best], M[k]
                sign = -sign
            pivot = M[k][k]
            for i in range(k + 1, n):
                mik = M[i][k]
                for j in range(k + 1, n):
                    num = pivot * M[i][j] - mik * M[k][j]
                    q = divide_exact(num, prev)
                    assert q is not None, "Bareiss division failed; elimination is corrupt"
                    M[i][j] = q
            prev = pivot
        d = M[n - 1][n - 1]
        return d.scale(-1) if sign < 0 else d

    def _det_cofactor(self) -> Poly:
        n = self.nrows
        rows = self.rows
        memo: dict[tuple[int, int], Poly] = {}

        def rec(rmask: int, cmask: int) -> Poly:
            if rmask == 0:
                return self.ctx.const(1)
            key = (rmask, cmask)
            got = memo.get(key)
            if got is not None:
                return got
            rlist = [i for i in range(n) if rmask >> i & 1]
            clist = [j for j in range(n) if cmask >> j & 1]
            # expand along the line with the fewest nonzero entries, rows
            # first on ties, as (i, j, parity) triples
            nonzero = [[not rows[i][j].is_zero() for j in clist] for i in rlist]
            counts = [sum(r) for r in nonzero] + [sum(c) for c in zip(*nonzero)]
            best = counts.index(min(counts))
            if best < len(rlist):
                line = [(rlist[best], j, best + t) for t, j in enumerate(clist)]
            else:
                t = best - len(rlist)
                line = [(i, clist[t], s + t) for s, i in enumerate(rlist)]
            def signed(i: int, j: int, parity: int) -> Poly:
                piece = rows[i][j] * rec(rmask & ~(1 << i), cmask & ~(1 << j))
                return piece.scale(-1) if parity % 2 else piece
            total = self.ctx.sum(signed(i, j, parity) for i, j, parity in line
                                 if not rows[i][j].is_zero())
            memo[key] = total
            return total

        full = (1 << n) - 1
        return rec(full, full)


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


def block_diagonal(blocks: Sequence[PolyMatrix]) -> PolyMatrix:
    blocks = list(blocks)
    if not blocks:
        raise MatrixError("block_diagonal of nothing")
    ctx = blocks[0].ctx
    nr = sum(b.nrows for b in blocks)
    nc = sum(b.ncols for b in blocks)
    zero = ctx.zero()
    rows = [[zero] * nc for _ in range(nr)]
    r0 = c0 = 0
    for b in blocks:
        if b.ctx != ctx:
            raise MatrixError("block_diagonal blocks disagree")
        for i in range(b.nrows):
            for j in range(b.ncols):
                rows[r0 + i][c0 + j] = b.rows[i][j]
        r0 += b.nrows
        c0 += b.ncols
    return PolyMatrix(ctx, rows)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def matrix_to_json(m: PolyMatrix) -> dict:
    return {
        "rows": m.nrows,
        "cols": m.ncols,
        "entries": [[poly_to_str(p) for p in r] for r in m.rows],
    }

