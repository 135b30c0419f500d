"""Matrix layer: determinants (two strategies vs a Leibniz oracle), minors, blocks."""
from __future__ import annotations

from itertools import permutations

import pytest

from freediv.cli import _matrix_entries, _parse_matrix
from freediv.matrices import (
    MatrixError,
    PolyMatrix,
    block_diagonal,
    matrix_to_json,
)
from freediv.poly import Context, PolyError, parse_poly, star

from helpers import CASES, make_rng, rand_poly

XYZ = Context(["x", "y", "z"])


def P(s: str, ctx=XYZ):
    return parse_poly(s, ctx)


def M(rows, ctx=XYZ):
    return PolyMatrix(ctx, [[P(s, ctx) for s in r] for r in rows])


def det_leibniz(m: PolyMatrix):
    """Independent oracle: the full signed permutation sum."""
    n = m.nrows
    total = m.ctx.zero()
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):  # count inversions
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = m.ctx.const(sign)
        for i in range(n):
            prod = prod * m.entry(i, perm[i])
        total = total + prod
    return total


def rand_matrix(rng, n, m=None, ctx=XYZ, **kw):
    m = n if m is None else m
    kw.setdefault("max_terms", 2)
    kw.setdefault("max_deg", 2)
    return PolyMatrix(ctx, [[rand_poly(rng, ctx, **kw) for _ in range(m)] for _ in range(n)])


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def test_det_oracles():
    assert M([["x", "-y"], ["y", "x"]]).det() == P("x^2 + y^2")
    assert M([["x", "0", "0"], ["0", "y", "0"], ["0", "0", "z"]]).det() == P("x*y*z")
    assert M([["x", "y"], ["x", "y"]]).det() == P("0")
    assert M([["x + y"]]).det() == P("x + y")
    assert PolyMatrix.identity(XYZ, 4).det() == P("1")
    # 0x0 determinant is the empty product
    assert PolyMatrix(XYZ, []).det() == P("1")


def test_det_strategies_agree_random():
    rng = make_rng(20)
    for k in range(CASES):
        n = 1 + k % 4
        m = rand_matrix(rng, n)
        a = m.det(strategy="bareiss")
        b = m.det(strategy="cofactor")
        assert a == b
        if n <= 3:
            assert a == det_leibniz(m)
        assert m.det() == a  # cross-checked path


def test_det_strategies_agree_sparse_random():
    rng = make_rng(21)
    for k in range(CASES // 2):
        n = 2 + k % 4
        m = rand_matrix(rng, n)
        # plant zero entries to exercise pivot search and sparse expansion
        rows = [list(r) for r in m.rows]
        for _ in range(n * n // 2):
            rows[rng.randrange(n)][rng.randrange(n)] = XYZ.zero()
        m = PolyMatrix(XYZ, rows)
        assert m.det(strategy="bareiss") == m.det(strategy="cofactor")


def test_det_multiplicative_random():
    rng = make_rng(22)
    for k in range(300):
        n = 1 + k % 3
        a = rand_matrix(rng, n)
        b = rand_matrix(rng, n)
        assert (a @ b).det() == a.det() * b.det()


def test_det_transpose_and_row_swap():
    rng = make_rng(23)
    for _ in range(200):
        m = rand_matrix(rng, 3)
        transposed = PolyMatrix(XYZ, list(zip(*m.rows)))
        assert transposed.det() == m.det()
        swapped = PolyMatrix(XYZ, [m.rows[1], m.rows[0], m.rows[2]])
        assert swapped.det() == m.det().scale(-1)


def test_det_rejects_non_square():
    with pytest.raises(MatrixError):
        M([["x", "y"]]).det()


def test_det_zero_column():
    m = M([["0", "x", "y"], ["0", "1", "z"], ["0", "y", "x"]])
    assert m.det() == P("0")


# ---------------------------------------------------------------------------
# signed maximal minors
# ---------------------------------------------------------------------------


def test_signed_minors_oracle():
    b = M([["x"], ["y"]])
    assert b.signed_maximal_minors() == [P("y"), P("-x")]
    # 1 x 0 edge: the empty determinant
    b1 = PolyMatrix(XYZ, [[]])
    assert b1.signed_maximal_minors() == [P("1")]


def test_signed_minors_annihilate_columns_random():
    rng = make_rng(24)
    for k in range(300):
        n = 2 + k % 3
        b = rand_matrix(rng, n, n - 1)
        m = b.signed_maximal_minors()
        for j in range(n - 1):
            s = XYZ.zero()
            for i in range(n):
                s = s + m[i] * b.entry(i, j)
            assert s.is_zero()


def test_signed_minors_expansion_identity_random():
    # det(B | w) = (-1)^(n-1) * sum_i w_i * minor_i
    rng = make_rng(25)
    for k in range(200):
        n = 2 + k % 3
        b = rand_matrix(rng, n, n - 1)
        w = [rand_poly(rng, XYZ, max_terms=2, max_deg=2) for _ in range(n)]
        lhs = b.with_column(w).det()
        m = b.signed_maximal_minors()
        rhs = XYZ.zero()
        for i in range(n):
            rhs = rhs + w[i] * m[i]
        if (n - 1) % 2:
            rhs = rhs.scale(-1)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# products, stacking, polar
# ---------------------------------------------------------------------------


def test_matmul_and_apply_oracles():
    a = M([["x", "y"], ["0", "z"]])
    b = M([["1", "0"], ["y", "x"]])
    assert a @ b == M([["x + y^2", "x*y"], ["y*z", "x*z"]])
    assert a @ M([["1"], ["y"]]) == M([["x + y^2"], ["y*z"]])
    assert a.left_apply([P("1"), P("y")]) == [P("x"), P("y + y*z")]


def test_stacking():
    d = block_diagonal([M([["x", "y"], ["0", "z"]]), M([["1"]])])
    assert d == M([["x", "y", "0"], ["0", "z", "0"], ["0", "0", "1"]])


def test_scale_column_and_with_column():
    a = M([["x", "y"], ["1", "z"]])
    assert a.scale_column(1, 2) == M([["x", "2*y"], ["1", "2*z"]])
    assert a.with_column([P("0"), P("x")]) == M([["x", "y", "0"], ["1", "z", "x"]])


def test_matrix_star_oracle():
    a = M([["x^2", "y"], ["z", "1"]])
    big = XYZ.extend(["u", "v", "w"])
    got = PolyMatrix(big, [[star(p, big, ["u", "v", "w"]) for p in r] for r in a.rows])
    want = PolyMatrix(big, [[parse_poly("2*x*u", big), parse_poly("v", big)],
                            [parse_poly("w", big), big.zero()]])
    assert got == want


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def test_matrix_json_round_trip():
    # the CLI decoder reads back what matrix_to_json writes
    a = M([["x^2 - 1/2*y", "0"], ["z", "x*y*z"]])
    obj = matrix_to_json(a)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert _parse_matrix(_matrix_entries(obj), XYZ) == a


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(MatrixError):
        _parse_matrix(_matrix_entries({"entries": [["x"], ["x", "y"]]}), XYZ)
    with pytest.raises(PolyError):
        _matrix_entries({"rows": 1, "cols": 1})
    with pytest.raises(PolyError):
        _matrix_entries([])
