"""Byte-for-byte pin of the results that rest on exact row reduction.

`tests/golden/linalg_results.json` holds, as JSON text:

* obstruction reports (`obstruction_report_to_json`) for seeded Fermat and
  random forms, times the coordinate hyperplanes and times seeded
  independent linear forms;
* `free_multiple_via_xifi` certificates, or the `xifi_search` message, for
  the elementary symmetric polynomials e_{n-1} and e_2 with n = 3..6;
* `euler_annihilators`, `bounded_syzygy_solve` and `graded_membership`
  results for a few supports.

Regenerate the file, only when a change of these results is intended, with
`PYTHONPATH=src python tests/test_linalg_golden.py`.
"""
from __future__ import annotations

import itertools
import json
import pathlib
from fractions import Fraction

from freediv.linalg import (
    bounded_syzygy_solve,
    euler_annihilators,
    fraction_det,
    graded_membership,
)
from freediv.matrices import matrix_to_json
from freediv.obstruction import obstruction_report_to_json, smooth_times_nc_verdict
from freediv.poly import Context, Poly, parse_poly, poly_to_str
from freediv.saito import PreconditionError, VerificationError, free_multiple_via_xifi

from helpers import make_rng

GOLDEN = pathlib.Path(__file__).parent / "golden" / "linalg_results.json"


def _error(err: Exception) -> dict:
    return {"error": f"{type(err).__name__}: {err}"}


def _independent_forms(rng, ctx: Context) -> list[Poly]:
    """Linear forms with one to three signed small coefficients and a nonzero determinant."""
    n = ctx.nvars
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in rng.sample(range(n), rng.randint(1, min(3, n))):
                rows[i][j] = rng.choice((-2, -1, 1, 2))
        if fraction_det(rows) != 0:
            break
    return [sum((ctx.monomial(tuple(int(k == j) for k in range(n)), c)
                 for j, c in enumerate(row) if c), ctx.zero()) for row in rows]


def _random_form(rng, ctx: Context, k: int, fermat: bool) -> Poly:
    """A degree-k form: x_1^k + ... + x_n^k (when fermat) plus a few seeded terms."""
    n = ctx.nvars
    f = ctx.zero()
    if fermat:
        for i in range(n):
            f = f + ctx.monomial(tuple(k * (j == i) for j in range(n)))
    for _ in range(rng.randint(1 if not fermat else 0, 4)):
        e = [0] * n
        for _ in range(k):
            e[rng.randrange(n)] += 1
        f = f + ctx.monomial(tuple(e), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return f


def _obstruction_reports() -> list[dict]:
    rng = make_rng(100)
    out = []
    cases = [(n, k, fermat) for n in (3, 4) for k in (3, 4) for fermat in (True, False)]
    for index in range(150):
        n, k, fermat = cases[index % len(cases)]
        ctx = Context([f"x{i + 1}" for i in range(n)])
        f = _random_form(rng, ctx, k, fermat)
        if f.is_zero():
            f = ctx.monomial(tuple(k * (j == 0) for j in range(n)))
        axes = index % 2 == 0
        ells = ([ctx.var(nm) for nm in ctx.names] if axes else _independent_forms(rng, ctx))
        entry = {"f": poly_to_str(f), "ells": [poly_to_str(e) for e in ells],
                 "smooth_asserted": index % 5 != 4}
        try:
            report = smooth_times_nc_verdict(f, ells, entry["smooth_asserted"])
            entry["report"] = obstruction_report_to_json(report)
        except PreconditionError as err:
            entry.update(_error(err))
        out.append(entry)
    return out


def _elementary(ctx: Context, k: int) -> Poly:
    n = ctx.nvars
    f = ctx.zero()
    for subset in itertools.combinations(range(n), k):
        f = f + ctx.monomial(tuple(int(i in subset) for i in range(n)))
    return f


def _xifi_certificates() -> list[dict]:
    out = []
    for n in range(3, 7):
        ctx = Context([f"x{i + 1}" for i in range(n)])
        for k in sorted({n - 1, 2}):
            entry = {"n": n, "k": k}
            try:
                cert = free_multiple_via_xifi(_elementary(ctx, k))
                entry["matrix"] = matrix_to_json(cert.matrix)
                entry["det_scalar"] = str(cert.det_scalar)
            except VerificationError as err:
                entry.update(_error(err))
            out.append(entry)
    return out


SUPPORTS = [
    (["x", "y", "z"], "x^2*y - y^2*z"),
    (["x", "y", "z"], "x^3 + y^3 + z^3"),
    (["x", "y", "z"], "x*y*z + x^2*y + 1"),
    (["x", "y", "z", "w"], "x*y - z*w"),
    (["x", "y", "z", "w"], "x^2*y*z + y^3*w - 2*z^4"),
    (["a", "b"], "a^5 + a^2*b^3"),
]

SYZYGIES = [
    (["x", "y", "z"], ["x", "y", "z"], "0", 1),
    (["x", "y", "z"], ["x*y", "y*z", "x*z"], "0", 1),
    (["x", "y", "z"], ["x*y", "y*z", "x*z"], "x*y*z", 1),
    (["x", "y", "z"], ["x^2", "y^2", "x*y + z^2"], "x^2*y + z^3", 2),
    (["x", "y"], ["x^2 + y", "x*y"], "x^3", 1),
    (["x", "y", "z", "w"], ["x*y - z*w", "x + y", "z^2"], "0", 2),
]

MEMBERSHIPS = [
    (["x", "y", "z"], "x*y*z", ["x^2 - y*z", "y^2", "x*z"]),
    (["x", "y", "z"], "x^3", ["x^2 + y^2", "y^2 - z^2", "x*y"]),
    (["x", "y", "z", "w"], "x*y*z*w", ["x^2*y", "z^2*w", "x*y*z - w^3", "x*w"]),
]


def _strs(polys) -> list[str]:
    return [poly_to_str(p) for p in polys]


def _linalg_systems() -> dict:
    annihilators = []
    for names, text in SUPPORTS:
        ann = euler_annihilators(parse_poly(text, Context(names)))
        annihilators.append({
            "f": text,
            "basis": [[str(x) for x in v] for v in ann.basis],
            "unit_degree_field": (None if ann.unit_degree_field is None
                                  else [str(x) for x in ann.unit_degree_field]),
        })
    syzygies = []
    for names, gens, target, bound in SYZYGIES:
        ctx = Context(names)
        sol = bounded_syzygy_solve([parse_poly(g, ctx) for g in gens],
                                   parse_poly(target, ctx), bound)
        syzygies.append({
            "gens": gens, "target": target, "bound": bound,
            "particular": None if sol.particular is None else _strs(sol.particular),
            "basis": [_strs(h) for h in sol.basis],
        })
    memberships = []
    for names, target, gens in MEMBERSHIPS:
        ctx = Context(names)
        res = graded_membership(parse_poly(target, ctx), [parse_poly(g, ctx) for g in gens])
        memberships.append({
            "target": target, "gens": gens, "member": res.member,
            "multipliers": None if res.multipliers is None else _strs(res.multipliers),
        })
    return {"euler_annihilators": annihilators, "bounded_syzygy_solve": syzygies,
            "graded_membership": memberships}


def linalg_results_text() -> str:
    results = {
        "obstruction_reports": _obstruction_reports(),
        "xifi_certificates": _xifi_certificates(),
        **_linalg_systems(),
    }
    return json.dumps(results, indent=1) + "\n"


def test_linalg_results_are_byte_identical():
    assert linalg_results_text() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(linalg_results_text())
