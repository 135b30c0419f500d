"""The coefficient format of a polynomial is known to `poly.py` alone: no
other module of freediv reads `Poly.terms`, and `poly._integer_form` is the
only code that turns rational coefficients into integers, so the only code
that reads `.numerator` or `.denominator`.  The line certificate
`squarefree_on_line` runs only behind the support certificate of
`poly._squarefree_by_support`, or in `families.compose_factors`.  Every
`SaitoCertificate` is built by the verification core `saito._verify_factors`.
And one function of `poly.py`, `_mul_loop`, holds the term-by-term product
loop, which only `Poly.__mul__` and the product chain `_sum_of_products`
call, or the column kernel `_gradient_quotients`.  One function holds each
of three more loops: the integer division loop `poly._divide_loop` (behind
`divide_exact` and the column kernel), the fraction-free integer update
`linalg._bareiss` (behind `fraction_det` and the point determinant of
`saito`), and the point-evaluation loop `poly._evaluate_rows` (behind
`Poly.evaluate` and the same point determinant).  One private core of
`linalg.py`, `_solve_in_multiples`, builds and
solves the system of every solve in multiples of given polynomials (graded
membership, bounded syzygies, the scalar obstruction): it alone calls
`_coefficient_system`, it and `euler_annihilators` alone call `_solve`, and
`obstruction.py` substitutes only to build the transformed form.  The
scalar of a Hilbert-Burch matrix is read from a verified Saito certificate:
no function of freediv expands the signed maximal minors (the test oracle
`signed_maximal_minors` of `tests/helpers.py`), only Saito's lemma
`saito._det_scalar_by_lemma` takes the point determinant `_ratio_at_point`,
and only the verification core `saito._verify_factors` runs the column
kernel `_gradient_quotients`.  The constructions of `families.py` verify a
certificate they hold no second time: no function of `families.py` calls
`euler_frame`, which verifies its matrix before it frames it (they frame the
certificate they hold with `saito._strict_frame`), and only `tangent_extend`
calls `multi_jet_extend` there, whose re-validation of a supplied
Hilbert-Burch matrix is for user data.  The strict Euler frame is decided by
the determinant of each exchange: within `saito.py`, only
`free_multiple_via_xifi` calls `bounded_syzygy_solve`.  The binomial
divisor and its Saito matrix are read from exponent vectors:
`families._binomial_saito` raises nothing to a power with `**` and calls no
`poly_product`."""
from __future__ import annotations

import ast
from pathlib import Path

import freediv

MODULES = sorted(Path(freediv.__file__).parent.glob("*.py"))


def _scan(path: Path, label) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, label) of every node outside a
    function header for which label(node) gives a name, not None."""
    found = []

    def walk(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif name := label(node):
            found.append((scope, node.lineno, name))
        for child in ast.iter_child_nodes(node):
            walk(child, scope)

    walk(ast.parse(path.read_text(), str(path)), "")
    return found


def _attribute_reads(path: Path, names: set[str]) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, attribute) of every read of an
    attribute in names."""
    def label(node):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in names:
            return node.attr
        return None
    return _scan(path, label)


def _calls(path: Path, name: str) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, name) of every call of a function
    of that name, plain or through a module."""
    def label(node):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                return name
        return None
    return _scan(path, label)


def test_the_modules_are_found():
    assert {"poly.py", "linalg.py", "families.py"} <= {p.name for p in MODULES}


def test_only_poly_reads_the_terms():
    reads = {p.name: _attribute_reads(p, {"terms"}) for p in MODULES if p.name != "poly.py"}
    assert {name: r for name, r in reads.items() if r} == {}


def test_only_integer_form_reads_numerators_and_denominators():
    reads = {p.name: [r for r in _attribute_reads(p, {"numerator", "denominator"})
                      if (p.name, r[0]) != ("poly.py", "_integer_form")]
             for p in MODULES}
    assert {name: r for name, r in reads.items() if r} == {}


def test_the_line_certificate_runs_behind_the_support():
    # a squarefree proof goes through squarefree_gcd, whose support certificate
    # settles one- and two-term cofactors before any line certificate
    calls = {(p.name, scope) for p in MODULES for scope, _, _ in _calls(p, "squarefree_on_line")}
    assert calls == {("poly.py", "_squarefree_by_support"), ("families.py", "compose_factors")}


def test_only_the_verification_core_builds_certificates():
    # no path builds a certificate around the checks of _verify_factors, nor
    # around the test oracles that wrap it
    calls = {(p.name, scope) for p in MODULES for scope, _, _ in _calls(p, "SaitoCertificate")}
    assert calls == {("saito.py", "_verify_factors")}


def _stores(node, skip=None) -> set[str]:
    """The names that node binds, outside the subtree skip."""
    found, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            found.add(n.id)
        todo.extend(ast.iter_child_nodes(n))
    return found


def _product_loops(path: Path) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, "product") of every for loop with
    a for loop inside that both adds and multiplies a name bound by the
    outer loop (outside the inner one) and a name bound by the inner loop:
    exponents added, values multiplied, the shape of a term-by-term
    product."""
    def pairs(node, outer, inner):
        return {type(op.op) for op in ast.walk(node)
                if isinstance(op, ast.BinOp) and isinstance(op.left, ast.Name)
                and isinstance(op.right, ast.Name)
                and {op.left.id, op.right.id} & outer and {op.left.id, op.right.id} & inner}

    def label(node):
        if not isinstance(node, ast.For):
            return None
        for inner in ast.walk(node):
            if (inner is not node and isinstance(inner, ast.For)
                    and {ast.Add, ast.Mult} <= pairs(inner, _stores(node, inner), _stores(inner))):
                return "product"
        return None
    return _scan(path, label)


def test_one_function_holds_the_product_loop():
    # Poly.__mul__, poly_product and substitute all multiply in _mul_loop;
    # no second loop over the terms of two operands, in any module
    loops = {(p.name, scope) for p in MODULES for scope, _, _ in _product_loops(p)}
    assert loops == {("poly.py", "_mul_loop")}


def test_only_the_product_the_chain_and_the_column_kernel_call_the_product_loop():
    # substitute and poly_product multiply through _sum_of_products, never
    # with a pack, loop and unpack of their own; the images of the columns
    # of a Saito matrix are summed from products in _gradient_quotients
    calls = {(p.name, scope) for p in MODULES for scope, _, _ in _calls(p, "_mul_loop")}
    assert calls == {("poly.py", "__mul__"), ("poly.py", "_sum_of_products"),
                     ("poly.py", "_gradient_quotients")}


def _loops_with(path: Path, loop, inner) -> list[tuple[str, int, str]]:
    """(innermost enclosing function, line, "loop") of every loop node of
    type loop with a node inside for which inner(node) holds."""
    def label(node):
        if isinstance(node, loop) and any(inner(n) for n in ast.walk(node) if n is not node):
            return "loop"
        return None
    return _scan(path, label)


def test_one_function_holds_the_integer_division_loop():
    # divide_exact and the column kernel divide in _divide_loop: a while
    # loop that takes divmod of the leading coefficient
    def divmod_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "divmod")
    loops = {(p.name, scope) for p in MODULES for scope, _, _ in _loops_with(p, ast.While, divmod_call)}
    assert loops == {("poly.py", "_divide_loop")}


def test_one_function_holds_the_bareiss_update():
    # fraction_det and the point determinant of saito eliminate in _bareiss:
    # (pivot * a - lead * b) // prev, the fraction-free integer update (the
    # polynomial determinant of matrices.py divides by divide_exact instead)
    def update(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)
                and all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult)
                        for side in (node.left.left, node.left.right)))
    found = {(p.name, scope) for p in MODULES for scope, _, _ in _scan(p, lambda n: update(n) or None)}
    assert found == {("linalg.py", "_bareiss")}


def test_one_function_holds_the_point_evaluation_loop():
    # Poly.evaluate and the point determinant of saito evaluate in
    # _evaluate_rows: a for loop that raises a coordinate of the point,
    # point[i], to the exponent of a term
    def power(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Subscript))
    loops = {(p.name, scope) for p in MODULES for scope, _, _ in _loops_with(p, ast.For, power)}
    assert loops == {("poly.py", "_evaluate_rows")}


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, innermost enclosing function) of every call of name."""
    return {(p.name, scope) for p in MODULES for scope, _, _ in _calls(p, name)}


def test_one_core_solves_in_multiples():
    # graded_membership, bounded_syzygy_solve and scalar_membership_obstruction
    # build no columns and read no solution of their own; the straightening
    # of the linear forms is checked on integer rows, not by substitution
    assert _callers("_coefficient_system") == {("linalg.py", "_solve_in_multiples")}
    assert _callers("_solve") == {("linalg.py", "_solve_in_multiples"),
                                  ("linalg.py", "euler_annihilators")}
    obstruction = next(p for p in MODULES if p.name == "obstruction.py")
    assert [scope for scope, _, _ in _calls(obstruction, "substitute")] == [
        "smooth_times_nc_verdict"]


def test_hilbert_burch_scalars_come_from_the_certificate():
    # hilbert_burch_from_framed, euler3_divisor and multi_jet_extend read the
    # scalar of the minors from a verified frame [D | B]; no second lemma
    # checks B^T grad f or takes a point determinant of B
    assert _callers("signed_maximal_minors") == set()
    assert _callers("_ratio_at_point") == {("saito.py", "_det_scalar_by_lemma")}
    assert _callers("_gradient_quotients") == {("saito.py", "_verify_factors")}


def test_families_verify_no_certificate_twice():
    # iterate_tangent and sum_compose frame the certificates they hold, and
    # iterate_tangent builds its jets from the frame it has just built
    assert {scope for module, scope in _callers("euler_frame") if module == "families.py"} == set()
    assert {scope for module, scope in _callers("multi_jet_extend")
            if module == "families.py"} == {"tangent_extend"}


def test_the_strict_frame_solves_no_syzygies():
    # saito._strict_frame decides each exchange by the candidate's
    # determinant; the bounded syzygy solve only serves the x_1...x_n f search
    assert {scope for module, scope in _callers("bounded_syzygy_solve")
            if module == "saito.py"} == {"free_multiple_via_xifi"}


def test_the_binomial_matrix_is_read_from_exponent_vectors():
    # every entry of the binomial Saito matrix has a closed-form exponent and
    # coefficient, so no power and no product chain builds it
    path = next(p for p in MODULES if p.name == "families.py")
    fn = next(node for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if isinstance(node, ast.FunctionDef) and node.name == "_binomial_saito")
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            found.append((node.lineno, "**"))
        elif isinstance(node, ast.Call) and "poly_product" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, "poly_product"))
    assert found == []
