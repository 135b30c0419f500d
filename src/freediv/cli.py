"""Command-line front end: build, verify, and refute free-divisor certificates.

Every subcommand prints a single JSON document (keys sorted, stable across
runs) on stdout and reserves stderr for warnings and error messages.  Exit
codes: 0 success, 2 parse errors, 3 violated preconditions, 4 verification
failures, 5 internal cross-check mismatches.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from importlib import resources
from typing import Sequence

from .families import (
    BinomialSpec,
    CommonFactorError,
    FamilyVerdict,
    TriangularStep,
    binomial_divisor,
    brieskorn_chain,
    brieskorn_seed,
    compose_factors,
    cone_family,
    euler3_divisor,
    given_or_normal_crossing,
    is_free_binomial,
    iterate_tangent,
    multi_jet_extend,
    sum_compose,
    tangent_extend,
    triangular_extend,
)
from .linalg import euler_annihilators
from .matrices import InternalCheckError, PolyMatrix
from .obstruction import obstruction_report_to_json, smooth_times_nc_verdict
from .poly import Context, NotHomogeneousError, Poly, PolyError, parse_poly, poly_to_str
from .saito import (
    FramedDivisor,
    PreconditionError,
    VerificationError,
    certificate_to_json,
    column_roles,
    euler_frame,
    frame_divisor,
    free_multiple_via_xifi,
    hilbert_burch_from_framed,
    verify_saito,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFICATION = 4
EXIT_INTERNAL = 5

_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------


def _infer_names(texts: Sequence[str]) -> tuple[str, ...]:
    """Variable names in order of first occurrence across the given sources."""
    seen: list[str] = []
    for text in texts:
        for m in _IDENT.finditer(text):
            name = m.group(0)
            if name not in seen:
                seen.append(name)
    if not seen:
        raise PolyError("no variable names found; pass --vars explicitly")
    return tuple(seen)


def _make_context(vars_opt: str | None, texts: Sequence[str]) -> Context:
    if vars_opt:
        names = _split(vars_opt)
        if not names:
            raise PolyError("--vars must list at least one name")
        return Context(names)
    names = _infer_names(texts)
    print(
        "warning: variable order inferred from first occurrence: "
        + ",".join(names)
        + " (pass --vars to fix it)",
        file=sys.stderr,
    )
    return Context(names)


def _split(text: str, sep: str = ",") -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(sep) if s.strip())


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise PolyError(f"cannot read {path}: {reason}") from None


def _matrix_entries(data) -> list[list[str]]:
    """Validate decoded matrix JSON: a list of rows of strings, bare or
    wrapped in {"entries": ...}."""
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise PolyError("matrix JSON must be a list of rows (or {\"entries\": [...]})")
    for row in data:
        for cell in row:
            if not isinstance(cell, str):
                raise PolyError(f"matrix entries must be strings, got {cell!r}")
    return data


def _matrix_rows(text: str) -> list[list[str]]:
    """Decode a matrix argument: inline JSON or @file, entries as strings."""
    raw = _read_text(text[1:]) if text.startswith("@") else text
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PolyError(f"matrix is not valid JSON: {exc}") from None
    return _matrix_entries(data)


def _parse_matrix(rows: list[list[str]], ctx: Context) -> PolyMatrix:
    return PolyMatrix(ctx, [[parse_poly(cell, ctx) for cell in row] for row in rows])


def _parse_with(
    texts: Sequence[str], vars_opt: str | None, rows: list[list[str]] | None
) -> tuple[list[Poly], PolyMatrix | None]:
    """Polynomials and decoded matrix rows (None without any) over --vars,
    else over the names they use in order of first occurrence."""
    rows = rows or []
    ctx = _make_context(vars_opt, list(texts) + [cell for row in rows for cell in row])
    return [parse_poly(t, ctx) for t in texts], (_parse_matrix(rows, ctx) if rows else None)


def _shape(p: Poly) -> dict:
    """The keys that parse and analyze report for every polynomial."""
    degrees = sorted({sum(e) for e in p.support()})
    return {
        "f": poly_to_str(p),
        "vars": list(p.ctx.names),
        "num_terms": p.num_terms(),
        "degrees": degrees,
        "homogeneous": len(degrees) == 1,
    }


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _framed_payload(fd: FramedDivisor) -> dict:
    payload = certificate_to_json(fd.certificate)
    payload["factors"] = [poly_to_str(g) for g in fd.factors]
    payload["column_roles"] = column_roles(fd)
    payload["weight"] = None if fd.weight is None else [str(w) for w in fd.weight]
    return payload


def _verdict_payload(verdict: FamilyVerdict) -> dict:
    payload: dict = {"status": verdict.status, "reason": verdict.reason}
    payload["certificate"] = (
        None if verdict.certificate is None else certificate_to_json(verdict.certificate)
    )
    payload["witness"] = None if verdict.witness is None else poly_to_str(verdict.witness)
    if verdict.normal_form is not None:
        nf = verdict.normal_form
        payload["normal_form"] = {
            "n": nf.n,
            "a": list(nf.a),
            "b": list(nf.b),
            "alpha": str(nf.alpha),
            "beta": str(nf.beta),
            "u": nf.u,
            "t": nf.t,
        }
    else:
        payload["normal_form"] = None
    return payload


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    (p,), _ = _parse_with([args.f], args.vars, None)
    shape = _shape(p)
    if parse_poly(shape["f"], p.ctx) != p:
        raise InternalCheckError("canonical form failed to round-trip through the parser")
    _emit(shape)
    return EXIT_OK


def _cmd_verify(args) -> int:
    (f,), matrix = _parse_with([args.f], args.vars, _matrix_rows(args.matrix))
    _emit(certificate_to_json(verify_saito(f, matrix)))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    (p,), _ = _parse_with([args.f], args.vars, None)
    if p.is_zero():
        raise PreconditionError("cannot analyze the zero polynomial")
    payload = _shape(p)
    ann = euler_annihilators(p)
    payload["annihilator_basis"] = [[str(c) for c in vec] for vec in ann.basis]
    payload["unit_degree_field"] = (
        None if ann.unit_degree_field is None else [str(c) for c in ann.unit_degree_field]
    )
    if p.num_terms() == 2:
        try:
            payload["binomial"] = _verdict_payload(is_free_binomial(p))
        except PreconditionError as exc:
            payload["binomial"] = {"status": "inapplicable", "reason": str(exc)}
    else:
        payload["binomial"] = None
    _emit(payload)
    return EXIT_OK


def _cmd_obstruct(args) -> int:
    form_texts = _split(args.linear_forms, ";") if args.linear_forms else ()
    (f, *ells), _ = _parse_with([args.f, *form_texts], args.vars, None)
    ells = ells or [parse_poly(t, f.ctx) for t in f.ctx.names]
    report = smooth_times_nc_verdict(f, ells, smooth_asserted=args.assert_smooth)
    _emit(obstruction_report_to_json(report))
    return EXIT_OK


def _cmd_construct(args) -> int:
    row = _FAMILIES[args.family]
    params = {param.name: param.from_args(args) for param in row.params}
    payload = row.payload(row.build(**params), params)
    payload["family"] = row.family
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parameter kinds: one decoder from option text, one from corpus JSON
# ---------------------------------------------------------------------------


class _Kind:
    """A parameter type.  `text(text, flag)` decodes option text and raises
    PolyError; a kind without it is converted by argparse with the keywords in
    `option`, or is read from the corpus only.  `json(value)` decodes a corpus
    value and raises TypeError or ValueError, which `_field` reports as the
    field's error."""

    def __init__(self, what: str, text, json, **option):
        self.what, self.text, self.json, self.option = what, text, json, option


def _tokens(convert):
    """Text decoder of comma-separated tokens."""

    def decode(text: str, flag: str) -> tuple:
        try:
            return tuple(convert(tok.strip()) for tok in text.split(","))
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyError(f"cannot parse {flag} {text!r}: {exc}") from None

    return decode


def _json_type(*types):
    """JSON decoder that passes values of the given types only; true and false
    are not integers."""

    def decode(value):
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise TypeError(value)
        return value

    return decode


def _list_of(item):
    def decode(value):
        return tuple(map(item, _json_type(list)(value)))

    return decode


def _steps(texts: list[str], flag: str) -> list[TriangularStep]:
    steps = []
    for text in texts:
        parts = [s.strip() for s in text.split(",")]
        if len(parts) != 5:
            raise PolyError(f"{flag} wants 'a,b,alpha,beta,new_var', got {text!r}")
        try:
            a, b, alpha, beta = int(parts[0]), int(parts[1]), Fraction(parts[2]), Fraction(parts[3])
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyError(f"cannot parse {flag} {text!r}: {exc}") from None
        steps.append(TriangularStep(a=a, b=b, alpha=alpha, beta=beta, new_var=parts[4]))
    return steps


_INT = _Kind("an integer", None, _json_type(int), type=int)
_INTS = _Kind("a list of integers", _tokens(int), _list_of(_json_type(int)))
_RATIONALS = _Kind(
    "a list of rationals", _tokens(Fraction), _list_of(lambda v: Fraction(_json_type(int, str)(v)))
)
_NAMES = _Kind("a list of strings", lambda text, flag: _split(text), _list_of(_json_type(str)))
_NAME_GROUPS = _Kind(
    "a list of lists of strings",
    lambda text, flag: tuple(_split(group) for group in text.split(";")),
    _list_of(_list_of(_json_type(str))),
)
_FLAG = _Kind("a boolean", None, _json_type(bool))
_STRING = _Kind("a string", lambda text, flag: text, _json_type(str))
_MATRIX = _Kind("a matrix", lambda text, flag: _matrix_rows(text), _matrix_entries)
_STEPS = _Kind("a list of steps", _steps, None, action="append")
_OBJECT = _Kind("an object", None, _json_type(dict))


def _field(obj: dict, key: str, kind: _Kind):
    """obj[key] through the kind's JSON decoder.  A value of the wrong type
    raises PreconditionError naming the field, so it becomes the entry's
    error row instead of ending the run."""
    value = obj[key]
    try:
        return kind.json(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise PreconditionError(f"field {key!r} must be {kind.what}, got {value!r}") from None


class _Param:
    """A parameter of a row: its kind, its `construct` option --name (none
    without `option`) and its corpus field, a dotted path from the entry
    (default params.name).  An optional parameter that is absent, or given
    as empty option text, is None."""

    def __init__(self, name, kind, help=None, required=False, field=None, option=True):
        self.name, self.kind, self.help, self.required = name, kind, help, required
        self.flags = ["--" + name.replace("_", "-")] if option else []
        self.path = (field or "params." + name).split(".")

    def options(self) -> list[tuple]:
        """(flag, kind, required, help) of each option, in help order."""
        return [(flag, self.kind, self.required, self.help) for flag in self.flags]

    def from_args(self, args):
        value = getattr(args, self.name, None)
        if self.kind.text is None:
            return value
        return self.kind.text(value, self.flags[0]) if value or self.required else None

    def from_entry(self, entry: dict):
        obj, (*parents, key) = entry, self.path
        for parent in parents:
            obj = _field(obj, parent, _OBJECT) if parent in obj or self.required else {}
        return _field(obj, key, self.kind) if key in obj or self.required else None


_NOT_MONOMIAL = "the divisor is not a scaled squarefree monomial; supply --matrix"
_SAITO_HELP = "Saito matrix for f (default: normal crossing)"


class _Divisor:
    """A decoded seed: the divisor, its weights, the given matrix (None
    without one) and the message for a divisor that needs one."""

    def __init__(self, divisor: Poly, weights, matrix: PolyMatrix | None, missing: str):
        self.divisor, self.weights, self.matrix, self.missing = divisor, weights, matrix, missing

    def _matrix(self) -> PolyMatrix:
        return given_or_normal_crossing(self.divisor, self.matrix, self.missing)

    def framed(self) -> FramedDivisor:
        return frame_divisor([self.divisor], self._matrix(), weight=self.weights)

    def hilbert_burch(self):
        return hilbert_burch_from_framed(euler_frame(self.divisor, self.weights, self._matrix()))


class _Seed:
    """The seed kind, a parameter like _Param: a divisor with its variables,
    weights and optional matrix, read together because f and the matrix
    name the variables.  Options --f (or --g) with --[g-]vars, --[g-]weights
    and --[g-]matrix; corpus fields vars, f, weights and matrix of `params`,
    or of its member `name` for a `side` of a two-sided construction."""

    def __init__(self, name="f", side=False, weights_help=None, matrix_help=None):
        self.name, self.side, self.helps = name, side, (weights_help, matrix_help)
        self.prefix = "" if name == "f" else name + "-"

    def options(self) -> list[tuple]:
        p = self.prefix
        return [
            ("--" + self.name, _STRING, True, None),
            (f"--{p}vars", _NAMES, False, None),
            (f"--{p}weights", _RATIONALS, True, self.helps[0]),
            (f"--{p}matrix", _MATRIX, False, self.helps[1]),
        ]

    def from_args(self, args) -> _Divisor:
        p, dest = self.prefix, self.prefix.replace("-", "_")
        text = getattr(args, dest + "matrix")
        rows = None if text is None else _matrix_rows(text)
        (f,), matrix = _parse_with([getattr(args, self.name)], getattr(args, dest + "vars"), rows)
        weights = _RATIONALS.text(getattr(args, dest + "weights"), f"--{p}weights")
        missing = (
            f"the {p or 'first'} divisor is not a scaled squarefree monomial; supply --{p}matrix"
            if self.side else _NOT_MONOMIAL
        )
        return _Divisor(f, weights, matrix, missing)

    def from_entry(self, entry: dict) -> _Divisor:
        obj = _field(entry, "params", _OBJECT)
        if self.side:
            obj = _field(obj, self.name, _OBJECT)
        ctx = Context(_field(obj, "vars", _NAMES))
        f = parse_poly(_field(obj, "f", _STRING), ctx)
        data = obj.get("matrix")
        matrix = _parse_matrix(_matrix_entries(data), ctx) if data else None
        weights = _field(obj, "weights", _RATIONALS)
        return _Divisor(
            f, weights, matrix, "side divisor needs an explicit matrix" if self.side else _NOT_MONOMIAL
        )


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


def _binomial(n, a, b, alpha, beta, u, t, **names):
    names = {key: value for key, value in names.items() if value is not None}
    a, b = a or (0,) * n, b or (0,) * n
    return binomial_divisor(BinomialSpec(n=n, a=a, b=b, alpha=alpha, beta=beta, u=u, t=t, **names))


def _brieskorn(t, names, matrix) -> FramedDivisor:
    fd = brieskorn_chain(*t, names=names)
    if matrix is not None and fd.matrix != _parse_matrix(matrix, fd.ctx):
        raise VerificationError("corpus_golden", "the chain's matrix differs from the frozen one")
    return fd


def _triangular(t, names, step) -> FramedDivisor:
    if len(t) != 2:
        raise PolyError(f"--t wants the two exponents 't1,t2', got {','.join(map(str, t))!r}")
    fd = brieskorn_seed(*t, names=("x1", "x2") if names is None else names)
    for s in step or ():
        fd = triangular_extend(fd, s)
    return fd


def _compose(factors, matrix, vars, outer_factors, outer_matrix, outer_vars) -> FramedDivisor:
    inner, frame = _parse_with(_split(factors, ";"), vars, matrix)
    if frame is not None:
        frame = frame_divisor(inner, frame)
    outer, outer_frame = _parse_with(_split(outer_factors, ";"), outer_vars, outer_matrix)
    return compose_factors(inner, frame_divisor(outer, outer_frame), frame=frame)


def _obstruct_entry(f: Poly, linear_forms, assert_smooth) -> _EntryOutcome:
    ells = [parse_poly(t, f.ctx) for t in linear_forms or f.ctx.names]
    report = smooth_times_nc_verdict(
        f, ells, smooth_asserted=True if assert_smooth is None else assert_smooth
    )
    actual = _CONCLUSION_MAP[report.conclusion]
    refuted = [poly_to_str(report.candidate)] if actual == "not_free" else []
    return _EntryOutcome(actual, refuted=refuted, detail=report.conclusion)


def _substitution_entry(
    f: Poly, factors, outer_vars, outer_f, outer_factors, witness
) -> _EntryOutcome:
    inner = [parse_poly(t, f.ctx) for t in factors]
    outer_ctx = Context(outer_vars)
    verdict = is_free_binomial(parse_poly(outer_f, outer_ctx))
    if not verdict.is_free:
        raise PreconditionError("the outer divisor of this entry must be free")
    outer = frame_divisor(
        [parse_poly(t, outer_ctx) for t in outer_factors], verdict.certificate.matrix
    )
    try:
        compose_factors(inner, outer, frame=None)
    except CommonFactorError as err:
        if err.witness != parse_poly(witness, f.ctx):
            raise VerificationError(
                "corpus_golden", f"unexpected gcd witness {poly_to_str(err.witness)}"
            )
        _check_divisor_matches(err.substituted, f, "the substituted product")
        return _EntryOutcome(
            "not_free", refuted=[poly_to_str(f)], detail="non-reduced substitution detected"
        )
    raise VerificationError(
        "corpus_golden", "expected a common-factor rejection, none was raised"
    )


class _Row:
    """A row of the family table: a `construct` subcommand (`family`), a
    corpus check (`check`) or both.  `build(**params)` calls the library and
    `payload(result, params)` is what `construct` prints.  The corpus
    compares `divisor(result, f)`, unless None, with the entry's f and names
    a mismatch by `label` (and `variables`).  A check without a subcommand
    has `run(f, **params)` instead, which gives the entry's outcome.

    Builders look library functions up by name when they run, so a caller
    that rebinds them in this module's namespace is seen."""

    def __init__(self, family=None, check=None, help=None, params=(), build=None,
                 payload=None, divisor=None, label=None, variables=None, run=None):
        self.family, self.check, self.help, self.params = family, check, help, params
        self.build, self.payload, self.run = build, payload, run
        self.divisor, self.label, self.variables = divisor, label, variables


_ROWS = (
    _Row("binomial", help="monomial-times-binomial divisor", params=(
        _Param("n", _INT, "number of x-variables", required=True),
        _Param("a", _INTS, "comma-separated x-exponents of the first term"),
        _Param("b", _INTS, "comma-separated x-exponents of the second term"),
        _Param("alpha", _INT, "y-exponent of the first term", required=True),
        _Param("beta", _INT, "z-exponent of the second term", required=True),
        _Param("u", _INT, "y-exponent of the second term", required=True),
        _Param("t", _INT, "z-exponent of the first term", required=True),
        _Param("x_names", _NAMES),
        _Param("y_name", _STRING),
        _Param("z_name", _STRING),
    ), build=_binomial, payload=lambda cert, p: certificate_to_json(cert)),
    _Row("brieskorn", "brieskorn", "chain of two-variable binomials", params=(
        _Param("t", _INTS, "comma-separated exponents t1,t2,...", required=True),
        _Param("names", _NAMES, "comma-separated variable names", field="vars"),
        _Param("matrix", _MATRIX, field="matrix", option=False),
    ), build=_brieskorn, payload=lambda fd, p: _framed_payload(fd),
        divisor=lambda fd, f: fd.product, label="the chain construction"),
    _Row("triangular", help="two-variable seed extended one variable at a time", params=(
        _Param("t", _INTS, "seed exponents t1,t2", required=True),
        _Param("names", _NAMES, "seed variable names (default x1,x2)"),
        _Param("step", _STEPS, "extension step 'a,b,alpha,beta,new_var'; repeatable"),
    ), build=_triangular, payload=lambda fd, p: _framed_payload(fd)),
    _Row("compose", help="substitute factors into an outer divisor", params=(
        _Param("factors", _STRING, "semicolon-separated substituents", required=True),
        _Param("matrix", _MATRIX, "strict frame for the substituents (JSON or @file)"),
        _Param("vars", _STRING),
        _Param("outer_factors", _STRING, "semicolon-separated outer factors", required=True),
        _Param("outer_matrix", _MATRIX, "outer Saito matrix", required=True),
        _Param("outer_vars", _STRING),
    ), build=_compose, payload=lambda fd, p: _framed_payload(fd)),
    _Row("sum-compose", "sum_compose", "f*g*(f+g) on disjoint variables", params=(
        _Seed("f", True, "weights making f homogeneous", _SAITO_HELP),
        _Seed("g", True),
    ), build=lambda f, g: sum_compose(f.framed(), g.framed()),
        payload=lambda fd, p: _framed_payload(fd),
        divisor=lambda fd, f: _in_entry_order(fd.product, f, "sum composition"),
        label="the sum composition"),
    _Row("tangent", help="f times its first polar form", params=(
        _Seed(matrix_help=_SAITO_HELP),
        _Param("fresh", _NAMES, "comma-separated fresh variable names"),
    ), build=lambda f, fresh: tangent_extend(f.divisor, f.hilbert_burch(), f.weights, fresh),
        payload=lambda cert, p: certificate_to_json(cert)),
    _Row("jets", "jets", "f times its first m polar forms", params=(
        _Seed(),
        _Param("m", _INT, "number of jet levels", required=True),
        _Param("fresh", _NAME_GROUPS, "semicolon-separated groups of comma-separated names"),
    ), build=lambda f, m, fresh: multi_jet_extend(f.divisor, f.hilbert_burch(), f.weights, m, fresh),
        payload=lambda cert, p: dict(certificate_to_json(cert), levels=p["m"]),
        divisor=lambda cert, f: cert.divisor, label="the jet construction", variables="jet"),
    _Row("iterate", "iterate", "iterated tangent extension", params=(
        _Seed(),
        _Param("steps", _INT, required=True),
    ), build=lambda f, steps: iterate_tangent(f.divisor, f.weights, steps, f.matrix),
        payload=lambda certs, p: dict(
            certificate_to_json(certs[-1]), steps=[certificate_to_json(c) for c in certs]
        ),
        divisor=lambda certs, f: certs[-1].divisor, label="the iterated construction",
        variables="iterated"),
    _Row("cone", "cone", "products of cones through coordinate axes", params=(
        _Param("k", _INT, "number of cone factors", required=True),
        _Param("gammas", _INTS, "axis exponents g1,g2,g3 in {0,1}", required=True),
        _Param("a", _INT, required=True),
        _Param("b", _INT, required=True),
        _Param("c", _INT, required=True),
        _Param("alphas", _RATIONALS, "comma-separated distinct scalars", required=True),
    ), build=lambda **p: cone_family(**p), payload=lambda verdict, p: _verdict_payload(verdict),
        divisor=lambda verdict, f: verdict.certificate and verdict.certificate.divisor,
        label="the cone construction"),
    _Row(check="verify", params=(_Param("matrix", _MATRIX, required=True, field="matrix"),),
         run=lambda f, matrix: _certified(verify_saito(f, _parse_matrix(matrix, f.ctx)).divisor)),
    _Row(check="binomial", run=lambda f: _verdict_outcome(is_free_binomial(f), f)),
    _Row(check="euler3", params=(_Param("field", _RATIONALS, required=True, field="field"),),
         run=lambda f, field: _verdict_outcome(euler3_divisor(f, field), f)),
    _Row(check="obstruct", params=(_Param("linear_forms", _NAMES), _Param("assert_smooth", _FLAG)),
         run=_obstruct_entry),
    _Row(check="xifi_free", run=lambda f: _certified(free_multiple_via_xifi(f).divisor)),
    _Row(check="substitution_reduced", params=(
        _Param("factors", _NAMES, required=True),
        _Param("outer_vars", _NAMES, required=True, field="params.outer.vars"),
        _Param("outer_f", _STRING, required=True, field="params.outer.f"),
        _Param("outer_factors", _NAMES, required=True, field="params.outer.factors"),
        _Param("witness", _STRING, required=True),
    ), run=_substitution_entry),
)
_FAMILIES = {row.family: row for row in _ROWS if row.family}
_CHECKS = {row.check: row for row in _ROWS if row.check}


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

_STATUS_MAP = {
    "free": "free",
    "not_free": "not_free",
    "unknown": "inconclusive",
    "suspension": "inconclusive",
}

_EXPECTATIONS = ("free", "not_free", "inconclusive")

_CONCLUSION_MAP = {
    "FreeCertificate": "free",
    "NotFree": "not_free",
    "Inconclusive": "inconclusive",
}


class _EntryOutcome:
    """What one corpus entry produced: the observed classification plus the
    certified / refuted divisor strings it contributes to the consistency map."""

    def __init__(self, actual: str, certified=(), refuted=(), detail: str = ""):
        self.actual = actual
        self.certified = list(certified)
        self.refuted = list(refuted)
        self.detail = detail


def _certified(divisor: Poly) -> _EntryOutcome:
    return _EntryOutcome("free", certified=[poly_to_str(divisor)])


def _verdict_outcome(verdict: FamilyVerdict, f: Poly) -> _EntryOutcome:
    actual = _STATUS_MAP[verdict.status]
    certified = []
    refuted = []
    if verdict.status == "free" and verdict.certificate is not None:
        certified.append(poly_to_str(verdict.certificate.divisor))
    if verdict.status == "not_free":
        refuted.append(poly_to_str(f))
    return _EntryOutcome(actual, certified, refuted, verdict.reason)


def _check_divisor_matches(
    constructed: Poly, expected: Poly, what: str, variables: str | None = None
) -> None:
    """Raise unless the construction gives the entry's divisor; with
    `variables`, first unless it has the entry's variables."""
    if variables and constructed.ctx.names != expected.ctx.names:
        raise VerificationError(
            "corpus_golden",
            f"{variables} variables {constructed.ctx.names} differ from the entry's",
        )
    if constructed != expected:
        raise VerificationError(
            "corpus_golden",
            f"{what} does not reproduce the entry's divisor: "
            f"got {poly_to_str(constructed)}",
        )


def _in_entry_order(constructed: Poly, expected: Poly, variables: str) -> Poly:
    """The construction with its variables in the entry's order; raise
    unless they are a permutation of the entry's."""
    if sorted(constructed.ctx.names) != sorted(expected.ctx.names):
        raise VerificationError(
            "corpus_golden",
            f"{variables} variables {constructed.ctx.names} differ from the entry's",
        )
    return constructed.reordered(expected.ctx.names)


def _run_entry_checked(entry: dict) -> _EntryOutcome:
    check = entry.get("check", "verify")
    f = parse_poly(entry["f"], Context(tuple(entry["vars"])))
    row = _CHECKS.get(check) if isinstance(check, str) else None
    if row is None:
        raise PreconditionError(f"entry {entry['id']!r} has unknown check {check!r}")
    params = {param.name: param.from_entry(entry) for param in row.params}
    if row.run is not None:
        return row.run(f, **params)
    result = row.build(**params)
    divisor = row.divisor(result, f)
    if divisor is not None:
        _check_divisor_matches(divisor, f, row.label, row.variables)
    if isinstance(result, FamilyVerdict):
        return _verdict_outcome(result, f)
    return _certified(f)


def _run_entry(entry: dict) -> dict:
    expect = entry.get("expect")
    try:
        outcome = _run_entry_checked(entry)
    except (PolyError, PreconditionError, VerificationError, InternalCheckError) as exc:
        return {
            "id": entry.get("id", "?"),
            "ok": False,
            "expect": expect,
            "actual": f"error: {exc}",
            "certified": [],
            "refuted": [],
        }
    return {
        "id": entry.get("id", "?"),
        "ok": outcome.actual == expect,
        "expect": expect,
        "actual": outcome.actual if not outcome.detail else
            f"{outcome.actual} ({outcome.detail})",
        "certified": outcome.certified,
        "refuted": outcome.refuted,
    }


class _Fields(dict):
    """A JSON object of a corpus: a missing field raises PreconditionError,
    so it becomes that entry's error row."""

    def __missing__(self, key):
        raise PreconditionError(f"missing field {key!r}")


def _load_corpus(path: str | None) -> list[dict]:
    if path:
        raw = _read_text(path)
    else:
        raw = resources.files("freediv").joinpath("corpus.json").read_text("utf-8")
    try:
        entries = json.loads(raw, object_hook=_Fields)
    except json.JSONDecodeError as exc:
        raise PolyError(f"corpus is not valid JSON: {exc}") from None
    if not isinstance(entries, list):
        raise PolyError("corpus must be a JSON array of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise PreconditionError(f"corpus entry {i} is not an object")
        for field in ("id", "vars", "f", "expect"):
            if field not in entry:
                raise PreconditionError(f"corpus entry {i} has no {field!r} field")
        if not (isinstance(entry["id"], str) and isinstance(entry["f"], str)
                and isinstance(entry["vars"], list)
                and all(isinstance(v, str) for v in entry["vars"])):
            raise PreconditionError(
                f"corpus entry {i}: 'id' and 'f' must be strings, 'vars' a list of strings"
            )
        if entry["expect"] not in _EXPECTATIONS:
            raise PreconditionError(
                f"corpus entry {i}: 'expect' must be one of {', '.join(_EXPECTATIONS)}, "
                f"got {entry['expect']!r}"
            )
    ids = [e["id"] for e in entries]
    if len(set(ids)) != len(ids):
        raise PreconditionError("corpus entry ids must be unique")
    return entries


def _cmd_corpus_run(args) -> int:
    results = sorted(map(_run_entry, _load_corpus(args.path)), key=lambda r: r["id"])

    certified: dict[str, list[str]] = {}
    refuted: dict[str, list[str]] = {}
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        print(f"{r['id']}: {status} expect={r['expect']} actual={r['actual']}")
        for d in r["certified"]:
            certified.setdefault(d, []).append(r["id"])
        for d in r["refuted"]:
            refuted.setdefault(d, []).append(r["id"])

    conflicts = sorted(set(certified) & set(refuted))
    for d in conflicts:
        print(
            "CONFLICT: divisor certified by "
            f"{certified[d]} and refuted by {refuted[d]}: {d}"
        )
    failed = [r["id"] for r in results if not r["ok"]]
    print(
        f"{len(results) - len(failed)} passed, {len(failed)} failed, "
        f"{len(results)} total; cross-consistency: "
        + ("CONFLICT" if conflicts else "ok")
    )
    if conflicts:
        return EXIT_INTERNAL
    if failed:
        return EXIT_VERIFICATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freediv",
        description="Construct, verify, and refute free-divisor certificates "
        "with exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a polynomial and print its canonical form")
    p.add_argument("--f", required=True, help="polynomial expression")
    p.add_argument("--vars", help="comma-separated variable order (else inferred)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("verify", help="check a Saito matrix against a divisor")
    p.add_argument("--f", required=True, help="the divisor")
    p.add_argument("--matrix", required=True, help="square matrix: JSON or @file")
    p.add_argument("--vars", help="comma-separated variable order (else inferred)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "analyze",
        help="annihilator fields, homogeneity, and binomial classification",
    )
    p.add_argument("--f", required=True)
    p.add_argument("--vars")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "obstruct",
        help="linear-algebra obstructions against f * (product of linear forms)",
    )
    p.add_argument("--f", required=True, help="homogeneous candidate")
    p.add_argument(
        "--linear-forms",
        help="semicolon-separated linear forms (default: the coordinates)",
    )
    p.add_argument(
        "--assert-smooth",
        action="store_true",
        help="assert that the candidate's zero set is smooth",
    )
    p.add_argument("--vars")
    p.set_defaults(func=_cmd_obstruct)

    con = sub.add_parser("construct", help="build a divisor from a family")
    consub = con.add_subparsers(dest="family", required=True)
    for row in _FAMILIES.values():
        p = consub.add_parser(row.family, help=row.help)
        for param in row.params:
            for flag, kind, required, help in param.options():
                p.add_argument(flag, required=required, help=help, **kind.option)
        p.set_defaults(func=_cmd_construct)

    cor = sub.add_parser("corpus", help="run the bundled example corpus")
    corsub = cor.add_subparsers(dest="corpus_command", required=True)
    p = corsub.add_parser("run", help="run every entry and compare expectations")
    p.add_argument("--path", help="corpus JSON file (default: the bundled corpus)")
    p.add_argument("--jobs", type=int, help="accepted and ignored: entries run one after another")
    p.set_defaults(func=_cmd_corpus_run)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotHomogeneousError, PreconditionError) as exc:
        print(f"error (precondition): {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except PolyError as exc:
        print(f"error (parse): {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CommonFactorError as exc:
        print(f"error (verification): {exc}", file=sys.stderr)
        print(f"gcd witness: {poly_to_str(exc.witness)}", file=sys.stderr)
        print(
            f"substituted polynomial has {exc.substituted.num_terms()} terms",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION
    except VerificationError as exc:
        print(f"error (verification, {exc.kind}): {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except InternalCheckError as exc:
        print(f"error (internal cross-check): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
