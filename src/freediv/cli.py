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
    is_free_binomial,
    iterate_tangent,
    multi_jet_extend,
    normal_crossing_matrix,
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
        names = tuple(s.strip() for s in vars_opt.split(",") if s.strip())
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


def _fractions(text: str, what: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyError(f"cannot parse {what} {text!r}: {exc}") from None


def _ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok.strip()) for tok in text.split(","))
    except ValueError as exc:
        raise PolyError(f"cannot parse {what} {text!r}: {exc}") from None


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in text.split(",") if s.strip())


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


def _matrix_rows(text: str | None) -> list[list[str]]:
    """Decode a matrix argument: inline JSON or @file, entries as strings;
    no argument gives no rows."""
    if text is None:
        return []
    raw = _read_text(text[1:]) if text.startswith("@") else text
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise PolyError(f"matrix is not valid JSON: {exc}") from None
    return _matrix_entries(data)


def _parse_matrix(rows: list[list[str]], ctx: Context) -> PolyMatrix:
    return PolyMatrix(ctx, [[parse_poly(cell, ctx) for cell in row] for row in rows])


def _cells(rows: list[list[str]]) -> list[str]:
    """Entry strings of decoded matrix rows, for variable inference."""
    return [cell for row in rows for cell in row]


def _seed(args) -> tuple[Poly, tuple[Fraction, ...], PolyMatrix | None]:
    """The divisor, weights and given matrix (None without --matrix) of the
    jet constructions."""
    rows = _matrix_rows(args.matrix)
    ctx = _make_context(args.vars, [args.f] + _cells(rows))
    f = parse_poly(args.f, ctx)
    w = _fractions(args.weights, "--weights")
    return f, w, (_parse_matrix(rows, ctx) if rows else None)


def _given_or_normal_crossing(f: Poly, matrix: PolyMatrix | None, message: str) -> PolyMatrix:
    """The given matrix, else the normal-crossing matrix of a scaled
    squarefree monomial f, else PreconditionError(message)."""
    if matrix is None:
        matrix = normal_crossing_matrix(f)
        if matrix is None:
            raise PreconditionError(message)
    return matrix


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


def _hilbert_burch(f: Poly, w: Sequence[Fraction], matrix: PolyMatrix | None):
    matrix = _given_or_normal_crossing(
        f, matrix, "the divisor is not a scaled squarefree monomial; supply --matrix"
    )
    return hilbert_burch_from_framed(euler_frame(f, w, matrix))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    ctx = _make_context(args.vars, [args.f])
    p = parse_poly(args.f, ctx)
    shape = _shape(p)
    if parse_poly(shape["f"], ctx) != p:
        raise InternalCheckError("canonical form failed to round-trip through the parser")
    _emit(shape)
    return EXIT_OK


def _cmd_verify(args) -> int:
    rows = _matrix_rows(args.matrix)
    ctx = _make_context(args.vars, [args.f] + _cells(rows))
    f = parse_poly(args.f, ctx)
    cert = verify_saito(f, _parse_matrix(rows, ctx))
    _emit(certificate_to_json(cert))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    ctx = _make_context(args.vars, [args.f])
    p = parse_poly(args.f, ctx)
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
    form_texts = (
        [s.strip() for s in args.linear_forms.split(";") if s.strip()]
        if args.linear_forms
        else []
    )
    ctx = _make_context(args.vars, [args.f] + form_texts)
    f = parse_poly(args.f, ctx)
    if not form_texts:
        form_texts = list(ctx.names)
    ells = [parse_poly(t, ctx) for t in form_texts]
    report = smooth_times_nc_verdict(f, ells, smooth_asserted=args.assert_smooth)
    _emit(obstruction_report_to_json(report))
    return EXIT_OK


def _cmd_construct_binomial(args) -> int:
    n = args.n
    a = _ints(args.a, "--a") if args.a else (0,) * n
    b = _ints(args.b, "--b") if args.b else (0,) * n
    kwargs = {}
    if args.x_names:
        kwargs["x_names"] = _split_names(args.x_names)
    if args.y_name:
        kwargs["y_name"] = args.y_name
    if args.z_name:
        kwargs["z_name"] = args.z_name
    spec = BinomialSpec(
        n=n,
        a=a,
        b=b,
        alpha=args.alpha,
        beta=args.beta,
        u=args.u,
        t=args.t,
        **kwargs,
    )
    cert = binomial_divisor(spec)
    payload = certificate_to_json(cert)
    payload["family"] = "binomial"
    _emit(payload)
    return EXIT_OK


def _cmd_construct_brieskorn(args) -> int:
    t = _ints(args.t, "--t")
    names = _split_names(args.names) if args.names else None
    fd = brieskorn_chain(*t, names=names)
    payload = _framed_payload(fd)
    payload["family"] = "brieskorn"
    _emit(payload)
    return EXIT_OK


def _cmd_construct_triangular(args) -> int:
    t1, t2 = _ints(args.t, "--t")
    names = _split_names(args.names) if args.names else ("x1", "x2")
    fd = brieskorn_seed(t1, t2, names=names)
    for step_text in args.step or []:
        parts = [s.strip() for s in step_text.split(",")]
        if len(parts) != 5:
            raise PolyError(
                f"--step wants 'a,b,alpha,beta,new_var', got {step_text!r}"
            )
        try:
            step = TriangularStep(
                a=int(parts[0]),
                b=int(parts[1]),
                alpha=Fraction(parts[2]),
                beta=Fraction(parts[3]),
                new_var=parts[4],
            )
        except ValueError as exc:
            raise PolyError(f"cannot parse --step {step_text!r}: {exc}") from None
        fd = triangular_extend(fd, step)
    payload = _framed_payload(fd)
    payload["family"] = "triangular"
    _emit(payload)
    return EXIT_OK


def _cmd_construct_compose(args) -> int:
    factor_texts = [s.strip() for s in args.factors.split(";") if s.strip()]
    rows = _matrix_rows(args.matrix)
    ctx = _make_context(args.vars, factor_texts + _cells(rows))
    factors = [parse_poly(t, ctx) for t in factor_texts]
    frame = None
    if rows:
        frame = frame_divisor(factors, _parse_matrix(rows, ctx))
    outer_texts = [s.strip() for s in args.outer_factors.split(";") if s.strip()]
    outer_rows = _matrix_rows(args.outer_matrix)
    outer_ctx = _make_context(args.outer_vars, outer_texts + _cells(outer_rows))
    outer = frame_divisor(
        [parse_poly(t, outer_ctx) for t in outer_texts],
        _parse_matrix(outer_rows, outer_ctx),
    )
    fd = compose_factors(factors, outer, frame=frame)
    payload = _framed_payload(fd)
    payload["family"] = "compose"
    _emit(payload)
    return EXIT_OK


def _framed_side(f_text, vars_opt, weights_text, matrix_text, label) -> FramedDivisor:
    rows = _matrix_rows(matrix_text)
    ctx = _make_context(vars_opt, [f_text] + _cells(rows))
    f = parse_poly(f_text, ctx)
    w = _fractions(weights_text, f"--{label}weights")
    matrix = _given_or_normal_crossing(
        f,
        _parse_matrix(rows, ctx) if rows else None,
        f"the {label or 'first'} divisor is not a scaled squarefree "
        f"monomial; supply --{label}matrix",
    )
    return frame_divisor([f], matrix, weight=w)


def _cmd_construct_sum_compose(args) -> int:
    fd_f = _framed_side(args.f, args.vars, args.weights, args.matrix, "")
    fd_g = _framed_side(args.g, args.g_vars, args.g_weights, args.g_matrix, "g-")
    fd = sum_compose(fd_f, fd_g)
    payload = _framed_payload(fd)
    payload["family"] = "sum-compose"
    _emit(payload)
    return EXIT_OK


def _cmd_construct_tangent(args) -> int:
    f, w, matrix = _seed(args)
    hb = _hilbert_burch(f, w, matrix)
    fresh = _split_names(args.fresh) if args.fresh else None
    cert = tangent_extend(f, hb, w, fresh)
    payload = certificate_to_json(cert)
    payload["family"] = "tangent"
    _emit(payload)
    return EXIT_OK


def _cmd_construct_jets(args) -> int:
    f, w, matrix = _seed(args)
    hb = _hilbert_burch(f, w, matrix)
    fresh = None
    if args.fresh:
        fresh = [list(_split_names(group)) for group in args.fresh.split(";")]
    cert = multi_jet_extend(f, hb, w, args.m, fresh)
    payload = certificate_to_json(cert)
    payload["family"] = "jets"
    payload["levels"] = args.m
    _emit(payload)
    return EXIT_OK


def _cmd_construct_iterate(args) -> int:
    f, w, matrix = _seed(args)
    certs = iterate_tangent(f, w, args.steps, matrix)
    final = certs[-1]
    payload = certificate_to_json(final)
    payload["family"] = "iterate"
    payload["steps"] = [certificate_to_json(c) for c in certs]
    _emit(payload)
    return EXIT_OK


def _cmd_construct_cone(args) -> int:
    verdict = cone_family(
        args.k,
        _ints(args.gammas, "--gammas"),
        args.a,
        args.b,
        args.c,
        _fractions(args.alphas, "--alphas"),
    )
    payload = _verdict_payload(verdict)
    payload["family"] = "cone"
    _emit(payload)
    return EXIT_OK


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


def _entry_matrix(entry: dict, ctx: Context, key: str = "matrix") -> PolyMatrix:
    data = entry.get(key)
    if data is None:
        raise PreconditionError(f"entry {entry['id']!r} needs a {key!r} field")
    return _parse_matrix(_matrix_entries(data), ctx)


def _optional_matrix(obj: dict, ctx: Context) -> PolyMatrix | None:
    data = obj.get("matrix")
    return _parse_matrix(_matrix_entries(data), ctx) if data else None


def _of_type(kind: type):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value

    return check


def _list_of(convert):
    def check(value):
        return [convert(x) for x in _of_type(list)(value)]

    return check


# (converter, description) of the per-check field types of a corpus entry
_OBJECT = (_of_type(dict), "an object")
_STRING = (_of_type(str), "a string")
_STRINGS = (_list_of(_of_type(str)), "a list of strings")
_INTEGERS = (_list_of(_of_type(int)), "a list of integers")
_RATIONALS = (_list_of(Fraction), "a list of rationals")


def _field(obj: dict, key: str, kind):
    """obj[key] through the kind's converter.  A value of the wrong type
    raises PreconditionError naming the field, so it becomes the entry's
    error row instead of ending the run."""
    convert, what = kind
    value = obj[key]
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise PreconditionError(f"field {key!r} must be {what}, got {value!r}") from None


def _divisor(obj: dict) -> Poly:
    """The 'f' of a nested corpus object over its own 'vars'."""
    ctx = Context(tuple(_field(obj, "vars", _STRINGS)))
    return parse_poly(_field(obj, "f", _STRING), ctx)


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


def _run_entry_checked(entry: dict) -> _EntryOutcome:
    check = entry.get("check", "verify")
    ctx = Context(tuple(entry["vars"]))
    f = parse_poly(entry["f"], ctx)
    fstr = poly_to_str(f)

    if check == "verify":
        cert = verify_saito(f, _entry_matrix(entry, ctx))
        return _EntryOutcome("free", certified=[fstr])

    if check == "binomial":
        return _verdict_outcome(is_free_binomial(f), f)

    if check == "euler3":
        field = tuple(_field(entry, "field", _RATIONALS))
        return _verdict_outcome(euler3_divisor(f, field), f)

    if check == "cone":
        p = _field(entry, "params", _OBJECT)
        verdict = cone_family(
            p["k"],
            _field(p, "gammas", _INTEGERS),
            p["a"],
            p["b"],
            p["c"],
            _field(p, "alphas", _RATIONALS),
        )
        if verdict.certificate is not None:
            _check_divisor_matches(verdict.certificate.divisor, f, "the cone construction")
        return _verdict_outcome(verdict, f)

    if check == "brieskorn":
        t = _field(_field(entry, "params", _OBJECT), "t", _INTEGERS)
        fd = brieskorn_chain(*t, names=tuple(entry["vars"]))
        _check_divisor_matches(fd.product, f, "the chain construction")
        if entry.get("matrix") is not None and fd.matrix != _entry_matrix(entry, ctx):
            raise VerificationError(
                "corpus_golden", "the chain's matrix differs from the frozen one"
            )
        return _EntryOutcome("free", certified=[fstr])

    if check == "sum_compose":
        p = _field(entry, "params", _OBJECT)
        sides = []
        for side in (_field(p, "f", _OBJECT), _field(p, "g", _OBJECT)):
            sf = _divisor(side)
            sm = _given_or_normal_crossing(
                sf, _optional_matrix(side, sf.ctx), "side divisor needs an explicit matrix"
            )
            sides.append(frame_divisor([sf], sm, weight=_field(side, "weights", _RATIONALS)))
        fd = sum_compose(sides[0], sides[1])
        _check_divisor_matches(fd.product.reordered(ctx.names), f, "the sum composition")
        return _EntryOutcome("free", certified=[fstr])

    if check == "substitution_reduced":
        p = _field(entry, "params", _OBJECT)
        factors = [parse_poly(t, ctx) for t in _field(p, "factors", _STRINGS)]
        outer = _field(p, "outer", _OBJECT)
        outer_f = _divisor(outer)
        overdict = is_free_binomial(outer_f)
        if not overdict.is_free:
            raise PreconditionError("the outer divisor of this entry must be free")
        outer_fd = frame_divisor(
            [parse_poly(t, outer_f.ctx) for t in _field(outer, "factors", _STRINGS)],
            overdict.certificate.matrix,
        )
        try:
            compose_factors(factors, outer_fd, frame=None)
        except CommonFactorError as err:
            witness = parse_poly(_field(p, "witness", _STRING), ctx)
            if err.witness != witness:
                raise VerificationError(
                    "corpus_golden",
                    f"unexpected gcd witness {poly_to_str(err.witness)}",
                )
            _check_divisor_matches(err.substituted, f, "the substituted product")
            return _EntryOutcome(
                "not_free",
                refuted=[fstr],
                detail="non-reduced substitution detected",
            )
        raise VerificationError(
            "corpus_golden", "expected a common-factor rejection, none was raised"
        )

    if check == "obstruct":
        p = _field(entry, "params", _OBJECT) if "params" in entry else {}
        form_texts = (
            _field(p, "linear_forms", _STRINGS) if p.get("linear_forms") else list(ctx.names)
        )
        ells = [parse_poly(t, ctx) for t in form_texts]
        report = smooth_times_nc_verdict(
            f, ells, smooth_asserted=p.get("assert_smooth", True)
        )
        actual = _CONCLUSION_MAP[report.conclusion]
        refuted = [poly_to_str(report.candidate)] if actual == "not_free" else []
        return _EntryOutcome(actual, refuted=refuted, detail=report.conclusion)

    if check == "xifi_free":
        cert = free_multiple_via_xifi(f)
        return _EntryOutcome("free", certified=[poly_to_str(cert.divisor)])

    if check == "jets":
        p = _field(entry, "params", _OBJECT)
        seed = _divisor(p)
        w = _field(p, "weights", _RATIONALS)
        hb = _hilbert_burch(seed, w, _optional_matrix(p, seed.ctx))
        cert = multi_jet_extend(seed, hb, w, p["m"])
        _check_divisor_matches(cert.divisor, f, "the jet construction", "jet")
        return _EntryOutcome("free", certified=[fstr])

    if check == "iterate":
        p = _field(entry, "params", _OBJECT)
        seed = _divisor(p)
        certs = iterate_tangent(seed, _field(p, "weights", _RATIONALS), p["steps"])
        _check_divisor_matches(certs[-1].divisor, f, "the iterated construction", "iterated")
        return _EntryOutcome("free", certified=[fstr])

    raise PreconditionError(f"entry {entry['id']!r} has unknown check {check!r}")


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

    p = consub.add_parser("binomial", help="monomial-times-binomial divisor")
    p.add_argument("--n", type=int, required=True, help="number of x-variables")
    p.add_argument("--a", help="comma-separated x-exponents of the first term")
    p.add_argument("--b", help="comma-separated x-exponents of the second term")
    p.add_argument("--alpha", type=int, required=True, help="y-exponent of the first term")
    p.add_argument("--beta", type=int, required=True, help="z-exponent of the second term")
    p.add_argument("--u", type=int, required=True, help="y-exponent of the second term")
    p.add_argument("--t", type=int, required=True, help="z-exponent of the first term")
    p.add_argument("--x-names")
    p.add_argument("--y-name")
    p.add_argument("--z-name")
    p.set_defaults(func=_cmd_construct_binomial)

    p = consub.add_parser("brieskorn", help="chain of two-variable binomials")
    p.add_argument("--t", required=True, help="comma-separated exponents t1,t2,...")
    p.add_argument("--names", help="comma-separated variable names")
    p.set_defaults(func=_cmd_construct_brieskorn)

    p = consub.add_parser(
        "triangular", help="two-variable seed extended one variable at a time"
    )
    p.add_argument("--t", required=True, help="seed exponents t1,t2")
    p.add_argument("--names", help="seed variable names (default x1,x2)")
    p.add_argument(
        "--step",
        action="append",
        help="extension step 'a,b,alpha,beta,new_var'; repeatable",
    )
    p.set_defaults(func=_cmd_construct_triangular)

    p = consub.add_parser("compose", help="substitute factors into an outer divisor")
    p.add_argument("--factors", required=True, help="semicolon-separated substituents")
    p.add_argument("--matrix", help="strict frame for the substituents (JSON or @file)")
    p.add_argument("--vars")
    p.add_argument(
        "--outer-factors", required=True, help="semicolon-separated outer factors"
    )
    p.add_argument("--outer-matrix", required=True, help="outer Saito matrix")
    p.add_argument("--outer-vars")
    p.set_defaults(func=_cmd_construct_compose)

    p = consub.add_parser("sum-compose", help="f*g*(f+g) on disjoint variables")
    p.add_argument("--f", required=True)
    p.add_argument("--vars")
    p.add_argument("--weights", required=True, help="weights making f homogeneous")
    p.add_argument("--matrix", help="Saito matrix for f (default: normal crossing)")
    p.add_argument("--g", required=True)
    p.add_argument("--g-vars")
    p.add_argument("--g-weights", required=True)
    p.add_argument("--g-matrix")
    p.set_defaults(func=_cmd_construct_sum_compose)

    p = consub.add_parser("tangent", help="f times its first polar form")
    p.add_argument("--f", required=True)
    p.add_argument("--vars")
    p.add_argument("--weights", required=True)
    p.add_argument("--matrix", help="Saito matrix for f (default: normal crossing)")
    p.add_argument("--fresh", help="comma-separated fresh variable names")
    p.set_defaults(func=_cmd_construct_tangent)

    p = consub.add_parser("jets", help="f times its first m polar forms")
    p.add_argument("--f", required=True)
    p.add_argument("--vars")
    p.add_argument("--weights", required=True)
    p.add_argument("--m", type=int, required=True, help="number of jet levels")
    p.add_argument("--matrix")
    p.add_argument("--fresh", help="semicolon-separated groups of comma-separated names")
    p.set_defaults(func=_cmd_construct_jets)

    p = consub.add_parser("iterate", help="iterated tangent extension")
    p.add_argument("--f", required=True)
    p.add_argument("--vars")
    p.add_argument("--weights", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--matrix")
    p.set_defaults(func=_cmd_construct_iterate)

    p = consub.add_parser("cone", help="products of cones through coordinate axes")
    p.add_argument("--k", type=int, required=True, help="number of cone factors")
    p.add_argument("--gammas", required=True, help="axis exponents g1,g2,g3 in {0,1}")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--alphas", required=True, help="comma-separated distinct scalars")
    p.set_defaults(func=_cmd_construct_cone)

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
