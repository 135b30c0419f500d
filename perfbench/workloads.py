"""The four seeded workloads and the reference each item is checked against.

A workload is a list of rounds; a round is a list of items with the same
composition for every seed, so two seeds cost the same to within noise while
the inputs differ.  The seed picks variable names and orders, weights, random
linear forms, the n = 3 subsample of the binomial grid, the failing binomials,
the trailing exponents of the length-5 chains, CLI arguments and item order.

freediv only ever receives the generated inputs (polynomial text, exponent
lists, weights); expected outcomes come from closed forms and theorems
evaluated with :mod:`reference`, never from freediv's own arithmetic.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import freediv as fd  # calls go through the package namespace, where the tracer rebinds them

import reference as ref

# A subprocess over this many seconds is killed and counted as failed.
CLI_TIMEOUT_S = 30.0
CORPUS_SUMMARY = "25 passed, 0 failed, 25 total; cross-consistency: ok"


@dataclass
class Item:
    """One divisor or command taken to a verdict.

    `run` calls freediv and returns its result; `check(result, rng)` returns
    None when the result matches the reference and a message otherwise.  A
    result may be an exception instance when the call raised.
    """

    id: str
    family: str
    params: dict
    nvars: int
    in_terms: int
    run: Callable[[], Any]
    check: Callable[[Any, random.Random], str | None]
    in_process: bool = True

    def record(self) -> dict:
        return {"id": self.id, "family": self.family, "params": self.params,
                "nvars": self.nvars, "in_terms": self.in_terms}


@dataclass
class Workload:
    name: str
    rounds: list[list[Item]]
    warmup: list[Item] = field(default_factory=list)
    # (name, argv, JSON check) of cli_oneshot, for its in-process `freediv.cli.main` pass
    commands: list[tuple[str, list[str], Any]] = field(default_factory=list)


def _raised(result) -> str | None:
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    return None


def _mono(names, exps) -> str:
    parts = [nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, exps) if k]
    return "*".join(parts) or "1"


def _text(names, terms: dict) -> str:
    chunks = []
    for exps, c in terms.items():
        body = _mono(names, exps)
        if c == 1:
            chunks.append(body)
        elif c == -1:
            chunks.append(f"-{body}")
        else:
            chunks.append(f"({c})*{body}")
    return " + ".join(chunks)


def _names(rng: random.Random, n: int, pool=("x", "u", "s", "w", "v")) -> tuple[str, ...]:
    prefix = rng.choice(pool)
    return tuple(f"{prefix}{i + 1}" for i in range(n))


# ---------------------------------------------------------------------------
# binomial_grid
# ---------------------------------------------------------------------------

GRID_PAIRS = [(i, j) for i in range(4) for j in range(4) if min(i, j) == 0]
NOT_FREE_ITEMS = 245
GRID_ROUND = 100


def _grid_item(key: str, spec, rng: random.Random) -> Item:
    """x1..xn * y^u * z^t * (x^a y^alpha + x^b z^beta), written out as two terms."""
    n, a, b, alpha, beta, u, t = spec
    base = [f"x{i + 1}" for i in range(n)] + ["y", "z"]
    names = list(base)
    rng.shuffle(names)
    pos = {nm: i for i, nm in enumerate(names)}
    e1, e2 = [0] * (n + 2), [0] * (n + 2)
    for i in range(n):
        e1[pos[base[i]]] = 1 + a[i]
        e2[pos[base[i]]] = 1 + b[i]
    e1[pos["y"]], e1[pos["z"]] = u + alpha, t
    e2[pos["y"]], e2[pos["z"]] = u, t + beta
    terms = {tuple(e1): Fraction(1), tuple(e2): Fraction(1)}
    text = _text(names, terms)
    ctx_names = tuple(names)

    def run():
        return fd.is_free_binomial(fd.parse_poly(text, fd.Context(ctx_names)))

    def check(verdict, crng):
        msg = _raised(verdict)
        if msg:
            return msg
        if verdict.status != "free":
            return f"status {verdict.status}, expected free"
        nf = verdict.normal_form
        r1, r2 = [0] * (n + 2), [0] * (n + 2)
        for nm, ai, bi in zip(nf.x_names, nf.a, nf.b):
            r1[pos[nm]], r2[pos[nm]] = 1 + ai, 1 + bi
        y, z = pos[nf.y_name], pos[nf.z_name]
        r1[y] += nf.u + nf.alpha
        r1[z] += nf.t
        r2[y] += nf.u
        r2[z] += nf.t + nf.beta
        if {tuple(r1), tuple(r2)} != set(terms):
            return "reported normal form does not reproduce the input"
        # a binomial can have several normal forms; the closed form holds for each
        closed = nf.beta * nf.alpha + nf.u * nf.beta + nf.t * nf.alpha
        if verdict.certificate.det_scalar != closed:
            return f"det_scalar {verdict.certificate.det_scalar} != beta*alpha + u*beta + t*alpha = {closed}"
        return ref.check_certificate(verdict.certificate, crng,
                                     closed_form=lambda p: ref.evaluate(terms, p), nvars=n + 2)

    params = {"n": n, "a": list(a), "b": list(b), "alpha": alpha, "beta": beta,
              "u": u, "t": t, "vars": names}
    return Item(key, "grid", params, n + 2, 2, run, check)


def _not_free_item(key: str, rng: random.Random) -> Item:
    """L * (M + c*N) with M, N coprime of equal degree and two variables of M outside L."""
    nv = rng.randint(3, 5)
    order = list(range(nv))
    rng.shuffle(order)
    sm = rng.randint(2, nv - 1)
    sn = rng.randint(1, nv - sm)
    supp_m, supp_n = order[:sm], order[sm:sm + sn]
    d = max(sm, sn) + rng.randint(0, 2)

    def spread(support):
        exps = [1] * len(support)
        for _ in range(d - len(support)):
            exps[rng.randrange(len(support))] += 1
        return dict(zip(support, exps))

    m, nn = spread(supp_m), spread(supp_n)
    outside = set(rng.sample(supp_m, 2))
    shared = [v for v in range(nv) if v not in outside and rng.random() < 0.5]
    e1 = [m.get(v, 0) + (v in shared) for v in range(nv)]
    e2 = [nn.get(v, 0) + (v in shared) for v in range(nv)]
    c = rng.choice((Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3)))
    terms = {tuple(e1): Fraction(1), tuple(e2): c}
    names = tuple(f"v{i + 1}" for i in range(nv))
    text = _text(names, terms)

    def run():
        return fd.is_free_binomial(fd.parse_poly(text, fd.Context(names)))

    def check(verdict, crng):
        msg = _raised(verdict)
        if msg:
            return msg
        if verdict.status != "not_free":
            return f"status {verdict.status}, expected not_free (equal-degree support failure)"
        return None

    return Item(key, "not_free", {"text": text}, nv, 2, run, check)


def binomial_grid(seed: int) -> Workload:
    rng = random.Random(seed)
    items = []
    for n in (0, 1, 2, 3):
        combos = list(itertools.product(itertools.product(GRID_PAIRS, repeat=n),
                                        range(1, 4), range(1, 4), (0, 1), (0, 1)))
        if n == 3:
            # as many as the acceptance grid's idx % 61 == 0 rule keeps, seeded
            combos = rng.sample(combos, len(combos[::61]))
        for ab, alpha, beta, u, t in combos:
            spec = (n, tuple(p[0] for p in ab), tuple(p[1] for p in ab), alpha, beta, u, t)
            items.append(_grid_item(f"grid-{len(items)}", spec, rng))
    for k in range(NOT_FREE_ITEMS):
        items.append(_not_free_item(f"notfree-{k}", rng))
    rng.shuffle(items)
    rounds = [items[i:i + GRID_ROUND] for i in range(0, len(items), GRID_ROUND)]
    return Workload("binomial_grid", rounds, warmup=items[:50])


# ---------------------------------------------------------------------------
# jet_tower
# ---------------------------------------------------------------------------

JET_ROUNDS = 16


def _chain_value(t, p):
    factor = p[0] ** t[0] + p[1] ** t[1]
    total = factor
    for j in range(2, len(t)):
        factor = p[j] ** t[j] + factor
        total *= factor
    return total


def _chain_item(key: str, t: tuple[int, ...], names) -> Item:
    def run():
        return fd.brieskorn_chain(*t, names=names)

    def check(framed, crng):
        return _raised(framed) or ref.check_certificate(
            framed.certificate, crng, closed_form=lambda p: _chain_value(t, p), nvars=len(t))

    return Item(key, f"brieskorn_chain{len(t)}", {"t": list(t), "vars": list(names)},
                len(t), 0, run, check)


def _framed_crossing(names, w):
    f = fd.parse_poly("*".join(names), fd.Context(names))
    return fd.frame_divisor([f], fd.normal_crossing_matrix(f), weight=w)


def _jets_item(key: str, n: int, m: int, rng: random.Random) -> Item:
    names = _names(rng, n)
    w = tuple(rng.randint(1, 3) for _ in range(n))
    fresh = [[f"j{j + 1}_{i + 1}" for i in range(n)] for j in range(m)]

    def run():
        f = fd.parse_poly("*".join(names), fd.Context(names))
        hb = fd.hilbert_burch_from_framed(fd.euler_frame(f, w, fd.normal_crossing_matrix(f)))
        return fd.multi_jet_extend(f, hb, w, m, fresh)

    def closed(p):
        x = p[:n]
        grad = ref.crossing_gradient(x)
        value = ref.crossing_value(x)
        for j in range(m):
            y = p[(j + 1) * n:(j + 2) * n]
            value *= sum((yi * gi for yi, gi in zip(y, grad)), Fraction(0))
        return value

    def check(cert, crng):
        return _raised(cert) or ref.check_certificate(cert, crng, closed_form=closed,
                                                      nvars=(m + 1) * n)

    return Item(key, "multi_jet_extend", {"n": n, "m": m, "w": list(w)}, n, 1, run, check)


def _iterate_item(key: str, n0: int, steps: int, rng: random.Random) -> Item:
    names = _names(rng, n0)
    w = tuple(rng.randint(1, 3) for _ in range(n0))

    def run():
        return fd.iterate_tangent(fd.parse_poly("*".join(names), fd.Context(names)), w, steps)

    def check(certs, crng):
        msg = _raised(certs)
        if msg:
            return msg
        if len(certs) != steps + 1:
            return f"{len(certs)} certificates, expected steps + 1 = {steps + 1}"
        prev = None
        for i, cert in enumerate(certs):
            if prev is None:
                closed = ref.crossing_value
            else:
                # f_i(x, y) = f_{i-1}(x) * sum_k y_k * d f_{i-1} / d x_k
                def closed(p, prev_terms=prev.divisor.terms):
                    half = len(p) // 2
                    x, y = p[:half], p[half:]
                    grad = ref.gradient_at(prev_terms, x)
                    polar = sum((yk * gk for yk, gk in zip(y, grad)), Fraction(0))
                    return ref.evaluate(prev_terms, x) * polar
            msg = ref.check_certificate(cert, crng, closed_form=closed, nvars=2 ** i * n0)
            if msg:
                return f"step {i}: {msg}"
            prev = cert
        return None

    return Item(key, "iterate_tangent", {"n0": n0, "steps": steps, "w": list(w)},
                n0, 1, run, check)


def _sum_compose_item(key: str, p: int, q: int, rng: random.Random) -> Item:
    fnames = tuple(f"a{i + 1}" for i in range(p))
    gnames = tuple(f"b{i + 1}" for i in range(q))
    wf = tuple(rng.randint(1, 3) for _ in range(p))
    wg = tuple(rng.randint(1, 3) for _ in range(q))

    def run():
        return fd.sum_compose(_framed_crossing(fnames, wf), _framed_crossing(gnames, wg))

    def closed(pt):
        f, g = ref.crossing_value(pt[:p]), ref.crossing_value(pt[p:])
        return f * g * (f + g)

    def check(framed, crng):
        return _raised(framed) or ref.check_certificate(framed.certificate, crng, closed_form=closed,
                                                    nvars=p + q)

    return Item(key, "sum_compose", {"p": p, "q": q, "wf": list(wf), "wg": list(wg)},
                p + q, 1, run, check)


def jet_tower(seed: int) -> Workload:
    rng = random.Random(seed)
    rounds = []
    for r in range(JET_ROUNDS):
        items = []
        for t in itertools.product((2, 3), repeat=4):
            items.append(_chain_item(f"r{r}-chain-{''.join(map(str, t))}", t, _names(rng, 4)))
        # one length-5 chain per leading pair: the pair sets the cost class
        for head in ((2, 2), (3, 2), (2, 3), (3, 3)):
            t = head + tuple(rng.choice((2, 3)) for _ in range(3))
            items.append(_chain_item(f"r{r}-chain-{''.join(map(str, t))}", t, _names(rng, 5)))
        for n in range(1, 7):
            for m in range(1, 12 // n):
                items.append(_jets_item(f"r{r}-jets-{n}-{m}", n, m, rng))
        for n0, steps in itertools.product((2, 3), (1, 2)):
            items.append(_iterate_item(f"r{r}-iterate-{n0}-{steps}", n0, steps, rng))
        for p, q in itertools.product((1, 2, 3), repeat=2):
            items.append(_sum_compose_item(f"r{r}-sum-{p}-{q}", p, q, rng))
        rng.shuffle(items)
        rounds.append(items)
    warmup = [it for it in rounds[0] if it.family in ("brieskorn_chain4", "sum_compose")]
    return Workload("jet_tower", rounds, warmup=warmup)


# ---------------------------------------------------------------------------
# refute_syzygy
# ---------------------------------------------------------------------------

SYZYGY_ROUNDS = 40


def _fermat_item(key: str, k: int, n: int, forms: list[list[int]] | None,
                 rng: random.Random) -> Item:
    names = _names(rng, n)
    f_terms = {tuple(k if j == i else 0 for j in range(n)): Fraction(1) for i in range(n)}
    f_text = _text(names, f_terms)
    rows = forms or [[int(i == j) for j in range(n)] for i in range(n)]
    ell_texts = [" + ".join(f"({c})*{nm}" for c, nm in zip(row, names) if c) for row in rows]

    def run():
        ctx = fd.Context(names)
        ells = [fd.parse_poly(t, ctx) for t in ell_texts]
        return fd.smooth_times_nc_verdict(fd.parse_poly(f_text, ctx), ells, True)

    def check(report, crng):
        msg = _raised(report)
        if msg:
            return msg
        if report.conclusion != "NotFree":
            return f"conclusion {report.conclusion}; a smooth form of degree {k} > 2 in {n} > 2 variables is NotFree"
        p = ref.random_point(crng, n)
        value = ref.evaluate(f_terms, p)
        for row in rows:
            value *= sum((Fraction(c) * x for c, x in zip(row, p)), Fraction(0))
        if ref.evaluate(report.candidate.terms, p) != value:
            return "candidate differs from f * prod(ell) at a rational point"
        return None

    return Item(key, "fermat_forms" if forms else "fermat_axes",
                {"k": k, "n": n, "forms": rows}, n, n, run, check)


def _independent_forms(rng: random.Random, n: int) -> list[list[int]]:
    """Coefficient rows of a seeded signed permutation of I + J (det = +-(n + 1)).

    The forms differ from seed to seed while the substitution costs the same.
    """
    perm = rng.sample(range(n), n)
    s = [rng.choice((-1, 1)) for _ in range(n)]
    t = [rng.choice((-1, 1)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][perm[j]] = s[i] * t[j] * (2 if i == j else 1)
    return rows


def _elementary(n: int, k: int) -> dict:
    return {tuple(int(i in s) for i in range(n)): Fraction(1)
            for s in itertools.combinations(range(n), k)}


def _xifi_item(key: str, n: int, k: int, rng: random.Random) -> Item:
    names = _names(rng, n)
    e_terms = _elementary(n, k)
    text = _text(names, e_terms)
    expect_cert = k == n - 1

    def run():
        return fd.free_multiple_via_xifi(fd.parse_poly(text, fd.Context(names)))

    def check(result, crng):
        if not expect_cert:
            if isinstance(result, fd.VerificationError) and result.kind == "xifi_search":
                return None
            return f"expected VerificationError(xifi_search), got {type(result).__name__}"
        return _raised(result) or ref.check_certificate(
            result, crng, closed_form=lambda p: ref.crossing_value(p) * ref.evaluate(e_terms, p),
            nvars=n)

    return Item(key, "xifi_e%s" % ("n-1" if expect_cert else "2"), {"n": n, "k": k},
                n, len(e_terms), run, check)


def refute_syzygy(seed: int) -> Workload:
    rng = random.Random(seed)
    rounds = []
    for r in range(SYZYGY_ROUNDS):
        items = []
        for k in range(3, 7):
            for n in range(3, 6):
                items.append(_fermat_item(f"r{r}-fermat-{k}-{n}-axes", k, n, None, rng))
                items.append(_fermat_item(f"r{r}-fermat-{k}-{n}-forms", k, n,
                                          _independent_forms(rng, n), rng))
        for n in range(3, 7):
            items.append(_xifi_item(f"r{r}-xifi-e{n - 1}-{n}", n, n - 1, rng))
        for n in range(4, 7):
            items.append(_xifi_item(f"r{r}-xifi-e2-{n}", n, 2, rng))
        rng.shuffle(items)
        rounds.append(items)
    warmup = [it for it in rounds[0] if it.family == "fermat_axes"]
    return Workload("refute_syzygy", rounds, warmup=warmup)


# ---------------------------------------------------------------------------
# cli_oneshot
# ---------------------------------------------------------------------------


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _cli_commands(rng: random.Random) -> list[tuple[str, list[str], Callable[[Any], bool]]]:
    """(name, argv, check on the parsed JSON) for each README example, seeded."""
    c = rng.choice(("1", "2", "3", "1/2"))
    k = rng.choice((3, 4))
    nv = rng.randint(2, 4)
    xs = [f"x{i + 1}" for i in range(nv)]
    diag = [[x if i == j else "0" for j in range(nv)] for i, x in enumerate(xs)]
    n = rng.randint(0, 2)
    ab = [rng.choice(GRID_PAIRS) for _ in range(n)]
    binomial = ["--n", str(n), "--alpha", str(rng.randint(1, 3)), "--beta", str(rng.randint(1, 3)),
                "--u", str(rng.randint(0, 1)), "--t", str(rng.randint(0, 1))]
    if n:
        binomial += ["--a", ",".join(str(p[0]) for p in ab), "--b", ",".join(str(p[1]) for p in ab)]
    chain = ",".join(str(rng.choice((2, 3))) for _ in range(4))
    w = [str(rng.randint(1, 3)) for _ in range(3)]

    def verified(doc):
        return doc.get("status") == "verified" and doc.get("det_scalar") not in (None, "0")

    return [
        ("parse", ["parse", "--f", f"x^2*y - {c}*y^2*z", "--vars", "x,y,z"],
         lambda d: d["num_terms"] == 2 and d["homogeneous"] is True),
        ("verify", ["verify", "--f", "*".join(xs), "--vars", ",".join(xs),
                    "--matrix", json.dumps(diag)],
         lambda d: verified(d) and d["det_scalar"] == "1"),
        ("analyze", ["analyze", "--f", f"x^2*y - {c}*y^2*z"],
         lambda d: d["binomial"]["status"] == "free"),
        ("obstruct", ["obstruct", "--f", f"x^{k} + y^{k} + z^{k}", "--assert-smooth"],
         lambda d: d["conclusion"] == "NotFree"),
        ("construct-binomial", ["construct", "binomial"] + binomial, verified),
        ("construct-brieskorn", ["construct", "brieskorn", "--t", chain], verified),
        ("construct-triangular", ["construct", "triangular", "--t", "2,3", "--names", "x,y",
                                  "--step", f"{rng.randint(3, 5)},1,-1,1,z"], verified),
        ("construct-compose", ["construct", "compose", "--vars", "x,y", "--factors", "x;y",
                               "--matrix", '[["x","0"],["0","y"]]', "--outer-vars", "y1,y2",
                               "--outer-factors", "y1;y2;y1+y2",
                               "--outer-matrix", '[["y1","y1^2"],["y2","-y2^2"]]'], verified),
        ("construct-sum-compose", ["construct", "sum-compose", "--f", "x1*x2", "--vars", "x1,x2",
                                   "--weights", ",".join(w[:2]), "--g", "y1*y2", "--g-vars",
                                   "y1,y2", "--g-weights", ",".join(w[1:])], verified),
        ("construct-tangent", ["construct", "tangent", "--f", "x1*x2*x3", "--weights", ",".join(w)],
         verified),
        ("construct-jets", ["construct", "jets", "--f", "x0", "--vars", "x0", "--weights", "1",
                            "--m", str(rng.randint(2, 5))], verified),
        ("construct-iterate", ["construct", "iterate", "--f", "x", "--vars", "x", "--weights",
                               "1", "--steps", str(rng.randint(2, 3))], verified),
        ("construct-cone", ["construct", "cone", "--k", "3", "--gammas", "0,1,1", "--a", "2",
                            "--b", "1", "--c", "1", "--alphas", "5,1/2,-1"],
         lambda d: d["status"] == "free"),
        ("corpus-run", ["corpus", "run"], None),
    ]


def check_cli_output(name: str, returncode: int, stdout: str, doc_check, seen: dict) -> str | None:
    """Exit code 0, stdout byte-identical across repeats, and the command's content check."""
    if returncode != 0:
        return f"exit code {returncode}"
    first = seen.setdefault(name, stdout)
    if stdout != first:
        return "stdout differs from an earlier run of the same command"
    if doc_check is None:
        lines = stdout.strip().splitlines()
        if not lines or lines[-1] != CORPUS_SUMMARY:
            return f"corpus summary is {lines[-1] if lines else ''!r}"
        return None
    try:
        ok = doc_check(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unexpected JSON document: {exc}"
    return None if ok else "JSON document fails the content check"


def _cli_item(name: str, argv: list[str], doc_check, root: str, seen: dict) -> Item:
    cmd = [sys.executable, "-m", "freediv.cli"] + argv
    env = cli_env(root)

    def run():
        try:
            return subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            return exc

    def check(proc, crng):
        if isinstance(proc, subprocess.TimeoutExpired):
            return f"time cap: no exit within {CLI_TIMEOUT_S} s"
        return check_cli_output(name, proc.returncode, proc.stdout, doc_check, seen)

    return Item(name, name, {"argv": argv}, 0, 0, run, check, in_process=False)


def cli_oneshot(seed: int, root: str) -> Workload:
    rng = random.Random(seed)
    seen: dict[str, str] = {}
    commands = _cli_commands(rng)
    round_ = [_cli_item(name, argv, chk, root, seen) for name, argv, chk in commands]
    # corpus run twice: at 2 of 15 items per round, p90 reads the corpus run
    round_.append(next(item for item in round_ if item.id == "corpus-run"))
    rng.shuffle(round_)
    warmup = [_cli_item("warmup", ["parse", "--f", "x", "--vars", "x"], lambda d: True, root, {})]
    return Workload("cli_oneshot", [round_], warmup=warmup, commands=commands)


def build(name: str, seed: int, root: str) -> Workload:
    if name == "cli_oneshot":
        return cli_oneshot(seed, root)
    return {"binomial_grid": binomial_grid, "jet_tower": jet_tower,
            "refute_syzygy": refute_syzygy}[name](seed)


def out_terms(result) -> int | None:
    """Term count of the divisor a result certifies or refutes, for the item record."""
    if isinstance(result, list) and result:
        result = result[-1]
    poly = (getattr(result, "divisor", None) or getattr(result, "product", None)
            or getattr(result, "candidate", None)
            or getattr(getattr(result, "certificate", None), "divisor", None))
    return None if poly is None else len(poly.terms)

