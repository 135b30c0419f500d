"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is an immutable map from exponent tuples to nonzero Fraction
coefficients, attached to a Context that fixes the ordered variable names.
Term order, where one is needed, is graded reverse lexicographic.  Every
operation is exact; nothing here ever rounds.

Coefficients are stored as Fractions, but products, exact quotients and
evaluations run on integers inside their loops: a product multiplies integer
numerators over each operand's common denominator, on exponents packed into
one int; exact division divides integer numerators by the primitive integer
form of the divisor, in one remainder updated in place; evaluation sums
integer numerators over the common denominator.  Each builds Fractions only
for what it returns.  Every sum of polynomials, `+` included, is
Context.sum: the terms accumulate in one dict, not in a copy per addition.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import add, lshift
from typing import Callable, Iterable, Sequence

Exponent = tuple[int, ...]
Scalar = Fraction  # all coefficients are Fractions internally

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class PolyError(Exception):
    """Base class for all polynomial-layer errors."""


def is_integer(v) -> bool:
    """An int that is not a bool: True would be read as the exponent 1."""
    return isinstance(v, int) and not isinstance(v, bool)


class ParseError(PolyError):
    """Raised on malformed polynomial text; carries a position."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        caret = text[:pos] + ">>>" + text[pos:]
        super().__init__(f"{message} at position {pos}: {caret}")


class NotHomogeneousError(PolyError):
    """Raised when a weighted degree is requested of an inhomogeneous polynomial."""


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


class Context:
    """Ordered tuple of distinct variable names shared by a family of polynomials."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        for nm in names:
            if not _NAME_RE.match(nm):
                raise PolyError(f"invalid variable name {nm!r}")
        if len(set(names)) != len(names):
            raise PolyError(f"duplicate variable names in {names}")
        self.names = names
        self.index = {nm: i for i, nm in enumerate(names)}

    @property
    def nvars(self) -> int:
        return len(self.names)

    def extend(self, fresh: Iterable[str]) -> "Context":
        """A new context with `fresh` names appended."""
        fresh = tuple(fresh)
        clash = set(fresh) & set(self.names)
        if clash:
            raise PolyError(f"fresh names {sorted(clash)} already present")
        return Context(self.names + fresh)

    def var(self, name: str) -> "Poly":
        i = self.index.get(name)
        if i is None:
            raise PolyError(f"unknown variable {name!r} in context {self.names}")
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): Fraction(1)})

    def gens(self) -> tuple["Poly", ...]:
        return tuple(self.var(nm) for nm in self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def monomial(self, exps: Sequence[int], c=1) -> "Poly":
        c = Fraction(c)
        exps = tuple(exps)
        if len(exps) != self.nvars or any(not is_integer(e) or e < 0 for e in exps):
            raise PolyError(f"bad exponent tuple {exps} for context {self.names}")
        if c == 0:
            return self.zero()
        return Poly(self, {exps: c})

    def sum(self, polys: Iterable["Poly"]) -> "Poly":
        """The sum of the polynomials over this context; zero when there are none.

        The first operand's terms are copied and the rest are added into that
        one dict in place.  A sum that cancels is deleted, and inserted again
        if its exponent reappears, so the result has the terms, values and
        term order of the left-to-right fold p1 + p2 + ... without copying
        each partial sum.
        """
        terms: dict[Exponent, Fraction] | None = None
        for p in polys:
            if p.ctx is not self and p.ctx != self:
                raise PolyError(f"context mismatch: {self} vs {p.ctx}")
            if terms is None:
                terms = dict(p.terms)
                continue
            for e, c in p.terms.items():
                if e in terms:
                    c += terms[e]
                    if not c:
                        del terms[e]
                        continue
                terms[e] = c
        return Poly(self, terms or {})

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Context{self.names}"


# ---------------------------------------------------------------------------
# term order
# ---------------------------------------------------------------------------


def grevlex_key(e: Exponent):
    """Sort key realizing graded reverse lexicographic order (max = leading)."""
    return (sum(e), tuple(-x for x in reversed(e)))


def _exp_div(a: Exponent, b: Exponent) -> Exponent | None:
    """a/b as exponents, or None if not divisible."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Immutable exact multivariate polynomial over Q."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms: dict[Exponent, Fraction]):
        # terms must be canonical: Fractions, no zeros; constructors guarantee it
        self.ctx = ctx
        self.terms = terms

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(next(iter(self.terms))) == 0)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise PolyError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def num_terms(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        if self.is_zero():
            raise PolyError("the zero polynomial has no degree")
        return max(sum(e) for e in self.terms)

    def lead_exponent(self) -> Exponent:
        if self.is_zero():
            raise PolyError("the zero polynomial has no leading term")
        return max(self.terms, key=grevlex_key)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_exponent()]

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def support(self) -> list[Exponent]:
        """Exponents in descending term order (deterministic)."""
        return sorted(self.terms, key=grevlex_key, reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.ctx != self.ctx:
                raise PolyError(f"context mismatch: {self.ctx} vs {other.ctx}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ctx.sum((self, o))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero() or o.is_zero():
            return self.ctx.zero()
        # the smaller operand runs in the outer loop
        a, b = (self.terms, o.terms) if len(self.terms) <= len(o.terms) else (o.terms, self.terms)
        if len(a) == 1:
            return Poly(self.ctx, _mul_monomial(a, b))
        return Poly(self.ctx, _mul_packed(a, b))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not is_integer(k) or k < 0:
            raise PolyError(f"exponent must be a non-negative integer, got {k!r}")
        result = self.ctx.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return self.ctx.zero()
        return Poly(self.ctx, {e: c * v for e, v in self.terms.items()})

    def map_terms(self, fn: Callable[[Exponent, Fraction], Fraction]) -> "Poly":
        """Rescale each term by a per-term factor; drops terms mapped to zero."""
        terms = {}
        for e, c in self.terms.items():
            v = fn(e, c)
            if v:
                terms[e] = v
        return Poly(self.ctx, terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    __hash__ = None  # mutable-by-convention dict inside; equality is structural

    def __repr__(self) -> str:
        return f"Poly({poly_to_str(self)!r})"

    def __str__(self) -> str:
        return poly_to_str(self)

    # -- calculus -----------------------------------------------------------

    def derivative(self, var: int | str) -> "Poly":
        i = self.ctx.index[var] if isinstance(var, str) else var
        terms: dict[Exponent, Fraction] = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return Poly(self.ctx, terms)

    def gradient(self) -> tuple["Poly", ...]:
        return tuple(self.derivative(i) for i in range(self.ctx.nvars))

    def evaluate(self, point: Sequence, modulus: int | None = None):
        """Value at a point: an exact Fraction, or with `modulus` the value in
        Z/modulus as an int (then every coefficient must be an integer)."""
        if len(point) != self.ctx.nvars:
            raise PolyError(f"{self.ctx.nvars} coordinates required, got {len(point)}")
        # the value is (sum of integer numerator * monomial value) / den
        den = lcm(*(c.denominator for c in self.terms.values()))
        if modulus is not None and den != 1:
            raise PolyError("modular evaluation needs integer coefficients")
        powers: list[dict[int, object]] = [{} for _ in point]
        total = 0
        for e, c in self.terms.items():
            m = c.numerator * (den // c.denominator)
            for i, k in enumerate(e):
                if k:
                    pw = powers[i].get(k)
                    if pw is None:
                        pw = point[i] ** k if modulus is None else pow(point[i], k, modulus)
                        powers[i][k] = pw
                    m = m * pw
            total += m if modulus is None else m % modulus
        return Fraction(total, den) if modulus is None else total % modulus

    def _weights(self, weights: Sequence) -> list[Fraction]:
        """The weight vector as Fractions, one per variable."""
        w = [Fraction(x) for x in weights]
        if len(w) != self.ctx.nvars:
            raise PolyError("weight vector length mismatch")
        return w

    def euler_apply(self, weights: Sequence) -> "Poly":
        """Apply the weighted Euler operator sum_i w_i x_i d/dx_i (term-wise scaling)."""
        w = self._weights(weights)
        return self.map_terms(lambda e, c: c * sum(wi * ei for wi, ei in zip(w, e)))

    def weighted_degree(self, weights: Sequence) -> Fraction:
        """Degree under a weight vector; error unless all terms agree (or f = 0)."""
        w = self._weights(weights)
        if self.is_zero():
            raise PolyError("the zero polynomial has no degree")
        degs = {sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}
        if len(degs) != 1:
            raise NotHomogeneousError(
                f"not homogeneous for weights {tuple(map(str, w))}: degrees {sorted(map(str, degs))}"
            )
        return degs.pop()

    def is_homogeneous(self, weights: Sequence | None = None) -> bool:
        """Do all terms have one degree: the total degree, or the degree under
        `weights`?  The zero polynomial is homogeneous."""
        if self.is_zero():
            return True
        if weights is None:
            return len({sum(e) for e in self.terms}) == 1
        w = self._weights(weights)
        return len({sum(wi * ei for wi, ei in zip(w, e)) for e in self.terms}) == 1

    # -- context surgery ------------------------------------------------------

    def embedded(self, big: Context) -> "Poly":
        """Reinterpret in a context that begins with this context's names."""
        if big.names[: self.ctx.nvars] != self.ctx.names:
            raise PolyError(f"{big} does not extend {self.ctx}")
        pad = (0,) * (big.nvars - self.ctx.nvars)
        return Poly(big, {e + pad: c for e, c in self.terms.items()})

    def renamed(self, mapping: dict[str, str]) -> "Poly":
        """Same polynomial over a context with some variables renamed."""
        new_names = tuple(mapping.get(nm, nm) for nm in self.ctx.names)
        return Poly(Context(new_names), dict(self.terms))

    def reordered(self, new_order: Sequence[str]) -> "Poly":
        """Same polynomial over the same names listed in a new order."""
        if sorted(new_order) != sorted(self.ctx.names):
            raise PolyError(f"{new_order} is not a permutation of {self.ctx.names}")
        new_ctx = Context(new_order)
        pos = [self.ctx.index[nm] for nm in new_order]
        return Poly(new_ctx, {tuple(e[p] for p in pos): c for e, c in self.terms.items()})


# ---------------------------------------------------------------------------
# product kernels
# ---------------------------------------------------------------------------


def _mul_monomial(a: dict[Exponent, Fraction], b: dict[Exponent, Fraction]) -> dict[Exponent, Fraction]:
    """The terms of a * b for a one-term a: distinct exponents stay distinct."""
    ((ea, ca),) = a.items()
    if ca == 1:
        return {tuple(map(add, ea, eb)): cb for eb, cb in b.items()}
    return {tuple(map(add, ea, eb)): ca * cb for eb, cb in b.items()}


def _mul_packed(a: dict[Exponent, Fraction], b: dict[Exponent, Fraction]) -> dict[Exponent, Fraction]:
    """The terms of a * b, for the outer operand a, on integers.

    Each exponent tuple is packed into one int, a field of w bits per
    variable, w the bit length of (max exponent of a + max exponent of b)
    widened to 8 when shorter, so that bytes() and int.to_bytes pack and
    unpack in C.  Every exponent of the product fits its field, so adding
    two packed ints adds the tuples with no carry between fields.
    Coefficients are integer numerators over each operand's common
    denominator.  Terms come out in the order, and with the values, of the
    term-by-term Fraction loop: a sum that cancels is deleted and inserted
    again if it reappears.
    """
    n = len(next(iter(a)))
    width = (max(map(max, a)) + max(map(max, b))).bit_length()
    if width <= 8:
        def pack(e): return int.from_bytes(bytes(e), "little")
        def unpack(k): return tuple(k.to_bytes(n, "little"))
    else:
        shifts = range(0, n * width, width)
        mask = (1 << width) - 1
        def pack(e): return sum(map(lshift, e, shifts))
        def unpack(k): return tuple((k >> s) & mask for s in shifts)
    da = lcm(*(c.denominator for c in a.values()))
    db = lcm(*(c.denominator for c in b.values()))
    bs = [(pack(e), c.numerator * (db // c.denominator)) for e, c in b.items()]
    acc: dict[int, int] = {}
    get = acc.get
    for e, c in a.items():
        ka = pack(e)
        va = c.numerator * (da // c.denominator)
        for kb, vb in bs:
            k = ka + kb
            v = get(k, 0) + va * vb
            if v:
                acc[k] = v
            else:
                del acc[k]
    den = da * db
    if den == 1:
        return {unpack(k): Fraction(v) for k, v in acc.items()}
    return {unpack(k): Fraction(v, den) for k, v in acc.items()}


# ---------------------------------------------------------------------------
# exact division, gcd, squarefreeness
# ---------------------------------------------------------------------------


def divide_exact(g: Poly, f: Poly) -> Poly | None:
    """g / f when f divides g exactly, else None.

    Single-divisor division on integers.  Write f = (content/den) * F with F
    primitive over Z and g = G/den_g with G over Z.  If F divides G then, by
    Gauss's lemma, G/F has integer coefficients, and each step of the
    division produces the next of them: the leading term of the remainder
    is that coefficient times the leading term of F.  So the first step
    whose leading exponent or coefficient does not divide certifies
    non-divisibility.  The remainder is one dict, updated in place.
    """
    if g.ctx != f.ctx:
        raise PolyError("context mismatch in divide_exact")
    if f.is_zero():
        raise PolyError("division by the zero polynomial")
    if g.is_zero():
        return g.ctx.zero()
    lf = f.lead_exponent()
    den_f = lcm(*(c.denominator for c in f.terms.values()))
    fs = {e: c.numerator * (den_f // c.denominator) for e, c in f.terms.items()}
    content = int_gcd(*fs.values())
    fs = {e: v // content for e, v in fs.items()}
    lead = fs[lf]
    den_g = lcm(*(c.denominator for c in g.terms.values()))
    r = {e: c.numerator * (den_g // c.denominator) for e, c in g.terms.items()}
    get = r.get
    q: dict[Exponent, int] = {}
    while r:
        lr = max(r, key=grevlex_key)
        e = _exp_div(lr, lf)
        if e is None:
            return None
        c, rest = divmod(r[lr], lead)
        if rest:
            return None
        q[e] = c
        for ef, cf in fs.items():
            k = tuple(map(add, e, ef))
            v = get(k, 0) - c * cf
            if v:
                r[k] = v
            else:
                del r[k]
    # g / f = (G / F) * den_f / (den_g * content)
    den = den_g * content
    return Poly(f.ctx, {e: Fraction(c * den_f, den) for e, c in q.items()})


def normalize_primitive(p: Poly) -> Poly:
    """Scale to integer coefficients with content 1 and positive leading coefficient."""
    if p.is_zero():
        return p
    num = 0
    den = 1
    for c in p.terms.values():
        num = int_gcd(num, c.numerator)
        den = den * c.denominator // int_gcd(den, c.denominator)
    scale = Fraction(den, num)
    if p.lead_coeff() < 0:
        scale = -scale
    return p.scale(scale)


def _content_wrt(p: Poly, v: int) -> list[Poly]:
    """Coefficients of p as a univariate polynomial in variable v (dense list)."""
    d = max(e[v] for e in p.terms)
    coeffs: list[dict[Exponent, Fraction]] = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        ne = list(e)
        k = ne[v]
        ne[v] = 0
        coeffs[k][tuple(ne)] = c
    return [Poly(p.ctx, t) for t in coeffs]


def _from_univariate(coeffs: list[Poly], v: int, ctx: Context) -> Poly:
    xv = ctx.var(ctx.names[v])
    return ctx.sum(c * xv ** k for k, c in enumerate(coeffs) if not c.is_zero())


def _uni_degree(coeffs: list[Poly]) -> int:
    for k in range(len(coeffs) - 1, -1, -1):
        if not coeffs[k].is_zero():
            return k
    return -1


def _uni_trim(coeffs: list[Poly]) -> list[Poly]:
    d = _uni_degree(coeffs)
    return coeffs[: d + 1]


def _uni_pseudo_rem(a: list[Poly], b: list[Poly], ctx: Context) -> list[Poly]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, exactly that scaling."""
    a = list(a)
    da, db = _uni_degree(a), _uni_degree(b)
    assert db >= 0 and da >= db
    lb = b[db]
    scalings = da - db + 1
    while True:
        da = _uni_degree(a)
        if da < db or da < 0:
            break
        la = a[da]
        # a := lb*a - la*x^(da-db)*b
        a = [c * lb for c in a]
        scalings -= 1
        shift = da - db
        for k in range(db + 1):
            a[k + shift] = a[k + shift] - la * b[k]
        a = _uni_trim(a)
    assert scalings >= 0
    if scalings and a:
        mult = lb ** scalings
        a = [c * mult for c in a]
    return _uni_trim(a)


def _uni_div_exact(coeffs: list[Poly], d: Poly) -> list[Poly]:
    out = []
    for c in coeffs:
        q = divide_exact(c, d)
        assert q is not None, "subresultant divisor failed to divide exactly"
        out.append(q)
    return out


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Greatest common divisor in Q[x1..xn], normalized primitive with positive lead.

    Subresultant polynomial remainder sequence on the most frequently occurring
    variable, with content/primitive-part recursion for the coefficients.
    """
    if p.ctx != q.ctx:
        raise PolyError("context mismatch in poly_gcd")
    ctx = p.ctx
    if p.is_zero():
        return normalize_primitive(q)
    if q.is_zero():
        return normalize_primitive(p)
    if p.is_constant() or q.is_constant():
        return ctx.const(1)
    # monomial fast paths
    if len(p.terms) == 1 and len(q.terms) == 1:
        (ep,), (eq,) = p.terms, q.terms
        return ctx.monomial(tuple(min(a, b) for a, b in zip(ep, eq)))
    # pull out the common monomial factor first (cheap and controls PRS growth)
    com = tuple(min(min(e[i] for e in p.terms), min(e[i] for e in q.terms)) for i in range(ctx.nvars))
    if any(com):
        mono = ctx.monomial(com)
        ps = divide_exact(p, mono)
        qs = divide_exact(q, mono)
        assert ps is not None and qs is not None
        g = poly_gcd(ps, qs)
        return normalize_primitive(g * mono)
    # choose main variable: appears in the most terms of p and q combined
    counts = [0] * ctx.nvars
    for poly in (p, q):
        for e in poly.terms:
            for i, x in enumerate(e):
                if x:
                    counts[i] += 1
    v = max(range(ctx.nvars), key=lambda i: counts[i])
    if counts[v] == 0:
        return ctx.const(1)
    pa = _content_wrt(p, v)
    qa = _content_wrt(q, v)
    cont_p = _uni_content(pa)
    cont_q = _uni_content(qa)
    a = _uni_div_exact(_uni_trim(pa), cont_p)
    b = _uni_div_exact(_uni_trim(qa), cont_q)
    if _uni_degree(a) < _uni_degree(b):
        a, b = b, a
    one = ctx.const(1)
    g, h = one, one
    while True:
        delta = _uni_degree(a) - _uni_degree(b)
        r = _uni_pseudo_rem(a, b, ctx)
        if not r:
            break
        if _uni_degree(r) == 0:
            b = [one]
            break
        divisor = g * h ** delta
        a, b = b, _uni_div_exact(r, divisor)
        g = a[_uni_degree(a)]
        if delta >= 1:
            hd = divide_exact(g ** delta, h ** (delta - 1))
            assert hd is not None
            h = hd
        # delta == 0 cannot occur twice in a row since deg strictly drops
    cont = poly_gcd(cont_p, cont_q)
    if _uni_degree(b) == 0:
        return normalize_primitive(cont)
    pp = _uni_div_exact(b, _uni_content(b))
    return normalize_primitive(_from_univariate(pp, v, ctx) * cont)


def _uni_content(coeffs: list[Poly]) -> Poly:
    cs = [c for c in coeffs if not c.is_zero()]
    assert cs
    g = cs[0]
    for c in cs[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, c)
    if g.is_constant():
        return g.ctx.const(1)
    return normalize_primitive(g)


def sample_ints(count: int, bound: int, salt: int = 0) -> list[int]:
    """`count` integers in [1, bound] from a fixed 64-bit linear congruential
    sequence selected by `salt`: the same values on every run and platform."""
    x = 0x9E3779B97F4A7C15 ^ salt
    out = []
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        out.append(1 + (x >> 11) % bound)
    return out


# the prime of the line certificate (2^61 - 1, a Mersenne prime)
LINE_PRIME = (1 << 61) - 1


def _interpolate_mod(values: list[int], p: int) -> list[int]:
    """Coefficients (constant first) of the polynomial of degree < len(values)
    over F_p taking values[t] at t = 0, 1, ...: Newton divided differences."""
    c = list(values)
    d = len(c) - 1
    for j in range(1, d + 1):
        inv = pow(j, -1, p)
        for i in range(d, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) * inv % p
    u = [c[d]]
    for k in range(d - 1, -1, -1):
        # u := u * (t - k) + c[k]
        u = ([(c[k] - k * u[0]) % p]
             + [(u[i - 1] - k * u[i]) % p for i in range(1, len(u))]
             + [u[-1]])
    return u


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd in F_p[t] of two coefficient lists (constant first), trimmed."""
    def trim(u):
        while u and u[-1] == 0:
            u.pop()
        return u
    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for k, bk in enumerate(b):
                a[shift + k] = (a[shift + k] - q * bk) % p
            trim(a)
        a, b = b, a
    return a


def squarefree_on_line(f: Poly) -> bool:
    """One-sided exact test: True proves f nonzero and squarefree over Q.

    The integer multiple F of f is restricted to the fixed line a + t*b modulo
    LINE_PRIME.  True means U(t) = F(a + t*b) keeps the total degree of f and
    gcd(U, U') is constant in F_p[t].  That proves f squarefree: were g a
    repeated factor, Gauss's lemma gives F = c * G^2 * H over Z with G of
    positive degree, the kept top coefficient c * G_top(b)^2 * H_top(b) keeps
    G(a + t*b) at that degree mod p, and U would have a square factor.  False
    proves nothing (an unlucky line, or p dividing the content of F), and is
    the answer for f = 0.
    """
    if f.is_zero():
        return False
    p = LINE_PRIME
    n = f.ctx.nvars
    d = f.total_degree()
    F = f.scale(lcm(*(c.denominator for c in f.terms.values())))
    line = sample_ints(2 * n, p - 1)
    a, b = line[:n], line[n:]
    values = [F.evaluate([(x + t * y) % p for x, y in zip(a, b)], p) for t in range(d + 1)]
    u = _interpolate_mod(values, p)
    if u[d] == 0:
        return False
    du = [k * u[k] % p for k in range(1, d + 1)]
    return len(_gcd_mod(u, du, p)) == 1


def squarefree_gcd(f: Poly) -> Poly:
    """gcd(f, df/dx_1, ..., df/dx_n): constant exactly when f is squarefree.

    A squarefree f certified by squarefree_on_line gets the constant 1, the
    value the gcd itself takes, without any multivariate gcd.  Otherwise the
    partials are folded in ascending size with an early exit, so the witness
    for squarefree inputs is a constant reached as soon as possible.
    """
    if f.is_zero():
        raise PolyError("squarefreeness of the zero polynomial is undefined")
    if f.is_constant():
        return f.ctx.const(1)
    if squarefree_on_line(f):
        return f.ctx.const(1)
    g = f
    partials = [d for d in f.gradient() if not d.is_zero()]
    partials.sort(key=lambda d: len(d.terms))
    for d in partials:
        g = poly_gcd(g, d)
        if g.is_constant():
            break
    return g


def is_squarefree(f: Poly) -> bool:
    """True iff f has no repeated factor (characteristic zero: gcd(f, f_i) tests)."""
    if f.is_zero():
        return False
    return squarefree_gcd(f).is_constant()


def product_squarefree(factors: Sequence[Poly]) -> tuple[bool, Poly | None]:
    """Is the product of the factors squarefree?  Returns (flag, offending gcd or factor).

    Equivalent to testing the product directly, but factor-wise: every factor
    squarefree and all pairs coprime.
    """
    for f in factors:
        if f.is_zero():
            return False, f
        if not is_squarefree(f):
            return False, f
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = poly_gcd(factors[i], factors[j])
            if not g.is_constant():
                return False, g
    return True, None


# ---------------------------------------------------------------------------
# products, substitution and the polar construction
# ---------------------------------------------------------------------------


def poly_product(ctx: Context, polys: Sequence[Poly]) -> Poly:
    """The product of the polynomials, multiplied from the first factor on;
    the constant 1 of ctx when there are none."""
    if not polys:
        return ctx.const(1)
    out = polys[0]
    for p in polys[1:]:
        out = out * p
    return out


def substitute(h: Poly, args: Sequence[Poly]) -> Poly:
    """Evaluate h at the given polynomials (all over one common context)."""
    if len(args) != h.ctx.nvars:
        raise PolyError(f"{h.ctx.nvars} arguments required, got {len(args)}")
    if not args:
        raise PolyError("substitution into a polynomial with no variables")
    ctx = args[0].ctx
    for a in args:
        if a.ctx != ctx:
            raise PolyError("substitution arguments live in different contexts")
    # cache powers of each argument
    pows: list[dict[int, Poly]] = [{0: ctx.const(1), 1: a} for a in args]
    def power(i: int, k: int) -> Poly:
        cache = pows[i]
        if k not in cache:
            cache[k] = power(i, k - 1) * cache[1]
        return cache[k]
    def term(e: Exponent, c: Fraction) -> Poly:
        t = ctx.const(c)
        for i, k in enumerate(e):
            if k:
                t = t * power(i, k)
        return t
    return ctx.sum(term(e, c) for e, c in sorted(h.terms.items(), key=lambda t: grevlex_key(t[0])))


def star(p: Poly, big: Context, fresh: Sequence[str]) -> Poly:
    """The polar form sum_i y_i * dp/dx_i over `big`, an extension of p's
    context that contains the fresh names y_i (one per variable of p)."""
    if len(fresh) != p.ctx.nvars:
        raise PolyError(f"need {p.ctx.nvars} fresh names, got {len(fresh)}")
    return big.sum(big.var(y) * d.embedded(big)
                   for y, d in zip(fresh, p.gradient()) if not d.is_zero())


def deg_shift_inverse(f: Poly, d, y_vars: Sequence[int | str] | None = None) -> Poly:
    """Inverse of the shifted degree operator: scale each term by 1/(deg_y(term) + d).

    deg_y counts only the variables in y_vars (default: all).  Errors if some
    term has deg_y + d = 0 (the operator is not invertible there).
    """
    d = Fraction(d)
    idx = range(f.ctx.nvars) if y_vars is None else [
        f.ctx.index[v] if isinstance(v, str) else v for v in y_vars
    ]
    idx = list(idx)
    def scale(e: Exponent, c: Fraction) -> Fraction:
        w = sum(e[i] for i in idx) + d
        if w == 0:
            raise PolyError(f"degree shift not invertible: term {e} has shifted degree 0")
        return c / w
    return f.map_terms(scale)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\*|\+|-|\^|/|\(|\))
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent for: expr := [+-] term (('+'|'-') term)*;
    term := factor ('*' factor)*; factor := atom ('^' int)?;
    atom := rational | name | '(' expr ')'; rational := int ('/' int)?."""

    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self) -> tuple[str, str, int]:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str) -> None:
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.text, pos)
        self.take()

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", self.text, pos)
        return p

    def expr(self) -> Poly:
        terms = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                q = self.term()
                terms.append(-q if val == "-" else q)
            else:
                return self.ctx.sum(terms)

    def term(self) -> Poly:
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.take()
                p = p * self.factor()
            else:
                return p

    def factor(self) -> Poly:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        p = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            kind, val, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a non-negative integer exponent", self.text, pos)
            self.take()
            p = p ** int(val)
        return p.scale(sign) if sign < 0 else p

    def atom(self) -> Poly:
        kind, val, pos = self.take()
        if kind == "int":
            num = int(val)
            kind2, val2, _ = self.peek()
            if kind2 == "op" and val2 == "/":
                self.take()
                kind3, val3, pos3 = self.peek()
                if kind3 != "int":
                    raise ParseError("expected an integer denominator", self.text, pos3)
                self.take()
                den = int(val3)
                if den == 0:
                    raise ParseError("zero denominator", self.text, pos3)
                return self.ctx.const(Fraction(num, den))
            return self.ctx.const(num)
        if kind == "name":
            if val not in self.ctx.index:
                raise ParseError(f"unknown variable {val!r} (context: {', '.join(self.ctx.names)})",
                                 self.text, pos)
            return self.ctx.var(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input", self.text, pos)


def parse_poly(text: str, ctx: Context) -> Poly:
    """Parse polynomial text over the given context.

    Grammar: `+ - * ^` with explicit `*`, `^` taking a non-negative integer,
    rational literals `a` or `a/b`, parentheses; whitespace insignificant.
    """
    return _Parser(text, ctx).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _monomial_str(ctx: Context, e: Exponent) -> str:
    parts = []
    for nm, k in zip(ctx.names, e):
        if k == 1:
            parts.append(nm)
        elif k > 1:
            parts.append(f"{nm}^{k}")
    return "*".join(parts)


def poly_to_str(p: Poly) -> str:
    """Deterministic rendering: terms in descending grevlex order; parses back equal."""
    if p.is_zero():
        return "0"
    chunks: list[str] = []
    for e in p.support():
        c = p.terms[e]
        mono = _monomial_str(p.ctx, e)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(chunks)
