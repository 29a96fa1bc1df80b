"""Exact rational arithmetic for univariate and bivariate polynomials.

Univariate polynomials are dense (coefficient index = exponent), bivariate
ones sparse (term dict keyed by exponent pair).  All coefficients are
`fractions.Fraction`, so every operation here is exact.

The elimination kernels (`resultant_x2`, `first_subresultant_x2`) run a
subresultant polynomial remainder sequence over Q[x1], following Brown's
algorithm, with the defect corrections needed to return the determinantal
subresultant of index 1 and the Sylvester-convention resultant.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BothZero, DegenerateInput, ZeroDenominator, ZeroInput

__all__ = [
    "UniPoly",
    "BiPoly",
    "partial",
    "gcd",
    "squarefree_part",
    "resultant_x2",
    "first_subresultant_x2",
    "homogenized_substitute",
    "eval_fiber",
]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class UniPoly:
    """Dense univariate polynomial over Q; ``coeffs[i]`` is the x^i coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls([c])

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls([1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly.const(-_frac(other)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "UniPoly":
        if e < 0:
            raise ValueError("negative exponent")
        result = UniPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "UniPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        dg = other.degree
        inv = 1 / other.lc
        while len(r) - 1 >= dg and r:
            k = len(r) - 1 - dg
            c = r[-1] * inv
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        return UniPoly(q), UniPoly(r)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "UniPoly":
        if self.is_zero or self.lc == 1:
            return self
        return self * (1 / self.lc)

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, a) -> Fraction:
        a = _frac(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def eval_interval(self, lo: Fraction, hi: Fraction):
        """Evaluate over an interval by Horner in interval arithmetic."""
        acc = (Fraction(0), Fraction(0))
        x = (lo, hi)
        for c in reversed(self.coeffs):
            acc = _iv_add(_iv_mul(acc, x), (c, c))
        return acc

    def to_string(self, var: str = "x1") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e in range(self.degree, -1, -1):
            c = self[e]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                v = var if e == 1 else f"{var}^{e}"
                body = v if mag == 1 else f"{mag}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"UniPoly({self.to_string()})"


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


class BiPoly:
    """Sparse bivariate polynomial over Q in (x1, x2)."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        d = {}
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = [((e1, e2), c) for (e1, e2, c) in terms]
        for (e1, e2), c in items:
            c = _frac(c)
            if c != 0:
                d[(int(e1), int(e2))] = d.get((int(e1), int(e2)), Fraction(0)) + c
        self._terms = {k: v for k, v in d.items() if v != 0}

    def terms(self):
        """Terms as (e1, e2, coeff), sorted by (e2, e1)."""
        return [(e1, e2, self._terms[(e1, e2)])
                for (e1, e2) in sorted(self._terms, key=lambda k: (k[1], k[0]))]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def deg_x1(self) -> int:
        return max((e1 for e1, _ in self._terms), default=-1)

    @property
    def deg_x2(self) -> int:
        return max((e2 for _, e2 in self._terms), default=-1)

    def coeffs_x2(self):
        """Coefficients w.r.t. x2 as UniPoly in x1, index = x2 exponent."""
        if self.is_zero:
            return []
        rows = [{} for _ in range(self.deg_x2 + 1)]
        for (e1, e2), c in self._terms.items():
            rows[e2][e1] = c
        out = []
        for row in rows:
            n = max(row, default=-1) + 1
            out.append(UniPoly([row.get(i, 0) for i in range(n)]))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return BiPoly({k: -v for k, v in self._terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly([(0, 0, other)])
        d = dict(self._terms)
        for k, v in other._terms.items():
            d[k] = d.get(k, Fraction(0)) + v
        return BiPoly(d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BiPoly([(0, 0, other)])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BiPoly({k: v * other for k, v in self._terms.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        d = {}
        for (a1, a2), u in self._terms.items():
            for (b1, b2), v in other._terms.items():
                k = (a1 + b1, a2 + b2)
                d[k] = d.get(k, Fraction(0)) + u * v
        return BiPoly(d)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "BiPoly":
        result = BiPoly([(0, 0, 1)])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval(self, a, b) -> Fraction:
        a, b = _frac(a), _frac(b)
        return sum((c * a**e1 * b**e2 for (e1, e2), c in self._terms.items()),
                   Fraction(0))

    def eval_interval(self, box):
        """Interval evaluation over box = ((x1lo, x1hi), (x2lo, x2hi))."""
        (xl, xh), (yl, yh) = box
        acc = (Fraction(0), Fraction(0))
        for (e1, e2), c in self._terms.items():
            t = _iv_pow((xl, xh), e1)
            t = _iv_mul(t, _iv_pow((yl, yh), e2))
            acc = _iv_add(acc, _iv_mul(t, (c, c)))
        return acc

    def to_string(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e1, e2, c in sorted(self.terms(), key=lambda t: (-(t[0] + t[1]), -t[1])):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            factors = []
            if e1:
                factors.append("x1" if e1 == 1 else f"x1^{e1}")
            if e2:
                factors.append("x2" if e2 == 1 else f"x2^{e2}")
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"BiPoly({self.to_string()})"


def _iv_pow(iv, e):
    if e == 0:
        return (Fraction(1), Fraction(1))
    lo, hi = iv
    if e % 2 == 1 or lo >= 0:
        return (lo**e, hi**e)
    if hi <= 0:
        return (hi**e, lo**e)
    return (Fraction(0), max(lo**e, hi**e))


# ---------------------------------------------------------------------------
# module-level operations


def partial(p: BiPoly, which: str) -> BiPoly:
    """Formal partial derivative of a bivariate polynomial; which is 'x1' or 'x2'."""
    if which not in ("x1", "x2"):
        raise ValueError("which must be 'x1' or 'x2'")
    idx = 0 if which == "x1" else 1
    d = {}
    for (e1, e2), c in p._terms.items():
        e = (e1, e2)[idx]
        if e == 0:
            continue
        k = (e1 - 1, e2) if idx == 0 else (e1, e2 - 1)
        d[k] = d.get(k, Fraction(0)) + c * e
    return BiPoly(d)


def gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic gcd over Q by the Euclidean algorithm."""
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def squarefree_part(p: UniPoly) -> UniPoly:
    """Monic square-free part p / gcd(p, p')."""
    if p.is_zero:
        raise ZeroInput("square-free part of the zero polynomial")
    if p.degree <= 1:
        return p.monic()
    g = gcd(p, p.derivative())
    return p.exact_div(g).monic()


def eval_fiber(f: BiPoly, a) -> UniPoly:
    """Specialize x1 = a; returns f(a, x2) as a UniPoly in x2."""
    a = _frac(a)
    cols = {}
    for (e1, e2), c in f._terms.items():
        cols[e2] = cols.get(e2, Fraction(0)) + c * a**e1
    n = max(cols, default=-1) + 1
    return UniPoly([cols.get(i, 0) for i in range(n)])


def homogenized_substitute(A: BiPoly, num: UniPoly, den: UniPoly) -> UniPoly:
    """Homogenize A in x2 and substitute x2 -> num, u -> den.

    With d = deg_x2 A and A = sum a_k(x1) x2^k, returns
    sum a_k * num^k * den^(d-k).
    """
    if den.is_zero:
        raise ZeroDenominator("homogenized substitution with zero denominator")
    coeffs = A.coeffs_x2()
    d = len(coeffs) - 1
    out = UniPoly.zero()
    for k, a_k in enumerate(coeffs):
        if a_k.is_zero:
            continue
        out = out + a_k * num**k * den ** (d - k)
    return out


# ---------------------------------------------------------------------------
# subresultant PRS over Q[x1]
#
# Bivariate polynomials enter as descending lists of UniPoly x2-coefficients
# (index 0 = leading coefficient).


def _b_strip(f):
    i = 0
    while i < len(f) and f[i].is_zero:
        i += 1
    return f[i:]


def _b_deg(f):
    return len(f) - 1


def _b_mul_ground(f, g: UniPoly):
    return [c * g for c in f]


def _b_quo_ground(f, g: UniPoly):
    return [c.exact_div(g) for c in f]


def _b_prem(f, g):
    """Pseudo-remainder of f by g: lc(g)^(df-dg+1) * f mod g."""
    df, dg = _b_deg(f), _b_deg(g)
    lc_g = g[0]
    r = list(f)
    n = df - dg + 1
    while _b_deg(r) >= dg and r:
        lead = r[0]
        r = [c * lc_g for c in r[1:]]
        for i in range(dg):
            r[i] = r[i] - lead * g[i + 1]
        r = _b_strip(r)
        n -= 1
    return _b_mul_ground(r, lc_g**n) if n > 0 else r


def _inner_subresultants(f, g):
    """Brown's subresultant PRS over Q[x1].

    Returns (prs, sres) where prs is the polynomial remainder sequence and
    sres[i] is the principal (scalar) subresultant coefficient of index
    deg(prs[i]), with sres[0] = 1 by convention.
    """
    n, m = _b_deg(f), _b_deg(g)
    if n < m:
        f, g, n, m = g, f, m, n

    prs = [f, g]
    d = n - m
    one = UniPoly.one()

    h = _b_prem(f, g)
    if (d + 1) % 2 == 1:  # multiply by (-1)^(d+1)
        h = [-c for c in h]

    lc = g[0]
    c = lc**d

    sres = [one, c]
    c = -c

    while h:
        k = _b_deg(h)
        prs.append(h)

        f, g, m, d = g, h, k, m - k

        b = -lc * c**d
        h = _b_prem(f, g)
        h = _b_quo_ground(h, b)

        lc = g[0]

        if d > 1:
            c = ((-lc) ** d).exact_div(c ** (d - 1))
        else:
            c = -lc

        sres.append(-c)

    return prs, sres


def _as_desc(f: BiPoly):
    cs = f.coeffs_x2()
    return list(reversed(cs))


def _desc_to_unipair(s1):
    """Degree<=1 list of UniPoly (descending in x2) -> (sr1, sr10)."""
    if not s1:
        return UniPoly.zero(), UniPoly.zero()
    if len(s1) == 1:
        return UniPoly.zero(), s1[0]
    return s1[0], s1[1]


def resultant_x2(f: BiPoly, g: BiPoly) -> UniPoly:
    """Resultant of f and g w.r.t. x2, Sylvester-determinant convention."""
    if f.is_zero or g.is_zero:
        raise DegenerateInput("resultant of a zero polynomial")
    df, dg = f.deg_x2, g.deg_x2
    if df < 1:
        raise DegenerateInput("first argument must have positive x2-degree")
    if dg == 0:
        return g.coeffs_x2()[0] ** df
    if dg > df:
        sign = -1 if (df * dg) % 2 else 1
        return _resultant_desc(g, f) * sign
    return _resultant_desc(f, g)


def _resultant_desc(f: BiPoly, g: BiPoly) -> UniPoly:
    prs, sres = _inner_subresultants(_as_desc(f), _as_desc(g))
    if _b_deg(prs[-1]) > 0:
        return UniPoly.zero()
    return sres[-1]


def first_subresultant_x2(f: BiPoly, g: BiPoly):
    """Determinantal subresultant S1 of (f, g) w.r.t. x2 as (sr1, sr10).

    S1 = sr1 * x2 + sr10.  Computed from the subresultant PRS with the
    gap-structure correction in defective cases.  Returns (0, 0) when S1
    vanishes identically.
    """
    if f.is_zero or g.is_zero:
        raise DegenerateInput("subresultant of a zero polynomial")
    df, dg = f.deg_x2, g.deg_x2
    if df < 2 or dg < 1:
        raise DegenerateInput("first_subresultant_x2 needs deg_x2 f >= 2, deg_x2 g >= 1")
    if dg > df:
        f, g = g, f
        df, dg = dg, df
    if dg == 1:
        s1 = _b_mul_ground(_as_desc(g), g.coeffs_x2()[-1] ** (df - 2))
        return _desc_to_unipair(s1)

    prs, sres = _inner_subresultants(_as_desc(f), _as_desc(g))
    for i in range(2, len(prs)):
        e = _b_deg(prs[i])
        if e > 1:
            continue
        if e < 1:
            break
        j = _b_deg(prs[i - 1]) - 1  # prs[i] is the subresultant of index j
        if j == 1:
            return _desc_to_unipair(prs[i])
        # defective: S_e = (lc/s_j+1-principal)^(j-e) * prs[i], exact division
        lc = prs[i][0]
        num = _b_mul_ground(prs[i], lc ** (j - 1))
        s1 = _b_quo_ground(num, sres[i - 1] ** (j - 1))
        return _desc_to_unipair(s1)
    return UniPoly.zero(), UniPoly.zero()
