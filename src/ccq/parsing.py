"""Problem-file parsing: polynomial strings, term lists, JSON problem files.

Polynomial grammar: variables x1, x2, integer and rational literals (3, 9/5),
operators + - * ^ with the usual precedence, parentheses, arbitrary
whitespace.  Polynomials may alternatively be given as term lists:
[[e1, e2, "coeff"], ...] for bivariate and [[e, "coeff"], ...] for univariate.
Parse errors carry line and column anchors.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError
from .params import OneDimParam, ZeroDimParam
from .polynomials import BiPoly, UniPoly

__all__ = [
    "parse_poly",
    "parse_unipoly",
    "parse_problem",
    "serialize_problem",
    "ProblemFile",
]


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(s: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(s):
        ch = s[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in "+-*^()":
            toks.append(_Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            toks.append(_Token("num", s[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch == "/":
            toks.append(_Token("/", ch, line, col))
            col += 1
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable must be x1 or x2", line, col)
            toks.append(_Token("var", s[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def take(self, kind=None) -> _Token:
        t = self.toks[self.pos]
        if kind is not None and t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text or 'end of input'}",
                             t.line, t.col)
        self.pos += 1
        return t

    def parse(self) -> BiPoly:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.line, t.col)
        return e

    def expr(self) -> BiPoly:
        sign = 1
        t = self.peek()
        while t.kind in "+-":
            if t.kind == "-":
                sign = -sign
            self.take()
            t = self.peek()
        acc = self.term() * sign
        while self.peek().kind in "+-":
            op = self.take()
            nxt = self.term()
            acc = acc + nxt if op.kind == "+" else acc - nxt
        return acc

    def term(self) -> BiPoly:
        acc = self.factor()
        while self.peek().kind == "*":
            self.take()
            acc = acc * self.factor()
        return acc

    def factor(self) -> BiPoly:
        sign = 1
        while self.peek().kind in "+-":
            if self.take().kind == "-":
                sign = -sign
        base = self.atom()
        if self.peek().kind == "^":
            self.take()
            t = self.take("num")
            base = base ** int(t.text)
        return base * sign

    def atom(self) -> BiPoly:
        t = self.peek()
        if t.kind == "num":
            self.take()
            num = int(t.text)
            if self.peek().kind == "/":
                self.take()
                d = self.take("num")
                den = int(d.text)
                if den == 0:
                    raise ParseError("zero denominator in rational literal",
                                     d.line, d.col)
                return BiPoly([(0, 0, Fraction(num, den))])
            return BiPoly([(0, 0, Fraction(num))])
        if t.kind == "var":
            self.take()
            if t.text == "x1":
                return BiPoly([(1, 0, 1)])
            if t.text == "x2":
                return BiPoly([(0, 1, 1)])
            raise ParseError(f"unknown variable {t.text}", t.line, t.col)
        if t.kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        raise ParseError(f"expected a number, variable or '(', found "
                         f"{t.text or 'end of input'}", t.line, t.col)


def _exponent(v) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"exponent must be a non-negative integer, got {v!r}")
    return v


def _coeff(v) -> Fraction:
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(f"bad coefficient {v!r}: {e}") from None
    if isinstance(v, int):
        return Fraction(v)
    raise ParseError(f"coefficient must be an integer or string, got {v!r}")


def parse_poly(src) -> BiPoly:
    """Bivariate polynomial from a grammar string or a term list."""
    if isinstance(src, str):
        try:
            return _Parser(_tokenize(src)).parse()
        except RecursionError:
            raise ParseError("polynomial is nested too deeply") from None
    if isinstance(src, list):
        terms = []
        for t in src:
            if not (isinstance(t, list) and len(t) == 3):
                raise ParseError(f"bivariate term must be [e1, e2, coeff], got {t!r}")
            terms.append((_exponent(t[0]), _exponent(t[1]), _coeff(t[2])))
        return BiPoly(terms)
    raise ParseError(f"polynomial must be a string or a term list, got {src!r}")


def parse_unipoly(src) -> UniPoly:
    """Univariate polynomial in x1 from a grammar string or a term list."""
    if isinstance(src, list):
        coeffs = {}
        for t in src:
            if not (isinstance(t, list) and len(t) == 2):
                raise ParseError(f"univariate term must be [e, coeff], got {t!r}")
            e = _exponent(t[0])
            coeffs[e] = coeffs.get(e, Fraction(0)) + _coeff(t[1])
        arr = [Fraction(0)] * (max(coeffs, default=-1) + 1)
        for e, c in coeffs.items():
            arr[e] = c
        return UniPoly(arr)
    p = parse_poly(src)
    if p.deg_x2 > 0:
        raise ParseError("expected a univariate polynomial in x1, found x2")
    return _to_unipoly(p)


def _to_unipoly(p: BiPoly) -> UniPoly:
    arr = [Fraction(0)] * (p.deg_x1 + 1 if not p.is_zero else 0)
    for e1, _, c in p.terms():
        arr[e1] = c
    return UniPoly(arr)


class ProblemFile:
    """Parsed problem: curve and optional queries."""

    def __init__(self, curve: OneDimParam, queries: ZeroDimParam | None):
        self.curve = curve
        self.queries = queries


def _typed(value, kind, what):
    """value if it is a JSON value of the given kind, else a ParseError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        name = {int: "an integer", dict: "an object", list: "a list"}[kind]
        raise ParseError(f"{what} must be {name}, got {value!r}")
    return value


def parse_problem(text: str) -> ProblemFile:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("problem file must be a JSON object")
    try:
        n = _typed(data["n"], int, "'n'")
        curve_d = _typed(data["curve"], dict, "'curve'")
        omega = parse_poly(curve_d["omega"])
    except KeyError as e:
        raise ParseError(f"missing required field {e.args[0]!r}") from None
    rhos = tuple(parse_poly(r) for r in _typed(curve_d.get("rhos", []), list, "'rhos'"))
    curve = OneDimParam(n, omega, rhos)
    queries = None
    if data.get("queries") is not None:
        qd = _typed(data["queries"], dict, "'queries'")
        try:
            lam = parse_unipoly(qd["lambda"])
        except KeyError:
            raise ParseError("queries object requires a 'lambda' field") from None
        thetas = tuple(parse_unipoly(t)
                       for t in _typed(qd.get("thetas", []), list, "'thetas'"))
        queries = ZeroDimParam(n, lam, thetas)
    return ProblemFile(curve, queries)


def serialize_problem(pf: ProblemFile) -> str:
    data = {
        "n": pf.curve.n,
        "curve": {
            "omega": _bi_terms(pf.curve.omega),
            "rhos": [_bi_terms(r) for r in pf.curve.rhos],
        },
    }
    if pf.queries is not None:
        data["queries"] = {
            "lambda": _uni_terms(pf.queries.lam),
            "thetas": [_uni_terms(t) for t in pf.queries.thetas],
        }
    return json.dumps(data, indent=2, sort_keys=True)


def _bi_terms(p: BiPoly):
    return [[e1, e2, str(c)] for e1, e2, c in p.terms()]


def _uni_terms(p: UniPoly):
    return [[e, str(c)] for e, c in enumerate(p.coeffs) if c != 0]
