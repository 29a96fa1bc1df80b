"""Certified real root isolation and exact sign evaluation.

Roots are isolated with integer Descartes bisection on square-free input and
represented as `AlgebraicNumber` (square-free defining polynomial plus an
isolating interval with non-root endpoints).  Rational roots are carried with
a degree-1 defining polynomial.  They are found without factoring any
coefficient: a rational root of a primitive integer polynomial with leading
coefficient lc lies on the grid Z/lc, so a binary search over the grid points
inside each Descartes box either hits the box's root or proves it irrational.
The irrational roots share the rational-root-free cofactor as their defining
polynomial.

Fibers omega(alpha, .) above an algebraic abscissa alpha are handled without
algebraic-extension arithmetic: the known double ordinate is deflated through
the first-subresultant hint, and the remaining simple ordinates are counted
and isolated with a Sturm sequence whose coefficient signs are evaluated
exactly at alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    GenericityViolation,
    NotSquareFree,
    RootAtEndpoint,
    ZeroInput,
)
from .polynomials import BiPoly, UniPoly, eval_fiber, gcd, squarefree_part

__all__ = [
    "Interval",
    "AlgebraicNumber",
    "FiberPoint",
    "isolate",
    "refine",
    "sturm_count",
    "sign_at",
    "fiber_roots",
]


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("interval requires lo < hi")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def disjoint(self, other: "Interval") -> bool:
        return self.hi <= other.lo or other.hi <= self.lo


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real root of `defining` isolated by `isol` (sign change, single root)."""

    defining: UniPoly
    isol: Interval

    @property
    def is_rational(self) -> bool:
        return self.defining.degree == 1

    @property
    def value(self) -> Fraction:
        """Exact value; only for rational numbers (degree-1 defining)."""
        if not self.is_rational:
            raise ValueError("not a rational algebraic number")
        return -self.defining[0] / self.defining[1]

    @classmethod
    def from_rational(cls, r, width=Fraction(1, 2)) -> "AlgebraicNumber":
        r = Fraction(r)
        return cls(UniPoly([-r, 1]), Interval(r - width, r + width))


# ---------------------------------------------------------------------------
# integer Descartes isolation


def _int_coeffs(p: UniPoly):
    """Coprime integer coefficients of a positive multiple of p, lc > 0."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    cs = [c.numerator * (den // c.denominator) for c in p.coeffs]
    g = math.gcd(*cs)
    return [c // g for c in cs] if cs[-1] > 0 else [-c // g for c in cs]


def _var(cs) -> int:
    count, prev = 0, 0
    for c in cs:
        s = _sgn(c)
        if s == 0:
            continue
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _shift1(cs):
    """Taylor shift by 1 of ascending integer coefficients (in place copy)."""
    c = list(cs)
    n = len(c)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _descartes_01(q):
    """Isolate roots of q in (0, 1); q integer ascending coeffs, square-free.

    Yields ('rat', t) for exact dyadic roots and ('box', c, k) for the open
    dyadic interval (c/2^k, (c+1)/2^k) containing exactly one root.
    """
    out = []
    stack = [(list(q), 0, 0)]
    while stack:
        cs, c, k = stack.pop()
        while cs and cs[0] == 0:
            out.append(("rat", Fraction(c, 1 << k)))
            cs = cs[1:]
            if cs and cs[0] == 0:
                raise NotSquareFree("repeated root during isolation")
            break
        if not cs or len(cs) == 1:
            continue
        t = _shift1(list(reversed(cs)))
        v = _var(t)
        if v == 0:
            continue
        if v == 1:
            out.append(("box", c, k))
            continue
        n = len(cs) - 1
        left = [ci << (n - i) for i, ci in enumerate(cs)]
        right = _shift1(left)
        stack.append((right, 2 * c + 1, k + 1))
        stack.append((left, 2 * c, k + 1))
    return out


def _root_bound(cs) -> int:
    """An integer B > 1 + max|c_i| / lc; all real roots lie inside (-B, B)."""
    return 2 + max(abs(c) for c in cs[:-1]) // cs[-1]


def _compose_affine(cs, a: int, c: int):
    """Integer coefficients of p(a + c*x) via Horner over polynomials."""
    acc = []
    for coef in reversed(cs):
        nxt = [a * v for v in acc] + [0]
        for i, v in enumerate(acc):
            nxt[i + 1] += c * v
        nxt[0] += coef
        acc = nxt
    return acc


def _descartes_boxes(cs):
    """Descartes isolation of the real roots of integer cs (lc > 0).

    Returns (exact dyadic roots, open boxes (lo, hi) holding one root each).
    """
    B = _root_bound(cs)
    rats, boxes = [], []
    for item in _descartes_01(_compose_affine(cs, -B, 2 * B)):
        if item[0] == "rat":
            rats.append(-B + 2 * B * item[1])
        else:
            _, c, k = item
            boxes.append((-B + 2 * B * Fraction(c, 1 << k),
                          -B + 2 * B * Fraction(c + 1, 1 << k)))
    return rats, boxes


def _horner(cs, x):
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _grid_root(d, lo: Fraction, hi: Fraction, lc: int):
    """The integer k with lo < k/lc < hi and sum d_i k^i = 0, or None.

    d are the ascending coefficients of lc^n p(k/lc); p has exactly one root
    in (lo, hi) and it is simple, so the sign changes once along the grid.
    """
    a = math.floor(lo * lc) + 1
    b = math.ceil(hi * lc) - 1
    if a > b:
        return None
    fa, fb = _horner(d, a), _horner(d, b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if (fa > 0) == (fb > 0):
        return None
    while b - a > 1:
        m = (a + b) // 2
        fm = _horner(d, m)
        if fm == 0:
            return m
        if (fm > 0) == (fa > 0):
            a = m
        else:
            b = m
    return None


def _extract_rational_roots(cs, rats, boxes):
    """Split off the rational roots of a square-free polynomial.

    `cs` are its coprime integer coefficients with leading coefficient
    lc > 0, and `rats` and `boxes` its Descartes isolation.  Returns (sorted
    rational roots, coprime integer coefficients of the cofactor holding the
    other roots).  A rational root u/v in lowest terms has v | lc, so it lies
    on the grid Z/lc: the root in each box is found on that grid by binary
    search on the exact sign of lc^n p(k/lc), or is irrational when no grid
    point in the box is a root.
    """
    lc, n = cs[-1], len(cs) - 1
    d = [c * lc ** (n - i) for i, c in enumerate(cs)]
    rats = list(rats)
    for lo, hi in boxes:
        k = _grid_root(d, lo, hi, lc)
        if k is not None:
            rats.append(Fraction(k, lc))
    for r in rats:
        # exact division by v x - u; Gauss's lemma keeps the quotient integer
        # and coprime, with leading coefficient lc / v > 0
        u, v = r.numerator, r.denominator
        quo, acc = [0] * (len(cs) - 1), 0
        for i in range(len(cs) - 1, 0, -1):
            acc = (cs[i] + u * acc) // v
            quo[i - 1] = acc
        cs = quo
    return sorted(rats), cs


def isolate(p: UniPoly):
    """Isolate all real roots of a square-free polynomial, sorted ascending.

    Rational roots get a degree-1 defining polynomial; irrational roots share
    the rational-root-free cofactor as defining polynomial.
    """
    if p.is_zero:
        raise ZeroInput("cannot isolate roots of the zero polynomial")
    if p.degree == 0:
        return []
    if gcd(p, p.derivative()).degree > 0:
        raise NotSquareFree("isolate requires square-free input")
    cs = _int_coeffs(p)
    found, boxes = _descartes_boxes(cs)
    rats, qcs = _extract_rational_roots(cs, found, boxes)
    if rats:
        # q has no rational root: its Descartes pass yields boxes only, and
        # no dyadic endpoint or midpoint below is a root of q
        boxes = _descartes_boxes(qcs)[1] if len(qcs) > 1 else []
    q = UniPoly(qcs).monic()

    # shrink boxes until no rational root sits inside
    shrunk = []
    for lo, hi in boxes:
        while any(lo <= r <= hi for r in rats):
            m = (lo + hi) / 2
            if _sgn(q(m)) == _sgn(q(lo)):
                lo = m
            else:
                hi = m
        shrunk.append((lo, hi))
    boxes = shrunk

    positions = sorted([(r, "rat", r) for r in rats] +
                       [((lo + hi) / 2, "box", (lo, hi)) for lo, hi in boxes])
    roots = []
    for i, (_, kind, data) in enumerate(positions):
        if kind == "box":
            lo, hi = data
            roots.append(AlgebraicNumber(q, Interval(lo, hi)))
        else:
            r = data
            d = Fraction(1, 2)
            if i > 0:
                prev = positions[i - 1]
                edge = prev[2][1] if prev[1] == "box" else prev[2]
                d = min(d, (r - edge) / 4)
            if i + 1 < len(positions):
                nxt = positions[i + 1]
                edge = nxt[2][0] if nxt[1] == "box" else nxt[2]
                d = min(d, (edge - r) / 4)
            roots.append(AlgebraicNumber(UniPoly([-r, 1]), Interval(r - d, r + d)))
    return roots


def refine(a: AlgebraicNumber, eps) -> AlgebraicNumber:
    """Shrink the isolating interval below eps; same root, new value."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a.is_rational:
        r = a.value
        w = min(eps / 4, a.isol.width / 4)
        return AlgebraicNumber(a.defining, Interval(r - w, r + w))
    lo, hi = a.isol.lo, a.isol.hi
    p = a.defining
    sl = _sgn(p(lo))
    while hi - lo >= eps:
        m = (lo + hi) / 2
        vm = p(m)
        if vm == 0:
            w = min(eps / 4, (hi - lo) / 4)
            return AlgebraicNumber(UniPoly([-m, 1]), Interval(m - w, m + w))
        if _sgn(vm) == sl:
            lo = m
        else:
            hi = m
    return AlgebraicNumber(p, Interval(lo, hi))


def _bisect_once(a: AlgebraicNumber) -> AlgebraicNumber:
    return refine(a, a.isol.width * Fraction(3, 4))


# ---------------------------------------------------------------------------
# Sturm counting and exact signs


def _sturm_chain(p: UniPoly):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        r = chain[-2] % chain[-1]
        if r.is_zero:
            break
        chain.append(-r)
    return chain


def _variations(chain, t: Fraction) -> int:
    return _var([pi(t) for pi in chain])


def sturm_count(p: UniPoly, interval: Interval) -> int:
    """Number of distinct real roots of p in the open interval."""
    if p.is_zero:
        raise ZeroInput("Sturm count of the zero polynomial")
    if p(interval.lo) == 0 or p(interval.hi) == 0:
        raise RootAtEndpoint("interval endpoint is a root")
    chain = _sturm_chain(p)
    return _variations(chain, interval.lo) - _variations(chain, interval.hi)


def sign_at(p: UniPoly, a: AlgebraicNumber) -> int:
    """Exact sign of p at the algebraic number a."""
    if p.is_zero:
        return 0
    if a.is_rational:
        return _sgn(p(a.value))
    g = gcd(p, a.defining)
    if g.degree >= 1 and _sgn(g(a.isol.lo)) * _sgn(g(a.isol.hi)) < 0:
        return 0
    cur = a
    while True:
        lo, hi = cur.isol.lo, cur.isol.hi
        vlo, vhi = p.eval_interval(lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        cur = _bisect_once(cur)


# ---------------------------------------------------------------------------
# fibers above an abscissa


class FiberPoint:
    """One real ordinate of a fiber, with a refinable isolating interval."""

    def __init__(self, lo, hi, multiplicity=1, refiner=None, exact=None, algebraic=None):
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        self.multiplicity = multiplicity
        self._refiner = refiner
        self.exact = Fraction(exact) if exact is not None else None
        self.algebraic = algebraic

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self) -> None:
        if self._refiner is not None:
            self._refiner(self)

    def disjoint(self, other: "FiberPoint") -> bool:
        return self.hi <= other.lo or other.hi <= self.lo

    def __repr__(self):
        if self.exact is not None:
            return f"FiberPoint({self.exact}, mult={self.multiplicity})"
        return f"FiberPoint(({self.lo}, {self.hi}), mult={self.multiplicity})"


def _fiber_point_from_algebraic(a: AlgebraicNumber, mult: int) -> FiberPoint:
    state = {"a": a}

    def refiner(fp: FiberPoint):
        state["a"] = _bisect_once(state["a"])
        fp.lo, fp.hi = state["a"].isol.lo, state["a"].isol.hi

    return FiberPoint(a.isol.lo, a.isol.hi, mult, refiner,
                      exact=a.value if a.is_rational else None, algebraic=a)


class _AlphaHolder:
    """Shared, refinable view of an algebraic abscissa."""

    def __init__(self, alpha: AlgebraicNumber):
        self.alpha = alpha

    def refine(self) -> None:
        self.alpha = _bisect_once(self.alpha)

    def box(self):
        return (self.alpha.isol.lo, self.alpha.isol.hi)


def ratio_point(holder: _AlphaHolder, num: UniPoly, den: UniPoly, mult: int = 1) -> FiberPoint:
    """FiberPoint for num(alpha)/den(alpha); den must not vanish at alpha."""
    def bounds():
        for _ in range(10_000):
            lo, hi = holder.box()
            dl, dh = den.eval_interval(lo, hi)
            if dl > 0 or dh < 0:
                nl, nh = num.eval_interval(lo, hi)
                cands = (nl / dl, nl / dh, nh / dl, nh / dh)
                return min(cands), max(cands)
            holder.refine()
        raise GenericityViolation("denominator interval does not separate from zero")

    lo, hi = bounds()

    def refiner(fp: FiberPoint):
        holder.refine()
        fp.lo, fp.hi = bounds()

    return FiberPoint(lo, hi, mult, refiner)


class _AlphaSturm:
    """Sturm sequence of F(alpha, x2) with coefficient signs decided at alpha.

    F is given by its x2-coefficients (UniPoly in x1, ascending).  All chain
    elements are reduced modulo the defining polynomial of alpha; leading
    coefficients that vanish at alpha are dropped before each pseudo-division,
    and the pseudo-division multiplier's sign at alpha is compensated so the
    sequence is a genuine Sturm sequence up to positive factors.
    """

    def __init__(self, coeffs, alpha: AlgebraicNumber):
        self.alpha = alpha
        self.modulus = alpha.defining
        f0 = self._normalize([c % self.modulus for c in coeffs])
        f1 = self._normalize([(c * i) % self.modulus for i, c in enumerate(f0)][1:])
        self.chain = [f0]
        if f1:
            self.chain.append(f1)
        while len(self.chain) >= 2 and len(self.chain[-1]) > 1:
            nxt = self._next(self.chain[-2], self.chain[-1])
            if not nxt:
                break
            self.chain.append(nxt)

    def _sign(self, c: UniPoly) -> int:
        return sign_at(c, self.alpha)

    def _normalize(self, cs):
        cs = list(cs)
        while cs and self._sign(cs[-1]) == 0:
            cs.pop()
        return cs

    def _next(self, f, g):
        dg = len(g) - 1
        lc = g[-1]
        r = list(f)
        steps = 0
        while r and len(r) - 1 >= dg:
            lead = r[-1]
            shift = len(r) - 1 - dg
            r = [c * lc for c in r[:-1]]
            for i in range(dg):
                r[shift + i] = r[shift + i] - lead * g[i]
            while r and r[-1].is_zero:
                r.pop()
            steps += 1
        # remainder carries a factor lc^steps; compensate its sign at alpha
        mult_sign = self._sign(lc) ** steps if steps % 2 else 1
        r = [c % self.modulus for c in r]
        if mult_sign >= 0:
            r = [-c for c in r]
        return self._normalize(r)

    def _value_sign(self, element, t: Fraction) -> int:
        acc = UniPoly.zero()
        for c in reversed(element):
            acc = acc * t + c
        return self._sign(acc % self.modulus)

    def variations(self, t: Fraction) -> int:
        return _var([self._value_sign(e, t) for e in self.chain])

    def count(self, lo: Fraction, hi: Fraction) -> int:
        return self.variations(lo) - self.variations(hi)

    def value_sign(self, t: Fraction) -> int:
        return self._value_sign(self.chain[0], t)

    def gcd_degree(self) -> int:
        """Degree at alpha of the final chain element (the gcd with F')."""
        return len(self.chain[-1]) - 1 if len(self.chain) > 1 else 0

    def isolate(self, bound: Fraction):
        """Isolate the distinct real roots of F(alpha, .) in (-bound, bound)."""
        points = []
        stack = [(-bound, bound, self.count(-bound, bound))]
        while stack:
            lo, hi, cnt = stack.pop()
            if cnt == 0:
                continue
            if cnt == 1:
                points.append(self._chain_point(lo, hi))
                continue
            mid = (lo + hi) / 2
            if self.value_sign(mid) == 0:
                d = (hi - lo) / 4
                while self.count(mid - d, mid + d) != 1:
                    d /= 2
                points.append(FiberPoint(mid - d, mid + d, 1, None, exact=mid))
                stack.append((lo, mid - d, self.count(lo, mid - d)))
                stack.append((mid + d, hi, self.count(mid + d, hi)))
            else:
                stack.append((lo, mid, self.count(lo, mid)))
                stack.append((mid, hi, self.count(mid, hi)))
        points.sort(key=lambda fp: fp.lo)
        return points

    def _chain_point(self, lo: Fraction, hi: Fraction) -> FiberPoint:
        sturm = self

        def refiner(fp: FiberPoint):
            mid = (fp.lo + fp.hi) / 2
            if sturm.value_sign(mid) == 0:
                fp.exact = mid
                w = fp.width / 8
                fp.lo, fp.hi = mid - w, mid + w
                fp._refiner = None
                return
            if sturm.count(fp.lo, mid) == 1:
                fp.hi = mid
            else:
                fp.lo = mid

        return FiberPoint(lo, hi, 1, refiner)


def _fiber_bound(coeffs, holder: _AlphaHolder) -> Fraction:
    """Root bound for sum c_k(alpha) x2^k; refines alpha until lc separates."""
    for _ in range(10_000):
        lo, hi = holder.box()
        ll, lh = coeffs[-1].eval_interval(lo, hi)
        if ll > 0 or lh < 0:
            lead = min(abs(ll), abs(lh))
            m = Fraction(0)
            for c in coeffs[:-1]:
                cl, ch = c.eval_interval(lo, hi)
                m = max(m, abs(cl), abs(ch))
            b = 1 + m / lead
            return Fraction(b.numerator // b.denominator + 1)
        holder.refine()
    raise GenericityViolation("leading fiber coefficient does not separate from zero")


def _separate(points, max_rounds=2000):
    for _ in range(max_rounds):
        clash = None
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if not points[i].disjoint(points[j]):
                    clash = (points[i], points[j])
                    break
            if clash:
                break
        if clash is None:
            points.sort(key=lambda fp: fp.lo)
            return points
        clash[0].refine()
        clash[1].refine()
    raise GenericityViolation("could not separate fiber ordinates")


def _rational_fiber(omega: BiPoly, a: Fraction):
    p = eval_fiber(omega, a)
    if p.is_zero:
        raise GenericityViolation("fiber polynomial vanishes identically")
    sf = squarefree_part(p) if p.degree >= 1 else p
    if sf.degree < 1:
        return []
    out = []
    for root in isolate(sf):
        mult = 1
        d = p.derivative()
        while sign_at(d, root) == 0:
            mult += 1
            d = d.derivative()
        out.append((_fiber_point_from_algebraic(root, mult), mult))
    return out


def fiber_roots(omega: BiPoly, alpha: AlgebraicNumber, multiple_root_hint=None):
    """Real roots of omega(alpha, x2), ascending, with multiplicities.

    Returns a list of (FiberPoint, multiplicity).  For a rational alpha the
    computation is exact.  Above an irrational alpha the caller supplies the
    first-subresultant pair (sr1, sr10) locating the unique double ordinate
    whenever alpha is a critical abscissa.
    """
    if alpha.is_rational:
        return _rational_fiber(omega, alpha.value)

    holder = _AlphaHolder(alpha)
    coeffs = omega.coeffs_x2()
    sturm_full = _AlphaSturm(coeffs, alpha)
    bound = _fiber_bound(sturm_full.chain[0], holder)

    if sturm_full.gcd_degree() == 0:
        points = _separate(sturm_full.isolate(bound))
        return [(fp, 1) for fp in points]

    if multiple_root_hint is None:
        raise GenericityViolation("multiple fiber ordinate without a subresultant hint")
    sr1, sr10 = multiple_root_hint
    if sign_at(sr1, alpha) == 0:
        raise GenericityViolation("sr1 vanishes at a critical abscissa (H5 failure)")
    if sturm_full.gcd_degree() > 1:
        raise GenericityViolation("fiber has more than one multiple ordinate")

    beta = ratio_point(holder, -sr10, sr1, mult=2)
    deflated = _deflate_double(coeffs, sr1, sr10)
    sturm_g = _AlphaSturm(deflated, holder.alpha)
    simple = sturm_g.isolate(bound) if len(sturm_g.chain[0]) > 1 else []
    points = _separate(simple + [beta])
    return [(fp, fp.multiplicity) for fp in points]


def _deflate_double(coeffs, sr1: UniPoly, sr10: UniPoly):
    """Pseudo-quotient of F by (sr1*x2 + sr10) applied twice.

    At any alpha where beta = -sr10/sr1 is a double root of F(alpha, .), the
    result is proportional to F(alpha, .) / (x2 - beta)^2, the remainders
    vanishing at alpha.
    """
    g = [sr10, sr1]

    def pquo(f):
        r = list(f)
        q = [UniPoly.zero()] * max(len(f) - 1, 0)
        n = len(f) - 1
        for _ in range(n):
            lead = r[-1]
            shift = len(r) - 2
            q = [c * sr1 for c in q]
            q[shift] = q[shift] + lead
            r = [c * sr1 for c in r[:-1]]
            r[shift] = r[shift] - lead * g[0]
        return q

    q1 = pquo(coeffs)
    return pquo(q1)
