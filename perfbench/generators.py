"""Seeded problem generators for the `sheets` and `critical` workloads.

Everything here is exact arithmetic on `Fraction`s and is independent of
`ccq`: the generators only write problem files, and the facts the benchmark
checks the answers against (component counts, crossings, which query lies on
which sheet) follow from the construction.

Polynomials in x1 are tuples of coefficients, lowest degree first.  A
polynomial in (x1, x2) is a list of such tuples indexed by the x2-power.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

# ---------------------------------------------------------------------------
# univariate polynomials over Q


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(Fraction(c) for c in p)


def add(p, q):
    n = max(len(p), len(q))
    return trim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n)])


def scale(p, c):
    return trim([c * a for a in p])


def sub(p, q):
    return add(p, scale(q, -1))


def mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def deriv(p):
    return trim([i * p[i] for i in range(1, len(p))])


def degree(p):
    return len(p) - 1


def divmod_poly(p, q):
    r = list(p)
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 1)
    while len(r) >= len(q):
        c = r[-1] / q[-1]
        k = len(r) - len(q)
        quo[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r = list(trim(r))
    return trim(quo), trim(r)


def gcd(p, q):
    while q:
        p, q = q, divmod_poly(p, q)[1]
    return scale(p, 1 / p[-1]) if p else ()


def squarefree(p):
    return degree(gcd(p, deriv(p))) == 0


def compose_shift(p, t):
    """p(x + t)."""
    acc = ()
    for c in reversed(p):
        acc = add(mul(acc, (t, 1)), (c,))
    return acc


def sturm_real_roots(p) -> int:
    """Number of distinct real roots of p, by a Sturm sequence at +-infinity."""
    p = trim(p)
    if degree(p) < 1:
        return 0
    chain = [p, deriv(p)]
    while degree(chain[-1]) >= 1:
        r = divmod_poly(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(scale(r, -1))

    def changes(signs):
        signs = [s for s in signs if s]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_pos = [1 if q[-1] > 0 else -1 for q in chain]
    at_neg = [s if degree(q) % 2 == 0 else -s for s, q in zip(at_pos, chain)]
    return changes(at_neg) - changes(at_pos)


def is_rational_square(c: Fraction) -> bool:
    if c < 0:
        return False
    n, d = c.numerator, c.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def lagrange(xs, ys):
    """The polynomial of degree < len(xs) through the points (xs[i], ys[i])."""
    out = ()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis, den = (Fraction(1),), Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                basis = mul(basis, (-xj, 1))
                den *= xi - xj
        out = add(out, scale(basis, yi / den))
    return out


# ---------------------------------------------------------------------------
# polynomials in (x1, x2) as lists of x1-coefficients by x2-power


def bi_trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def bi_mul(f, g):
    out = [()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = add(out[i + j], mul(a, b))
    return bi_trim(out)


def bi_add(f, g):
    n = max(len(f), len(g))
    return bi_trim([add(f[i] if i < len(f) else (), g[i] if i < len(g) else ())
                    for i in range(n)])


def bi_deriv_x2(f):
    return [scale(f[k], k) for k in range(1, len(f))]


def bi_at_x1(f, a):
    """f(a, x2) as a univariate polynomial in x2."""
    return trim([evaluate(c, a) for c in f])


def bi_shift_x1(f, t):
    """f(x1 + t, x2)."""
    return [compose_shift(c, t) for c in f]


def bi_shear_x2(f, s):
    """f(x1, x2 + s(x1)), by Horner's rule in x2."""
    acc = []
    for c in reversed(f):
        acc = bi_add(bi_mul(acc, [s, (Fraction(1),)]), [c])
    return acc


def det(m):
    """Determinant over Q by Gaussian elimination."""
    m = [list(row) for row in m]
    out = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, len(m)):
            f = m[r][col] / m[col][col]
            if f:
                for c in range(col, len(m)):
                    m[r][c] -= f * m[col][c]
    return out


def sylvester(f, g):
    """Sylvester matrix of f and g, coefficient lists lowest degree first."""
    df, dg = len(f) - 1, len(g) - 1
    rows = []
    for i in range(dg):
        rows.append([0] * i + list(reversed(f)) + [0] * (dg - 1 - i))
    for i in range(df):
        rows.append([0] * i + list(reversed(g)) + [0] * (df - 1 - i))
    return rows


def discriminant_x1(f):
    """R(x1) = Res_x2(f, df/dx2) for f monic in x2.

    Each value R(a) is a Sylvester determinant of the specialised fiber
    polynomials; R is interpolated through more points than its degree
    can reach (the Sylvester matrix has 2 deg_x2 f - 1 rows, each entry of
    x1-degree at most that of f).
    """
    fy = bi_deriv_x2(f)
    d1 = max(degree(c) for c in f)
    xs = [Fraction(i) for i in range((2 * len(f) - 3) * d1 + 1)]
    return lagrange(xs, [det(sylvester(bi_at_x1(f, a), bi_at_x1(fy, a))) for a in xs])


def uni_terms(p):
    return [[e, str(c)] for e, c in enumerate(p) if c != 0]


def bi_terms(f):
    return [[e1, e2, str(c)] for e2, col in enumerate(f)
            for e1, c in enumerate(col) if c != 0]


def bits(values) -> int:
    """Largest bit size of a numerator or denominator among the values."""
    return max((max(abs(Fraction(v).numerator).bit_length(),
                    Fraction(v).denominator.bit_length())
                for v in values), default=0)


# ---------------------------------------------------------------------------
# seeded variation
#
# Each workload is a fixed list of base problems.  The seed varies what the
# answers depend on but the cost of solving does not: mirror images in x1 and
# x2, constants, and which query sits on which sheet.  Drawing fresh curves
# per seed would make one run's cost differ from the next by a factor of ten
# (the sample-fiber coefficients, and with them the divisor enumeration in
# rational-root extraction, change with every curve), and no timing could be
# compared across seeds.


def mirror(f, flip_x1, flip_x2):
    """f(+-x1, +-x2) for a polynomial in (x1, x2), kept monic in x2."""
    out = []
    for k, col in enumerate(f):
        col = tuple(c * (-1) ** i if flip_x1 else c for i, c in enumerate(col))
        out.append(scale(col, (-1) ** k) if flip_x2 else col)
    if flip_x2 and (len(f) - 1) % 2:
        out = [scale(col, -1) for col in out]
    return out


def _small_rational(rng, lo, hi, dens=(1, 2, 3)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


# ---------------------------------------------------------------------------
# sheets: space curves made of k graphs (x1, f_i(x1), c_i)


def sheets_curve(fs, cs):
    """omega = prod (x2 - f_i) and rho_3 = sum c_i prod_{j != i} (x2 - f_j).

    On sheet i only the i-th summand of rho_3 and of d omega / d x2 is
    nonzero, so rho_3 / (d omega / d x2) = c_i there.
    """
    factors = [[scale(f, -1), (Fraction(1),)] for f in fs]
    omega = [(Fraction(1),)]
    for fac in factors:
        omega = bi_mul(omega, fac)
    rho = [()]
    for i, c in enumerate(cs):
        term = [(Fraction(c),)]
        for j, fac in enumerate(factors):
            if j != i:
                term = bi_mul(term, fac)
        rho = bi_add(rho, term)
    return omega, rho


def pair_crossings(fi, fj) -> int:
    """Real crossings of two quadratic sheets: real roots of f_i - f_j."""
    d = sub(fi, fj)
    return 2 if d[1] ** 2 - 4 * d[2] * d[0] > 0 else 0


def draw_sheets(rng, k, min_crossings):
    """k quadratic sheet functions whose pairwise differences are generic.

    Every difference is a quadratic with nonzero discriminant that is not a
    rational square, so its real roots are irrational, and differences of
    distinct pairs share no root: no triple points and distinct node
    abscissas.
    """
    while True:
        fs = [trim([_small_rational(rng, -6, 6), _small_rational(rng, -4, 4),
                    Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))])
              for _ in range(k)]
        diffs = [sub(fs[i], fs[j]) for i in range(k) for j in range(i + 1, k)]
        # 0 counts as a rational square, so a tangency is refused too
        if any(degree(d) != 2 or is_rational_square(d[1] ** 2 - 4 * d[2] * d[0])
               for d in diffs):
            continue
        if any(degree(gcd(a, b)) > 0 for n, a in enumerate(diffs) for b in diffs[n + 1:]):
            continue
        if sum(pair_crossings(fs[i], fs[j])
               for i in range(k) for j in range(i + 1, k)) < min_crossings:
            continue
        return fs


# (sheets, queries per sheet, least number of crossings, draw) per base
# problem.  The draw names the fixed seed of the base curve.  Three-sheet
# draws 0 and 2-6 take 4-31 s each in rational-root extraction on the sample
# fibers and wait until that is fixed (see the README); draw 1 takes 1 s.
SHEETS_BASES = ((2, 2, 2, 0), (2, 2, 2, 1), (3, 1, 4, 1))


def sheets_base(i):
    k, qps, min_crossings, draw = SHEETS_BASES[i]
    rng = random.Random(f"sheets-base:{draw}")
    fs = draw_sheets(rng, k, min_crossings)
    # rational query abscissas are never crossings: all crossings are irrational
    xs = [Fraction(x, 4) for x in sorted(rng.sample(range(-12, 13), qps * k))]
    return fs, xs, qps


def sheets_problem(i, rng):
    """Base problem i of `sheets`, varied by rng, with its known answers."""
    fs, xs, qps = sheets_base(i)
    k = len(fs)
    if rng.random() < 0.5:  # x1 -> -x1
        fs = [tuple(c * (-1) ** e for e, c in enumerate(f)) for f in fs]
        xs = sorted(-x for x in xs)
    if rng.random() < 0.5:  # x2 -> -x2
        fs = [scale(f, -1) for f in fs]
    cs = rng.sample(range(-4, 5), k)
    sheet_of = [s for s in range(k) for _ in range(qps)]
    rng.shuffle(sheet_of)
    omega, rho = sheets_curve(fs, cs)
    lam = (Fraction(1),)
    for x in xs:
        lam = mul(lam, (-x, 1))
    dlam = deriv(lam)
    theta2 = lagrange(xs, [evaluate(fs[s], x) * evaluate(dlam, x)
                           for s, x in zip(sheet_of, xs)])
    theta3 = lagrange(xs, [cs[s] * evaluate(dlam, x) for s, x in zip(sheet_of, xs)])
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    groups = {}
    for q, s in enumerate(sheet_of, start=1):  # xs ascend, as ccq numbers queries
        groups.setdefault(s, []).append(q)
    problem = {
        "n": 3,
        "curve": {"omega": bi_terms(omega), "rhos": [bi_terms(rho)]},
        "queries": {"lambda": uni_terms(lam),
                    "thetas": [uni_terms(theta2), uni_terms(theta3)]},
    }
    facts = {
        "fs": fs, "cs": cs, "xs": xs, "sheet_of": sheet_of,
        "components": k,
        "partition": sorted(sorted(g) for g in groups.values()),
        "crossings": sum(pair_crossings(fs[a], fs[b]) for a, b in pairs),
        # R = +-prod_{i<j} (f_i - f_j)^2
        "deg_R": sum(2 * degree(sub(fs[a], fs[b])) for a, b in pairs),
        "bits": bits([c for col in omega + rho for c in col]
                     + list(lam) + list(theta2) + list(theta3)),
    }
    return problem, facts


# ---------------------------------------------------------------------------
# critical: plane curves of x2-degree 4, with an x1-translate and an x2-shear


def draw_quartic(rng, min_real_critical):
    """omega = x2^4 + a3 x2^3 + a2 x2^2 + a1 x2 + a0 in generic position.

    deg a0 = 2, deg a1 = deg a2 = 1, a3 constant, small rational
    coefficients.  Generic position is checked on R = Res_x2(omega, omega'):
    R square-free means every critical fiber holds exactly one double
    ordinate (a fold) and no two critical points share an abscissa.
    """
    while True:
        cols = [trim([_small_rational(rng, -3, 3, (1, 2)) for _ in range(d + 1)])
                for d in (2, 1, 1, 0)] + [(Fraction(1),)]
        if degree(cols[0]) != 2:
            continue
        R = discriminant_x1(cols)
        if degree(R) < 1 or not squarefree(R):
            continue
        if sturm_real_roots(R) < min_real_critical:
            continue
        return cols, R


# least number of real critical abscissas per base curve
CRITICAL_BASES = (4, 4)


def critical_base(i):
    rng = random.Random(f"critical-base:{i}")
    omega, R = draw_quartic(rng, CRITICAL_BASES[i])
    t = Fraction(rng.choice((-3, -1, 1, 3)), 2)
    s = (Fraction(rng.randint(-2, 2), 2), Fraction(rng.choice((-2, -1, 1, 2)), 3))
    return omega, R, t, s


def cauchy_bound(p):
    """A rational B with every real root of p inside (-B, B)."""
    p = trim(p)
    return 1 + max((abs(c / p[-1]) for c in p[:-1]), default=Fraction(0))


def component_bounds(omega, R):
    """Least and largest number of connected components of omega = 0.

    omega is monic in x2 and R = Res_x2(omega, omega') is square-free, so
    every critical point is a fold and the curve is smooth.  Each component
    is then either an oval, which has at least two folds, or an arc with its
    two ends at x1 = +-infinity.  The ends are the real points of the fibers
    beyond every root of R.  Real folds are real points, so a curve with a
    fold has at least one component.
    """
    B = cauchy_bound(R)
    ends = sturm_real_roots(bi_at_x1(omega, B)) + sturm_real_roots(bi_at_x1(omega, -B))
    folds = sturm_real_roots(R)
    arcs = ends // 2
    return max(arcs, 1 if folds else 0), arcs + folds // 2


def critical_problems(i, rng):
    """Base curve i of `critical`, its x1-translate and its x2-shear.

    The seed mirrors all three the same way; a mirror image has the same
    topology and the same cost.  Returns (name, problem, facts) triples;
    facts["components"] bounds the component count of each image from its
    own polynomials.
    """
    omega, R, t, s = critical_base(i)
    flips = (rng.random() < 0.5, rng.random() < 0.5)
    images = (("base", omega), ("translated", bi_shift_x1(omega, t)),
              ("sheared", bi_shear_x2(omega, s)))
    out = []
    for name, w in images:
        w = mirror(w, *flips)
        facts = {"curve": i, "image": name, "shift": t, "shear": s, "flips": flips,
                 "deg_R": degree(R), "real_critical": sturm_real_roots(R),
                 "components": component_bounds(w, discriminant_x1(w)),
                 "bits": bits([c for col in w for c in col])}
        out.append((f"critical{i}-{name}", {"n": 2, "curve": {"omega": bi_terms(w)}}, facts))
    return out


def make_rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")
