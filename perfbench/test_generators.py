"""Checks of the benchmark's input generators, made without calling ccq.

    python3 -m pytest perfbench/test_generators.py     (or run the file)
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generators as gen  # noqa: E402

SEEDS = (0, 1, 7, 12345)
POINTS = [Fraction(n, 7) for n in range(-20, 21, 3)]


def bi_eval(f, a, b):
    return gen.evaluate(gen.bi_at_x1(f, a), b)


def uni(terms):
    out = {}
    for e, c in terms:
        out[e] = Fraction(c)
    return gen.trim([out.get(e, 0) for e in range(max(out, default=-1) + 1)])


def bi(terms):
    cols = {}
    for e1, e2, c in terms:
        cols.setdefault(e2, {})[e1] = Fraction(c)
    return [gen.trim([cols.get(k, {}).get(e, 0) for e in range(max(cols.get(k, {0: 0})) + 1)])
            for k in range(max(cols) + 1)]


def test_sheet_lift_is_the_sheet_constant():
    # rho_3 / (d omega / d x2) = c_i exactly at rational points of sheet i
    for seed in SEEDS:
        rng = gen.make_rng(seed, "sheets")
        for i in range(len(gen.SHEETS_BASES)):
            problem, facts = gen.sheets_problem(i, rng)
            omega = bi(problem["curve"]["omega"])
            rho = bi(problem["curve"]["rhos"][0])
            d_omega = gen.bi_deriv_x2(omega)
            for f, c in zip(facts["fs"], facts["cs"]):
                for a in POINTS:
                    b = gen.evaluate(f, a)
                    assert bi_eval(omega, a, b) == 0
                    assert bi_eval(rho, a, b) == c * bi_eval(d_omega, a, b)
                    assert bi_eval(d_omega, a, b) != 0


def test_sheet_crossings_match_the_pair_differences():
    # the real crossings of sheets i, j are the real roots of f_i - f_j,
    # counted here by a Sturm sequence; all of them irrational
    for seed in SEEDS:
        rng = gen.make_rng(seed, "sheets")
        for i in range(len(gen.SHEETS_BASES)):
            _, facts = gen.sheets_problem(i, rng)
            fs = facts["fs"]
            total = 0
            for a in range(len(fs)):
                for b in range(a + 1, len(fs)):
                    d = gen.sub(fs[a], fs[b])
                    n = gen.sturm_real_roots(d)
                    assert n == gen.pair_crossings(fs[a], fs[b])
                    assert not gen.is_rational_square(d[1] ** 2 - 4 * d[2] * d[0])
                    total += n
            assert total == facts["crossings"] >= gen.SHEETS_BASES[i][2]
            assert facts["components"] == len(fs)


def test_sheet_queries_lie_on_their_sheets():
    for seed in SEEDS:
        rng = gen.make_rng(seed, "sheets")
        for i in range(len(gen.SHEETS_BASES)):
            problem, facts = gen.sheets_problem(i, rng)
            lam = uni(problem["queries"]["lambda"])
            th2, th3 = (uni(t) for t in problem["queries"]["thetas"])
            dlam = gen.deriv(lam)
            assert lam[-1] == 1 and gen.squarefree(lam)
            for x, s in zip(facts["xs"], facts["sheet_of"]):
                assert gen.evaluate(lam, x) == 0
                slope = gen.evaluate(dlam, x)
                assert gen.evaluate(th2, x) == gen.evaluate(facts["fs"][s], x) * slope
                assert gen.evaluate(th3, x) == facts["cs"][s] * slope


def test_critical_images_are_the_same_curve():
    for seed in SEEDS:
        rng = gen.make_rng(seed, "critical")
        for i in range(len(gen.CRITICAL_BASES)):
            images = gen.critical_problems(i, rng)
            (_, base, facts), (_, moved, _), (_, sheared, _) = images
            w, wt, ws = (bi(p["curve"]["omega"]) for p in (base, moved, sheared))
            t, s = facts["shift"], facts["shear"]
            fx, fy = facts["flips"]
            sx = -1 if fx else 1
            for a in POINTS[:5]:
                for b in POINTS[::4]:
                    # images are mirrored the same way: undo the mirror on t and s
                    assert bi_eval(wt, a - sx * t, b) == bi_eval(w, a, b)
                    shift = gen.evaluate(s, sx * a) * (-1 if fy else 1)
                    assert bi_eval(ws, a, b - shift) == bi_eval(w, a, b)
            for f in (w, wt, ws):
                assert f[-1] == (1,) and len(f) == 5


def test_critical_curves_are_generic():
    # R = Res_x2(omega, omega') is square-free with at least the asked number
    # of real roots, and the interpolated R agrees with direct Sylvester
    # determinants at points not used for the interpolation
    for i, least in enumerate(gen.CRITICAL_BASES):
        omega, R, _, _ = gen.critical_base(i)
        assert gen.squarefree(R) and gen.sturm_real_roots(R) >= least
        d_omega = gen.bi_deriv_x2(omega)
        for a in (Fraction(-7, 3), Fraction(5, 2), Fraction(101)):
            direct = gen.det(gen.sylvester(gen.bi_at_x1(omega, a), gen.bi_at_x1(d_omega, a)))
            assert gen.evaluate(R, a) == direct


def test_component_bounds():
    F = Fraction
    circle = [(F(-1), F(0), F(1)), (), (F(1),)]         # x2^2 + x1^2 - 1
    hyperbola = [(F(-1), F(0), F(-1)), (), (F(1),)]     # x2^2 - x1^2 - 1
    for omega, want in ((circle, (1, 1)), (hyperbola, (2, 2))):
        assert gen.component_bounds(omega, gen.discriminant_x1(omega)) == want
    # the bounds are worked out from each image's own polynomials, and a
    # translate, a shear and a mirror image have the same topology
    for seed in SEEDS:
        rng = gen.make_rng(seed, "critical")
        for i in range(len(gen.CRITICAL_BASES)):
            bounds = {facts["components"] for _, _, facts in gen.critical_problems(i, rng)}
            assert len(bounds) == 1 and min(bounds)[0] >= 1


def test_same_seed_same_inputs():
    for name, build in (("sheets", lambda r: [gen.sheets_problem(i, r)[0]
                                              for i in range(len(gen.SHEETS_BASES))]),
                        ("critical", lambda r: [gen.critical_problems(i, r)
                                                for i in range(len(gen.CRITICAL_BASES))])):
        assert build(gen.make_rng(3, name)) == build(gen.make_rng(3, name))
        first = build(gen.make_rng(3, name))
        assert any(first != build(gen.make_rng(s, name)) for s in range(4, 9))


def test_sturm_count_on_known_polynomials():
    x = (Fraction(0), Fraction(1))
    x2 = gen.mul(x, x)
    assert gen.sturm_real_roots(gen.mul(gen.sub(x2, (2,)), gen.add(x2, (1,)))) == 2
    assert gen.sturm_real_roots(gen.mul(gen.mul(x, gen.sub(x, (1,))), gen.add(x, (3,)))) == 3
    assert gen.sturm_real_roots((1, 0, 1)) == 0


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
