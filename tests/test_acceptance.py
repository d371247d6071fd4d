"""Acceptance gate: one numbered check per line, run with -s to see them all.

Each check prints its PASS/FAIL verdict before asserting, so a red line still
shows its measured numbers.

Criterion 10 checks the rate of the Cesaro means sigma_N f = sum_{k<N}
(1 - k/N) f_k.  Their defect is exactly

    f - sigma_N f = Ef/N - (1/N) sum_{k>N} (k - N) f_k,

with Ef = x1 df/dx1 + x2 df/dx2 the Euler derivative, so the check asserts
that N (f - sigma_N f) matches Ef from the closed form to 1e-9 at N = 30, 60
and 120.  An earlier form asked for |f - sigma_N f| <= 1e-6 at N = 60; the
leading term Ef/N makes that unattainable for any correct sigma_N (the
measured defect is 8.4e-3).  The unweighted partial sums do converge
geometrically; test_realize pins that rate.
"""

import math

import numpy as np

from ncball.cli import main
from ncball.freealg import FreePolynomial, _parse_word, left_divide, words_of_size
from ncball.mattuple import MatrixTuple, direct_sum, similarity
from ncball.ncdiff import delta_first, gleason_split, tt_check
from ncball.opball import (
    factor_two_check,
    membership,
    polydisk,
    row_ball,
    ucp_compression,
)
from ncball.probe import (
    builtin_dichotomy_case,
    corner_path,
    dichotomy_scan,
    estimate_sup,
    sample_in_ball,
)
from ncball.realize import bidisk_witness, bidisk_witness_closed_form
from ncball.varieties import (
    apply_poly_map,
    homogeneity_sample,
    parabola_cubic_pair,
    variety_membership,
)
from test_ncdiff import scalar_eval

BALL = polydisk(2)


def report(num: int, ok: bool, text: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num} - {text}")
    return ok


def disk_points(count: int, seed: int, radius: float = 0.999):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, (count, 2)))
    t = rng.uniform(0.0, 2.0 * np.pi, (count, 2))
    z = r * np.exp(1j * t)
    return [(complex(z1), complex(z2)) for z1, z2 in z]


POINTS_1000 = disk_points(1000, 100)


def test_criterion_01_closed_form_agreement():
    f = bidisk_witness()
    worst = max(
        abs(f.eval(MatrixTuple.scalars(x))[0, 0] - bidisk_witness_closed_form(*x))
        for x in POINTS_1000
    )
    ok = worst <= 1e-10
    assert report(1, ok, f"closed form agreement at 1000 points, max err {worst:.3e}")


def test_criterion_02_resolvent_formula():
    f = bidisk_witness()
    root2 = math.sqrt(2.0)
    worst = 0.0
    for x1, x2 in POINTS_1000:
        col = f.resolvent_term(MatrixTuple.scalars((x1, x2))).ravel()
        denom = x1 + x2 - 2.0
        want = root2 * np.array([(x2 - 1.0) / denom, (x1 - 1.0) / denom])
        worst = max(worst, float(np.max(np.abs(col - want))))
    ok = worst <= 1e-10
    assert report(2, ok, f"resolvent column formula at 1000 points, max err {worst:.3e}")


def test_criterion_03_first_difference_formula():
    f = bidisk_witness()
    worst = max(
        abs(delta_first(f, x, (1.0, 0.0)) - (x[1] - 1.0) / (x[0] + x[1] - 2.0))
        for x in POINTS_1000
    )
    ok = worst <= 1e-10
    assert report(3, ok, f"first difference formula at 1000 points, max err {worst:.3e}")


def test_criterion_04_blowup_witness():
    f = bidisk_witness()
    ok = True
    detail = []
    final = 0.0
    for eps in (0.1, 0.01, 0.001):
        x = corner_path(eps)
        ok = ok and membership(BALL, MatrixTuple.scalars(x)).is_inside
        got = abs(delta_first(f, x, (1.0, 0.0)))
        want = math.sqrt(0.25 + 0.25 / eps**2)
        ok = ok and abs(got - want) <= 0.01 * want
        detail.append(f"{got:.6g}")
        final = got
    ok = ok and final >= 400.0
    assert report(4, ok, f"first difference blows up along the path: {', '.join(detail)}")


def test_criterion_05_contractivity():
    f = bidisk_witness()
    rng = np.random.default_rng(101)
    margins = (0.5, 0.1, 0.01, 0.001)
    worst = 0.0
    for i in range(500):
        x = sample_in_ball(BALL, 1 + i % 4, margins[i % len(margins)], rng)
        worst = max(worst, float(np.linalg.norm(f.eval(x), 2)))
    best = estimate_sup(f, BALL, 1, 2000, 0).best_value
    ok = worst <= 1.0 + 1e-8 and 0.95 <= best <= 1.0 + 1e-6
    assert report(5, ok, f"contractive on 500 samples (max {worst:.9f}), sup estimate {best:.9f}")


def test_criterion_06_truncation_identity():
    f = bidisk_witness()
    rng = np.random.default_rng(102)
    worst = 0.0
    for i in range(100):
        x = sample_in_ball(BALL, 1 + i % 3, 0.3, rng)
        for order in (1, 2, 3):
            worst = max(worst, tt_check(f, x, order).defect)
    scalar_worst = 0.0
    for x in POINTS_1000[:100]:
        d1 = delta_first(f, x, (1.0, 0.0))
        d2 = delta_first(f, x, (0.0, 1.0))
        scalar_worst = max(scalar_worst, abs(x[0] * d1 + x[1] * d2 - scalar_eval(f, x)))
    ok = worst <= 1e-9 and scalar_worst <= 1e-12
    assert report(6, ok, f"truncation defect {worst:.3e}, scalar identity defect {scalar_worst:.3e}")


def jet_coefficient(f, word: tuple[int, ...]) -> complex:
    # brute-force oracle through evaluation at a shift-matrix jet
    k = len(word)
    if k == 0:
        return complex(f.eval(MatrixTuple.zeros(f.d, 1))[0, 0])
    entries = np.zeros((f.d, k + 1, k + 1), dtype=complex)
    for i, letter in enumerate(word):
        entries[letter - 1, i, i + 1] = 1.0
    return complex(f.eval(MatrixTuple(entries))[0, k])


def test_criterion_07_coefficient_oracle():
    f = bidisk_witness()
    worst = 0.0
    for k in range(5):
        for word in words_of_size(2, k):
            direct = f.power_series_coefficient(word)
            worst = max(worst, abs(direct - jet_coefficient(f, word)))
    frozen = {"1": 0.5, "2": 0.5, "11": 0.25, "22": 0.25, "12": -0.25, "21": -0.25}
    frozen_worst = max(
        abs(f.power_series_coefficient(_parse_word(text, 2)) - value)
        for text, value in frozen.items()
    )
    ok = worst <= 1e-12 and frozen_worst <= 1e-12
    assert report(7, ok, f"coefficients vs jet oracle {worst:.3e}, vs degree-2 table {frozen_worst:.3e}")


def test_criterion_08_nc_axioms():
    rng = np.random.default_rng(103)
    f = bidisk_witness()
    p = FreePolynomial(2, {
        (): 0.5 + 0.25j,
        (1,): 1.0,
        (1, 2): -0.75j,
        (2, 2, 1): 0.3 - 0.1j,
    })
    sum_worst = 0.0
    for _ in range(200):
        x = sample_in_ball(BALL, int(rng.integers(1, 4)), 0.4, rng)
        y = sample_in_ball(BALL, int(rng.integers(1, 4)), 0.4, rng)
        both = direct_sum(x, y)
        for target in (p.eval, f.eval):
            lhs = target(both)
            assembled = np.zeros((both.n, both.n), dtype=complex)
            assembled[: x.n, : x.n] = target(x)
            assembled[x.n :, x.n :] = target(y)
            sum_worst = max(sum_worst, float(np.max(np.abs(lhs - assembled))))
    sim_ok = True
    sim_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        x = sample_in_ball(BALL, n, 0.5, rng)
        s = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cond = float(np.linalg.cond(s))
        y = similarity(s, x)
        for target in (p.eval, f.eval):
            lhs = target(y)
            rhs = np.linalg.solve(s, target(x) @ s)
            gap = float(np.linalg.norm(lhs - rhs, 2))
            sim_worst = max(sim_worst, gap / cond)
            sim_ok = sim_ok and gap <= 1e-10 * cond
    ok = sum_worst == 0.0 and sim_ok
    assert report(8, ok, f"direct sums exact (max gap {sum_worst:.1e}), similarity gap/cond {sim_worst:.3e}")


def test_criterion_09_matrix_convexity():
    rng = np.random.default_rng(104)
    balls = [row_ball(2), row_ball(3), row_ball(4), polydisk(2), polydisk(3), polydisk(4)]
    ok = True
    for i in range(500):
        ball = balls[i % len(balls)]
        n = int(rng.integers(2, 5))
        x = sample_in_ball(ball, n, 0.2, rng)
        k = int(rng.integers(1, n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        compressed = ucp_compression(x, q[:, :k])
        ok = ok and membership(ball, compressed).is_inside
    factor_ok = True
    for ball in balls:
        samples = [sample_in_ball(ball, level, 0.1, rng) for level in (1, 2, 3, 4)]
        factor_ok = factor_ok and factor_two_check(ball, samples, 1.0)
    ok = ok and factor_ok
    assert report(9, ok, "compressions preserve membership (500 cases), factor-two bound holds")


def closed_form_euler_derivative(x1: complex, x2: complex) -> complex:
    """Ef = x1 df/dx1 + x2 df/dx2 of the closed form f = u/v, by the quotient rule."""
    u = 2.0 * x1 * x2 - x1 - x2
    v = x1 + x2 - 2.0
    d1 = ((2.0 * x2 - 1.0) * v - u) / v**2
    d2 = ((2.0 * x1 - 1.0) * v - u) / v**2
    return x1 * d1 + x2 * d2


def test_criterion_10_cesaro_rate():
    # f - sigma_N f = Ef/N - (1/N) sum_{k>N} (k - N) f_k, and |f_k(x)| <= r^k on
    # the bidisk of radius r = 0.5, so N (f - sigma_N f) - Ef is below
    # r^(N+1)/(1 - r)^2 (about 2e-18 at N = 60) plus rounding.
    f = bidisk_witness()
    points = [(0.5, 0.5)] + [
        (0.5 * z1, 0.5 * z2) for z1, z2 in disk_points(49, 105, radius=1.0)
    ]
    tol = 1e-9
    ok = True
    for n_terms in (30, 60, 120):
        defect = 0.0
        residual = 0.0
        for x in points:
            got = complex(f.cesaro_value(MatrixTuple.scalars(x), n_terms)[0, 0])
            gap = bidisk_witness_closed_form(*x) - got
            defect = max(defect, abs(gap))
            residual = max(residual, abs(n_terms * gap - closed_form_euler_derivative(*x)))
        ok = report(
            10,
            residual <= tol,
            f"Cesaro defect at N={n_terms} over ||x|| <= 0.5 is {defect:.3e}; "
            f"max |N (f - sigma_N f) - Ef| is {residual:.3e} (tol {tol:g})",
        ) and ok
    assert ok


def test_criterion_11_left_division():
    rng = np.random.default_rng(106)
    ok = True
    for i in range(100):
        d = 1 + i % 3
        order = 1 + (i // 3) % 4
        words = []
        for size in (order, order + 1):
            pool = list(words_of_size(d, size))
            take = min(len(pool), 4)
            words.extend(pool[j] for j in rng.choice(len(pool), take, replace=False))
        p = FreePolynomial(d, {w: complex(*rng.normal(size=2)) for w in words})
        quotients = left_divide(p, order)
        rebuilt = FreePolynomial.zero(d)
        for w, q in quotients.items():
            rebuilt = rebuilt + FreePolynomial(d, {w: 1.0}) * q
        ok = ok and rebuilt == p
    assert report(11, ok, "left division rebuilds 100 random high polynomials exactly")


def test_criterion_12_curve_pair():
    v1, v2, forward, backward = parabola_cubic_pair()
    rng = np.random.default_rng(107)
    ok = variety_membership(v1, MatrixTuple.scalars((0.5, 0.25)))
    ok = ok and not variety_membership(v1, MatrixTuple.scalars((0.5, 0.3)))
    witness = homogeneity_sample(v1, [MatrixTuple.scalars((0.5, 0.25))], lambdas=[0.5])
    ok = ok and not witness.holds and witness.defect == 0.0625
    worst = 0.0
    for n in (1, 2, 3, 4):
        t = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        t /= max(1.0, 2.0 * np.linalg.norm(t, 2))
        x = MatrixTuple(np.array([t, t @ t]))
        ok = ok and variety_membership(v1, x)
        image = apply_poly_map(forward, x)
        ok = ok and variety_membership(v2, image)
        back = apply_poly_map(backward, image)
        worst = max(worst, float(np.max(np.abs(back.entries - x.entries))))
        y = MatrixTuple(np.array([t, t @ t @ t]))
        there = apply_poly_map(forward, apply_poly_map(backward, y))
        worst = max(worst, float(np.max(np.abs(there.entries - y.entries))))
    ok = ok and worst <= 1e-12
    assert report(12, ok, f"curve memberships, lambda=1/2 witness, roundtrip err {worst:.3e}")


def test_criterion_13_two_coordinate_split():
    f = bidisk_witness()
    worst = 0.0
    g1_max = 0.0
    for x in POINTS_1000:
        g1, g2 = gleason_split(f, x)
        worst = max(worst, abs(g1 * x[0] + g2 * x[1] - scalar_eval(f, x)))
        g1_max = max(g1_max, abs(g1))
    ok = worst <= 1e-12 and g1_max <= 1.0
    assert report(13, ok, f"split identity defect {worst:.3e}, max |g1| = {g1_max:.6f}")


def test_criterion_14_dichotomy_cases():
    kinds = []
    for name in ("half", "identity", "boundary"):
        maps, source, target = builtin_dichotomy_case(name)
        kinds.append(dichotomy_scan(maps, source, target, 60, 0).kind)
    ok = kinds == ["AllInterior", "AllInterior", "AllBoundary"]
    assert report(14, ok, f"builtin cases classify as {'/'.join(kinds)}")


def test_criterion_15_byte_identical_reruns(tmp_path):
    pairs = []
    for name, argv in (
        ("probe", ["probe", "--realization", "ex52", "--budget", "150", "--seed", "7", "--out"]),
        ("blowup", ["blowup", "--target", "delta1:ex52", "--eps", "0.1,0.01", "--out"]),
    ):
        a, b = tmp_path / f"{name}_a.csv", tmp_path / f"{name}_b.csv"
        assert main(argv + [str(a)]) == 0
        assert main(argv + [str(b)]) == 0
        pairs.append(a.read_bytes() == b.read_bytes())
    ok = all(pairs)
    assert report(15, ok, "probe and blowup CSV reruns are byte-identical")
