"""Block-evaluation calculus: first differences, quotients, truncation checks."""

import cmath
import functools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncball.freealg import BudgetExceededError, FreePolynomial, Word, homogeneous_component, left_divide, parse, words_of_size
from ncball.mattuple import MatrixTuple, _monomials
from ncball.ncdiff import (
    TTReport,
    d1_difference_quotient,
    delta_first,
    gleason_split,
    pair_derivative,
    pair_point,
    scalar_eval,
    tt_check,
)
from ncball.opball import OperatorBall, polydisk, row_ball
from ncball.probe import corner_path, sample_in_ball
from ncball.realize import Realization, RemainderFactor, bidisk_witness, bidisk_witness_closed_form


def mobius_one_variable():
    # f(x) = x / (1 - x/2) on the disk
    return Realization(row_ball(1).pencil, 1, 0.0, [1.0], [1.0], [[0.5]])


words2 = st.builds(
    Word,
    st.lists(st.integers(1, 2), max_size=3).map(tuple),
    st.just(2),
)
int_polys2 = st.dictionaries(words2, st.integers(-5, 5), max_size=6).map(
    lambda terms: FreePolynomial(2, terms)
)
int_points2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


# ---------------------------------------------------------------------------
# block structure


def test_pair_point_structure():
    x = pair_point((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))
    assert x.d == 2 and x.n == 2
    np.testing.assert_array_equal(x.entries[0], [[1.0, 5.0], [0.0, 3.0]])
    np.testing.assert_array_equal(x.entries[1], [[2.0, 6.0], [0.0, 4.0]])
    with pytest.raises(ValueError, match="length mismatch"):
        pair_point((1.0,), (2.0, 3.0), (4.0,))


def test_block_evaluation_is_triangular():
    f = bidisk_witness()
    p = parse("z1*z2 + 3*z2 - z1^2", 2)
    a, b, h = (0.3, -0.1), (0.2j, 0.4), (1.0, -2.0)
    x = pair_point(a, b, h)
    for g in (f, p):
        out = g.eval(x)
        assert abs(out[0, 0] - scalar_eval(g, a)) < 1e-14
        assert abs(out[1, 1] - scalar_eval(g, b)) < 1e-14
        assert abs(out[1, 0]) < 1e-14


# ---------------------------------------------------------------------------
# first differences


def test_delta_of_monomials():
    x, h = (0.3, -0.7), (2.0, 5.0)
    assert abs(delta_first(parse("z1", 2), x, h) - h[0]) < 1e-15
    assert abs(delta_first(parse("z2", 2), x, h) - h[1]) < 1e-15
    assert abs(delta_first(parse("z1*z2", 2), x, h) - h[0] * x[1]) < 1e-14
    assert abs(delta_first(parse("z1^2", 2), x, h) - h[0] * x[0]) < 1e-14


def test_delta_of_witness_at_origin_gives_coefficients():
    f = bidisk_witness()
    assert abs(delta_first(f, (0.0, 0.0), (1.0, 0.0)) - 0.5) < 1e-12
    assert abs(delta_first(f, (0.0, 0.0), (0.0, 1.0)) - 0.5) < 1e-12


def test_delta_blows_up_along_the_corner_path():
    # f itself stays below 1 there, so the first difference is genuinely
    # unbounded even though the function is.
    f = bidisk_witness()
    for eps in (0.1, 0.01, 0.001):
        x = corner_path(eps)
        assert abs(bidisk_witness_closed_form(*x)) < 1.0
        got = delta_first(f, x, (1.0, 0.0))
        assert abs(got - (0.5 + 0.5j / eps)) < 1e-9 / eps
    assert abs(delta_first(f, corner_path(0.1), (1.0, 0.0))) > 5.0


def test_delta_is_linear_in_the_direction():
    f = bidisk_witness()
    rng = np.random.default_rng(20)
    for _ in range(50):
        x = tuple(complex(*pair) for pair in rng.uniform(-0.6, 0.6, (2, 2)))
        h = tuple(complex(*pair) for pair in rng.uniform(-1, 1, (2, 2)))
        k = tuple(complex(*pair) for pair in rng.uniform(-1, 1, (2, 2)))
        alpha, beta = complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))
        combo = tuple(alpha * hj + beta * kj for hj, kj in zip(h, k))
        lhs = delta_first(f, x, combo)
        rhs = alpha * delta_first(f, x, h) + beta * delta_first(f, x, k)
        assert abs(lhs - rhs) < 1e-12


def test_pair_derivative_matches_central_difference():
    f = bidisk_witness()
    a = (0.3, -0.2)
    h = (0.7, 0.4)
    t = 1e-6
    got = pair_derivative(f, a, a, h)
    plus = bidisk_witness_closed_form(a[0] + t * h[0], a[1] + t * h[1])
    minus = bidisk_witness_closed_form(a[0] - t * h[0], a[1] - t * h[1])
    assert abs(got - (plus - minus) / (2 * t)) < 1e-8


def test_telescoping_identity_for_the_witness():
    # f(b) - f(a) = Df(a, b)[b - a]
    f = bidisk_witness()
    rng = np.random.default_rng(21)
    for _ in range(50):
        a = tuple(complex(*pair) for pair in rng.uniform(-0.6, 0.6, (2, 2)))
        b = tuple(complex(*pair) for pair in rng.uniform(-0.6, 0.6, (2, 2)))
        step = tuple(bj - aj for aj, bj in zip(a, b))
        lhs = scalar_eval(f, b) - scalar_eval(f, a)
        assert abs(pair_derivative(f, a, b, step) - lhs) < 1e-12


@settings(max_examples=150)
@given(int_polys2, int_points2, int_points2)
def test_telescoping_identity_is_exact_for_integer_polynomials(p, a, b):
    step = tuple(bj - aj for aj, bj in zip(a, b))
    lhs = scalar_eval(p, b) - scalar_eval(p, a)
    assert pair_derivative(p, a, b, step) == lhs


# ---------------------------------------------------------------------------
# one-variable difference quotients


def test_quotient_for_a_square():
    p = parse("z1^2", 1)
    assert abs(d1_difference_quotient(p, 0.7, 0.2) - 0.9) < 1e-14
    # at coalesced points the block form is the derivative 2x
    assert d1_difference_quotient(p, 0.4, 0.4) == 0.8
    near = 0.4 + 1e-13
    assert abs(d1_difference_quotient(p, 0.4, near) - (0.4 + near)) < 1e-13


def exact_quotient(coeffs, x, y) -> complex:
    """sum_k c_k (x^k - y^k)/(x - y) for p = sum_k c_k z^k (k >= 1), in rationals."""

    def frac(z):
        return (Fraction(z.real), Fraction(z.imag))

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    xf, yf = frac(x), frac(y)
    total = (Fraction(0), Fraction(0))
    h = y_power = (Fraction(1), Fraction(0))  # h = sum_{i+j=k-1} x^i y^j
    for c in coeffs:
        term = mul(frac(c), h)
        total = (total[0] + term[0], total[1] + term[1])
        y_power = mul(y_power, yf)
        xh = mul(xf, h)
        h = (xh[0] + y_power[0], xh[1] + y_power[1])
    return complex(float(total[0]), float(total[1]))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=5),
    st.complex_numbers(max_magnitude=0.9),
    st.floats(-13.0, -6.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_quotient_is_exact_at_every_separation(coeffs, x, log_separation, angle):
    y = x + 10.0**log_separation * cmath.exp(1j * angle)
    p = FreePolynomial(1, {Word((1,) * k, 1): c for k, c in enumerate(coeffs, 1)})
    want = exact_quotient(coeffs, x, y)
    assert abs(d1_difference_quotient(p, x, y) - want) <= 1e-14
    # the quotient is symmetric in its two points
    assert abs(d1_difference_quotient(p, y, x) - want) <= 1e-14


def test_quotient_for_a_mobius_map():
    f = mobius_one_variable()
    x, y = 0.5, -0.3
    fx = x / (1 - x / 2)
    fy = y / (1 - y / 2)
    assert abs(d1_difference_quotient(f, x, y) - (fx - fy) / (x - y)) < 1e-12
    # derivative 1/(1 - x/2)^2 at the coalescence
    assert abs(d1_difference_quotient(f, x, x) - 1.0 / (1 - x / 2) ** 2) < 1e-12


# ---------------------------------------------------------------------------
# the two-coordinate split


def test_split_of_the_witness_has_bounded_first_factor():
    f = bidisk_witness()
    rng = np.random.default_rng(22)
    for _ in range(100):
        x = tuple(complex(*pair) for pair in rng.uniform(-0.7, 0.7, (2, 2)))
        g1, g2 = gleason_split(f, x)
        assert abs(g1 - 1.0 / (2.0 - x[0])) < 1e-12
        assert abs(g1) <= 1.0
        total = f.A + g1 * x[0] + g2 * x[1]
        assert abs(total - scalar_eval(f, x)) < 1e-12


def test_split_coalescence_paths():
    f = bidisk_witness()
    # x2 = 0: g2 becomes the partial derivative 2(x1-1)^2/(x1-2)^2
    for x1 in (0.5, -0.3 + 0.2j, 0.0):
        g1, g2 = gleason_split(f, (x1, 0.0))
        assert abs(g2 - 2.0 * (x1 - 1.0) ** 2 / (x1 - 2.0) ** 2) < 1e-12
    # x1 = 0: g1 becomes the first coefficient
    g1, _ = gleason_split(f, (0.0, 0.5))
    assert abs(g1 - 0.5) < 1e-12


def test_split_works_for_polynomials():
    p = parse("1 + 2*z1 + z2*z1 - 3*z2^2", 2)
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = tuple(complex(*pair) for pair in rng.uniform(-1, 1, (2, 2)))
        g1, g2 = gleason_split(p, x)
        want = scalar_eval(p, x) - scalar_eval(p, (0.0, 0.0))
        assert abs(g1 * x[0] + g2 * x[1] - want) < 1e-12


# ---------------------------------------------------------------------------
# truncation identity checks


def test_tt_check_polynomial_is_exact_on_dyadic_data():
    p = parse("z1*z2 - z2*z1 + 2*z1^3 - z2", 2)
    x = MatrixTuple([[[0.5, 0.25], [0.0, -0.5]], [[1.0, 0.0], [0.5, -0.25]]])
    for order in (1, 2, 3, 4, 5):
        report = tt_check(p, x, order)
        assert report.defect == 0.0
        assert report.passed


def test_tt_check_polynomial_random_coefficients():
    rng = np.random.default_rng(24)
    terms = {}
    for k in range(4):
        for word in [Word(tuple(rng.integers(1, 3, k)), 2) for _ in range(3)]:
            terms[word] = complex(*rng.normal(size=2))
    p = FreePolynomial(2, terms)
    x = sample_in_ball(polydisk(2), 3, 0.4, rng)
    for order in (1, 2, 6):
        assert tt_check(p, x, order).defect < 1e-12


def test_tt_check_realization_across_levels():
    f = bidisk_witness()
    rng = np.random.default_rng(25)
    worst = 0.0
    for level in (1, 2, 3):
        for _ in range(10):
            x = sample_in_ball(polydisk(2), level, 0.2, rng)
            for order in (1, 2, 3):
                report = tt_check(f, x, order)
                assert report.passed and report.tol == 1e-9
                worst = max(worst, report.defect)
    assert worst < 1e-12


def ref_word_fold(xs, letters):
    """X^w at a point or a stack, folded letter by letter from I_n with the step of the word walk."""
    root, step = _monomials(xs)
    return functools.reduce(step, letters, root)[0]


def ref_poly_value(p, xs):
    """sum_w c_w X^w at a stack, each term folded on its own and added to zeros in sorted_terms() order."""
    out = np.zeros((len(xs), *xs.shape[-2:]), dtype=complex)
    for word, coeff in p.sorted_terms():
        out = out + coeff * ref_word_fold(xs, word.letters)
    return out


def ref_tt_rhs(f, x, order):
    """The right side of the truncation identity, word by word."""
    rhs = np.zeros((x.n, x.n), dtype=complex)
    if isinstance(f, FreePolynomial):
        for k in range(order):
            rhs += ref_poly_value(homogeneous_component(f, k), x.entries[None])[0]
        high = FreePolynomial(f.d, {w: c for w, c in f.terms.items() if len(w) >= order})
        for word, quotient in (left_divide(high, order) if high else {}).items():
            if quotient:
                rhs += ref_word_fold(x.entries, word.letters) @ ref_poly_value(quotient, x.entries[None])[0]
        return rhs
    for k in range(order):
        rhs += f.homogeneous_value(x, k)
    for word in words_of_size(x.d, order):
        rhs += ref_word_fold(x.entries, word.letters) @ RemainderFactor(f, word).eval(x)
    return rhs


def test_tt_check_matches_the_word_by_word_sum_bitwise():
    rng = np.random.default_rng(26)
    x = sample_in_ball(polydisk(2), 3, 0.3, rng)
    witness = bidisk_witness()
    terms = {Word(tuple(rng.integers(1, 3, k)), 2): complex(*rng.normal(size=2)) for k in range(7) for _ in range(5)}
    poly = FreePolynomial(2, terms)
    for f in (witness, poly):
        for order in (1, 3, 5):
            report = tt_check(f, x, order)
            want = ref_tt_rhs(f, x, order)
            assert report.rhs.tobytes() == want.tobytes()
            assert report.defect == float(np.linalg.norm(f.eval(x) - want, 2))


def random_contraction(rng, d):
    """A contraction-mode realization over the polydisk or the row ball in d variables, m = 2."""
    pencil = (polydisk(d) if rng.integers(2) else row_ball(d)).pencil
    mp, mq = 2 * pencil.p, 2 * pencil.q
    b, c, dmat = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in (mp, mq, (mq, mp)))
    return Realization(pencil, 2, complex(*rng.normal(size=2)), b, c, 0.9 * dmat / np.linalg.norm(dmat, 2))


def random_poly(rng, d, order):
    """Up to 12 random complex terms of size <= order + 2, some below the order and some at or above it."""
    sizes = rng.integers(0, order + 3, rng.integers(1, 13))
    return FreePolynomial(d, {Word(tuple(rng.integers(1, d + 1, k)), d): complex(*rng.normal(size=2)) for k in sizes})


# d^N per-word remainder factors at most: 3^8 of them would take seconds per example
TAIL_CASES = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(1, 3), st.integers(1, 8 if d < 3 else 5), st.integers(0, 2**32 - 1))
)


@settings(max_examples=25, deadline=None)
@given(TAIL_CASES)
def test_tt_check_tail_of_a_contraction_is_the_word_by_word_sum_bitwise(case):
    d, level, order, seed = case
    rng = np.random.default_rng(seed)
    f = random_contraction(rng, d)
    x = sample_in_ball(OperatorBall(f.pencil), level, 0.5, rng)
    assert tt_check(f, x, order).rhs.tobytes() == ref_tt_rhs(f, x, order).tobytes()


@settings(max_examples=40, deadline=None)
@given(TAIL_CASES)
def test_tt_check_tail_of_a_polynomial_is_the_word_by_word_sum_bitwise(case):
    d, level, order, seed = case
    rng = np.random.default_rng(seed)
    p = random_poly(rng, d, order)
    x = sample_in_ball(polydisk(d), level, 0.5, rng)
    assert tt_check(p, x, order).rhs.tobytes() == ref_tt_rhs(p, x, order).tobytes()


def count_constructions(fn):
    """fn() and the number of FreePolynomial and Word objects it built, trusted builds included."""
    counts = {"polys": 0, "words": 0}
    poly_init, word_init, trusted = FreePolynomial.__post_init__, Word.__post_init__, Word._trusted.__func__
    trusted_poly = FreePolynomial._trusted.__func__

    def counted(key, original):
        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        return wrapper

    with mock.patch.object(FreePolynomial, "__post_init__", counted("polys", poly_init)), mock.patch.object(
        FreePolynomial, "_trusted", classmethod(counted("polys", trusted_poly))
    ), mock.patch.object(Word, "__post_init__", counted("words", word_init)), mock.patch.object(
        Word, "_trusted", classmethod(counted("words", trusted))
    ):
        result = fn()
    return result, counts


def test_tt_check_builds_quotients_only_for_the_heads_present_bitwise():
    x = MatrixTuple.scalars((0.5, 0.4))
    found = "z1^16 + 0.5*z2*z1^15 + z1*z2"  # two terms of size 16 under 2^16 heads
    built = []
    for text in (found, found + " + 0.25*z2^16", found + " + 0.25*z2^16 - z1*z2*z1^14"):
        p = parse(text, 2)
        report, counts = count_constructions(lambda: tt_check(p, x, 16))
        assert report.rhs.tobytes() == ref_tt_rhs(p, x, 16).tobytes()
        built.append(counts)
    # each high term adds one quotient and one tail word; the rest is one component per size below 16
    assert [c["polys"] - built[0]["polys"] for c in built] == [0, 1, 2]
    assert [c["words"] - built[0]["words"] for c in built] == [0, 1, 2]
    assert built[0]["polys"] == 16 + 2 and built[0]["words"] == 2


def test_tt_check_charges_the_budget_where_its_words_are_walked():
    x = MatrixTuple.scalars((0.5, 0.4))
    # a polynomial walks only the prefixes of its terms: 17 steps of one word, past any d^N rule
    p = parse("z1^17", 2)
    report = tt_check(p, x, 17)
    assert report.passed and report.rhs.tobytes() == ref_tt_rhs(p, x, 17).tobytes()
    assert tt_check(p, x, 10**6).passed  # no size above the degree is summed
    # a realization walks all 2^0 + ... + 2^N words: N = 18 fits the budget, N = 19 does not
    f = bidisk_witness()
    assert tt_check(f, x, 18).passed
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")), mock.patch.object(
        Realization, "_homogeneous_terms", side_effect=AssertionError("summed")
    ):
        with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^19 words exceed the budget 1000000"):
            tt_check(f, x, 19)


def test_tt_check_report_fields():
    f = bidisk_witness()
    x = MatrixTuple.scalars((0.5, 0.5))
    report = tt_check(f, x, 2, tol=1e-6)
    assert isinstance(report, TTReport)
    assert report.lhs.shape == (1, 1) and report.rhs.shape == (1, 1)
    assert report.defect == pytest.approx(abs(report.lhs[0, 0] - report.rhs[0, 0]), abs=1e-15)


def test_tt_check_validation():
    f = bidisk_witness()
    x = MatrixTuple.scalars((0.1, 0.1))
    with pytest.raises(ValueError, match="order must be >= 1"):
        tt_check(f, x, 0)
    with pytest.raises(BudgetExceededError, match="exceed the budget"):
        tt_check(f, x, 40)
    with pytest.raises(TypeError, match="polynomials and realizations"):
        tt_check(f.remainder_factor(Word((1,), 2)), x, 1)
    with pytest.raises(ValueError, match="d=3 variables evaluated at"):
        tt_check(parse("z1", 3), x, 1)


def test_scalar_reconstruction_from_first_differences():
    # f(x) = x1 D1 + x2 D2 with D_j = Df(0, x)[e_j], since f(0) = 0
    f = bidisk_witness()
    rng = np.random.default_rng(26)
    for _ in range(100):
        x = tuple(complex(*pair) for pair in rng.uniform(-0.7, 0.7, (2, 2)))
        d1 = delta_first(f, x, (1.0, 0.0))
        d2 = delta_first(f, x, (0.0, 1.0))
        assert abs(x[0] * d1 + x[1] * d2 - scalar_eval(f, x)) < 1e-12
