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

from ncball import freealg, realize
from ncball.freealg import (
    BudgetExceededError,
    FreePolynomial,
    NCFunction,
    _monomials,
    homogeneous_component,
    left_divide,
    parse,
    words_of_size,
)
from ncball.mattuple import MatrixTuple, _seq_matmul, seq_solve_batch
from ncball.ncdiff import (
    TTReport,
    delta_first,
    gleason_split,
    pair_derivative,
    pair_point,
    tt_check,
)
from ncball.opball import polydisk, row_ball
from ncball.probe import corner_path, sample_in_ball
from ncball.realize import IllConditionedError, Realization, RemainderColumn, bidisk_witness, bidisk_witness_closed_form


def scalar_eval(f, point) -> complex:
    """f at a scalar (level-1) point."""
    return complex(f.eval(MatrixTuple.scalars(point))[0, 0])


def mobius_one_variable():
    # f(x) = x / (1 - x/2) on the disk
    return Realization(row_ball(1), 1, 0.0, [1.0], [1.0], [[0.5]])


words2 = st.lists(st.integers(1, 2), max_size=3).map(tuple)
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


def one_variable(coeffs) -> FreePolynomial:
    """p = sum_k c_k z^k, k = 1, 2, ..."""
    return FreePolynomial(1, {(1,) * k: c for k, c in enumerate(coeffs, 1)})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=5),
    st.complex_numbers(max_magnitude=0.99),
    st.complex_numbers(max_magnitude=0.99),
    st.booleans(),
)
def test_quotient_matches_the_symmetric_sum(coeffs, x, y, coalesced):
    # Dp(x, y)[1] = sum_k c_k sum_{i+j=k-1} x^i y^j, the derivative p'(x) where y = x;
    # each value is at most sum_k k |c_k| <= 15 in size: 1e-13 allows some 30 roundings at that size
    y = x if coalesced else y
    assert abs(pair_derivative(one_variable(coeffs), (x,), (y,), (1.0,)) - exact_quotient(coeffs, x, y)) <= 1e-13


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=5),
    st.complex_numbers(max_magnitude=0.9),
    st.floats(-13.0, -6.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_quotient_is_exact_at_every_separation(coeffs, x, log_separation, angle):
    y = x + 10.0**log_separation * cmath.exp(1j * angle)
    p = one_variable(coeffs)
    want = exact_quotient(coeffs, x, y)
    assert abs(pair_derivative(p, (x,), (y,), (1.0,)) - want) <= 1e-14
    # the quotient is symmetric in its two points
    assert abs(pair_derivative(p, (y,), (x,), (1.0,)) - want) <= 1e-14


def test_quotient_for_a_mobius_map():
    f = mobius_one_variable()
    x, y = 0.5, -0.3
    fx = x / (1 - x / 2)
    fy = y / (1 - y / 2)
    assert abs(pair_derivative(f, (x,), (y,), (1.0,)) - (fx - fy) / (x - y)) < 1e-12
    # derivative 1/(1 - x/2)^2 at the coalescence
    assert abs(pair_derivative(f, (x,), (x,), (1.0,)) - 1.0 / (1 - x / 2) ** 2) < 1e-12


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


def test_split_needs_exactly_two_coordinates():
    f = bidisk_witness()
    for x in ((0.1,), (0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match=rf"^gleason_split needs a point with 2 coordinates, got {len(x)}$"):
            gleason_split(f, x)


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
        for word in [tuple(rng.integers(1, 3, k)) for _ in range(3)]:
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


def ref_term_sum(values, terms, shape):
    """sum c values[w] over the (w, c) of terms, added to zeros of the shape one term at a time, in order."""
    out = np.zeros(shape, dtype=complex)
    for word, coeff in terms:
        out = out + coeff * values[word]
    return out


def ref_poly_value(p, xs):
    """sum_w c_w X^w at a stack, each term folded on its own and added to zeros in sorted_terms() order."""
    values = {w: ref_word_fold(xs, w) for w in p.terms}
    return ref_term_sum(values, p.sorted_terms(), (len(xs), *xs.shape[-2:]))


# kron-based references for a realization: every identity Kronecker product is
# formed explicitly (test_realize checks the library against them bit for bit)


def ref_pencil_eval(pencil, x):
    out = np.zeros((pencil.p * x.n, pencil.q * x.n), dtype=complex)
    for j in range(pencil.d):
        out += np.kron(pencil.coefficients[j], x.entries[j])
    return out


def ref_lam(f, x):
    return np.kron(np.eye(f.m), ref_pencil_eval(f.pencil, x))


def ref_resolvent(f, x):
    n = x.n
    t = np.eye(f.m * f.pencil.q * n, dtype=complex) - _seq_matmul(np.kron(f.D, np.eye(n)), ref_lam(f, x))
    return seq_solve_batch(t[None], np.kron(f.C.reshape(-1, 1), np.eye(n))[None])[0][0]


def ref_prefix_row(f, word):
    def letter(j):
        return np.kron(np.eye(f.m), f.pencil.coefficients[j - 1])

    row = f.B.reshape(1, -1) @ letter(word[0])
    for j in word[1:]:
        row = row @ f.D @ letter(j)
    return row


def ref_remainder_values(f, x, words):
    """g_w(X) = (row_w x I_n) R(X) for each word, with every identity Kronecker product formed."""
    res = ref_resolvent(f, x)
    return {w: _seq_matmul(np.kron(ref_prefix_row(f, w), np.eye(x.n)), res) for w in words}


def ref_tt_rhs(f, x, order):
    """The right side of the truncation identity, word by word."""
    rhs = np.zeros((x.n, x.n), dtype=complex)
    if isinstance(f, FreePolynomial):
        for k in range(order):
            rhs += ref_poly_value(homogeneous_component(f, k), x.entries[None])[0]
        high = FreePolynomial(f.d, {w: c for w, c in f.terms.items() if len(w) >= order})
        for word, quotient in (left_divide(high, order) if high else {}).items():
            if quotient:
                rhs += ref_word_fold(x.entries, word) @ ref_poly_value(quotient, x.entries[None])[0]
        return rhs
    for k in range(order):
        rhs += f.homogeneous_value(x, k)
    for word, g_w in ref_remainder_values(f, x, words_of_size(x.d, order)).items():
        rhs += ref_word_fold(x.entries, word) @ g_w
    return rhs


def test_tt_check_matches_the_word_by_word_sum_bitwise():
    rng = np.random.default_rng(26)
    x = sample_in_ball(polydisk(2), 3, 0.3, rng)
    witness = bidisk_witness()
    terms = {tuple(rng.integers(1, 3, k)): complex(*rng.normal(size=2)) for k in range(7) for _ in range(5)}
    poly = FreePolynomial(2, terms)
    for f in (witness, poly):
        for order in (1, 3, 5):
            report = tt_check(f, x, order)
            want = ref_tt_rhs(f, x, order)
            assert report.rhs.tobytes() == want.tobytes()
            assert report.defect == float(np.linalg.norm(f.eval(x) - want, 2))


def random_contraction(rng, d):
    """A contraction-mode realization over the polydisk or the row ball in d variables, m = 2."""
    pencil = polydisk(d) if rng.integers(2) else row_ball(d)
    mp, mq = 2 * pencil.p, 2 * pencil.q
    b, c, dmat = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for shape in (mp, mq, (mq, mp)))
    return Realization(pencil, 2, complex(*rng.normal(size=2)), b, c, 0.9 * dmat / np.linalg.norm(dmat, 2))


def random_poly(rng, d, order):
    """Up to 12 random complex terms of size <= order + 2, some below the order and some at or above it."""
    sizes = rng.integers(0, order + 3, rng.integers(1, 13))
    return FreePolynomial(d, {tuple(rng.integers(1, d + 1, k)): complex(*rng.normal(size=2)) for k in sizes})


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
    x = sample_in_ball(f.pencil, level, 0.5, rng)
    assert tt_check(f, x, order).rhs.tobytes() == ref_tt_rhs(f, x, order).tobytes()


@settings(max_examples=40, deadline=None)
@given(TAIL_CASES)
def test_tt_check_tail_of_a_polynomial_is_the_word_by_word_sum_bitwise(case):
    d, level, order, seed = case
    rng = np.random.default_rng(seed)
    p = random_poly(rng, d, order)
    x = sample_in_ball(polydisk(d), level, 0.5, rng)
    assert tt_check(p, x, order).rhs.tobytes() == ref_tt_rhs(p, x, order).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_stacked_quotient_products_are_the_per_head_products_bitwise(level, order, seed):
    # the tail's X^w f_w(X) come from one stacked product of all heads; each slice must have the bits of the 2-D
    # product at every level, including those past the hypothesis cases above
    rng = np.random.default_rng(seed)
    p = random_poly(rng, 2, order)
    x = sample_in_ball(polydisk(2), level, 0.5, rng)
    assert tt_check(p, x, order).rhs.tobytes() == ref_tt_rhs(p, x, order).tobytes()


def count_constructions(fn):
    """fn() and the number of FreePolynomial objects it built, trusted polynomial builds included."""
    counts = {"polys": 0}
    poly_init, trusted_poly = FreePolynomial.__post_init__, FreePolynomial._trusted.__func__

    def counted(key, original):
        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        return wrapper

    with mock.patch.object(FreePolynomial, "__post_init__", counted("polys", poly_init)), mock.patch.object(
        FreePolynomial, "_trusted", classmethod(counted("polys", trusted_poly))
    ):
        result = fn()
    return result, counts


def test_tt_check_builds_quotients_only_for_the_heads_present_bitwise():
    x = MatrixTuple.scalars((0.5, 0.4))
    found = "z1^16 + 0.5*z2*z1^15 + z1*z2"  # two terms of size 16 under 2^16 heads
    walked = []
    for text in (found, found + " + 0.25*z2^16", found + " + 0.25*z2^16 - z1*z2*z1^14"):
        p = parse(text, 2)
        with mock.patch.object(freealg, "_word_values", side_effect=freealg._word_values) as walk:
            report, counts = count_constructions(lambda: tt_check(p, x, 16))
        assert report.rhs.tobytes() == ref_tt_rhs(p, x, 16).tobytes()
        # a quotient and a size below 16 are spans of p's own terms: no polynomial is built for either
        assert counts["polys"] == 0
        walked.append(set(walk.call_args.args[1]))
    # p's terms, the heads present (here the high terms themselves) and their one tail, the empty word:
    # each high term adds one word to the walk, none of the 2^16 absent heads is walked
    assert [len(words) for words in walked] == [4, 5, 6] and () in walked[0]


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
        with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^1000000000 words exceed the budget"):
            tt_check(f, x, 10**9)


def test_tt_check_raises_the_wrong_d_then_the_points_error_then_the_budget():
    # at an order past the word budget, the wrong d and then the point's own evaluation error come first:
    # the resolvent is solved before any word is walked
    f = bidisk_witness()
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        with pytest.raises(IllConditionedError, match="condition number inf"):
            tt_check(f, MatrixTuple.scalars((1.0, 1.0)), 10**9)
        with pytest.raises(ValueError, match="d=2 variables evaluated at a 3-tuple"):
            tt_check(f, MatrixTuple.scalars((1.0, 1.0, 1.0)), 10**9)


def test_tt_check_refuses_a_bad_tol_before_evaluating():
    f = bidisk_witness()
    x = MatrixTuple.scalars((0.5, 0.5))
    with mock.patch.object(Realization, "_resolvent", side_effect=AssertionError("evaluated")):
        for tol in (float("nan"), float("inf"), -1e-9, True, np.True_):
            with pytest.raises(ValueError, match=f"tol must be a finite number >= 0, got {tol}$"):
                tt_check(f, x, 2, tol=tol)
    assert tt_check(f, x, 2, tol=0.0).tol == 0.0


def test_tt_check_solves_once_walks_once_and_never_calls_eval():
    x = MatrixTuple.scalars((0.5, 0.4))
    f, p = bidisk_witness(), parse("z1*z2 - 0.5*z2^3 + z1^4 + 0.25", 2)
    with mock.patch.object(NCFunction, "eval", side_effect=AssertionError("eval called")):
        with mock.patch.object(Realization, "_resolvent", autospec=True, side_effect=Realization._resolvent) as solve:
            with mock.patch.object(realize, "_pencil_values", side_effect=realize._pencil_values) as lift:
                report = tt_check(f, x, 6)
        # one solve, and one lift of the point: the resolvent's product by [B; D] x I_n also gives the f_k
        assert solve.call_count == 1 and lift.call_count == 1 and report.passed
        with mock.patch.object(freealg, "_word_values", side_effect=freealg._word_values) as walk:
            report = tt_check(p, x, 2)
        assert walk.call_count == 1 and report.passed


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
        tt_check(RemainderColumn(f, 1), x, 1)
    # an object that is no nc function gets the same TypeError, before the order is read
    for bad in ("f", None):
        with pytest.raises(TypeError, match=f"polynomials and realizations, got {type(bad).__name__}$"):
            tt_check(bad, x, 0)
    with pytest.raises(ValueError, match="d=3 variables evaluated at"):
        tt_check(parse("z1", 3), x, 1)


def test_tt_check_order_must_be_an_integer():
    # a float order is never reached by a walk, and a bool would run as 1: refused by name before any walk
    x = MatrixTuple.scalars((0.1, 0.1))
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        for f in (bidisk_witness(), parse("z1*z2", 2)):
            for order, shown in ((2.5, "2.5"), (True, "True")):
                with pytest.raises(ValueError, match=rf"^order must be an integer, got {shown}$"):
                    tt_check(f, x, order)


def test_scalar_reconstruction_from_first_differences():
    # f(x) = x1 D1 + x2 D2 with D_j = Df(0, x)[e_j], since f(0) = 0
    f = bidisk_witness()
    rng = np.random.default_rng(26)
    for _ in range(100):
        x = tuple(complex(*pair) for pair in rng.uniform(-0.7, 0.7, (2, 2)))
        d1 = delta_first(f, x, (1.0, 0.0))
        d2 = delta_first(f, x, (0.0, 1.0))
        assert abs(x[0] * d1 + x[1] * d2 - scalar_eval(f, x)) < 1e-12
