"""Words, free polynomials, parsing, Cesaro weights, left division."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncball.freealg import (
    BudgetExceededError,
    FreePolynomial,
    PolyParseError,
    Word,
    cesaro_sum,
    compose,
    format_poly,
    from_triples,
    homogeneous_component,
    left_divide,
    parse,
    to_triples,
    words_of_size,
)

MAX_D = 3


def z(j, d=2):
    return FreePolynomial.generator(d, j)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def words(draw, d):
    k = draw(st.integers(0, 4))
    return Word(tuple(draw(st.integers(1, d)) for _ in range(k)), d)


@st.composite
def int_polys(draw, d=None):
    """Integer coefficients keep every ring operation exact in floats."""
    if d is None:
        d = draw(st.integers(1, MAX_D))
    terms = draw(st.dictionaries(words(d), st.integers(-9, 9), max_size=6))
    return FreePolynomial(d, terms)


@st.composite
def complex_polys(draw, d=None):
    if d is None:
        d = draw(st.integers(1, MAX_D))
    coeffs = st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6)
    terms = draw(st.dictionaries(words(d), coeffs, max_size=6))
    return FreePolynomial(d, terms)


# ---------------------------------------------------------------------------
# words


def test_word_concatenation_and_length():
    u = Word((1, 2), 2)
    v = Word((2,), 2)
    assert len(u) == 2
    assert (u * v).letters == (1, 2, 2)
    with pytest.raises(ValueError, match="different alphabets"):
        u * Word((1,), 3)


def test_word_rejects_letters_outside_alphabet():
    with pytest.raises(ValueError, match="outside alphabet"):
        Word((3,), 2)
    with pytest.raises(ValueError, match="d must be >= 1"):
        Word((), 0)


def test_word_string_round_trip():
    w = Word((1, 2, 1), 2)
    assert w.to_string() == "121"
    assert Word.from_string("121", 2) == w
    assert Word.from_string("", 2) == Word((), 2)
    wide = Word((1, 11, 3), 11)
    assert wide.to_string() == "1-11-3"
    assert Word.from_string("1-11-3", 11) == wide


def test_words_of_size_is_length_lex():
    got = [w.letters for w in words_of_size(2, 2)]
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(words_of_size(3, 3))) == 27


@given(st.integers(1, 3), st.data())
def test_sort_key_orders_by_length_then_lex(d, data):
    u = data.draw(words(d))
    v = data.draw(words(d))
    if len(u) != len(v):
        assert (u.sort_key() < v.sort_key()) == (len(u) < len(v))
    else:
        assert (u.sort_key() < v.sort_key()) == (u.letters < v.letters)


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_hand_expanded_products():
    one = FreePolynomial.constant(2, 1.0)
    p = (one + z(1)) * (one - z(2))
    assert p == parse("1 + z1 - z2 - z1*z2", 2)
    q = (z(1) + z(2)) ** 2
    assert q == parse("z1^2 + z1*z2 + z2*z1 + z2^2", 2)


def test_noncommutativity_is_respected():
    assert z(1) * z(2) != z(2) * z(1)
    commutator = z(1) * z(2) - z(2) * z(1)
    assert commutator.coefficient(Word((1, 2), 2)) == 1
    assert commutator.coefficient(Word((2, 1), 2)) == -1


def test_zero_coefficients_are_dropped():
    p = z(1) - z(1)
    assert not p
    assert p.degree == -1
    assert p == FreePolynomial.zero(2)
    assert format_poly(p) == "0"


def test_degree_and_coefficient_lookup():
    p = parse("2 + z1*z2^2", 2)
    assert p.degree == 3
    assert p.coefficient(Word((), 2)) == 2
    assert p.coefficient(Word((1, 2, 2), 2)) == 1
    assert p.coefficient(Word((2,), 2)) == 0


def test_scalar_multiplication_and_power():
    p = 2 * z(1) * 3
    assert p.coefficient(Word((1,), 2)) == 6
    assert z(1) ** 0 == FreePolynomial.constant(2, 1.0)
    with pytest.raises(ValueError, match="nonnegative integer"):
        z(1) ** -1


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        z(1, d=2) + z(1, d=3)


def test_polynomial_is_immutable_and_hashable():
    p = z(1)
    with pytest.raises(AttributeError):
        p.d = 3
    assert hash(p) == hash(FreePolynomial.generator(2, 1))


@given(int_polys(d=2), int_polys(d=2), int_polys(d=2))
def test_ring_laws_exact_on_integer_coefficients(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (q + r) * p == q * p + r * p
    assert p + q == q + p
    assert p - p == FreePolynomial.zero(2)


@given(int_polys(d=2), int_polys(d=2))
def test_degree_of_product_adds(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(complex_polys())
def test_homogeneous_components_partition(p):
    total = FreePolynomial.zero(p.d)
    for k in range(p.degree + 1):
        part = homogeneous_component(p, k)
        assert all(len(w) == k for w in part.terms)
        total = total + part
    assert total == p


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_forms():
    assert parse("3", 1) == FreePolynomial.constant(1, 3.0)
    assert parse("i", 1) == FreePolynomial.constant(1, 1j)
    assert parse("2.5i", 1) == FreePolynomial.constant(1, 2.5j)
    assert parse("1+2i", 1) == FreePolynomial.constant(1, 1 + 2j)
    assert parse("z2", 3) == FreePolynomial.generator(3, 2)
    assert parse("2^3", 1) == FreePolynomial.constant(1, 8.0)
    assert parse("z1^0", 1) == FreePolynomial.constant(1, 1.0)


def test_parse_precedence_and_signs():
    assert parse("-z1^2", 1) == -(z(1, 1) ** 2)
    assert parse("--z1", 1) == z(1, 1)
    assert parse("1 - 2*z1", 1) == FreePolynomial.constant(1, 1.0) - 2 * z(1, 1)
    assert parse("(z1+z2)*(z1-z2)", 2) == (z(1) + z(2)) * (z(1) - z(2))
    # ^ binds tighter than *: z1*z2^2 is z1*(z2*z2)
    assert parse("z1*z2^2", 2) == z(1) * z(2) * z(2)


def test_parse_powers_do_not_commute_inside():
    assert parse("(z1*z2)^2", 2) == z(1) * z(2) * z(1) * z(2)


def test_parse_error_positions():
    with pytest.raises(PolyParseError, match=r"operator is required.*position 3"):
        parse("z1 z2", 2)
    with pytest.raises(PolyParseError, match=r"outside z1\.\.z2.*position 0"):
        parse("z3", 2)
    with pytest.raises(PolyParseError, match=r"negative exponent.*position 3"):
        parse("z1^-2", 2)
    with pytest.raises(PolyParseError, match="nonnegative integer"):
        parse("z1^1.5", 2)
    with pytest.raises(PolyParseError, match=r"expected '\)'"):
        parse("(z1", 2)
    with pytest.raises(PolyParseError, match="end of input"):
        parse("", 2)
    with pytest.raises(PolyParseError, match="z followed by an index"):
        parse("z", 2)
    with pytest.raises(PolyParseError, match="unexpected character"):
        parse("z1 # z2", 2)
    err = None
    try:
        parse("z1*z9", 3)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.position == 3


def test_parse_rejects_juxtaposed_number_and_variable():
    with pytest.raises(PolyParseError, match="operator is required"):
        parse("2z1", 2)


def coefficient_bits(p):
    """The terms in dict order, with the exact bits of each coefficient."""
    return [(w.letters, repr(c.real), repr(c.imag)) for w, c in p.terms.items()]


def test_parse_sums_match_repeated_addition_bitwise():
    # (first term, [(sign, term), ...]); the reference folds the parsed terms
    # with FreePolynomial's + and -, one new polynomial per term
    cases = [
        ("z1", [("-", "z1"), ("+", "z1")]),
        ("z1", [("+", "z2"), ("-", "z1"), ("+", "z1")]),
        ("(1-0i)", [("-", "(1+0i)"), ("+", "0.5")]),
        ("z1*z2", [("+", "z2"), ("-", "z1*z2"), ("-", "z2"), ("+", "z1*z2"), ("+", "-0.0")]),
    ]
    rng = random.Random(41)
    coeffs = ("1", "-1", "0.5", "2i", "(1-0i)", "(1+0i)", "(0.25+0.5i)", "(-0.25-0.5i)", "0")
    words = ("", "z1", "z2", "z1*z2", "z2*z1", "z1*z1")
    for _ in range(50):
        terms = [f"{rng.choice(coeffs)}{'*' if w else ''}{w}" for w in rng.choices(words, k=40)]
        cases.append((terms[0], [(rng.choice("+-"), term) for term in terms[1:]]))
    for first, rest in cases:
        want = parse(first, 2)
        for sign, term in rest:
            want = want + parse(term, 2) if sign == "+" else want - parse(term, 2)
        text = first + "".join(f" {sign} {term}" for sign, term in rest)
        assert coefficient_bits(parse(text, 2)) == coefficient_bits(want)


def test_format_examples():
    assert format_poly(parse("z1*z2 - z2*z1", 2)) == "z1*z2 - z2*z1"
    assert format_poly(FreePolynomial.constant(2, -2.5)) == "-2.5"
    assert format_poly(parse("(1+2i)*z1", 2)) == "(1.0+2.0i)*z1"
    assert format_poly(parse("-3i", 2)) == "-3.0i"
    assert format_poly(parse("z1 - 1", 2)) == "-1.0 + z1"


@given(complex_polys())
@settings(max_examples=200)
def test_parse_format_round_trip_is_exact(p):
    assert parse(format_poly(p), p.d) == p


@given(complex_polys())
def test_triples_round_trip(p):
    assert from_triples(to_triples(p), p.d) == p


def test_triples_are_sorted_length_lex():
    p = parse("z2*z1 + z1 + 1", 2)
    assert [t[0] for t in to_triples(p)] == ["", "1", "21"]


# ---------------------------------------------------------------------------
# Cesaro sums


def test_cesaro_weights_on_witness_coefficients():
    p = parse("0.5*z1 + 0.5*z2 + 0.25*z1^2 - 0.25*z1*z2 - 0.25*z2*z1 + 0.25*z2^2", 2)
    got = cesaro_sum(p, 3)
    w1 = (1.0 - 1 / 3) * 0.5
    w2 = (1.0 - 2 / 3) * 0.25
    expected = FreePolynomial(
        2,
        {
            Word((1,), 2): w1,
            Word((2,), 2): w1,
            Word((1, 1), 2): w2,
            Word((1, 2), 2): -w2,
            Word((2, 1), 2): -w2,
            Word((2, 2), 2): w2,
        },
    )
    assert got == expected


@given(complex_polys(), st.integers(1, 6))
def test_cesaro_scales_each_word_by_its_weight(p, n):
    out = cesaro_sum(p, n)
    for word, coeff in p.terms.items():
        want = (1.0 - len(word) / n) * coeff if len(word) < n else 0j
        assert out.coefficient(word) == want


def test_cesaro_from_callable_source():
    # coefficient source: 1 on every word
    got = cesaro_sum(lambda w: 1.0, 2, d=2)
    assert got == parse("1 + 0.5*z1 + 0.5*z2", 2)
    with pytest.raises(ValueError, match="explicit d"):
        cesaro_sum(lambda w: 1.0, 2)


def test_cesaro_budget_guard():
    with pytest.raises(BudgetExceededError):
        cesaro_sum(lambda w: 1.0, 14, d=3)


def test_cesaro_rejects_bad_source():
    with pytest.raises(TypeError):
        cesaro_sum(object(), 2, d=2)


# ---------------------------------------------------------------------------
# left division


def test_left_divide_commutator():
    p = parse("z1*z2 - z2*z1", 2)
    quotients = left_divide(p, 1)
    assert quotients[Word((1,), 2)] == z(2)
    assert quotients[Word((2,), 2)] == -z(1)


def test_left_divide_covers_all_words_including_zero_quotients():
    p = FreePolynomial.monomial(Word((1, 1, 2), 2))
    quotients = left_divide(p, 2)
    assert set(quotients) == {w for w in words_of_size(2, 2)}
    assert quotients[Word((1, 1), 2)] == z(2)
    assert all(not q for w, q in quotients.items() if w != Word((1, 1), 2))


def test_left_divide_rejects_low_order_terms():
    with pytest.raises(ValueError, match="not left-divisible"):
        left_divide(parse("z1 + z1*z2", 2), 2)


def test_left_divide_budget_guard():
    p = FreePolynomial.monomial(Word((1,) * 13, 3))
    with pytest.raises(BudgetExceededError):
        left_divide(p, 13)


@given(complex_polys(), st.integers(1, 3))
@settings(max_examples=150)
def test_left_divide_reconstructs_exactly(p, n):
    high = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n})
    quotients = left_divide(high, n)
    rebuilt = FreePolynomial.zero(p.d)
    for word, quotient in quotients.items():
        rebuilt = rebuilt + FreePolynomial.monomial(word) * quotient
    assert rebuilt == high


# ---------------------------------------------------------------------------
# composition


def test_compose_identity_and_swap():
    p = parse("z1^2 + z2", 2)
    gens = (FreePolynomial.generator(2, 1), FreePolynomial.generator(2, 2))
    assert compose(p, gens) == p
    swapped = compose(p, (gens[1], gens[0]))
    assert swapped == parse("z2^2 + z1", 2)


def test_compose_collapses_commutator():
    p = parse("z1*z2 - z2*z1", 2)
    assert compose(p, (z(1), z(1))) == FreePolynomial.zero(2)


def test_compose_validates_inner():
    with pytest.raises(ValueError, match="need 2 inner"):
        compose(z(1), (z(1),))
    with pytest.raises(ValueError, match="disagree on d"):
        compose(z(1), (z(1, 2), z(1, 3)))


@given(complex_polys(d=2))
def test_compose_with_generators_is_identity(p):
    gens = tuple(FreePolynomial.generator(2, j) for j in (1, 2))
    assert compose(p, gens) == p
