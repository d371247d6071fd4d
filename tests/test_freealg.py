"""Words, free polynomials, parsing, Cesaro weights, left division."""

import functools
import itertools
import operator
import random
import re
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncball import freealg
from ncball.freealg import (
    BudgetExceededError,
    FreePolynomial,
    PolyParseError,
    QuotientColumn,
    _add_term,
    _checked_letters,
    _monomials,
    _negated,
    _parse_word,
    _power,
    _product,
    _spans,
    _term_sums,
    _times_letters,
    _walk,
    _word_text,
    _word_values,
    compose,
    format_poly,
    homogeneous_component,
    left_divide,
    parse,
    to_triples,
    walk_levels,
    words_of_size,
)
from ncball.mattuple import MatrixTuple
from ncball.ncdiff import tt_check
from ncball.opball import polydisk
from ncball.realize import Realization, bidisk_witness, taylor_polynomial
from test_ncdiff import ref_poly_value, ref_term_sum

MAX_D = 3


def z(j, d=2):
    return FreePolynomial.generator(d, j)


# ---------------------------------------------------------------------------
# strategies


@st.composite
def words(draw, d):
    k = draw(st.integers(0, 4))
    return tuple(draw(st.integers(1, d)) for _ in range(k))


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


def test_word_rejects_letters_outside_alphabet():
    with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
        _parse_word("3", 2)
    with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
        FreePolynomial(2, {(3,): 1})
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        FreePolynomial(0)


def test_a_polynomials_d_must_be_an_integer():
    # the rule of a JSON header's sizes: a bool, a float or a string is refused by name, never truncated or compared
    for d in (2.7, 2.0, True, "2", None):
        message = rf"^d must be an integer, got {re.escape(repr(d))}$"
        with pytest.raises(ValueError, match=message):
            FreePolynomial(d, {(1,): 1.0})
        with pytest.raises(ValueError, match=message):
            parse("z1*z3", d)
    # numpy integers are integers, as they are letters, and d is kept as an int
    for d in (np.int64(2), np.int32(2), np.uint8(2)):
        p = FreePolynomial(d, {(1, 2): 1.0})
        assert type(p.d) is int and type(parse("z1*z2", d).d) is int
        assert p == parse("z1*z2", d)


def test_letters_must_be_integers():
    # Python and numpy integers are letters, each stored as an int; a bool, a float or a string is not one
    for word in ((1, 2), [np.int64(1), np.int32(2)], np.array([1, 2]), (np.uint8(1), 2)):
        assert _checked_letters(word, 2) == (1, 2)
        assert all(type(letter) is int for letter in _checked_letters(word, 2))
    f, p = bidisk_witness(), parse("z1 + 2*z1*z2", 2)
    for word, shown in (((1.5,), "1.5"), (("1",), "'1'"), ((1.7, 2), "1.7"), ((True,), "True"), ((1, np.float64(2.0)), None)):
        problem = "^letter .* is not an integer$" if shown is None else f"^letter {re.escape(shown)} is not an integer$"
        for use in (
            lambda: FreePolynomial(2, {word: 1.0}),
            lambda: p.coefficient(word),
            lambda: f.power_series_coefficient(word),
            lambda: freealg.eval_word(MatrixTuple.scalars((0.5, 0.5)), word),
        ):
            with pytest.raises(TypeError, match=problem):
                use()
    # the type is checked before the range: a float outside the alphabet is a TypeError too
    with pytest.raises(TypeError, match="^letter 3.5 is not an integer$"):
        FreePolynomial(2, {(3.5,): 1.0})
    with pytest.raises(TypeError, match="^letter np.False_ is not an integer$"):
        _checked_letters((np.bool_(False),), 2)


def test_word_string_round_trip():
    assert _word_text((1, 2, 1), 2) == "121"
    assert _parse_word("121", 2) == (1, 2, 1)
    assert _parse_word("", 2) == ()
    assert _word_text((1, 11, 3), 11) == "1-11-3"
    assert _parse_word("1-11-3", 11) == (1, 11, 3)
    # beyond nine letters a dash-free string is one letter, as _word_text writes it
    assert _word_text((12,), 12) == "12"
    assert _parse_word("12", 12) == (12,)
    assert _parse_word("1-2", 12) == (1, 2)
    assert _parse_word("", 12) == ()
    z12 = FreePolynomial.generator(12, 12)
    assert to_triples(z12) == [("12", 1.0, 0.0)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(1, d), max_size=6))))
def test_word_strings_round_trip_for_every_alphabet(case):
    d, letters = case
    assert _parse_word(_word_text(tuple(letters), d), d) == tuple(letters)


def test_word_strings_take_ascii_digits_and_dashes_only():
    with pytest.raises(ValueError, match="'1x'"):
        _parse_word("1x", 2)
    with pytest.raises(ValueError, match="'١٢'"):  # Arabic-Indic digits, once read as 12
        _parse_word("١٢", 2)


def test_words_of_size_is_length_lex():
    got = list(words_of_size(2, 2))
    assert got == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert len(list(words_of_size(3, 3))) == 27


def test_words_of_size_rejects_bad_arguments_by_name():
    for k in (0, 1, 3):
        with pytest.raises(ValueError, match="d must be >= 1, got 0"):
            list(words_of_size(0, k))
    with pytest.raises(ValueError, match="d must be >= 1, got -2"):
        list(words_of_size(-2, 0))
    with pytest.raises(ValueError, match="word size k must be >= 0, got -1"):
        list(words_of_size(2, -1))
    assert list(words_of_size(2, 0)) == [()]
    # more than WORD_BUDGET words of one size raise at the call, before the first word; the exponent is
    # capped past the budget, so a size of 10^9 fails at once
    for d, k in ((2, 20), (10, 7), (1001, 2), (2, 10**9), (7, 10**9)):
        with pytest.raises(BudgetExceededError, match=rf"^{d}\^{k} words exceed the budget 1000000$"):
            words_of_size(d, k)
    with pytest.raises(BudgetExceededError):
        list(words_of_size(2, 20))
    # exactly WORD_BUDGET words are allowed
    assert next(words_of_size(10, 6)) == (1,) * 6
    assert next(words_of_size(1000, 2)) == (1, 1)
    # at d = 1 the one word of size k is charged its k letters, at the call
    for k in (10**6 + 1, 3 * 10**6, 10**9):
        with pytest.raises(BudgetExceededError, match=rf"^a word of {k} letters exceeds the budget 1000000$"):
            words_of_size(1, k)
    with pytest.raises(BudgetExceededError, match=r"^a word of 1000000000 letters exceeds the budget 1000000$"):
        left_divide(FreePolynomial.zero(1), 10**9)
    assert len(next(words_of_size(1, 10**6))) == 10**6


def test_a_dense_walk_charges_the_budget_before_its_first_step():
    steps = []
    column = (np.zeros((1, 1)), lambda stack, j: steps.append(j) or stack)
    # 2^0 + ... + 2^19 = 2^20 - 1 words pass 10^6, and 1^0 + ... + 1^size is size + 1
    for d, size in ((2, 19), (2, 40), (1, 10**6), (1000, 2), (2, 10**9), (3, 10**9), (1, 10**9)):
        with pytest.raises(BudgetExceededError, match=rf"^{d}\^0 \+ \.\.\. \+ {d}\^{size} words exceed the budget"):
            walk_levels(d, size, column)
    assert steps == []
    # 2^19 - 1 and 10^6 words are within the budget; a call walks nothing yet
    walk_levels(2, 18, column), walk_levels(1, 10**6 - 1, column)
    assert steps == []
    # a polynomial's walk visits only the prefixes of its words and is not charged
    with mock.patch.object(freealg, "_seq_matmul", wraps=freealg._seq_matmul) as matmul:
        values = _word_values(np.zeros((2, 1, 1), dtype=complex), [(1,) * 40])
    assert list(values) == [(1,) * 40] and matmul.call_count == 40
    assert list(walk_levels(2, -1, column)) == []


def test_walk_levels_names_an_empty_alphabet_at_the_call():
    steps = []
    column = (np.zeros((1, 1)), lambda stack, j: steps.append(j) or stack)
    for d in (0, -1):
        with pytest.raises(ValueError, match=rf"^d must be >= 1, got {d}$"):
            walk_levels(d, 2, column)
    assert steps == []


def test_integer_argument_alphabet_size_of_a_word_walk():
    # a bool would run as d = 1, and a float or a string would fail inside the walk, naming no argument
    column = (np.zeros((1, 1)), lambda stack, j: stack)
    for d, shown in ((True, "True"), (2.5, "2.5"), ("2", "'2'")):
        with pytest.raises(ValueError, match=rf"^d must be an integer, got {shown}$"):
            words_of_size(d, 2)
        with pytest.raises(ValueError, match=rf"^d must be an integer, got {shown}$"):
            walk_levels(d, 1, column)


def test_integer_argument_quotient_column_names_its_size():
    with mock.patch.object(freealg, "_quotient_terms", side_effect=AssertionError("cut")):
        with pytest.raises(ValueError, match=r"^size must be >= 1, got 0$"):
            QuotientColumn(parse("z1*z2", 2), 0)


def test_a_word_size_must_be_an_integer():
    # a float size is never reached by a walk, which would run on without end, and a bool would run as 1
    column = (np.zeros((1, 1)), lambda stack, j: stack)
    for size, shown in ((2.5, "2.5"), (True, "True"), (2.0, "2.0")):
        with pytest.raises(ValueError, match=rf"^size must be an integer, got {shown}$"):
            walk_levels(2, size, column)
        with pytest.raises(ValueError, match=rf"^word size k must be an integer, got {shown}$"):
            words_of_size(2, size)
        with mock.patch.object(freealg, "_quotient_terms", side_effect=AssertionError("cut")):
            with pytest.raises(ValueError, match=rf"^size must be an integer, got {shown}$"):
                QuotientColumn(parse("z1*z2", 2), size)
    # numpy integers are integers, and a size of -1 still walks nothing
    assert [k for k, _ in walk_levels(2, np.int64(2), column)] == [0, 1, 2]
    assert list(words_of_size(2, np.int32(1))) == [(1,), (2,)]
    assert list(walk_levels(2, -1, column)) == []


def test_a_walk_level_takes_as_many_words_as_fit_the_byte_bound():
    # under a 1-byte bound each word of a stack with bytes is a chunk of its own, and a level of no bytes stays whole
    with mock.patch.object(freealg, "BATCH_BYTES", 1):
        full = [(k, len(xws)) for k, (xws,) in walk_levels(2, 2, _monomials(np.ones((1, 2, 1, 1), dtype=complex)))]
        empty = [(k, len(xws)) for k, (xws,) in walk_levels(2, 3, _monomials(np.zeros((0, 2, 1, 1), dtype=complex)))]
    assert full == [(0, 1), (1, 1), (2, 1), (2, 1), (1, 1), (2, 1), (2, 1)]
    assert empty == [(0, 1), (1, 2), (2, 4), (3, 8)]


def test_walk_levels_names_a_missing_column_at_the_call():
    # no (root, step) column: refused at the call, after the d check and before the budget
    for size in (1, 0, -1, 10**9):
        with pytest.raises(ValueError, match=r"^walk_levels needs at least one \(root, step\) column$"):
            walk_levels(2, size)
    with pytest.raises(ValueError, match=r"^d must be >= 1, got 0$"):
        walk_levels(0, 1)


def assert_letter_key(key, d: int):
    """A term key is a tuple of ints, each a letter in 1..d."""
    assert type(key) is tuple and all(type(letter) is int and 1 <= letter <= d for letter in key)


@settings(max_examples=60, deadline=None)
@given(complex_polys(), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_quotient_parsed_and_taylor_terms_are_keyed_by_letter_tuples(p, k, n, seed):
    high = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n})
    for quotient in left_divide(high, n).values():
        for tail in quotient.terms:
            assert_letter_key(tail, p.d)
    for word in parse(format_poly(p), p.d).terms:
        assert_letter_key(word, p.d)
    rng = np.random.default_rng(seed)
    b, c, dmat = rng.normal(size=p.d), rng.normal(size=p.d), rng.normal(size=(p.d, p.d))
    f = Realization(polydisk(p.d), 1, 0.5, b, c, 0.9 * dmat / np.linalg.norm(dmat, 2))
    for word in taylor_polynomial(f, k + 1).terms:
        assert_letter_key(word, p.d)


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
    assert commutator.coefficient((1, 2)) == 1
    assert commutator.coefficient((2, 1)) == -1


def test_zero_coefficients_are_dropped():
    p = z(1) - z(1)
    assert not p
    assert p.degree == -1
    assert p == FreePolynomial.zero(2)
    assert format_poly(p) == "0"


def test_degree_and_coefficient_lookup():
    p = parse("2 + z1*z2^2", 2)
    assert p.degree == 3
    assert p.coefficient(()) == 2
    assert p.coefficient((1, 2, 2)) == 1
    assert p.coefficient((2,)) == 0


def test_scalar_multiplication_and_power():
    p = 2 * z(1) * 3
    assert p.coefficient((1,)) == 6
    assert z(1) ** 0 == FreePolynomial.constant(2, 1.0)
    with pytest.raises(ValueError, match="must be >= 0"):
        z(1) ** -1


def test_integer_argument_exponent_is_an_integer_of_any_kind():
    # a bool is no exponent (it ran as 1), and a numpy integer is one like any other integer argument
    p = z(1) + (0.5 - 1j) * z(2)
    for k, shown in ((True, "True"), (2.0, "2.0")):
        with pytest.raises(ValueError, match=rf"^exponent must be an integer, got {shown}$"):
            p**k
    assert p ** np.int64(2) == p**2
    assert p ** np.uint8(0) == FreePolynomial.constant(2, 1.0)


def test_foreign_operands_are_handed_back_to_python():
    # each operator returns NotImplemented for a foreign operand, so Python raises its own TypeError (== gives False)
    p = z(1)
    cases = [
        (lambda: p + None, "+: 'FreePolynomial' and 'NoneType'"),
        (lambda: p - None, "-: 'FreePolynomial' and 'NoneType'"),
        (lambda: p * None, "*: 'FreePolynomial' and 'NoneType'"),
        (lambda: None * p, "*: 'NoneType' and 'FreePolynomial'"),
    ]
    for apply, operands in cases:
        with pytest.raises(TypeError) as caught:
            apply()
        assert str(caught.value) == f"unsupported operand type(s) for {operands}"
    assert p != "z1" and not (p == 1)


def test_polynomial_repr_is_its_text():
    assert repr(parse("z1*z2 - (1+2i)*z2^2 + 0.5", 2)) == "FreePolynomial(d=2, '0.5 + z1*z2 + (-1.0-2.0i)*z2*z2')"


def test_polynomials_are_equal_by_d_and_terms_in_any_order():
    p = FreePolynomial(2, {(1,): 1.0, (2, 1): 2j, (): 0.5})
    same = FreePolynomial(2, {(): 0.5, (2, 1): 2j, (1,): 1.0})
    assert p == same and not p != same and list(p.terms) != list(same.terms)
    assert p != FreePolynomial(3, p.terms) and FreePolynomial.zero(2) != FreePolynomial.zero(3)
    # a foreign operand is handed back to Python, which falls back to identity
    assert (p == 0) is False and (p == "z1") is False and (p == None) is False and (p != 0) is True  # noqa: E711
    assert hash(p) == hash(same) and {p: "p"}[same] == "p" and same in {p}


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        z(1, d=2) + z(1, d=3)


def test_polynomial_is_immutable_and_hashable():
    p = z(1)
    with pytest.raises(AttributeError):
        p.d = 3
    assert hash(p) == hash(FreePolynomial.generator(2, 1))
    # the terms are a read-only copy of the caller's mapping
    given = {(1,): 1.0}
    q = FreePolynomial(2, given)
    given[(2,)] = 1.0
    assert q == p
    with pytest.raises(TypeError):
        q.terms[(2,)] = 1.0


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
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        homogeneous_component(p, -1)
    # 2.5 would select no words and True the size-1 words
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^k must be an integer, got {bad}$"):
            homogeneous_component(p, bad)


def test_coefficient_checks_its_word_as_the_constructor_does():
    p = parse("z1*z2 + 3", 2)
    assert p.coefficient((1, 2)) == p.coefficient([1, 2]) == 1
    assert p.coefficient(()) == 3 and p.coefficient((2, 1)) == 0
    # a letter tuple outside 1..d: the constructor's error
    for key, problem in (((1, 3), "letter 3 outside alphabet 1..2"),):
        with pytest.raises(ValueError, match=f"^{problem}$"):
            FreePolynomial(2, {key: 1.0})
        with pytest.raises(ValueError, match=f"^{problem}$"):
            p.coefficient(key)


@given(complex_polys())
def test_terms_are_keyed_by_letter_tuples_and_sorted_in_word_order(p):
    for word in p.terms:
        assert_letter_key(word, p.d)
    want = sorted(p.terms.items(), key=lambda item: (len(item[0]), item[0]))
    assert p.sorted_terms() == want
    assert to_triples(p) == [(_word_text(w, p.d), c.real, c.imag) for w, c in want]


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
    # an exponent never starts a monomial run
    assert parse("z1^2*z2", 2) == z(1) * z(1) * z(2)
    # a run's sign applies to its first primary, before the products by its letters; inf * (1+0j) makes a NaN
    # whose sign bit tells the two orders apart
    two, inf = FreePolynomial.constant(2, 2.0), FreePolynomial.constant(2, float("inf"))
    for text, want in (
        ("-2*z1", -two * z(1)),
        ("2*-z1*z2", two * -z(1) * z(2)),
        ("-1e400*z1*z2", -inf * z(1) * z(2)),
        ("2*-1e400*z1", two * -inf * z(1)),
        ("(z1*z2)^2*z1", (z(1) * z(2)) ** 2 * z(1)),
        ("0*z1 + (0-0i)*z2", FreePolynomial.constant(2, 0.0) * z(1)
         + (FreePolynomial.constant(2, 0.0) - FreePolynomial.constant(2, 0.0 * 1j)) * z(2)),
        ("(1e400-1e400i)*z2*z1 - z1*(1e400+2i)*z2", (inf - inf * FreePolynomial.constant(2, 1j)) * z(2) * z(1)
         - z(1) * (inf + FreePolynomial.constant(2, 2j)) * z(2)),
    ):
        assert coefficient_bits(parse(text, 2)) == coefficient_bits(want), text
    assert [bits(c) for c in parse("-1e400*z1*z2", 2).terms.values()] != [
        bits(c) for c in (-(inf * z(1) * z(2))).terms.values()
    ]


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
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        parse("z1", 0)
    err = None
    try:
        parse("z1*z9", 3)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.position == 3
    # a monomial run is read as its tokens: each error names and points at the token that makes it
    for text, d, message, position in (
        ("2*z1*z9", 3, "variable z9 outside z1..z3", 5),
        ("(1+2i)*z1*z3", 2, "variable z3 outside z1..z2", 10),
        ("z0 * z1", 2, "variable z0 outside z1..z2", 0),
        ("z1 *\tz01* z4", 3, "variable z4 outside z1..z3", 10),
        ("2*z1 z2*z1", 2, "unexpected 'z2'; an operator is required between factors", 5),
        ("z1 (1+2i)*z2", 2, "unexpected '('; an operator is required between factors", 3),
        ("z1 2.5e-3i*z2", 2, "unexpected '2.5e-3i'; an operator is required between factors", 3),
        ("z1^2*z2", 1, "variable z2 outside z1..z1", 5),
        ("z1^(1+2i)*z1", 2, "exponent must be a nonnegative integer", 3),
        ("z1^z2*z1", 2, "exponent must be a nonnegative integer", 3),
        ("(1+2i)*z1*z", 2, "variable name must be z followed by an index", 10),
    ):
        with pytest.raises(PolyParseError) as info:
            parse(text, d)
        assert (str(info.value), info.value.position) == (f"{message} (at position {position})", position), text


def test_a_run_checks_its_letters_before_the_terms_product_by_it():
    # the run '2*z9' is read, and z9 rejected, before the term '(z1+z2)' is multiplied by the run's literal
    with mock.patch("ncball.freealg._product", wraps=_product) as counted, pytest.raises(PolyParseError) as info:
        parse("(z1+z2)*2*z9", 2)
    assert (str(info.value), info.value.position) == ("variable z9 outside z1..z2 (at position 10)", 10)
    assert counted.call_count == 0


def test_parse_takes_ascii_digits_only_and_points_at_the_bad_input():
    with pytest.raises(PolyParseError, match=r"unexpected character '²' \(at position 2\)"):
        parse("z1²", 2)
    with pytest.raises(PolyParseError, match=r"z followed by an index \(at position 0\)"):
        parse("z١", 2)  # an Arabic-Indic digit, once read as z1


def test_tokenize_table():
    # text -> each token match before the end as (kind, text, position): a run is one match, its sign if any, then a
    # '(re+im i)' pair, a literal or a letter, then every letter joined on by a bare '*'; any other spacing splits it
    kinds = dict(zip((freealg._RUN, freealg._POWER, freealg._EXPONENT, freealg._PLUS, freealg._MINUS, freealg._TIMES,
                      freealg._OPEN, freealg._CLOSE), ("run", "^", "^", "+", "-", "*", "(", ")")))
    table = {
        "1e-3i": [("run", "1e-3i", 0)],
        "2.5E+2": [("run", "2.5E+2", 0)],
        "3.": [("run", "3.", 0)],
        ".25": [("run", ".25", 0)],
        "1.2.3": [("run", "1.2", 0), ("run", ".3", 3)],
        " z12^2 -\ti": [("run", "z12", 1), ("^", "^2", 4), ("run", "-\ti", 7)],
        "i2": [("run", "i", 0), ("run", "2", 1)],
        "(2i)*z1": [("(", "(", 0), ("run", "2i", 1), (")", ")", 3), ("*", "*", 4), ("run", "z1", 5)],
        "": [],
        # a '(re+im i)' pair as format_poly writes it is a run; with spaces it is a parenthesised sum
        "(-0.25+0.5i)*z2*z10": [("run", "(-0.25+0.5i)*z2*z10", 0)],
        "( -0.25 +0.5i) * z2*z10": [("(", "(", 0), ("run", "-0.25", 2), ("run", "+0.5i", 8), (")", ")", 13),
                                    ("*", "*", 15), ("run", "z2*z10", 17)],
        "2*z1 z2*z1": [("run", "2*z1", 0), ("run", "z2*z1", 5)],
        "z1 *\x1cz2*z01": [("run", "z1", 0), ("*", "*", 3), ("run", "z2*z01", 5)],
        # a run takes a letter under a power too, and an exponent is never the start of one
        "12^2": [("run", "12", 0), ("^", "^2", 2)],
        "2^3*z1*z2^2": [("run", "2", 0), ("^", "^3", 1), ("*", "*", 3), ("run", "z1*z2", 4), ("^", "^2", 9)],
        "(1-2i) ^ 2": [("run", "(1-2i)", 0), ("^", "^ 2", 7)],
        "z1*z2 ^2": [("run", "z1*z2", 0), ("^", "^2", 6)],
        "z1^-2": [("run", "z1", 0), ("^", "^", 2), ("run", "-2", 3)],
        # a sign before a run is in its match, a sign before anything else a token of its own
        "2*-z1": [("run", "2", 0), ("*", "*", 1), ("run", "-z1", 2)],
        "1 - -z1 + (z2)": [("run", "1", 0), ("-", "-", 2), ("run", "-z1", 4), ("+", "+", 8), ("(", "(", 10),
                           ("run", "z2", 11), (")", ")", 13)],
    }
    for text, want in table.items():
        matches = list(freealg._TOKEN.finditer(text))
        assert matches[-1].lastindex == freealg._END and matches[-1].start(freealg._END) == len(text), text
        got = [(kinds[m.lastindex], m[0].lstrip(), freealg._at(m)) for m in matches[:-1]]
        assert got == want, text
    # a character that starts no token is reported before any other error
    for text, message, position in (
        (".", "malformed number", 0),
        ("1e", "unexpected character 'e'", 1),
        ("z", "variable name must be z followed by an index", 0),
        ("#", "unexpected character '#'", 0),
        ("z1 + .e5", "malformed number", 5),
        ("2*z1*z", "variable name must be z followed by an index", 5),
        ("(1+2i)*z1 #", "unexpected character '#'", 10),
        ("z9 z1 (( #", "unexpected character '#'", 9),
    ):
        with pytest.raises(PolyParseError) as info:
            parse(text, 2)
        assert (str(info.value), info.value.position) == (f"{message} (at position {position})", position), text


def test_parse_rejects_juxtaposed_number_and_variable():
    with pytest.raises(PolyParseError, match="operator is required"):
        parse("2z1", 2)


def bits(c):
    """The exact bits of a complex number, NaN signs included."""
    return struct.pack("<dd", c.real, c.imag).hex()


def coefficient_bits(p):
    """The terms in dict order, with the exact bits of each coefficient."""
    return [(w, bits(c)) for w, c in p.terms.items()]


def constant(c):
    return FreePolynomial.constant(2, c)


# atoms of the folded reference below, each built without the parser
FOLD_ATOMS = {
    "z1": z(1),
    "z2": z(2),
    "1": constant(1.0),
    "-1": -constant(1.0),
    "0.5": constant(0.5),
    "2i": constant(2.0 * 1j),
    "0": constant(0.0),
    "0.0": constant(0.0),
    "1e400": constant(float("inf")),
    "(1-0i)": constant(1.0) - constant(0.0 * 1j),
    "(1+0i)": constant(1.0) + constant(0.0 * 1j),
    "(0.25+0.5i)": constant(0.25) + constant(0.5 * 1j),
    "(-0.25-0.5i)": -constant(0.25) - constant(0.5 * 1j),
}


def folded(factors):
    """(text, reference) of a product of factors (negated, summands, exponent or None).

    A factor is '-'? then an atom or a parenthesised sum of atoms, then ^k;
    the reference folds the atoms with FreePolynomial's +, **, - and *.
    """
    texts, refs = [], []
    for negated, summands, exponent in factors:
        base = summands[0] if len(summands) == 1 else f"({' + '.join(summands)})"
        ref = functools.reduce(operator.add, (FOLD_ATOMS[a] for a in summands))
        if exponent is not None:
            base, ref = f"{base}^{exponent}", ref**exponent
        texts.append(f"-{base}" if negated else base)
        refs.append(-ref if negated else ref)
    return "*".join(texts), functools.reduce(operator.mul, refs)


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

    # products, powers and signs: every term folded from atoms, never parsed
    terms = [
        [(False, ("(1-0i)",), None), (False, ("z1",), 2)],
        [(True, ("0.0",), None), (False, ("z2",), None)],  # -0.0*z2
        [(False, ("0",), None), (True, ("z1",), None)],
        [(False, ("z1", "(1-0i)", "z2"), 2)],
        [(True, ("z2", "(0.25+0.5i)"), 0), (False, ("z1",), None)],
        [(True, ("1e400", "z1"), 2), (False, ("(-0.25-0.5i)",), None)],  # inf and NaN coefficients
        # z1*z1 sums 1, then -1 (zero), then -0.5: it keeps the place of its first product
        [(False, ("z1", "0.5"), None), (False, ("z1", "-1"), None), (False, ("1", "z1"), 2)],
    ]
    for _ in range(60):
        terms.append([
            (rng.random() < 0.3, tuple(rng.choices(list(FOLD_ATOMS), k=rng.choice((1, 1, 2, 3)))),
             rng.choice((None, None, 0, 1, 2, 3)))
            for _ in range(rng.randint(1, 3))
        ])
    for start in range(0, len(terms), 3):
        signs = [rng.choice("+-") for _ in terms[start : start + 3]]
        parts = [folded(term) for term in terms[start : start + 3]]
        text, want = parts[0]
        for sign, (term_text, term) in zip(signs[1:], parts[1:]):
            text, want = f"{text} {sign} {term_text}", want + term if sign == "+" else want - term
        assert coefficient_bits(parse(text, 2)) == coefficient_bits(want), text
        assert coefficient_bits(parse(f"-({parts[0][0]})", 2)) == coefficient_bits(-parts[0][1])

    # the parser shares its product and negation with FreePolynomial, so pin
    # their rules on their own: a word keeps the place of its first product
    # through a zero partial sum, and -c is 0j + -c (not 0j - c, which keeps
    # the sign bit of a NaN)
    p = parse("(z1 + 0.5)*(z1 + -1)*(1 + z1)^2", 2)
    assert list(p.terms) == [(1, 1), (1, 1, 1), (1, 1, 1, 1), (1,), ()]
    square = parse("(1e400 + z1)^2", 2).terms  # NaN coefficients
    assert coefficient_bits(parse("-(1e400 + z1)^2", 2)) == [(w, bits(0j + -c)) for w, c in square.items()]


# ---------------------------------------------------------------------------
# the parser against the character-level one it replaced: one token per
# number, variable and operator, kept here verbatim as the reference


REF_TOKEN = re.compile(
    r"(?P<number>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?i?)|(?P<var>z[0-9]*)|(?P<op>[-+*^()i])|(?P<bad>\S)"
)


def ref_tokenize(text: str) -> list[tuple[str, object, int, str]]:
    """(kind, value, position, lexeme) tokens, whitespace skipped, then ("end", None, len(text), "").

    Digits are ASCII only.  A number has at most one decimal point, an
    optional exponent as repr() of a float writes it, and an optional 'i'
    suffix that makes it an "imag" token.
    """
    tokens = []
    for match in REF_TOKEN.finditer(text):
        kind, lexeme, at = match.lastgroup, match.group(), match.start()
        if kind == "number":
            tokens.append(("imag" if lexeme.endswith("i") else "number", float(lexeme.removesuffix("i")), at, lexeme))
        elif kind == "var" and lexeme != "z":
            tokens.append(("var", int(lexeme[1:]), at, lexeme))
        elif kind == "op":
            tokens.append(("imag", 1.0, at, lexeme) if lexeme == "i" else (lexeme, lexeme, at, lexeme))
        else:  # a bare 'z', a lone '.', or any other character
            errors = {"z": "variable name must be z followed by an index", ".": "malformed number"}
            raise PolyParseError(errors.get(lexeme, f"unexpected character {lexeme!r}"), at)
    tokens.append(("end", None, len(text), ""))
    return tokens


class RefParser:
    """Recursive descent over the token stream, on {letters: coefficient} term maps.

    Grammar (the product sign is mandatory, juxtaposition is an error):

        expr    := term (('+' | '-') term)*
        term    := factor ('*' factor)*
        factor  := ('+' | '-')* primary ('^' exponent)*
        primary := number | number 'i' | 'i' | variable | '(' expr ')'

    Sums go through _add_term, products and powers through _product, signs
    through _negated, and the parse ends in FreePolynomial._trusted, as +, -, *
    and ** do: a parse has their bits and term order by construction.
    """

    def __init__(self, tokens, d: int):
        self.tokens = tokens[::-1]  # the next token is last, so pop() takes it
        self.d = d

    def peek(self) -> str:
        return self.tokens[-1][0]

    def parse(self) -> FreePolynomial:
        terms = self.expr()
        kind, _, position, lexeme = self.tokens.pop()
        if kind != "end":
            raise PolyParseError(f"unexpected {lexeme!r}; an operator is required between factors", position)
        return FreePolynomial._trusted(int(self.d), terms)  # primary() has range-checked every letter

    def expr(self) -> dict:
        terms = self.term()
        while self.peek() in ("+", "-"):
            rhs = self.term() if self.tokens.pop()[0] == "+" else _negated(self.term())
            for word, coeff in rhs.items():
                _add_term(terms, word, coeff)
        return terms

    def term(self) -> dict:
        terms = self.factor()
        while self.peek() == "*":
            self.tokens.pop()
            terms = _product(terms, self.factor())
        return terms

    def factor(self) -> dict:
        negate = False
        while self.peek() in ("+", "-"):
            negate ^= self.tokens.pop()[0] == "-"
        terms = self.primary()
        while self.peek() == "^":
            self.tokens.pop()
            terms = _power(terms, self.exponent())
        return _negated(terms) if negate else terms

    def primary(self) -> dict:
        kind, value, position, lexeme = self.tokens.pop()
        if kind in ("number", "imag"):
            return _add_term({}, (), complex(value if kind == "number" else value * 1j))
        if kind == "var":
            if not 1 <= value <= self.d:
                raise PolyParseError(f"variable z{value} outside z1..z{self.d}", position)
            return {(value,): 1 + 0j}
        if kind == "(":
            terms = self.expr()
            closer = self.tokens.pop()
            if closer[0] != ")":
                raise PolyParseError("expected ')'", closer[2])
            return terms
        raise PolyParseError(f"expected a number, variable, or '(' but found {lexeme or 'end of input'!r}", position)

    def exponent(self) -> int:
        kind, value, position, lexeme = self.tokens.pop()
        if kind == "-":
            raise PolyParseError("negative exponent", position)
        if kind != "number" or not lexeme.isdigit():
            raise PolyParseError("exponent must be a nonnegative integer", position)
        return int(lexeme)



def ref_parse(text: str, d: int) -> FreePolynomial:
    return RefParser(ref_tokenize(text), d).parse()


SPACES = st.sampled_from(["", "", " ", "  ", "\t", "\x1c", "\u3000"])
REALS = st.sampled_from(["0", "0.0", "1", "2", "12", "007", "3.", ".25", "0.5", "1.5", "1e400", "2.5E+2", "1e-3",
                         "4e0", "0.123", "9.75e-1"])
FOREIGN = st.sampled_from(["#", "²", ".", "z", "e", "E", "i", "^", "*", "(", ")", "-", "+", "--", "z1", "z١", "2",
                           "z0", "1e", ".e5", " ", "^-1", "^1.5", "^z1", "2z1", "(1+2i)", "*z2"])


@st.composite
def literal_texts(draw):
    sp = lambda: draw(SPACES)  # noqa: E731
    kind = draw(st.sampled_from(["real", "imag", "i", "pair", "pair"]))
    if kind == "real":
        return draw(REALS)
    if kind == "imag":
        return draw(REALS) + "i"
    if kind == "i":
        return "i"
    re_sign, im_sign = draw(st.sampled_from(["", "-", "+"])), draw(st.sampled_from(["-", "+"]))
    return f"({sp()}{re_sign}{sp()}{draw(REALS)}{sp()}{im_sign}{sp()}{draw(REALS)}i{sp()})"


@st.composite
def expr_texts(draw, depth):
    """Text from the whole grammar: sums of products of signed literals, letters and parenthesised sums, with powers.

    A term has at most one parenthesised factor, so a text expands to a few thousand terms at most."""
    sp = lambda: draw(SPACES)  # noqa: E731

    def factor(paren):
        signs = draw(st.sampled_from(["", "", "", "", "", "-", "+", "--", "-+"]))
        choice = draw(st.sampled_from(["literal", "letter", "letter", "letter"] + ["paren"] * paren))
        if choice == "literal":
            base = draw(literal_texts())
        elif choice == "letter":
            base = f"z{draw(st.sampled_from(['1', '2'] * 10 + ['01', '3', '0', '4']))}"
        else:
            base = f"({sp()}{draw(expr_texts(depth - 1))}{sp()})"
        for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
            base += f"{sp()}^{sp()}{draw(st.sampled_from(['0', '1', '2', '2', '3'] if depth else ['1', '2']))}"
        return signs + base, choice == "paren"

    def term():
        factors, paren = [], depth > 0
        for _ in range(draw(st.integers(1, 4))):
            text, used = factor(paren)
            factors.append(text)
            paren = paren and not used
        return f"{sp()}*{sp()}".join(factors)

    text = term()
    for _ in range(draw(st.integers(0, 3 if depth == 2 else 1))):
        text += f"{sp()}{draw(st.sampled_from(['+', '-']))}{sp()}{term()}"
    return text


@st.composite
def grammar_texts(draw):
    """Valid text, or valid text cut short, or with a foreign piece put in or a character taken out."""
    text = draw(expr_texts(2))
    for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 2)) == 0 else 0):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["cut", "insert", "insert", "delete"]))
        if edit == "cut":
            text = text[:at]
        elif edit == "insert":
            text = text[:at] + draw(FOREIGN) + text[at:]
        else:
            text = text[:at] + text[at + 1:]
    return text


def parse_outcome(parser, text, d):
    """The terms' letters and bits in dict order, or the error's type, message and position."""
    try:
        p = parser(text, d)
    except (PolyParseError, BudgetExceededError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return p.d, coefficient_bits(p)


@given(grammar_texts(), st.sampled_from([2, 2, 3, 1]))
@settings(max_examples=400, deadline=None)
@example("(0.130-0.830i)*z1*z1*z2 + (-0.008+0.954i)*z2 + (-0.737+0.391i)", 2)
@example("-1e400*z1*z2 - (1e400+1e400i)*z2*z1 + 2i*-z1^2*z2", 2)
@example("2*z1*z9", 3)
@example("2*z1 z2*z1", 2)
@example("z1^2*z2 + (z1*z2)^2*z1 - 0*z1 + (0-0i)*z2", 2)
@example("(1+2i)^2*z1 + 2^3*z2*z1^2", 2)
@example("z1 *\x1cz2", 2)
@example("z1*z2 ^2 - 2*z1\t^ 3 + (1+2i)*z2 \u3000^2*z1", 2)
@example("i2", 2)
@example("1.2.3", 2)
@example("12^2", 2)
@example("z12^2*z1", 2)
@example("(1-2i) ^ 2*z1", 2)
@example("i^i", 2)
@example("2*z1*z2^2*z1", 2)
@example("2*z1 *\tz2* z1 + z2\t*z1 - (0.5+0.25i)*z1 * z2", 2)  # spaces and tabs between the letters of a run
@example("2*z1*z2^2 - (1-2i)*z2*z1^3 + z1*z2^0 - 1e400*z1*z2^2", 2)  # a letter under a power ends a run
@example("2*z1^2*z2 - z1*z2^2*z1 + (0.5-0.5i)*z2^3*z1*z2", 2)  # a letter under a power in the middle of one
@example("2^3*z1 + (1+2i)^2*z2 - 1e400^2*z1 + i^3 - -2^2", 2)  # a literal under a power
@example("z01*z2^007 - 3*z02*z001 + z1^00", 2)
@example("z1*z2^2000 + 1", 2)  # an exponent past the budget
@example("(z1 + z2)^1000", 2)
@example("1e400*z1 - (1e400-1e400i)*z2*z1 + 1e400i*z2 -1e400*z1*z1 - -1e400i + (-1e400+1e400i)", 2)
@example("(0.5-0.25i)*z1*z#2 + 1", 2)  # a foreign character inside a run
@example("2*z1*z2\u00b2*z1", 2)
@example("(1+2i)*z1*z\uff12", 2)
@example("z1 -z2 +-z1 - -2*z2 -(1+2i)*z1 -1e400*z2", 2)  # a sign before a run: the sum's operator or the factor's
@example("z1^-2", 2)
@example("z1^+2", 2)
@example("(z1 -z2)*z1 -(z2)", 2)
def test_parse_matches_the_character_token_parser_bitwise(text, d):
    assert parse_outcome(parse, text, d) == parse_outcome(ref_parse, text, d), text


def test_machine_written_text_parses_as_the_character_token_parser_bitwise():
    # 600 terms as the benchmark writes them, '(re+im i)*z*...', then format_poly's text of a polynomial on the same
    # words with pair, real, imaginary and unit coefficients and a negative constant first
    rng = np.random.default_rng(48)
    texts = []
    for _ in range(600):
        letters = "".join(f"*z{letter}" for letter in rng.integers(1, 3, size=rng.integers(0, 13)))
        re_part, im_part = rng.uniform(-1.0, 1.0, 2)
        texts.append(f"({re_part:.3f}{im_part:+.3f}i){letters}")
    benchmark = " + ".join(texts)
    p = parse(benchmark, 2)
    forms = [lambda c: c, lambda c: c.real, lambda c: 1j * c.imag, lambda c: 1.0, lambda c: -1.0, lambda c: -1j]
    q = FreePolynomial(2, {**{w: forms[i % len(forms)](c) for i, (w, c) in enumerate(p.terms.items())}, (): -2.5})
    formatted = format_poly(q)
    assert formatted.startswith("-2.5 + ") and parse(formatted, 2) == q
    for text in (benchmark, formatted):
        assert parse_outcome(parse, text, 2) == parse_outcome(ref_parse, text, 2)


def test_parentheses_nest_at_most_the_stated_depth():
    assert freealg.NESTING == 200
    assert parse("(" * 200 + "z1" + ")" * 200, 2) == z(1)
    assert parse("z1*(" * 200 + "z2" + ")" * 200, 2) == z(1) ** 200 * z(2)
    for text, position in (
        ("(" * 201 + "z1" + ")" * 201, 200),
        ("(" * 400 + "z1" + ")" * 400, 200),
        ("z1 + " + "( -z1 * " * 250 + "z2" + ")" * 250, 5 + 200 * 8),
        ("(" * 400, 200),
    ):
        with pytest.raises(PolyParseError) as info:
            parse(text, 2)
        assert (str(info.value), info.value.position) == (
            f"parentheses nested deeper than 200 (at position {position})", position), text[:20]
    with pytest.raises(PolyParseError, match=r"unexpected character '#' \(at position 402\)"):
        parse("(" * 400 + "z1#", 2)  # a character that starts no token is still reported first


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


def test_triples_are_sorted_length_lex():
    p = parse("z2*z1 + z1 + 1", 2)
    assert [t[0] for t in to_triples(p)] == ["", "1", "21"]


# ---------------------------------------------------------------------------
# Taylor polynomials


def test_taylor_polynomial_budget_guard():
    # a realization's Taylor polynomial is charged its words before its walk; the count is closed-form
    # and never printed, so a huge n fails at once and by name
    f = Realization(polydisk(1), 1, 0.0, [0.5], [0.5], [[1.0]])
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        with pytest.raises(BudgetExceededError):
            taylor_polynomial(bidisk_witness(), 20)
        for g, n in ((bidisk_witness(), 10**5), (f, 10**6 + 1), (bidisk_witness(), 10**9 + 1)):
            with pytest.raises(BudgetExceededError, match=rf"^{g.d}\^0 \+ \.\.\. \+ {g.d}\^{n - 1} words exceed the budget"):
                taylor_polynomial(g, n)
        # at d = 1 the n words are charged their 0 + 1 + ... + (n - 1) letters: 1415 * 1414 / 2 pass 10^6
        for n in (1415, 3000, 10**6):
            with pytest.raises(BudgetExceededError, match=rf"^0 \+ 1 \+ \.\.\. \+ {n - 1} letters exceed the budget 1000000$"):
                taylor_polynomial(f, n)
    assert taylor_polynomial(f, 1414).degree == 1413


# ---------------------------------------------------------------------------
# left division


def test_left_divide_commutator():
    p = parse("z1*z2 - z2*z1", 2)
    quotients = left_divide(p, 1)
    assert quotients[(1,)] == z(2)
    assert quotients[(2,)] == -z(1)


def test_left_divide_covers_all_words_including_zero_quotients():
    p = FreePolynomial(2, {(1, 1, 2): 1.0})
    quotients = left_divide(p, 2)
    assert set(quotients) == set(words_of_size(2, 2))
    assert quotients[(1, 1)] == z(2)
    assert all(not q for w, q in quotients.items() if w != (1, 1))


def test_left_divide_rejects_low_order_terms():
    with pytest.raises(ValueError, match="not left-divisible"):
        left_divide(parse("z1 + z1*z2", 2), 2)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        left_divide(parse("z1", 2), 0)
    # True would divide by the size-1 words; 2.5 is not truncated
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^n must be an integer, got {bad}$"):
            left_divide(parse("z1 + z1*z2", 2), bad)


def test_left_divide_budget_guard():
    # the heads come from words_of_size, which charges the 3^13 words
    p = FreePolynomial(3, {(1,) * 13: 1.0})
    with pytest.raises(BudgetExceededError, match=r"3\^13 words exceed the budget"):
        left_divide(p, 13)


@given(complex_polys(), st.integers(1, 3))
@settings(max_examples=150)
def test_left_divide_reconstructs_exactly(p, n):
    high = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n})
    quotients = left_divide(high, n)
    rebuilt = FreePolynomial.zero(p.d)
    for word, quotient in quotients.items():
        rebuilt = rebuilt + FreePolynomial(p.d, {word: 1.0}) * quotient
    assert rebuilt == high


@given(complex_polys(), st.integers(1, 3))
@settings(max_examples=150)
def test_left_divide_keeps_its_contract(p, n):
    high = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n})
    quotients = left_divide(high, n)
    assert list(quotients) == list(words_of_size(p.d, n))
    for head, quotient in quotients.items():
        # the reference: the terms of this head, in the order of p's terms, through the checked constructor
        want = {w[n:]: c for w, c in high.terms.items() if w[:n] == head}
        if want:
            assert list(quotient.terms.items()) == list(FreePolynomial(p.d, want).terms.items())
        else:
            assert quotient == FreePolynomial.zero(p.d) and quotient.d == p.d


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


# ---------------------------------------------------------------------------
# the term-map algebra against the implementation it replaced, kept here as
# the reference: each operator built its term map and re-validated it
# through the public constructor

# signed zeros, subnormals, +-1 (so sums cancel) and an infinity (so products make NaNs)
EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-310, 1.0, -1.0, 0.5, -0.5, 1e300, float("inf"))
edge_coeffs = st.builds(
    complex, *[st.one_of(st.sampled_from(EDGE_PARTS), st.floats(-1e6, 1e6, allow_nan=False))] * 2
)
# every operator test scales by each of these as well as by a drawn coefficient
EDGE_SCALARS = (-1.0, -1e-310, complex(0, -0.0), -0.0, 0, 2, True, np.float64(0.5), np.complex128(-0.5 + 1j))


@st.composite
def edge_polys(draw, d, max_size=5):
    return FreePolynomial(d, draw(st.dictionaries(words(d), edge_coeffs, max_size=max_size)))


def ref_add(p, q):
    out = dict(p.terms)
    for word, coeff in q.terms.items():
        out[word] = out.get(word, 0j) + coeff
    return FreePolynomial(p.d, out)


def ref_neg(p):
    return FreePolynomial(p.d, _negated(p.terms))


def ref_mul(p, q):
    return FreePolynomial(p.d, _product(dict(p.terms), dict(q.terms)))


def ref_scale(p, s):
    with np.errstate(invalid="ignore", over="ignore"):  # a numpy scalar warns where the product is NaN
        return FreePolynomial(p.d, {w: c * s for w, c in p.terms.items()})


def ref_pow(p, k):
    out = FreePolynomial.constant(p.d, 1.0)
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_compose(p, inner):
    e = inner[0].d
    out = FreePolynomial.zero(e)
    for word, coeff in p.terms.items():
        prod = FreePolynomial.constant(e, 1.0)
        for letter in word:
            prod = ref_mul(prod, inner[letter - 1])
        out = ref_add(out, ref_scale(prod, coeff))
    return out


def assert_same_bits(got, want):
    """Equal d, dict order, letter-tuple keys and coefficient bits, each coefficient a Python complex."""
    assert got.d == want.d and coefficient_bits(got) == coefficient_bits(want)
    assert all(type(c) is complex for c in got.terms.values())
    for word in got.terms:
        assert_letter_key(word, got.d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(edge_polys(d), edge_polys(d))), edge_coeffs, st.integers(0, 3))
# an infinite coefficient times a numpy scalar: numpy's product warns where it is NaN
@example((FreePolynomial(1, {(): complex("inf+infj")}), FreePolynomial(1)), 1.0, 0)
def test_operators_match_the_word_keyed_algebra_bitwise(pair, s, k):
    p, q = pair
    assert_same_bits(p + q, ref_add(p, q))
    assert_same_bits(p - q, ref_add(p, ref_neg(q)))
    assert_same_bits(p - p, ref_add(p, ref_neg(p)))
    assert_same_bits(-p, ref_neg(p))
    assert_same_bits(p * q, ref_mul(p, q))
    for scalar in (s, *EDGE_SCALARS):
        assert_same_bits(p * scalar, ref_scale(p, scalar))
        assert_same_bits(scalar * p, ref_scale(p, scalar))
    assert_same_bits(p**k, ref_pow(p, k))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            edge_polys(d),
            st.integers(1, 3).flatmap(lambda e: st.lists(edge_polys(e, max_size=3), min_size=d, max_size=d)),
        )
    )
)
def test_compose_matches_the_object_fold_bitwise(case):
    p, inner = case
    assert_same_bits(compose(p, inner), ref_compose(p, inner))


def test_compose_readds_a_cancelled_word_at_the_end_bitwise():
    z1 = FreePolynomial.generator(1, 1)
    p = parse("z1 - z2 + 0.5*z1*z2 + z3", 3)  # z1 cancels, then comes back after z1*z1
    got = compose(p, (z1, z1, z1))
    assert list(got.terms) == [(1, 1), (1,)]
    assert_same_bits(got, ref_compose(p, (z1, z1, z1)))


zero_parts = st.sampled_from((0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)))
nan_coeffs = st.builds(complex, st.sampled_from((float("nan"), -float("nan"), 1.0)), st.sampled_from((0.0, -0.0)))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.dictionaries(
                st.lists(st.integers(1, d), max_size=4).map(tuple), st.one_of(edge_coeffs, zero_parts, nan_coeffs), max_size=8
            ),
        )
    )
)
def test_trusted_polynomials_match_the_constructor_bitwise(case):
    d, terms = case
    assert_same_bits(FreePolynomial._trusted(d, terms), FreePolynomial(d, terms))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.lists(st.integers(1, 3), max_size=3).map(tuple), st.one_of(edge_coeffs, nan_coeffs), max_size=6),
    st.lists(st.integers(1, 3), min_size=1, max_size=5).map(tuple),
)
@example({(): complex(float("inf"), 0.0), (1,): complex(-0.0, 1.0), (2,): complex(float("nan"), -0.0)}, (1, 2, 1))
def test_times_letters_matches_one_product_per_letter_bitwise(terms, letters):
    terms = {w: c for w, c in terms.items() if c != 0}  # term maps keep no exact zero
    want = functools.reduce(_product, ({(j,): 1 + 0j} for j in letters), terms)
    got = _times_letters(terms, letters)
    assert [(w, bits(c)) for w, c in got.items()] == [(w, bits(c)) for w, c in want.items()]


def ref_taylor_polynomial(f, n):
    levels = [[] for _ in range(n)]
    for k, (rows,) in walk_levels(f.d, n - 1, (None, f.row_step)):
        levels[k] += [f.A] if rows is None else (rows @ f.C)[:, 0].tolist()
    words = (word for k in range(n) for word in words_of_size(f.d, k))
    return FreePolynomial(f.d, {w: c for w, c in zip(words, itertools.chain(*levels)) if c != 0})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_taylor_polynomial_matches_the_public_constructor_bitwise(d, n, seed):
    rng = np.random.default_rng(seed)
    # zeroed entries of B and C and a zero A give zero coefficients, which are dropped
    b, c = (rng.normal(size=d) * (rng.random(d) < 0.7) for _ in range(2))
    dmat = rng.normal(size=(d, d))
    f = Realization(polydisk(d), 1, rng.choice([0.0, 0.5]), b, c, 0.9 * dmat / np.linalg.norm(dmat, 2))
    assert_same_bits(taylor_polynomial(f, n), ref_taylor_polynomial(f, n))
    if seed % 8 == 0:
        assert_same_bits(taylor_polynomial(bidisk_witness(), 9), ref_taylor_polynomial(bidisk_witness(), 9))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(edge_polys), st.integers(1, 3))
def test_left_quotients_match_the_public_constructor_bitwise(p, n):
    got = left_divide(FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n}), n)
    assert list(got) == list(words_of_size(p.d, n))
    for head, quotient in got.items():
        tails = {w[n:]: c for w, c in p.terms.items() if w[:n] == head}
        assert_same_bits(quotient, FreePolynomial(p.d, tails))
        assert tails or quotient == FreePolynomial.zero(p.d)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(edge_polys), st.integers(0, 5))
def test_homogeneous_components_match_the_public_constructor_bitwise(p, k):
    want = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) == k})
    assert_same_bits(homogeneous_component(p, k), want)


def test_parse_operators_and_taylor_polynomial_build_no_word():
    z1, z2, f, x = z(1), z(2), bidisk_witness(), MatrixTuple.scalars((0.5, 0.4))
    p = parse("(z1 + 2*z2)^3 - z2*z1 + (0.5-1i)", 2)
    q = compose(p * p - 2 * p + (-p) ** 2 - z1 * 0.5, (z2, z1 + z2))
    parts = [homogeneous_component(q, k) for k in range(q.degree + 1)]
    quotients = left_divide(FreePolynomial(2, {w: c for w, c in q.terms.items() if len(w) >= 3}), 3)
    text, report = format_poly(q), tt_check(q, x, 4)
    taylor = taylor_polynomial(f, 12)
    assert functools.reduce(operator.add, parts) == q and parse(text, 2) == q
    assert [w for w, f in quotients.items() if f] == sorted({w[:3] for w in q.terms if len(w) >= 3}) and report.passed
    assert len(taylor.terms) == 2**12 - 2  # every word of size < 12 but the empty one, as ex52 has A = 0
def test_expansions_past_the_word_budget_raise_before_they_start():
    with pytest.raises(BudgetExceededError, match="1024 x 1024 term products exceed the budget 1000000"):
        parse("(z1+z2)^10*(z1+z2)^10", 2)
    big = parse("(z1+z2)^10", 2)
    for expand in (lambda: big * big, lambda: big**2, lambda: compose(parse("z1*z2", 2), (big, big))):
        with pytest.raises(BudgetExceededError, match="1024 x 1024 term products"):
            expand()


def test_a_power_is_charged_before_its_first_product():
    # each _product of a monomial power forms one pair, so only the letters of the k powers bound its time
    with mock.patch("ncball.freealg._product", side_effect=AssertionError("multiplied")):
        for power in (lambda: parse("z1^2000", 1), lambda: parse("2^2000", 1), lambda: FreePolynomial.generator(1, 1) ** 2000):
            with pytest.raises(BudgetExceededError, match=r"^1 x \(1 \+ \.\.\. \+ 2000\) letters exceed the budget 1000000$"):
                power()
        # the longest word of the base counts each letter: 2 (1 + ... + 1000) > 10^6
        with pytest.raises(BudgetExceededError, match=r"^2 x \(1 \+ \.\.\. \+ 1000\) letters exceed the budget 1000000$"):
            parse("(z1*z2 + z1)^1000", 2)
    # 1 + ... + 1413 <= 10^6 < 1 + ... + 1414, and 2 (1 + ... + 999) <= 10^6
    assert parse("z1^1413", 1) == FreePolynomial(1, {(1,) * 1413: 1.0})
    assert parse("(z1*z2)^999", 2) == FreePolynomial(2, {(1, 2) * 999: 1.0})
    with pytest.raises(BudgetExceededError, match=r"^1 x \(1 \+ \.\.\. \+ 1414\) letters exceed the budget 1000000$"):
        parse("z1^1414", 1)
    # more digits than WORD_BUDGET has fail _power's charge for any base; they fail first, by count, so an
    # exponent past Python's 4300-digit int() limit is a budget error and its digits are never printed
    with mock.patch("ncball.freealg._product", side_effect=AssertionError("multiplied")):
        for exponent, digits in (("9" * 5000, 5000), ("9" * 4000, 4000), ("1" + "0" * 7, 8)):
            with pytest.raises(BudgetExceededError, match=rf"^an exponent of {digits} digits exceeds the budget 1000000$"):
                parse("z1^" + exponent, 1)
        with pytest.raises(BudgetExceededError, match=r"^1 x \(1 \+ \.\.\. \+ 9999999\) letters exceed"):
            parse("z1^" + "0" * 5000 + "9999999", 1)
    # leading zeros are not digits of the exponent
    assert parse("z1^" + "0" * 5000 + "2", 1) == parse("z1^2", 1)
    assert parse("z1^" + "0" * 5000, 1) == parse("1", 1)


# ---------------------------------------------------------------------------
# the term-sum kernel, the prefix closure and the literal fold against the
# loops they replaced, kept here as the references

# exact zeros of both signs, subnormals, infinities and NaNs, in coefficients and in values
SPECIAL_PARTS = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, float("inf"), -float("inf"), float("nan"))
special_coeffs = st.builds(complex, *[st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(-1e3, 1e3))] * 2)


@st.composite
def term_sum_cases(draw):
    """(values, terms, spans, shape): values of one shape for a few words, terms over them, and spans of the terms.

    The shape is a point's (n, n) or a stack's (B, n, n), B = 0 included; the spans are several consecutive
    term lists of unequal lengths, the zero polynomial among them, and some overlapping spans beside them."""
    n, count = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    shape = (n, n) if draw(st.booleans()) else (count, n, n)
    vocab = draw(st.lists(words(2), min_size=1, max_size=6, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = {}
    for word in vocab:
        value = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        value[rng.random(shape) < 0.3] = 0  # exact zeros
        if draw(st.booleans()):
            value.real[rng.random(shape) < 0.2] = draw(st.sampled_from(SPECIAL_PARTS))
        values[word] = value
    lists = draw(st.lists(st.lists(st.tuples(st.sampled_from(vocab), special_coeffs), max_size=12), min_size=1, max_size=5))
    terms, spans = _spans([*lists, []])
    bounds = st.integers(0, len(terms))
    spans += draw(st.lists(st.tuples(bounds, bounds).map(sorted).map(tuple), max_size=3))
    return values, terms, spans, shape


def same_bits(got, want) -> bool:
    """Equal shapes and bits, but for the sign and payload of a NaN: numpy's add takes either NaN of a NaN + NaN,
    by the element's place in its vector loop (x + y of equal arrays of -NaN and NaN has the sign of x at the first
    places and of y at the last), so no two layouts of one sum agree on it, and the per-term loop has no rule for it."""
    a, b = np.asarray(got).view(float), np.asarray(want).view(float)
    return a.shape == b.shape and (np.isnan(a) == np.isnan(b)).all() and np.where(np.isnan(a), 0, a).tobytes() == np.where(
        np.isnan(b), 0, b
    ).tobytes()


@settings(max_examples=200, deadline=None)
@given(term_sum_cases(), st.sampled_from([1, 200, 1000]), st.sampled_from([0, 16, 10**9]))
def test_term_sums_are_the_per_term_fold_bitwise(case, budget, numbers):
    # every span is its terms added one at a time from +0.0, however the term axis is chunked and however a stretch
    # is added: a byte bound of 1 makes each term a chunk of its own, and 200 or 1000 cut the spans at every few
    # terms; a row bound of 0 adds every stretch row by row, 10^9 by one accumulate, 16 mixes the two
    values, terms, spans, shape = case
    with np.errstate(all="ignore"):  # inf * 0 makes the NaNs the loop makes
        want = np.array([ref_term_sum(values, terms[a:b], shape) for a, b in spans]).reshape(len(spans), *shape)
        got = _term_sums(values, terms, spans, shape)
        with mock.patch.object(freealg, "BATCH_BYTES", budget), mock.patch.object(freealg, "ACCUMULATE_NUMBERS", numbers):
            chunked = _term_sums(values, terms, spans, shape)
    assert same_bits(got, want) and same_bits(chunked, want)
    if not np.isnan(want.view(float)).any():
        assert got.tobytes() == want.tobytes() and chunked.tobytes() == want.tobytes()


def test_quotient_column_flattens_its_quotients_once():
    p = parse("z1*z2*z1 - 0.5*z2*z2 + (0.3+0.2i)*z2*z1*z2*z2", 2)
    xs = np.random.default_rng(4).normal(size=(3, 2, 2, 2)) + 0j
    with mock.patch.object(FreePolynomial, "sorted_terms", autospec=True, side_effect=FreePolynomial.sorted_terms) as sort:
        column = QuotientColumn(p, 2)
        built = sort.call_count
        values, failed = column.eval_batch(xs)
        column.eval(MatrixTuple(xs[0]))
    assert built > 0 and sort.call_count == built
    assert column == QuotientColumn(p, 2) and "terms" not in repr(column)
    assert same_bits(values, np.concatenate([ref_poly_value(q, xs) for q in left_divide(p, 2).values()], axis=1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.dictionaries(words(d), special_coeffs, max_size=10))),
    st.integers(1, 2),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_quotient_column_is_the_per_quotient_fold_bitwise(case, size, count, n, seed):
    # each block is its quotient's per-term fold, at any stack size and byte bound: the products are
    # formed (K, 1, 1, 1) x (K, B, n, n) at once, which must keep the bits of the scalar-times-array loop
    d, terms = case
    rng = np.random.default_rng(seed)
    p = FreePolynomial(d, {tuple(rng.integers(1, d + 1, size=size).tolist()) + w: c for w, c in terms.items()})
    xs = rng.normal(size=(count, d, n, n)) + 1j * rng.normal(size=(count, d, n, n))
    xs[rng.random(xs.shape) < 0.2] = 0
    column = QuotientColumn(p, size)
    with np.errstate(all="ignore"):
        want = np.concatenate([ref_poly_value(q, xs) for q in left_divide(p, size).values()], axis=1)
        for budget in (freealg.BATCH_BYTES, 1, 300):
            with mock.patch.object(freealg, "BATCH_BYTES", budget):
                values, failed = column.eval_batch(xs)
            assert same_bits(values, want) and not failed.any()


def ref_prefix_values(xs, words):
    """The walk over every prefix of every word, each prefix sliced from each word: the closure it replaced."""
    wanted = set(words)
    keep = {w[:i] for w in wanted for i in range(len(w) + 1)}
    levels = _walk(xs.shape[-3], max(map(len, wanted), default=-1), (_monomials(xs),), keep)
    return {w: xw for prefixes, (xws,) in levels for w, xw in zip(prefixes, xws) if w in wanted}


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            # stems and their extensions share prefixes; the list repeats words, and may hold the empty word
            st.lists(st.lists(st.integers(1, d), max_size=4).map(tuple), max_size=4).flatmap(
                lambda stems: st.lists(
                    st.tuples(st.sampled_from([(), *stems]), st.lists(st.integers(1, d), max_size=3).map(tuple)).map(
                        lambda pair: pair[0] + pair[1]
                    ),
                    max_size=12,
                )
            ),
        )
    ),
    st.integers(0, 3),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_prefix_closure_keeps_the_keys_and_bits_of_the_comprehension_bitwise(case, count, n, seed):
    d, word_list = case
    rng = np.random.default_rng(seed)
    # a stack of count points, the empty one included, and one point
    for xs in (rng.normal(size=(count, d, n, n)) + 1j * rng.normal(size=(count, d, n, n)), rng.normal(size=(d, n, n)) + 0j):
        got, want = _word_values(xs, word_list), ref_prefix_values(xs, word_list)
        assert list(got) == list(want)
        assert all(got[w].shape == want[w].shape and got[w].tobytes() == want[w].tobytes() for w in want)


def ref_literal(parts):
    """A run's literal as the term maps fold it: each part a term map, negated and added to the ones before it."""
    terms = {}
    for sign, kind, value in parts:
        part = _add_term({}, (), complex(value if kind == "number" else value * 1j))
        for word, coeff in (_negated(part) if sign == "-" else part).items():
            _add_term(terms, word, coeff)
    return terms


LITERAL_VALUES = st.one_of(st.sampled_from((0.0, 5e-324, 1.0, 2.5, 1e308, float("inf"))), st.floats(0, 1e6))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.tuples(st.just(""), st.sampled_from(["number", "imag"]), LITERAL_VALUES)),
        st.tuples(
            st.tuples(st.sampled_from(["", "+", "-"]), st.just("number"), LITERAL_VALUES),
            st.tuples(st.sampled_from(["+", "-"]), st.just("imag"), LITERAL_VALUES),
        ),
    )
)
@example((("-", "number", 0.0), ("+", "imag", 0.0)))
@example((("", "number", 1.0), ("-", "imag", 0.0)))
@example((("-", "number", float("inf")), ("+", "imag", float("inf"))))
def test_literal_fold_is_the_term_map_fold_bitwise(parts):
    def number(value):
        return "1e400" if value == float("inf") else repr(value)

    if len(parts) == 1:
        text = number(parts[0][2]) + ("i" if parts[0][1] == "imag" else "")
    else:
        (re_sign, _, re_value), (im_sign, _, im_value) = parts
        text = f"({re_sign}{number(re_value)}{im_sign}{number(im_value)}i)"
    got, want = parse(text, 1).terms, ref_literal(parts)
    assert [(w, bits(c)) for w, c in got.items()] == [(w, bits(c)) for w, c in want.items()]
