"""Words, free polynomials, parsing, Cesaro weights, left division."""

import functools
import itertools
import operator
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncball.freealg import (
    BudgetExceededError,
    FreePolynomial,
    PolyParseError,
    Word,
    _left_quotients,
    _negated,
    _product,
    _tokenize,
    cesaro_sum,
    compose,
    format_poly,
    from_triples,
    homogeneous_component,
    left_divide,
    parse,
    to_triples,
    walk_levels,
    words_of_size,
)
from ncball.opball import polydisk
from ncball.realize import Realization, bidisk_witness, taylor_polynomial

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
    with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
        Word((3,), 2)
    with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
        Word.from_string("3", 2)
    with pytest.raises(ValueError, match="letter 3 outside alphabet 1..2"):
        FreePolynomial(2, {(3,): 1})
    with pytest.raises(ValueError, match="d must be >= 1"):
        Word((), 0)
    with pytest.raises(ValueError, match="word over alphabet 1..3 in a polynomial with d=2"):
        FreePolynomial(2, {Word((1,), 3): 1})
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        FreePolynomial(0)


def test_word_string_round_trip():
    w = Word((1, 2, 1), 2)
    assert w.to_string() == "121"
    assert Word.from_string("121", 2) == w
    assert Word.from_string("", 2) == Word((), 2)
    wide = Word((1, 11, 3), 11)
    assert wide.to_string() == "1-11-3"
    assert Word.from_string("1-11-3", 11) == wide
    # beyond nine letters a dash-free string is one letter, as to_string writes it
    assert Word((12,), 12).to_string() == "12"
    assert Word.from_string("12", 12) == Word((12,), 12)
    assert Word.from_string("1-2", 12) == Word((1, 2), 12)
    assert Word.from_string("", 12) == Word((), 12)
    z12 = FreePolynomial.generator(12, 12)
    assert from_triples(to_triples(z12), 12) == z12


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.integers(1, d), max_size=6))))
def test_word_strings_round_trip_for_every_alphabet(case):
    d, letters = case
    word = Word(tuple(letters), d)
    assert Word.from_string(word.to_string(), d) == word


def test_word_strings_take_ascii_digits_and_dashes_only():
    with pytest.raises(ValueError, match="'1x'"):
        Word.from_string("1x", 2)
    with pytest.raises(ValueError, match="'١٢'"):  # Arabic-Indic digits, once read as 12
        Word.from_string("١٢", 2)


def test_words_of_size_is_length_lex():
    got = [w.letters for w in words_of_size(2, 2)]
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
    assert [w.letters for w in words_of_size(2, 0)] == [()]
    # more than WORD_BUDGET words of one size raise at the call, before the first word
    for d, k in ((2, 20), (10, 7), (1001, 2)):
        with pytest.raises(BudgetExceededError, match=rf"^{d}\^{k} words exceed the budget 1000000$"):
            words_of_size(d, k)
    with pytest.raises(BudgetExceededError):
        list(words_of_size(2, 20))
    # exactly WORD_BUDGET words are allowed
    assert next(words_of_size(10, 6)).letters == (1,) * 6
    assert next(words_of_size(1000, 2)).letters == (1, 1)


def test_a_dense_walk_charges_the_budget_before_its_first_step():
    steps = []
    column = (np.zeros((1, 1)), lambda stack, j: steps.append(j) or stack)
    # 2^0 + ... + 2^19 = 2^20 - 1 words pass 10^6, and 1^0 + ... + 1^size is size + 1
    for d, size in ((2, 19), (2, 40), (1, 10**6), (1000, 2)):
        with pytest.raises(BudgetExceededError, match=rf"^{d}\^0 \+ \.\.\. \+ {d}\^{size} words exceed the budget"):
            walk_levels(d, size, column)
    assert steps == []
    # 2^19 - 1 and 10^6 words are within the budget; a call walks nothing yet
    walk_levels(2, 18, column), walk_levels(1, 10**6 - 1, column)
    assert steps == []
    # a sparse walk visits only the prefixes of its words and is not charged
    levels = list(walk_levels(2, 40, column, words=[(1,) * 40]))
    assert len(levels) == 41 and steps == [1] * 40
    assert list(walk_levels(2, -1, column)) == []


def assert_trusted(word: Word):
    """A word built without validation is the validated Word of its letters in every respect."""
    checked = Word(word.letters, word.d)
    assert all(type(letter) is int for letter in word.letters) and type(word.letters) is tuple
    assert word == checked and checked == word
    assert hash(word) == hash(checked)
    assert word.to_string() == checked.to_string()
    assert word.sort_key() == checked.sort_key()
    assert vars(word) == vars(checked)


@settings(max_examples=60, deadline=None)
@given(complex_polys(), st.integers(0, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_trusted_words_match_validated_words(p, k, n, seed):
    for word in words_of_size(p.d, k):
        assert_trusted(word)
    high = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n})
    for head, quotient in left_divide(high, n).items():
        assert_trusted(head)
        for tail in quotient.terms:
            assert_trusted(tail)
    for word in parse(format_poly(p), p.d).terms:
        assert_trusted(word)
    rng = np.random.default_rng(seed)
    b, c, dmat = rng.normal(size=p.d), rng.normal(size=p.d), rng.normal(size=(p.d, p.d))
    f = Realization(polydisk(p.d).pencil, 1, 0.5, b, c, 0.9 * dmat / np.linalg.norm(dmat, 2))
    for word in taylor_polynomial(f, k + 1).terms:
        assert_trusted(word)


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
    # the terms are a read-only copy of the caller's mapping
    given = {Word((1,), 2): 1.0}
    q = FreePolynomial(2, given)
    given[Word((2,), 2)] = 1.0
    assert q == p
    with pytest.raises(TypeError):
        q.terms[Word((2,), 2)] = 1.0


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
    with pytest.raises(ValueError, match="d must be >= 1, got 0"):
        parse("z1", 0)
    err = None
    try:
        parse("z1*z9", 3)
    except PolyParseError as exc:
        err = exc
    assert err is not None and err.position == 3


def test_parse_takes_ascii_digits_only_and_points_at_the_bad_input():
    with pytest.raises(PolyParseError, match=r"unexpected character '²' \(at position 2\)"):
        parse("z1²", 2)
    with pytest.raises(PolyParseError, match=r"z followed by an index \(at position 0\)"):
        parse("z١", 2)  # an Arabic-Indic digit, once read as z1


def test_tokenize_table():
    # text -> its tokens before ("end", None, len(text), ""), or (error, position)
    table = {
        "1e-3i": [("imag", 1e-3, 0, "1e-3i")],
        "2.5E+2": [("number", 250.0, 0, "2.5E+2")],
        "3.": [("number", 3.0, 0, "3.")],
        ".25": [("number", 0.25, 0, ".25")],
        "1.2.3": [("number", 1.2, 0, "1.2"), ("number", 0.3, 3, ".3")],
        " z12^2 -\ti": [("var", 12, 1, "z12"), ("^", "^", 4, "^"), ("number", 2.0, 5, "2"), ("-", "-", 7, "-"),
                        ("imag", 1.0, 9, "i")],
        "(2i)*z1": [("(", "(", 0, "("), ("imag", 2.0, 1, "2i"), (")", ")", 3, ")"), ("*", "*", 4, "*"),
                    ("var", 1, 5, "z1")],
        "": [],
        ".": ("malformed number", 0),
        "1e": ("unexpected character 'e'", 1),
        "z": ("variable name must be z followed by an index", 0),
        "#": ("unexpected character '#'", 0),
        "z1 + .e5": ("malformed number", 5),
    }
    for text, want in table.items():
        if isinstance(want, list):
            assert _tokenize(text) == [*want, ("end", None, len(text), "")], text
            continue
        with pytest.raises(PolyParseError) as info:
            _tokenize(text)
        assert (str(info.value), info.value.position) == (f"{want[0]} (at position {want[1]})", want[1]), text


def test_parse_rejects_juxtaposed_number_and_variable():
    with pytest.raises(PolyParseError, match="operator is required"):
        parse("2z1", 2)


def bits(c):
    """The exact bits of a complex number, NaN signs included."""
    return struct.pack("<dd", c.real, c.imag).hex()


def coefficient_bits(p):
    """The terms in dict order, with the exact bits of each coefficient."""
    return [(w.letters, bits(c)) for w, c in p.terms.items()]


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
    assert [w.letters for w in p.terms] == [(1, 1), (1, 1, 1), (1, 1, 1, 1), (1,), ()]
    square = parse("(1e400 + z1)^2", 2).terms  # NaN coefficients
    assert coefficient_bits(parse("-(1e400 + z1)^2", 2)) == [(w.letters, bits(0j + -c)) for w, c in square.items()]


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
    # the count is closed-form and never printed, so a huge n fails at once and by name
    for d, n in ((2, 10**5), (1, 10**6 + 1)):
        with pytest.raises(BudgetExceededError, match=rf"^{d}\^0 \+ \.\.\. \+ {d}\^{n - 1} words exceed the budget"):
            cesaro_sum(lambda w: pytest.fail("read a coefficient"), n, d=d)


def test_cesaro_rejects_bad_source():
    with pytest.raises(TypeError):
        cesaro_sum(object(), 2, d=2)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        cesaro_sum(parse("z1", 2), 0)


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
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        left_divide(parse("z1", 2), 0)


def test_left_divide_budget_guard():
    # the heads come from words_of_size, which charges the 3^13 words
    p = FreePolynomial.monomial(Word((1,) * 13, 3))
    with pytest.raises(BudgetExceededError, match=r"3\^13 words exceed the budget"):
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


@given(complex_polys(), st.integers(1, 3))
@settings(max_examples=150)
def test_left_divide_keeps_its_contract(p, n):
    high = FreePolynomial(p.d, {w: c for w, c in p.terms.items() if len(w) >= n})
    quotients = left_divide(high, n)
    assert [w.letters for w in quotients] == [w.letters for w in words_of_size(p.d, n)]
    for head, quotient in quotients.items():
        # the reference: the terms of this head, in the order of p's terms, keyed by validated words
        want = {Word(w.letters[n:], p.d): c for w, c in high.terms.items() if w.letters[:n] == head.letters}
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
# the reference: each operator built Word-keyed maps and re-validated them
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
    left, right = ({w.letters: c for w, c in r.terms.items()} for r in (p, q))
    return FreePolynomial(p.d, _product(left, right))


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
        for letter in word.letters:
            prod = ref_mul(prod, inner[letter - 1])
        out = ref_add(out, ref_scale(prod, coeff))
    return out


def assert_same_bits(got, want):
    """Equal d, dict order, Word keys and coefficient bits, each coefficient a Python complex."""
    assert got.d == want.d and coefficient_bits(got) == coefficient_bits(want)
    assert all(type(c) is complex for c in got.terms.values())
    for word in got.terms:
        assert_trusted(word)


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
    assert [w.letters for w in got.terms] == [(1, 1), (1,)]
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
    f = Realization(polydisk(d).pencil, 1, rng.choice([0.0, 0.5]), b, c, 0.9 * dmat / np.linalg.norm(dmat, 2))
    assert_same_bits(taylor_polynomial(f, n), ref_taylor_polynomial(f, n))
    if seed % 8 == 0:
        assert_same_bits(taylor_polynomial(bidisk_witness(), 9), ref_taylor_polynomial(bidisk_witness(), 9))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(edge_polys), st.integers(1, 3))
def test_left_quotients_match_the_public_constructor_bitwise(p, n):
    got = _left_quotients(p, n)
    heads = sorted({w.letters[:n] for w in p.terms if len(w) >= n})
    assert list(got) == heads
    for head in heads:
        tails = {Word(w.letters[n:], p.d): c for w, c in p.terms.items() if w.letters[:n] == head}
        assert_same_bits(got[head], FreePolynomial(p.d, tails))


def test_expansions_past_the_word_budget_raise_before_they_start():
    with pytest.raises(BudgetExceededError, match="1024 x 1024 term products exceed the budget 1000000"):
        parse("(z1+z2)^10*(z1+z2)^10", 2)
    big = parse("(z1+z2)^10", 2)
    for expand in (lambda: big * big, lambda: big**2, lambda: compose(parse("z1*z2", 2), (big, big))):
        with pytest.raises(BudgetExceededError, match="1024 x 1024 term products"):
            expand()
