"""Transfer-function realizations: evaluation, coefficients, remainders.

The coefficient tests are oracle-first: a jet oracle reads c_w off an
evaluation at shift-matrix tuples (resolvent code path), and a symbolic
oracle expands the geometric series over polynomial-valued matrices
(free-algebra code path).  Both must agree with power_series_coefficient.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncball import freealg, realize
from ncball.freealg import (
    FreePolynomial,
    QuotientColumn,
    _parse_word,
    _monomials,
    eval_word,
    left_divide,
    parse,
    to_triples,
    walk_levels,
    words_of_size,
)
from ncball.mattuple import MatrixTuple, _seq_matmul, direct_sum
from ncball.ncdiff import tt_check
from ncball.opball import Pencil, pencil_eval, polydisk, row_ball
from ncball.probe import MonomialRow, corner_path, sample_in_ball
from ncball.realize import (
    BUILTIN_REALIZATIONS,
    IllConditionedError,
    Realization,
    RemainderColumn,
    bidisk_witness,
    bidisk_witness_closed_form,
    realization_from_dict,
    realization_to_dict,
    taylor_polynomial,
)
from test_batch import random_contraction
from test_mattuple import PARTS, TINY_PARTS, json_round_trip, overwrites, with_parts
from test_ncdiff import (
    ref_lam,
    ref_pencil_eval,
    ref_poly_value,
    ref_prefix_row,
    ref_remainder_values,
    ref_resolvent,
    ref_tt_rhs,
)

S = 1.0 / math.sqrt(2.0)


def random_realization(rng, d=2, m=2, row=False):
    pencil = row_ball(d) if row else polydisk(d)
    mp, mq = m * pencil.p, m * pencil.q
    b = rng.normal(size=mp) + 1j * rng.normal(size=mp)
    c = rng.normal(size=mq) + 1j * rng.normal(size=mq)
    dmat = rng.normal(size=(mq, mp)) + 1j * rng.normal(size=(mq, mp))
    dmat *= 0.9 / np.linalg.norm(dmat, 2)
    return Realization(pencil, m, complex(rng.normal(), rng.normal()), b, c, dmat)


# ---------------------------------------------------------------------------
# oracles


def jet_point(word: tuple[int, ...], d: int) -> MatrixTuple:
    """Shift-matrix d-tuple whose evaluation carries c_w in the top corner."""
    k = len(word)
    entries = np.zeros((d, k + 1, k + 1), dtype=complex)
    for i, letter in enumerate(word):
        entries[letter - 1, i, i + 1] = 1.0
    return MatrixTuple(entries)


def jet_coefficient(f, word: tuple[int, ...]) -> complex:
    if len(word) == 0:
        return complex(f.eval(MatrixTuple.zeros(f.d, 1))[0, 0])
    return complex(f.eval(jet_point(word, f.d))[0, len(word)])


def poly_mat_product(a, b, d):
    out = np.empty((a.shape[0], b.shape[1]), dtype=object)
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = FreePolynomial.zero(d)
            for k in range(a.shape[1]):
                acc = acc + a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def symbolic_series(f: Realization, max_len: int) -> FreePolynomial:
    """A + B L(z) sum_k (D L(z))^k C over polynomial-valued matrices."""
    d = f.d

    def lift(matrix):
        out = np.empty(matrix.shape, dtype=object)
        for idx in np.ndindex(*matrix.shape):
            out[idx] = FreePolynomial.constant(d, matrix[idx])
        return out

    lam = np.empty((f.m * f.pencil.p, f.m * f.pencil.q), dtype=object)
    for idx in np.ndindex(*lam.shape):
        lam[idx] = FreePolynomial.zero(d)
    for j in range(1, d + 1):
        letter = f._letter_pencil.coefficients[j - 1]
        gen = FreePolynomial.generator(d, j)
        for idx in np.ndindex(*lam.shape):
            lam[idx] = lam[idx] + letter[idx] * gen

    b_row = lift(f.B.reshape(1, -1))
    c_col = lift(f.C.reshape(-1, 1))
    d_mat = lift(f.D)
    hop = poly_mat_product(d_mat, lam, d)
    total = FreePolynomial.constant(d, f.A)
    cur = poly_mat_product(b_row, lam, d)
    for _ in range(max_len):
        total = total + poly_mat_product(cur, c_col, d)[0, 0]
        cur = poly_mat_product(cur, hop, d)
    return total


# ---------------------------------------------------------------------------
# validation


def test_shape_validation():
    pencil = polydisk(2)
    with pytest.raises(ValueError, match="m must be >= 1"):
        Realization(pencil, 0, 0.0, [1, 1], [1, 1], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="B must have length"):
        Realization(pencil, 1, 0.0, [1], [1, 1], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="C must have length"):
        Realization(pencil, 1, 0.0, [1, 1], [1], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="D must be"):
        Realization(pencil, 1, 0.0, [1, 1], [1, 1], np.zeros((3, 2)))
    with pytest.raises(ValueError, match="mode must be"):
        Realization(pencil, 1, 0.0, [1, 1], [1, 1], np.zeros((2, 2)), mode="unitary")
    f, x = bidisk_witness(), MatrixTuple.scalars((0.1, 0.2))
    with pytest.raises(ValueError, match=r"^letter 3 outside alphabet 1\.\.2$"):
        f.power_series_coefficient((3,))
    with pytest.raises(ValueError, match="k must be >= 0, got -1"):
        f.homogeneous_value(x, -1)
    with pytest.raises(ValueError, match="n_terms must be >= 1, got 0"):
        f.cesaro_value(x, 0)
    # a float is not truncated and a bool is not taken as 1: each is refused, naming the value passed
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^m must be an integer, got {bad}$"):
            Realization(pencil, bad, 0.0, [1, 1], [1, 1], np.zeros((2, 2)))
        with pytest.raises(ValueError, match=rf"^k must be an integer, got {bad}$"):
            f.homogeneous_value(x, bad)
        with pytest.raises(ValueError, match=rf"^n_terms must be an integer, got {bad}$"):
            f.cesaro_value(x, bad)


def test_expansive_d_is_rejected():
    pencil = polydisk(2)
    with pytest.raises(ValueError, match="series would not converge"):
        Realization(pencil, 1, 0.0, [1, 1], [1, 1], 2.0 * np.eye(2))


def test_isometry_mode_checks_the_system_matrix():
    pencil = polydisk(2)
    with pytest.raises(ValueError, match="not an isometry"):
        Realization(pencil, 1, 0.0, [0.5, 0.5], [0.5, 0.5], 0.5 * np.eye(2), mode="isometry")
    # the builtin witness is the canonical isometric example
    f = bidisk_witness()
    assert f.mode == "isometry"
    v = f.system_matrix()
    assert np.linalg.norm(v.conj().T @ v - np.eye(3), 2) < 1e-10


def test_non_finite_system_data_is_rejected():
    pencil = polydisk(2)
    good = dict(a=0.0, b=[0.5, 0.5], c=[0.5, 0.5], d=0.5 * np.eye(2))
    for field, bad in (("a", np.nan), ("b", [np.nan, 0.5]), ("c", [0.5, np.inf]), ("d", [[np.nan, 0], [0, 0]])):
        data = dict(good, **{field: bad})
        with pytest.raises(ValueError, match=f"realization {field.upper()} must be finite"):
            Realization(pencil, 1, data["a"], data["b"], data["c"], data["d"])


def test_realization_is_immutable():
    f = bidisk_witness()
    with pytest.raises(AttributeError):
        f.A = 1.0
    # built from the caller's complex arrays, a realization keeps read-only
    # copies: mutating those arrays after evaluations changes no value, and
    # the direct sums evaluated afterwards keep the blocks of the earlier values
    b, c, dmat = (np.array(a) for a in (f.B, f.C, f.D))
    g = Realization(f.pencil, f.m, f.A, b, c, dmat, f.mode)
    rng = np.random.default_rng(24)
    ball = f.pencil
    points = [(sample_in_ball(ball, n, 0.3, rng), sample_in_ball(ball, n, 0.3, rng)) for n in (1, 2)]
    values = [(g.eval(x), g.eval(y)) for x, y in points]
    for a in (b, c, dmat):
        a *= 0.5
    for stored, given, want in ((g.B, b, f.B), (g.C, c, f.C), (g.D, dmat, f.D)):
        assert not np.shares_memory(stored, given)
        assert stored.tobytes() == want.tobytes()
    for (x, y), (fx, fy) in zip(points, values):
        n = x.n
        both = g.eval(direct_sum(x, y))
        assert both[:n, :n].tobytes() == fx.tobytes() and both[n:, n:].tobytes() == fy.tobytes()
        assert not both[:n, n:].any() and not both[n:, :n].any()
    assert all(not a.flags.writeable for a in (g.B, g.C, g.D, g._letter_pencil.coefficients, g._bd))


def test_builtin_registry():
    assert set(BUILTIN_REALIZATIONS) == {"ex52"}
    assert BUILTIN_REALIZATIONS["ex52"]().d == 2


# ---------------------------------------------------------------------------
# the bidisk witness: frozen values


def test_witness_matches_closed_form_on_scalars():
    f = bidisk_witness()
    rng = np.random.default_rng(0)
    for _ in range(200):
        x1, x2 = (complex(*pair) for pair in rng.uniform(-0.7, 0.7, (2, 2)))
        got = f.eval(MatrixTuple.scalars((x1, x2)))[0, 0]
        assert abs(got - bidisk_witness_closed_form(x1, x2)) < 1e-12


def test_witness_fixes_the_diagonal():
    f = bidisk_witness()
    for t in (0.0, 0.5, -0.3 + 0.4j, 0.9j):
        got = f.eval(MatrixTuple.scalars((t, t)))[0, 0]
        assert abs(got - t) < 1e-13


def test_witness_resolvent_closed_form():
    f = bidisk_witness()
    rng = np.random.default_rng(1)
    root2 = math.sqrt(2.0)
    for _ in range(50):
        x1, x2 = (complex(*pair) for pair in rng.uniform(-0.7, 0.7, (2, 2)))
        col = f.resolvent_term(MatrixTuple.scalars((x1, x2))).ravel()
        denom = x1 + x2 - 2.0
        want = root2 * np.array([(x2 - 1.0) / denom, (x1 - 1.0) / denom])
        assert np.max(np.abs(col - want)) < 1e-12


def test_witness_resolvent_blows_up_along_the_corner_path():
    f = bidisk_witness()
    col = f.resolvent_term(MatrixTuple.scalars(corner_path(0.1))).ravel()
    want_first = math.sqrt(2.0) * (0.5 + 5.0j)
    assert abs(col[0] - want_first) < 1e-10
    assert abs(np.linalg.norm(col) - 10.049875621120890) < 1e-9
    assert np.linalg.norm(col) >= 3.5


def test_witness_low_coefficients_frozen():
    f = bidisk_witness()
    expected = {
        "": 0.0,
        "1": 0.5,
        "2": 0.5,
        "11": 0.25,
        "12": -0.25,
        "21": -0.25,
        "22": 0.25,
    }
    for text, value in expected.items():
        got = f.power_series_coefficient(_parse_word(text, 2))
        assert abs(got - value) < 1e-12


def test_witness_taylor_polynomial_frozen():
    f = bidisk_witness()
    got = taylor_polynomial(f, 3)
    want = parse("0.5*z1 + 0.5*z2 + 0.25*z1^2 - 0.25*z1*z2 - 0.25*z2*z1 + 0.25*z2^2", 2)
    assert got.degree == 2
    for word in list(words_of_size(2, 1)) + list(words_of_size(2, 2)):
        assert abs(got.coefficient(word) - want.coefficient(word)) < 1e-12


def test_witness_on_a_nilpotent_point():
    # X = ([[0, a], [0, 0]], 0): only the z1 coefficient survives
    f = bidisk_witness()
    a = 0.8 - 0.3j
    x = MatrixTuple([[[0, a], [0, 0]], [[0, 0], [0, 0]]])
    out = f.eval(x)
    np.testing.assert_allclose(out, [[0.0, 0.5 * a], [0.0, 0.0]], atol=1e-12)


def test_witness_remainder_factors_scalar_formulas():
    f = bidisk_witness()
    rng = np.random.default_rng(2)
    w1, w2 = (1,), (2,)
    for _ in range(25):
        x1, x2 = (complex(*pair) for pair in rng.uniform(-0.7, 0.7, (2, 2)))
        x = MatrixTuple.scalars((x1, x2))
        values = ref_remainder_values(f, x, (w1, w2))
        assert bitwise_equal(RemainderColumn(f, 1).eval(x), np.vstack([values[w1], values[w2]]))
        denom = x1 + x2 - 2.0
        assert abs(values[w1][0, 0] - (x2 - 1.0) / denom) < 1e-12
        assert abs(values[w2][0, 0] - (x1 - 1.0) / denom) < 1e-12
        # the order-1 remainder identity f = x1 g1 + x2 g2 (A = 0)
        total = x1 * values[w1][0, 0] + x2 * values[w2][0, 0]
        assert abs(total - f.eval(x)[0, 0]) < 1e-12


def test_remainder_column_batch_values_agree_with_eval():
    f = bidisk_witness()
    g = RemainderColumn(f, 2)
    rng = np.random.default_rng(3)
    x = sample_in_ball(polydisk(2), 2, 0.4, rng)
    assert bitwise_equal(g.eval(x), np.vstack(list(ref_remainder_values(f, x, words_of_size(2, 2)).values())))
    values, failed = g.eval_batch(x.entries[None])
    assert bitwise_equal(values[0], g.eval(x)) and not failed.any()


def test_ill_conditioned_resolvent_raises():
    f = bidisk_witness()
    with pytest.raises(IllConditionedError) as info:
        f.eval(MatrixTuple.scalars((1.0, 1.0)))
    assert info.value.cond > 1e12 or not np.isfinite(info.value.cond)
    assert "2-norm condition number" in str(info.value)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 3),
    st.sampled_from(["unit", "norm-one", "half"]),
    st.sampled_from([0.5, 0.1, 1e-2, 1e-4, 1e-6, 1e-8]),
    st.integers(0, 2**32 - 1),
)
def test_resolvent_condition_number_obeys_the_neumann_bound(d, p, q, m, n, d_kind, margin, seed):
    # T = 1 - (D x I_n) L(X) with ||(D x I_n) L(X)|| <= delta = ||D|| ||Q(X)||,
    # so sigma_min(T) >= 1 - delta and ||T|| <= 1 + delta: the certificate of
    # the resolvent guard; 1e-6 allows for the rounding of delta near 1
    assume(d <= p * q)
    rng = np.random.default_rng(seed)
    pencil = Pencil(rng.normal(size=(d, p, q)) + 1j * rng.normal(size=(d, p, q)))
    mp, mq = m * p, m * q
    if d_kind == "unit":
        # a signed partial permutation: ||D|| = 1 exactly
        k = min(mp, mq)
        dmat = np.zeros((mq, mp))
        dmat[rng.permutation(mq)[:k], rng.permutation(mp)[:k]] = rng.choice([-1.0, 1.0], k)
    else:
        dmat = rng.normal(size=(mq, mp)) + 1j * rng.normal(size=(mq, mp))
        dmat *= (1.0 if d_kind == "norm-one" else 0.5) / np.linalg.norm(dmat, 2)
    f = Realization(pencil, m, 0.0, rng.normal(size=mp), rng.normal(size=mq), dmat)
    x = sample_in_ball(pencil, n, margin, rng)
    assert d_kind != "unit" or f._d_norm == 1.0
    delta = f._d_norm * pencil.norm_at(x)
    assume(delta < 1.0)
    t = np.eye(mq * n) - np.kron(dmat, np.eye(n)) @ np.kron(np.eye(m), pencil_eval(pencil, x))
    assert np.linalg.cond(t) <= (1.0 + delta) / (1.0 - delta) * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# coefficients against both oracles


def test_coefficients_against_jet_oracle():
    rng = np.random.default_rng(4)
    functions = [bidisk_witness(), random_realization(rng), random_realization(rng, d=3, m=1, row=True)]
    for f in functions:
        for k in range(5):
            for word in words_of_size(f.d, k):
                direct = f.power_series_coefficient(word)
                assert abs(direct - jet_coefficient(f, word)) < 1e-12


def test_coefficients_against_symbolic_series():
    rng = np.random.default_rng(5)
    for f in (bidisk_witness(), random_realization(rng, m=1)):
        sym = symbolic_series(f, 4)
        for k in range(5):
            for word in words_of_size(2, k):
                assert abs(f.power_series_coefficient(word) - sym.coefficient(word)) < 1e-12


def test_taylor_polynomial_collects_coefficients():
    rng = np.random.default_rng(6)
    f = random_realization(rng)
    taylor = taylor_polynomial(f, 4)
    sym = symbolic_series(f, 3)
    for k in range(4):
        for word in words_of_size(2, k):
            assert abs(taylor.coefficient(word) - sym.coefficient(word)) < 1e-12


def test_taylor_polynomials_of_size_zero_and_one():
    f = random_realization(np.random.default_rng(30))
    assert f.A != 0
    assert taylor_polynomial(f, 0) == FreePolynomial.zero(2)
    assert taylor_polynomial(f, 1) == FreePolynomial.constant(2, f.A)


def test_taylor_polynomial_refuses_a_negative_size_before_the_budget():
    with mock.patch.object(realize, "walk_levels", side_effect=AssertionError("charged")):
        with pytest.raises(ValueError, match=r"^n must be >= 0, got -3$"):
            taylor_polynomial(bidisk_witness(), -3)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match=rf"^n must be an integer, got {bad}$"):
                taylor_polynomial(bidisk_witness(), bad)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 6), st.booleans(), st.integers(0, 2**32 - 1))
def test_taylor_polynomial_carries_each_power_series_coefficient(d, m, n, sparse, seed):
    rng = np.random.default_rng(seed)
    f = sparse_realization(rng, d, m, False) if sparse else random_realization(rng, d=d, m=m)
    # the per-word definition: c_w for each word of size < n
    per_word = {w: f.power_series_coefficient(w) for k in range(n) for w in words_of_size(d, k)}
    assert to_triples(taylor_polynomial(f, n)) == to_triples(FreePolynomial(d, per_word))


# ---------------------------------------------------------------------------
# series structure


def test_homogeneous_value_sums_the_degree_terms():
    rng = np.random.default_rng(7)
    for f in (bidisk_witness(), random_realization(rng)):
        ball = f.pencil
        x = sample_in_ball(ball, 2, 0.5, rng)
        for k in range(4):
            direct = f.homogeneous_value(x, k)
            by_words = sum(
                f.power_series_coefficient(w) * eval_word(x, w) for w in words_of_size(f.d, k)
            )
            assert np.max(np.abs(direct - by_words)) < 1e-10


def test_partial_sums_obey_the_geometric_tail_bound():
    rng = np.random.default_rng(8)
    for f in (bidisk_witness(), random_realization(rng)):
        ball = f.pencil
        bc = np.linalg.norm(f.B) * np.linalg.norm(f.C)
        for margin in (0.5, 0.3):
            x = sample_in_ball(ball, 2, margin, rng)
            s = ball.norm_at(x)
            value = f.eval(x)
            partial = sum(f.homogeneous_value(x, k) for k in range(9))
            tail = bc * s**9 / (1.0 - s)
            assert np.linalg.norm(value - partial, 2) <= tail + 1e-12


def test_cesaro_value_matches_weighted_homogeneous_sum():
    f = bidisk_witness()
    rng = np.random.default_rng(9)
    x = sample_in_ball(polydisk(2), 2, 0.4, rng)
    n = 7
    direct = f.cesaro_value(x, n)
    manual = sum((1.0 - k / n) * f.homogeneous_value(x, k) for k in range(n))
    assert np.max(np.abs(direct - manual)) < 1e-12


def test_cesaro_error_decays_like_one_over_n():
    # at x = (t, t) the Cesaro defect is |t|/N up to a geometrically small rest
    f = bidisk_witness()
    t = 0.5
    x = MatrixTuple.scalars((t, t))
    for n in (40, 80, 160):
        err = abs(f.cesaro_value(x, n)[0, 0] - t)
        assert abs(err - t / n) < 1e-12


def test_plain_partial_sum_converges_geometrically():
    f = bidisk_witness()
    x = MatrixTuple.scalars((0.25, -0.2 + 0.1j))
    partial = sum(f.homogeneous_value(x, k) for k in range(40))
    assert abs(partial[0, 0] - f.eval(x)[0, 0]) < 1e-9


# ---------------------------------------------------------------------------
# structural identities


def test_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="evaluated at"):
        bidisk_witness().eval(MatrixTuple.zeros(3, 1))
    # the series values check d before their first term, f_0 = A I_n
    f, x = bidisk_witness(), MatrixTuple.scalars((0.1, 0.2, 0.3))
    for call in (lambda: f.homogeneous_value(x, 0), lambda: f.cesaro_value(x, 1), lambda: f.homogeneous_value(x, 1)):
        with pytest.raises(ValueError, match="Realization in d=2 variables evaluated at a 3-tuple"):
            call()


# ---------------------------------------------------------------------------
# JSON form


def test_repr_names_the_sizes_and_mode():
    assert repr(bidisk_witness()) == "Realization(d=2, p=2, q=2, m=1, mode='isometry', data=53ae46c5f0a8)"


def test_repr_tells_different_data_apart_and_keeps_equal_data_alike():
    # two draws of the same sizes and mode differ in their digest alone; a rebuilt realization reads the same
    first, second = (random_contraction(np.random.default_rng(seed), row_ball(2), 2) for seed in (1, 2))
    assert repr(first).split(", data=")[0] == repr(second).split(", data=")[0]
    assert repr(first) != repr(second)
    for f in (first, bidisk_witness()):
        assert repr(realization_from_dict(json_round_trip(realization_to_dict(f)))) == repr(f)


@st.composite
def contractions(draw):
    """A contraction-mode realization of drawn d, m and ball, with some parts of A, B, C and D overwritten.

    D is scaled to Frobenius norm 0.5 and takes only zeros and subnormals, so ||D|| stays below 1."""
    d, m, row = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.booleans())
    f = random_realization(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), d, m, row)
    b, c = (with_parts(v, draw(overwrites())) for v in (f.B, f.C))
    dmat = with_parts(0.5 * f.D / np.linalg.norm(f.D), draw(overwrites(TINY_PARTS)))
    return Realization(f.pencil, m, complex(draw(PARTS), draw(PARTS)), b, c, dmat)


@settings(max_examples=60, deadline=None)
@given(contractions())
def test_realization_dict_round_trip(drawn):
    for f in (bidisk_witness(), drawn):
        again = realization_from_dict(json_round_trip(realization_to_dict(f)))
        assert again.mode == f.mode and again.m == f.m
        assert again.pencil.coefficients.tobytes() == f.pencil.coefficients.tobytes()
        assert np.complex128(again.A).tobytes() == np.complex128(f.A).tobytes()
        for part in "BCD":
            assert getattr(again, part).tobytes() == getattr(f, part).tobytes()
        x = MatrixTuple.scalars(tuple(0.1 * (j + 1) for j in range(f.d)))
        assert again.eval(x).tobytes() == f.eval(x).tobytes()


def test_realization_from_dict_errors():
    with pytest.raises(ValueError, match="malformed realization"):
        realization_from_dict({"m": 1})


def test_realization_from_dict_names_the_bad_field():
    good = realization_to_dict(bidisk_witness())
    cases = [
        ("A", [0.0, 0.0, 99.0], r"^A must be an \[re, im\] pair"),
        ("B", [[0.5, 0.0, 1.0], [0.5, 0.0]], r"^B\[0\] must be an \[re, im\] pair"),
        ("C", [[0.5, 0.0]], "^expected 2 C, got 1"),
        ("D", [[[0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]], r"^D\[0\] must have 2 values"),
        ("m", 0, "^m must be >= 1, got 0"),
        ("m", -3, "^m must be >= 1, got -3"),
        # only JSON numbers: no string or bool through float(), and no integer too large for a float
        ("A", [" 0.25", "1_0"], r"^A must be an \[re, im\] pair of numbers"),
        ("A", [True, False], r"^A must be an \[re, im\] pair of numbers"),
        ("C", [[10**400, 0.0], [0.5, 0.0]], r"^C\[0\] must be an \[re, im\] pair of numbers"),
    ]
    for key, bad, message in cases:
        with pytest.raises(ValueError, match=message):
            realization_from_dict(dict(good, **{key: bad}))


# ---------------------------------------------------------------------------
# block evaluation against a kron-based reference
#
# The reference forms every identity Kronecker product of the defining formula
# explicitly and runs it through the fixed-order kernels.  The evaluation code
# builds none of them per call, and must agree with it bit for bit.


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def ref_eval(f, x):
    head = _seq_matmul(np.kron(f.B.reshape(1, -1), np.eye(x.n)), ref_lam(f, x))
    return f.A * np.eye(x.n, dtype=complex) + _seq_matmul(head, ref_resolvent(f, x))


def ref_homogeneous_value(f, x, k):
    eye = np.eye(x.n)
    if k == 0:
        return f.A * np.eye(x.n, dtype=complex)
    lam = ref_lam(f, x)
    cur = _seq_matmul(np.kron(f.B.reshape(1, -1), eye), lam)
    hop = _seq_matmul(np.kron(f.D, eye), lam)
    for _ in range(k - 1):
        cur = _seq_matmul(cur, hop)
    return _seq_matmul(cur, np.kron(f.C.reshape(-1, 1), eye))


def with_zeros(rng, values):
    """values with about 30% of its entries replaced by exact zeros."""
    return np.where(rng.random(np.shape(values)) < 0.3, 0.0, values)


def sparse_realization(rng, d, m, row):
    """A random realization with exact zeros in B, C and D, and ||D|| <= 0.9."""
    f = random_realization(rng, d=d, m=m, row=row)
    dmat = with_zeros(rng, f.D)
    dmat *= min(1.0, 0.9 / max(np.linalg.norm(dmat, 2), 1e-300))
    return Realization(f.pencil, m, f.A, with_zeros(rng, f.B), with_zeros(rng, f.C), dmat)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.booleans(),
    st.integers(1, 3),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_block_evaluation_matches_the_kron_reference_bitwise(d, row, m, n, sparse, seed):
    rng = np.random.default_rng(seed)
    f = sparse_realization(rng, d, m, row) if sparse else random_realization(rng, d=d, m=m, row=row)
    ball = f.pencil
    x = sample_in_ball(ball, n, 0.3, rng)
    if sparse:
        x = MatrixTuple(with_zeros(rng, x.entries))
        x = x.scale(min(1.0, 0.7 / max(ball.norm_at(x), 1e-300)))
    assert bitwise_equal(pencil_eval(f.pencil, x), ref_pencil_eval(f.pencil, x))
    assert bitwise_equal(f.eval(x), ref_eval(f, x))
    for k in range(4):
        assert bitwise_equal(f.homogeneous_value(x, k), ref_homogeneous_value(f, x, k))
    for size in (1, 2):
        want = ref_remainder_values(f, x, words_of_size(d, size))
        assert bitwise_equal(RemainderColumn(f, size).eval(x), np.vstack(list(want.values())))


# ---------------------------------------------------------------------------
# cached operands


def test_cached_letters_are_read_only():
    f = random_realization(np.random.default_rng(14), d=2, m=2)
    for j in (1, 2):
        letter = f._letter_pencil.coefficients[j - 1]
        assert np.array_equal(letter, np.kron(np.eye(2), f.pencil.coefficients[j - 1]))
        with pytest.raises(ValueError):
            letter[0, 0] = 5.0


def test_returned_values_do_not_alias_the_cache():
    f = random_realization(np.random.default_rng(15), d=2, m=2)
    x = MatrixTuple.scalars((0.2, -0.1j))
    value, constant, one_term = f.eval(x), f.homogeneous_value(x, 0), f.cesaro_value(x, 1)
    kept = value.copy()
    for out in (value, constant, one_term):
        out[0, 0] += 1.0
    assert bitwise_equal(f.eval(x), kept)
    assert f.homogeneous_value(x, 0)[0, 0] == f.A
    assert f.cesaro_value(x, 1)[0, 0] == f.A


def test_level_cache_is_transparent_across_levels():
    rng = np.random.default_rng(16)
    f = random_realization(rng, d=2, m=2)
    ball = f.pencil
    points = {n: sample_in_ball(ball, n, 0.3, rng) for n in (1, 4, 8)}
    words = list(words_of_size(2, 2))
    for n in (1, 4, 1, 8):
        x = points[n]
        fresh = Realization(f.pencil, f.m, f.A, f.B, f.C, f.D)
        assert bitwise_equal(f.eval(x), fresh.eval(x))
        assert bitwise_equal(f.homogeneous_value(x, 3), fresh.homogeneous_value(x, 3))
        assert bitwise_equal(f.cesaro_value(x, 5), fresh.cesaro_value(x, 5))
        assert bitwise_equal(RemainderColumn(f, 2).eval(x), np.vstack(list(ref_remainder_values(fresh, x, words).values())))


# ---------------------------------------------------------------------------
# the level-synchronous word walk


def ref_word_value(x, word):
    out = np.eye(x.n, dtype=complex)
    for letter in word:
        out = _seq_matmul(out, x.entries[letter - 1])
    return out


def check_level_walk(d, size, n, seed):
    """The walk's stacks of X^w and prefix rows, and every consumer, against the per-word folds."""
    rng = np.random.default_rng(seed)
    f = random_realization(rng, d=d, m=2)
    x = sample_in_ball(f.pencil, n, 0.3, rng)
    levels = list(walk_levels(d, size, _monomials(x.entries), (None, f.row_step)))
    for k in range(size + 1):
        chunks = [stacks for size_k, stacks in levels if size_k == k]
        words = list(words_of_size(d, k))
        xws = np.concatenate([xw for xw, _ in chunks])
        assert len(xws) == len(words)
        assert all(bitwise_equal(xw, eval_word(x, w)) for w, xw in zip(words, xws))
        assert all(bitwise_equal(xw, ref_word_value(x, w)) for w, xw in zip(words, xws))
        if k == 0:
            assert [rows for _, rows in chunks] == [None]
            continue
        rows = np.concatenate([rows for _, rows in chunks])
        assert all(bitwise_equal(row, ref_prefix_row(f, w)) for w, row in zip(words, rows))
    top = [stacks for size_k, stacks in levels if size_k == size]
    taylor = taylor_polynomial(f, size + 1)
    coefficients = {w: f.power_series_coefficient(w) for k in range(size + 1) for w in words_of_size(d, k)}
    assert list(taylor.terms.items()) == [(w, c) for w, c in coefficients.items() if c != 0]
    if size >= 1:
        words = list(words_of_size(d, size))
        assert MonomialRow(d, size).eval(x).tobytes() == np.hstack([eval_word(x, w) for w in words]).tobytes()
        col = np.vstack(list(ref_remainder_values(f, x, words).values()))
        assert RemainderColumn(f, size).eval(x).tobytes() == col.tobytes()
        terms = {tuple(rng.integers(1, d + 1, k)): complex(*rng.normal(size=2)) for k in range(size + 3) for _ in range(3)}
        for g in (f, FreePolynomial(d, terms)):
            assert tt_check(g, x, size).rhs.tobytes() == ref_tt_rhs(g, x, size).tobytes()
    return len(top)


walk_cases = (st.integers(1, 3), st.integers(0, 5), st.integers(1, 3), st.integers(0, 2**32 - 1))


@settings(max_examples=30, deadline=None)
@given(*walk_cases)
def test_word_walk_matches_the_per_word_folds_bitwise(d, size, n, seed):
    assert check_level_walk(d, size, n, seed) == 1


@settings(max_examples=30, deadline=None)
@given(*walk_cases, st.floats(0.0, 1.0))
def test_word_walk_chunks_keep_every_bit(d, size, n, seed, fraction):
    # a byte bound below the top level: that level and maybe others come in chunks
    level_bytes = d**size * 16 * (n * n + 2 * d)
    with mock.patch.object(freealg, "BATCH_BYTES", 1 + int(fraction * (level_bytes - 2))):
        chunks = check_level_walk(d, size, n, seed)
    assert chunks > 1 or d**size == 1


def sparse_words(d, size, seed):
    """Up to 8 random words of size <= size: few of the words of a level, and some shared prefixes."""
    rng = np.random.default_rng([seed, 1])
    return {tuple(rng.integers(1, d + 1, rng.integers(0, size + 1)).tolist()) for _ in range(rng.integers(1, 9))}


def check_sparse_walk(d, size, n, seed):
    """A walk over the prefixes of random words, and the polynomial evaluations on it, against the folds.

    Returns the most chunks that one level came out in.
    """
    rng = np.random.default_rng(seed)
    f = random_realization(rng, d=d, m=2)
    ball = f.pencil
    x, y = sample_in_ball(ball, n, 0.3, rng), sample_in_ball(ball, 1 + n % 3, 0.3, rng)
    words = sparse_words(d, size, seed)
    levels: dict[int, list] = {}
    keep = {w[:i] for w in words for i in range(len(w) + 1)}
    for walked, (xws, rows) in freealg._walk(d, size, (_monomials(x.entries), (None, f.row_step)), keep):
        levels.setdefault(len(walked[0]), []).append(walked)
        assert len(walked) == len(xws) and {len(w) for w in walked} == {len(walked[0])}
        assert all(bitwise_equal(xw, ref_word_value(x, w)) for w, xw in zip(walked, xws))
        if walked == [()]:
            assert rows is None
        else:
            assert all(bitwise_equal(row, ref_prefix_row(f, w)) for w, row in zip(walked, rows))
    # every prefix exactly once per level
    want = {k: sorted(p for p in keep if len(p) == k) for k in range(max(map(len, words)) + 1)}
    assert {k: sorted(w for chunk in chunks for w in chunk) for k, chunks in levels.items()} == want
    for w in words:
        assert bitwise_equal(eval_word(x, w), ref_word_value(x, w))
        if w:
            want_c = complex((ref_prefix_row(f, w) @ f.C)[0])
            assert bitwise_equal(f.power_series_coefficient(w), want_c)
    p = FreePolynomial(d, {w: complex(*rng.normal(size=2)) for w in sorted(words)})
    stack = np.stack([x.entries, sample_in_ball(ball, n, 0.5, rng).entries])
    assert bitwise_equal(p.eval_batch(stack)[0], ref_poly_value(p, stack))
    assert bitwise_equal(p.eval(x), ref_poly_value(p, x.entries[None])[0])
    assembled = np.zeros((x.n + y.n, x.n + y.n), dtype=complex)
    assembled[: x.n, : x.n], assembled[x.n :, x.n :] = p.eval(x), p.eval(y)
    assert bitwise_equal(p.eval(direct_sum(x, y)), assembled)
    high = FreePolynomial(d, {w: c for w, c in p.terms.items() if len(w) >= 1})
    col = [ref_poly_value(q, x.entries[None])[0] for q in left_divide(high, 1).values()]
    assert bitwise_equal(QuotientColumn(high, 1).eval(x), np.vstack(col))
    for order in range(1, size + 2):
        assert bitwise_equal(tt_check(p, x, order).rhs, ref_tt_rhs(p, x, order))
    return max(len(chunks) for chunks in levels.values())


@settings(max_examples=30, deadline=None)
@given(*walk_cases)
def test_sparse_word_walk_matches_the_per_word_folds_bitwise(d, size, n, seed):
    assert check_sparse_walk(d, size, n, seed) == 1


@settings(max_examples=30, deadline=None)
@given(*walk_cases, st.floats(0.0, 1.0))
def test_sparse_word_walk_chunks_keep_every_bit(d, size, n, seed, fraction):
    # a byte bound below the widest level: that level and maybe others come in chunks
    words = sparse_words(d, size, seed)
    widest = max(len({w[:k] for w in words if len(w) >= k}) for k in range(size + 1))
    level_bytes = widest * 16 * (n * n + 2 * d)
    with mock.patch.object(freealg, "BATCH_BYTES", 1 + int(fraction * (level_bytes - 2))):
        chunks = check_sparse_walk(d, size, n, seed)
    assert chunks > 1 or widest == 1


poly_terms = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.dictionaries(
            st.lists(st.integers(1, d), max_size=7).map(tuple),
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            max_size=25,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(poly_terms, st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_polynomial_eval_is_the_per_term_fold_bitwise(case, n, count, seed):
    d, terms = case
    p = FreePolynomial(d, terms)
    rng = np.random.default_rng(seed)
    xs = with_zeros(rng, rng.normal(size=(count, d, n, n)) + 1j * rng.normal(size=(count, d, n, n)))
    values, failed = p.eval_batch(xs)
    assert not failed.any() and bitwise_equal(values, ref_poly_value(p, xs))
    assert bitwise_equal(p.eval(MatrixTuple(xs[0])), ref_poly_value(p, xs[:1])[0])
