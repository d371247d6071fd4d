"""Matrix tuples, the fixed-order kernels, and the structural operations."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncball.freealg import eval_word, parse
from ncball.mattuple import (
    MatrixTuple,
    direct_sum,
    _seq_matmul,
    point_from_dict,
    seq_solve_batch,
    similarity,
    sup_norm,
    to_point_dict,
)
from ncball.ncdiff import tt_check
from ncball.realize import bidisk_witness
from ncball.varieties import parabola_cubic_pair, variety_membership


def random_tuple(rng, d, n, scale=1.0):
    return MatrixTuple(scale * (rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))))


# ---------------------------------------------------------------------------
# construction


def test_integer_argument_zeros_refuses_a_bad_shape_by_name():
    # checked before numpy sees the shape: a bool is no size, and a negative one is not numpy's to refuse
    for d, n, message in (
        (True, 1, "d must be an integer, got True"),
        (-1, 1, "d must be >= 1, got -1"),
        (2, 0, "n must be >= 1, got 0"),
        (2, 2.0, "n must be an integer, got 2.0"),
        (np.bool_(True), 1, f"d must be an integer, got {np.bool_(True)!r}"),
        (2, np.float64(2.0), f"n must be an integer, got {np.float64(2.0)!r}"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MatrixTuple.zeros(d, n)
    assert MatrixTuple.zeros(np.int64(2), np.uint8(3)) == MatrixTuple.zeros(2, 3)


def test_real_argument_tol_is_one_rule_for_tt_check_and_membership():
    # a bool is no tolerance, as it is no size, whether Python's or numpy's; a finite real number >= 0 of Python
    # or numpy is one, and is kept as a float; an integer past the float range is not finite
    f, variety, x = bidisk_witness(), parabola_cubic_pair()[0], MatrixTuple.scalars((0.5, 0.25))
    huge = (10**400, -(10**400))
    for bad in (True, np.True_, np.False_, 1j, "1e-9", None, np.float32("nan"), np.float64("inf"), np.int8(-1), *huge):
        message = f"^{re.escape(f'tol must be a finite number >= 0, got {bad}')}$"
        with pytest.raises(ValueError, match=message):
            tt_check(f, x, 2, bad)
        with pytest.raises(ValueError, match=message):
            variety_membership(variety, x, bad)
    for good in (0, np.int64(1), np.uint8(2), np.float16(0.5), np.float32(1e-9), 1e-9):
        tol = tt_check(f, x, 2, good).tol
        assert type(tol) is float and tol == good
        assert variety_membership(variety, x, good) is True


def test_tuple_shape_validation():
    with pytest.raises(ValueError, match="expected shape"):
        MatrixTuple(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="expected shape"):
        MatrixTuple(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError, match="d and n"):
        MatrixTuple(np.zeros((0, 1, 1)))


def test_tuple_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        entries = np.zeros((2, 2, 2), dtype=complex)
        entries[1, 0, 1] = bad
        with pytest.raises(ValueError, match="point entries must be finite"):
            MatrixTuple(entries)
    with pytest.raises(ValueError, match="must be finite"):
        MatrixTuple.scalars((0.1, float("nan")))


def test_tuple_is_immutable():
    x = MatrixTuple.zeros(2, 2)
    with pytest.raises(AttributeError):
        x.entries = None
    with pytest.raises(ValueError):
        x.entries[0, 0, 0] = 1.0
    # a tuple owns a read-only copy: mutating the caller's arrays changes nothing
    p = parse("z1^2*z2 - 0.5*z2*z1 + (1+2i)*z1", 2)
    rng = np.random.default_rng(22)
    for n in (1, 2):
        raw = [rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n)) for _ in range(2)]
        kept = [a.copy() for a in raw]
        x, y = (MatrixTuple(a) for a in raw)
        fx, fy = p.eval(x), p.eval(y)
        for a in raw:
            a += 1.0
        for point, a, k in zip((x, y), raw, kept):
            assert not np.shares_memory(point.entries, a) and not point.entries.flags.writeable
            assert point.entries.tobytes() == k.tobytes()
        both = p.eval(direct_sum(x, y))
        assert both[:n, :n].tobytes() == fx.tobytes() and both[n:, n:].tobytes() == fy.tobytes()
        assert not both[:n, n:].any() and not both[n:, :n].any()


def test_scalars_and_scale():
    x = MatrixTuple.scalars((0.5, -1j))
    assert x.d == 2 and x.n == 1
    assert x.entries[1, 0, 0] == -1j
    y = x.scale(2.0)
    assert y.entries[0, 0, 0] == 1.0
    # source unchanged
    assert x.entries[0, 0, 0] == 0.5


def test_equality_is_exact():
    x = MatrixTuple.scalars((0.5,))
    assert x == MatrixTuple.scalars((0.5,))
    assert x != MatrixTuple.scalars((0.5 + 1e-16,))


def test_a_foreign_operand_is_never_equal():
    # __eq__ hands a foreign operand back to Python, which falls back to identity
    x = MatrixTuple.scalars((0.5,))
    assert x != (0.5,) and not (x == 0.5)


def test_repr_names_the_sizes():
    assert repr(MatrixTuple.zeros(2, 3)) == "MatrixTuple(d=2, n=3)"


# ---------------------------------------------------------------------------
# fixed-order kernels


def test_seq_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, k, n = rng.integers(1, 7, size=3)
        a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        np.testing.assert_allclose(_seq_matmul(a, b), a @ b, atol=1e-13)


def solve_one(a, b):
    x, singular = seq_solve_batch(a[None], b[None])
    assert not singular[0]
    return x[0]


def test_kernels_respect_direct_sums_exactly():
    rng = np.random.default_rng(4)
    a1, a2 = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    b1, b2 = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    big_a = np.zeros((6, 6), dtype=complex)
    big_b = np.zeros((6, 6), dtype=complex)
    big_a[:3, :3], big_a[3:, 3:] = a1, a2
    big_b[:3, :3], big_b[3:, 3:] = b1, b2
    for kernel in (_seq_matmul, solve_one):
        got = kernel(big_a, big_b)
        assert np.array_equal(got[:3, :3], kernel(a1, b1))
        assert np.array_equal(got[3:, 3:], kernel(a2, b2))
        assert not got[:3, 3:].any() and not got[3:, :3].any()


def test_seq_solve_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        np.testing.assert_allclose(solve_one(a, b), np.linalg.solve(a, b), atol=1e-11)


def test_seq_solve_batch_rejects_bad_shapes():
    shapes = [((2, 2), (2, 1)), ((1, 2, 3), (1, 2, 1)), ((1, 2, 2), (1, 3)), ((3, 2, 2), (2, 2, 1)), ((1, 2, 2), (1, 3, 1))]
    for a, b in ((np.ones(a), np.ones(b)) for a, b in shapes):
        with pytest.raises(ValueError, match=re.escape(f"cannot solve stacks of shapes {a.shape} and {b.shape}")):
            seq_solve_batch(a, b)


# ---------------------------------------------------------------------------
# norms and evaluation


def test_sup_norm_frozen_values():
    assert sup_norm(MatrixTuple([[[0.0, 2.0], [0.0, 0.0]]])) == 2.0
    assert sup_norm(MatrixTuple.scalars((3.0, -4.0))) == 4.0


def test_sup_norm_against_power_iteration():
    def sigma_max(a, iters=600):
        rng = np.random.default_rng(0)
        v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
        v /= np.linalg.norm(v)
        for _ in range(iters):
            w = a.conj().T @ (a @ v)
            norm = np.linalg.norm(w)
            if norm == 0:
                return 0.0
            v = w / norm
        return float(np.sqrt(np.linalg.norm(a.conj().T @ (a @ v))))

    rng = np.random.default_rng(12)
    for _ in range(10):
        x = random_tuple(rng, 2, int(rng.integers(1, 6)))
        oracle = max(sigma_max(x.entries[j]) for j in range(2))
        assert abs(sup_norm(x) - oracle) <= 1e-6 * max(oracle, 1.0)


def test_eval_word_shift_matrices():
    x = MatrixTuple(
        [
            [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
        ]
    )
    out = eval_word(x, (1, 2))
    expected = np.zeros((3, 3))
    expected[0, 2] = 1.0
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(eval_word(x, ()), np.eye(3))
    np.testing.assert_array_equal(eval_word(x, (2, 1)), np.zeros((3, 3)))


def test_eval_word_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^letter 3 outside alphabet 1\.\.2$"):
        eval_word(MatrixTuple.zeros(2, 2), (3,))


def test_eval_poly_scalar_witness_point():
    p = parse("2*z1*z2 - z1 - z2", 2)
    out = p.eval(MatrixTuple.scalars((0.5, 0.5)))
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - (-0.5)) < 1e-15


def test_eval_poly_matches_manual_matrix_arithmetic():
    p = parse("z1*z2 - z2*z1 + 3", 2)
    rng = np.random.default_rng(8)
    x = random_tuple(rng, 2, 4)
    a, b = x.entries
    manual = a @ b - b @ a + 3 * np.eye(4)
    np.testing.assert_allclose(p.eval(x), manual, atol=1e-12)


# ---------------------------------------------------------------------------
# structural operations


def test_direct_sum_layout():
    x = MatrixTuple.scalars((1.0, 2.0))
    y = MatrixTuple.scalars((3.0, 4.0))
    both = direct_sum(x, y)
    assert both.n == 2
    np.testing.assert_array_equal(both.entries[0], [[1, 0], [0, 3]])
    np.testing.assert_array_equal(both.entries[1], [[2, 0], [0, 4]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        direct_sum(x, MatrixTuple.zeros(3, 1))


def test_direct_sum_of_copies_preserves_sup_norm():
    rng = np.random.default_rng(14)
    x = random_tuple(rng, 3, 3)
    copies = direct_sum(direct_sum(x, x), direct_sum(x, x))
    assert copies.n == 12
    assert abs(sup_norm(copies) - sup_norm(x)) < 1e-12


def test_similarity_conjugates():
    rng = np.random.default_rng(15)
    x = random_tuple(rng, 2, 3)
    s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
    y = similarity(s, x)
    for j in range(2):
        np.testing.assert_allclose(y.entries[j], np.linalg.inv(s) @ x.entries[j] @ s, atol=1e-12)


def test_similarity_rejects_singular():
    x = MatrixTuple.zeros(1, 2)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        similarity(np.zeros((2, 2)), x)
    with pytest.raises(ValueError, match="must be 2 x 2"):
        similarity(np.eye(3), x)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_similarity_refuses_a_non_finite_matrix_by_name(bad):
    # refused before the condition number, whose SVD would not converge
    s = np.eye(2, dtype=complex)
    s[0, 1] = bad
    with pytest.raises(ValueError, match=r"^similarity matrix must be finite \(found NaN or inf\)$"):
        similarity(s, MatrixTuple.zeros(1, 2))


# ---------------------------------------------------------------------------
# JSON form


# both zeros and subnormals, which a JSON round trip must keep bit for bit; == cannot tell -0.0 from 0.0
TINY_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310])
PARTS = TINY_PARTS | st.floats(-1e3, 1e3)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def overwrites(parts=PARTS):
    """(index, value) pairs that with_parts writes into the float parts of an array."""
    return st.lists(st.tuples(st.integers(0, 2**16), parts), max_size=8)


def with_parts(a, pairs) -> np.ndarray:
    """A complex copy of a with value written at float part index % size for each (index, value) pair."""
    out = np.array(a, dtype=complex)
    parts = out.reshape(-1).view(float)
    for index, value in pairs:
        parts[index % parts.size] = value
    return out


def json_round_trip(obj):
    """obj through JSON text and back, as a file written by the CLI is read."""
    return json.loads(json.dumps(obj))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1), overwrites(TINY_PARTS | FINITE_FLOATS))
def test_point_dict_round_trip_is_exact(d, n, seed, pairs):
    # a point takes any finite part, the largest included
    x = MatrixTuple(with_parts(random_tuple(np.random.default_rng(seed), d, n).entries, pairs))
    again = point_from_dict(json_round_trip(to_point_dict(x)))
    assert again.entries.shape == x.entries.shape and again.entries.tobytes() == x.entries.tobytes()


def test_point_from_dict_errors():
    with pytest.raises(ValueError, match="needs keys"):
        point_from_dict({"n": 1})
    with pytest.raises(ValueError, match="expected 2 entries"):
        point_from_dict({"n": 1, "d": 2, "entries": [[[[0.0, 0.0]]]]})
    with pytest.raises(ValueError, match="must have 2 rows"):
        point_from_dict({"n": 2, "d": 1, "entries": [[[[0.0, 0.0], [0.0, 0.0]]]]})
