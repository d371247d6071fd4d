"""Matrix tuples, the fixed-order kernels, and the structural operations."""

import re

import numpy as np
import pytest

from ncball.freealg import BudgetExceededError, Word, parse
from ncball.mattuple import (
    MatrixTuple,
    ampliation,
    direct_sum,
    eval_word,
    is_nilpotent,
    point_from_dict,
    seq_matmul,
    seq_solve,
    seq_solve_batch,
    similarity,
    sup_norm,
    to_point_dict,
)


def random_tuple(rng, d, n, scale=1.0):
    return MatrixTuple(scale * (rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))))


# ---------------------------------------------------------------------------
# construction


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


# ---------------------------------------------------------------------------
# fixed-order kernels


def test_seq_matmul_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, k, n = rng.integers(1, 7, size=3)
        a = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        np.testing.assert_allclose(seq_matmul(a, b), a @ b, atol=1e-13)


def test_seq_matmul_shape_error():
    with pytest.raises(ValueError, match="cannot multiply"):
        seq_matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_seq_matmul_block_diagonal_is_exact():
    rng = np.random.default_rng(4)
    a1, a2 = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    b1, b2 = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    big_a = np.zeros((6, 6), dtype=complex)
    big_b = np.zeros((6, 6), dtype=complex)
    big_a[:3, :3], big_a[3:, 3:] = a1, a2
    big_b[:3, :3], big_b[3:, 3:] = b1, b2
    got = seq_matmul(big_a, big_b)
    assert np.array_equal(got[:3, :3], seq_matmul(a1, b1))
    assert np.array_equal(got[3:, 3:], seq_matmul(a2, b2))
    assert not got[:3, 3:].any() and not got[3:, :3].any()


def test_seq_solve_matches_numpy():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        b = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        np.testing.assert_allclose(seq_solve(a, b), np.linalg.solve(a, b), atol=1e-11)


def test_seq_solve_accepts_vectors_and_rejects_singular():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    x = seq_solve(a, np.array([2.0, 8.0]))
    assert x.shape == (2,)
    np.testing.assert_allclose(x, [1.0, 2.0])
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        seq_solve(np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ValueError, match="cannot solve"):
        seq_solve(np.zeros((2, 3)), np.ones(2))
    for a, b in ((np.eye(2), np.ones((2, 1))), (np.ones((1, 2, 3)), np.ones((1, 2, 1))), (np.eye(2)[None], np.ones((1, 3)))):
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
    out = eval_word(x, Word((1, 2), 2))
    expected = np.zeros((3, 3))
    expected[0, 2] = 1.0
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(eval_word(x, Word((), 2)), np.eye(3))
    np.testing.assert_array_equal(eval_word(x, Word((2, 1), 2)), np.zeros((3, 3)))


def test_eval_word_dimension_mismatch():
    with pytest.raises(ValueError, match="evaluated at"):
        eval_word(MatrixTuple.zeros(2, 2), Word((1,), 3))


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


def test_polynomials_respect_direct_sums_exactly():
    p = parse("z1^2*z2 - 0.5*z2*z1 + (1+2i)*z1", 2)
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = random_tuple(rng, 2, int(rng.integers(1, 5)))
        y = random_tuple(rng, 2, int(rng.integers(1, 5)))
        lhs = p.eval(direct_sum(x, y))
        assembled = np.zeros((x.n + y.n, x.n + y.n), dtype=complex)
        assembled[: x.n, : x.n] = p.eval(x)
        assembled[x.n :, x.n :] = p.eval(y)
        assert np.array_equal(lhs, assembled)


def test_ampliation_preserves_sup_norm():
    rng = np.random.default_rng(14)
    x = random_tuple(rng, 3, 3)
    amp = ampliation(x, 4)
    assert amp.n == 12
    assert abs(sup_norm(amp) - sup_norm(x)) < 1e-12
    with pytest.raises(ValueError, match="m must be >= 1"):
        ampliation(x, 0)


def test_similarity_conjugates():
    rng = np.random.default_rng(15)
    x = random_tuple(rng, 2, 3)
    s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 3 * np.eye(3)
    y = similarity(s, x)
    for j in range(2):
        np.testing.assert_allclose(y.entries[j], np.linalg.inv(s) @ x.entries[j] @ s, atol=1e-12)


def test_similarity_respects_polynomial_evaluation():
    p = parse("z1*z2 + 0.25*z2^2", 2)
    rng = np.random.default_rng(16)
    for _ in range(10):
        x = random_tuple(rng, 2, 3)
        s = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) + 2 * np.eye(3)
        cond = np.linalg.cond(s)
        lhs = p.eval(similarity(s, x))
        rhs = np.linalg.solve(s, p.eval(x) @ s)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * cond


def test_similarity_rejects_singular():
    x = MatrixTuple.zeros(1, 2)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        similarity(np.zeros((2, 2)), x)
    with pytest.raises(ValueError, match="must be 2 x 2"):
        similarity(np.eye(3), x)


def test_is_nilpotent_on_strict_upper_triangulars():
    x = MatrixTuple(
        [
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
        ]
    )
    assert is_nilpotent(x, 3)
    assert not is_nilpotent(x, 2)
    assert is_nilpotent(MatrixTuple.zeros(2, 2), 1)
    assert not is_nilpotent(MatrixTuple.scalars((0.5,)), 5)


def test_is_nilpotent_validation_and_budget():
    x = MatrixTuple.zeros(2, 2)
    with pytest.raises(ValueError, match="k must be >= 1"):
        is_nilpotent(x, 0)
    with pytest.raises(BudgetExceededError):
        is_nilpotent(x, 40)
    # the dense walk visits every word of size <= k: 2^20 - 1 > 10^6 at k = 19, 2^19 - 1 at k = 18
    with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^19 words exceed the budget 1000000"):
        is_nilpotent(MatrixTuple.zeros(2, 1), 19)
    assert is_nilpotent(MatrixTuple.zeros(2, 1), 18)


# ---------------------------------------------------------------------------
# JSON form


def test_point_dict_round_trip_is_exact():
    rng = np.random.default_rng(17)
    x = random_tuple(rng, 3, 2)
    again = point_from_dict(to_point_dict(x))
    assert again == x


def test_point_from_dict_errors():
    with pytest.raises(ValueError, match="needs keys"):
        point_from_dict({"n": 1})
    with pytest.raises(ValueError, match="expected 2 entries"):
        point_from_dict({"n": 1, "d": 2, "entries": [[[[0.0, 0.0]]]]})
    with pytest.raises(ValueError, match="must have 2 rows"):
        point_from_dict({"n": 2, "d": 1, "entries": [[[[0.0, 0.0], [0.0, 0.0]]]]})
