"""Batched evaluation, and the contract suite every nc function kind keeps.

Each batched kernel takes a leading batch axis and the one-point function is
its batch of one, so these properties check that a sample's bits do not
depend on the stack it sits in, nor on its neighbours' failures.

``TARGETS`` is the registry of kinds, and the suite runs over all of it: the
per-sample bits at any stack size, the empty stack, direct sums block by
block and bit for bit, similarities to a tolerance, the pencil certificate
keeping every bit, the one error at a point of the wrong d, and the repr
that names an unlabeled probe report.  The kinds that split
(``SPLIT_TARGETS``) also give both sides of ``tt_check`` bit for bit.  A new
kind is one ``TARGETS`` entry.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncball import realize
from ncball.freealg import QuotientColumn, parse
from ncball.mattuple import MatrixTuple, _seq_matmul, direct_sum, seq_solve_batch, similarity
from ncball.ncdiff import tt_check
from ncball.opball import Pencil, pencil_eval, pencil_eval_batch, polydisk, row_ball
from ncball import probe
from ncball.probe import (
    MonomialRow,
    _check_seeder,
    _pcg64_states,
    _sample_chunks,
    estimate_sup,
    sample_in_ball,
)
from ncball.realize import (
    IllConditionedError,
    Realization,
    RemainderColumn,
    _kron_eye_matmul,
    bidisk_witness,
)
from test_ncdiff import ref_tt_rhs


def gaussian(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_contraction(rng, ball, m):
    """A contraction-mode realization with m copies of the ball's pencil and ||D|| = 0.9."""
    pencil = ball
    mp, mq = m * pencil.p, m * pencil.q
    dmat = gaussian(rng, (mq, mp))
    dmat *= 0.9 / np.linalg.norm(dmat, 2)
    return Realization(pencil, m, complex(rng.normal(), rng.normal()), gaussian(rng, mp), gaussian(rng, mq), dmat)


def points_inside(rng, ball, count, n, radius=0.9):
    """count level-n points of the ball at pencil norm ``radius``, as a stack."""
    xs = gaussian(rng, (count, ball.d, n, n))
    return xs * (radius / ball.norms_at(xs)).astype(complex)[:, None, None, None]


TARGETS = ["ex52", "contraction", "poly", "row", "column", "quotients", "contraction_row3", "contraction_m3"]
SPLIT_TARGETS = ["ex52", "contraction", "poly", "contraction_row3", "contraction_m3"]  # the kinds tt_check takes


def target(name, rng):
    """(f, ball, (r, c)): an nc function whose value at a level-n point is (r n) x (c n)."""
    if name == "ex52":
        return bidisk_witness(), polydisk(2), (1, 1)
    if name == "contraction":
        return random_contraction(rng, row_ball(2), 2), row_ball(2), (1, 1)
    if name == "contraction_row3":
        return random_contraction(rng, row_ball(3), 1), row_ball(3), (1, 1)
    if name == "contraction_m3":
        return random_contraction(rng, polydisk(2), 3), polydisk(2), (1, 1)
    if name == "poly":
        return parse("z1*z2 - 0.5*z2*z1 + (0.3+0.2i)*z1 + z2^3 - 1.5i", 2), polydisk(2), (1, 1)
    if name == "row":
        return MonomialRow(2, 2), polydisk(2), (1, 4)
    if name == "column":
        return RemainderColumn(random_contraction(rng, row_ball(2), 2), 2), row_ball(2), (4, 1)
    return QuotientColumn(parse("z1*z2*z1 - 0.5*z2*z2 + (0.3+0.2i)*z2*z1*z2*z2", 2), 2), polydisk(2), (4, 1)


# ---------------------------------------------------------------------------
# kernels: each slice of a batched call is the pre-batching reference, bit for bit


def reference_seq_matmul(a, b):
    # the one-point kernel as it was written before batching
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 16), st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1))
@example(count=3, m=1, k=1, n=1, seed=0)
def test_seq_matmul_kernel_is_bitwise_per_slice(count, m, k, n, seed):
    rng = np.random.default_rng(seed)
    a, b = gaussian(rng, (count, m, k)), gaussian(rng, (count, k, n))
    out = _seq_matmul(a, b)
    for i in range(count):
        assert out[i].tobytes() == reference_seq_matmul(a[i], b[i]).tobytes()


def reference_seq_solve(a, b):
    # the one-point elimination as it was written before batching
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    n = a.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        mult = a[k + 1 :, k : k + 1] / a[k, k]
        a[k + 1 :, k + 1 :] -= mult * a[k : k + 1, k + 1 :]
        b[k + 1 :, :] -= mult * b[k : k + 1, :]
    for i in range(n - 1, -1, -1):
        b[i, :] /= a[i, i]
        b[:i, :] -= a[:i, i : i + 1] * b[i : i + 1, :]
    return b


def pivot_stack(rng, count, n, cols, swaps, zero_step):
    """count n x n systems with cols right sides, and which samples meet a zero pivot.

    Without swaps every diagonal entry outweighs the rest of its column, which
    elimination keeps, so no sample ever swaps rows.  With a zero_step, each
    odd sample is upper triangular with a zero at diagonal entry zero_step
    mod n: it swaps no rows, and its first zero pivot is met at that step.
    """
    a, b = gaussian(rng, (count, n, n)), gaussian(rng, (count, n, cols))
    if not swaps:
        a[:, range(n), range(n)] = np.abs(a).sum(axis=1) + 1.0
    singular = [zero_step is not None and i % 2 == 1 for i in range(count)]
    for i in np.flatnonzero(singular):
        a[i] = np.triu(a[i])
        a[i, zero_step % n, zero_step % n] = 0.0
    return a, b, singular


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 16),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.none() | st.integers(0, 15),
    st.integers(0, 2**32 - 1),
)
@example(count=2, n=1, cols=1, strided=False, swaps=True, zero_step=None, seed=0)
# the stacks of a level-8 probe: 64 points of 16 x 16 with 8 columns
@example(count=64, n=16, cols=8, strided=False, swaps=True, zero_step=None, seed=0)
@example(count=64, n=16, cols=8, strided=True, swaps=True, zero_step=None, seed=1)
# the solve's early exits: n = 1 with a zero pivot, one met only at the last step, no swaps in the stack, B = 0
@example(count=3, n=1, cols=1, strided=False, swaps=True, zero_step=0, seed=0)
@example(count=4, n=5, cols=2, strided=False, swaps=True, zero_step=4, seed=0)
@example(count=4, n=5, cols=2, strided=True, swaps=False, zero_step=None, seed=0)
@example(count=0, n=3, cols=2, strided=False, swaps=True, zero_step=None, seed=0)
def test_seq_solve_batch_is_bitwise_per_slice(count, n, cols, strided, swaps, zero_step, seed):
    rng = np.random.default_rng(seed)
    a, b, want_singular = pivot_stack(rng, count, n, cols, swaps, zero_step)
    if strided:
        # a strided view of a, and one right-hand side broadcast over the stack
        wide = np.zeros((count, n, 2 * n), dtype=complex)
        wide[..., ::2] = a
        a, b = wide[..., ::2], np.broadcast_to(b[0], b.shape)
    x, singular = seq_solve_batch(a, b)
    assert x.shape == (count, n, cols)
    assert singular.tolist() == want_singular
    for i in np.flatnonzero(~singular):
        assert x[i].tobytes() == reference_seq_solve(a[i], b[i]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(1, 8), st.integers(0, 7), st.booleans(), st.integers(0, 2**32 - 1))
@example(count=3, n=3, zero_step=0, swaps=True, seed=4)
@example(count=3, n=1, zero_step=0, swaps=True, seed=0)  # n = 1: the one step is the last
@example(count=5, n=4, zero_step=3, swaps=True, seed=0)  # a zero pivot met only at the last step
@example(count=5, n=4, zero_step=1, swaps=False, seed=0)  # no sample swaps rows
@example(count=0, n=3, zero_step=0, swaps=True, seed=0)  # B = 0
def test_a_zero_pivot_masks_only_its_own_sample(count, n, zero_step, swaps, seed):
    rng = np.random.default_rng(seed)
    a, b, want_singular = pivot_stack(rng, count, n, 1, swaps, zero_step)
    x, singular = seq_solve_batch(a, b)
    assert singular.tolist() == want_singular
    for i in np.flatnonzero(~singular):
        assert x[i].tobytes() == reference_seq_solve(a[i], b[i]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 19), st.integers(1, 16), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
@example(count=0, n=3, cols=2, zero_pivots=False, seed=0)
@example(count=64, n=16, cols=8, zero_pivots=True, seed=0)
def test_one_right_side_for_the_stack_is_bitwise_its_broadcast(count, n, cols, zero_pivots, seed):
    # the resolvent passes C x I_n once for the whole stack: every sample solves it, singular ones included
    rng = np.random.default_rng(seed)
    a, b = gaussian(rng, (count, n, n)), gaussian(rng, (1, n, cols))
    if zero_pivots:
        a[rng.random(count) < 0.5, :, rng.integers(0, n)] = 0.0
    x, singular = seq_solve_batch(a, b)
    want, want_singular = seq_solve_batch(a, np.broadcast_to(b, (count, n, cols)))
    assert x.shape == (count, n, cols)
    assert singular.tolist() == want_singular.tolist()
    assert x.tobytes() == want.tobytes()


def two_array_seq_solve_batch(a, b):
    # the batched elimination as it was written before the augmented stack:
    # each pivot swaps and updates a and b with separate numpy calls
    a, b = np.array(a, dtype=complex), np.array(b, dtype=complex)
    count, n = a.shape[:2]
    singular = np.zeros(count, dtype=bool)
    for k in range(n):
        piv = k + np.abs(a[:, k:, k]).argmax(axis=1)
        moved = (piv != k).nonzero()[0]
        if len(moved):
            for m in (a, b):
                row = m[moved, piv[moved]]
                m[moved, piv[moved]] = m[moved, k]
                m[moved, k] = row
        zero = a[:, k, k] == 0
        if np.count_nonzero(zero):
            singular |= zero
            a[zero, k, k] = 1.0
        mult = a[:, k + 1 :, k : k + 1] / a[:, k : k + 1, k : k + 1]
        a[:, k + 1 :, k + 1 :] -= mult * a[:, k : k + 1, k + 1 :]
        b[:, k + 1 :, :] -= mult * b[:, k : k + 1, :]
    for i in range(n - 1, -1, -1):
        b[:, i : i + 1, :] /= a[:, i : i + 1, i : i + 1]
        b[:, :i, :] -= a[:, :i, i : i + 1] * b[:, i : i + 1, :]
    return b, singular


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 19), st.integers(1, 19), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
@example(count=1, n=1, cols=1, zero_pivots=True, seed=0)
@example(count=16, n=16, cols=8, zero_pivots=False, seed=0)
@example(count=64, n=16, cols=8, zero_pivots=True, seed=0)
def test_augmented_elimination_is_bitwise_the_two_array_one(count, n, cols, zero_pivots, seed):
    rng = np.random.default_rng(seed)
    a, b = gaussian(rng, (count, n, n)), gaussian(rng, (count, n, cols))
    if zero_pivots:
        # a zero column k leaves a zero pivot at step k, whatever the swaps before it
        hit = rng.random(count) < 0.5
        a[hit, :, rng.integers(0, n)] = 0.0
    given_a, given_b = a.copy(), b.copy()
    x, singular = seq_solve_batch(a, b)
    want, want_singular = two_array_seq_solve_batch(a, b)
    assert singular.tolist() == want_singular.tolist()
    assert not zero_pivots or singular.tolist() == hit.tolist()
    for i in np.flatnonzero(~singular):
        assert x[i].tobytes() == want[i].tobytes()
    # the inputs are read, never written
    assert a.tobytes() == given_a.tobytes() and b.tobytes() == given_b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3e-310, -1e300]), min_size=2, max_size=24), st.integers(1, 8))
@example(parts=[-0.0, 0.0, -1.0, -0.0], n=1)
def test_broadcast_c_kron_eye_is_bitwise_np_kron(parts, n):
    k = len(parts) // 2
    # set as parts, so that a signed zero keeps its sign
    c = np.empty(k, dtype=complex)
    c.real, c.imag = parts[:k], parts[k : 2 * k]
    assert realize._kron_eye_col(c, n).tobytes() == np.kron(c.reshape(-1, 1), np.eye(n)).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(count=2, p=1, q=1, m=1, n=1, zeros=False, seed=0)
def test_the_block_column_product_is_bitwise_the_two_products(count, p, q, m, n, zeros, seed):
    rng = np.random.default_rng(seed)
    d = min(2, p * q)
    mp, mq = m * p, m * q
    b, dmat = gaussian(rng, mp), gaussian(rng, (mq, mp))
    if zeros:
        b, dmat = (np.where(rng.random(v.shape) < 0.3, 0.0, v) for v in (b, dmat))
    dmat *= 0.9 / max(np.linalg.norm(dmat, 2), 1e-300)
    f = Realization(Pencil(gaussian(rng, (d, p, q))), m, 0.5, b, gaussian(rng, mq), dmat)
    assert not f._bd.flags.writeable
    lam = pencil_eval_batch(f._letter_pencil, gaussian(rng, (count, d, n, n)))
    for stack in (lam, lam[0]):
        both = _kron_eye_matmul(f._bd, stack, n)
        head = _kron_eye_matmul(f.B.reshape(1, -1), stack, n)
        hop = _kron_eye_matmul(f.D, stack, n)
        assert both[..., :n, :].tobytes() == head.tobytes()
        assert both[..., n:, :].tobytes() == hop.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 6), st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(count=2, rows=1, inner=1, n=1, cols=1, seed=0)
def test_kron_eye_matmul_is_bitwise_per_slice(count, rows, inner, n, cols, seed):
    rng = np.random.default_rng(seed)
    a, b = gaussian(rng, (rows, inner)), gaussian(rng, (count, inner * n, cols))
    out = _kron_eye_matmul(a, b, n)
    for i in range(count):
        assert out[i].tobytes() == _kron_eye_matmul(a, b[i], n).tobytes()
        assert out[i].tobytes() == reference_seq_matmul(np.kron(a, np.eye(n)), b[i]).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(count=2, p=1, q=1, n=1, seed=0)
def test_pencil_eval_batch_is_bitwise_per_slice(count, p, q, n, seed):
    rng = np.random.default_rng(seed)
    d = min(2, p * q)
    pencil = Pencil(gaussian(rng, (d, p, q)))
    xs = gaussian(rng, (count, d, n, n))
    out = pencil_eval_batch(pencil, xs)
    for i in range(count):
        assert out[i].tobytes() == pencil_eval(pencil, MatrixTuple(xs[i])).tobytes()
        # the sum of Kronecker products, accumulated in j order, bits included
        want = np.zeros((p * n, q * n), dtype=complex)
        for j in range(d):
            want += np.kron(pencil.coefficients[j], xs[i, j])
        assert out[i].tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the contract suite: every kind of TARGETS keeps each contract


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TARGETS), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(name="ex52", count=3, n=1, seed=0)
@example(name="contraction", count=3, n=1, seed=0)
@example(name="poly", count=3, n=1, seed=0)
@example(name="row", count=3, n=1, seed=0)
@example(name="column", count=3, n=1, seed=0)
@example(name="quotients", count=3, n=1, seed=0)
@example(name="contraction_row3", count=3, n=1, seed=0)
@example(name="contraction_m3", count=3, n=1, seed=0)
def test_eval_batch_is_bitwise_per_sample_eval(name, count, n, seed):
    rng = np.random.default_rng(seed)
    f, ball, (r, c) = target(name, rng)
    xs = points_inside(rng, ball, count, n)
    values, failed = f.eval_batch(xs)
    assert values.shape == (count, r * n, c * n) and not failed.any()
    for i in range(count):
        assert values[i].tobytes() == f.eval(MatrixTuple(xs[i])).tobytes()


@pytest.mark.parametrize("name", TARGETS)
@pytest.mark.parametrize("n", [1, 3])
def test_every_kind_evaluates_an_empty_stack(name, n):
    # with and without pencil norms where the kind has a pencil
    f, _, (r, c) = target(name, np.random.default_rng(0))
    empty = np.zeros((0, f.d, n, n), dtype=complex)
    runs = [f.eval_batch(empty)]
    if getattr(f, "pencil", None) is not None:
        runs.append(f.eval_batch(empty, pencil_norms=np.zeros(0)))
    for values, failed in runs:
        assert values.shape == (0, r * n, c * n) and values.dtype == complex
        assert failed.shape == (0,) and failed.dtype == bool


def blocks(values, r, c):
    """A (B, r n, c n) stack of values as its (B, r, c, n, n) blocks."""
    count, n = len(values), values.shape[1] // r
    return values.reshape(count, r, n, c, n).transpose(0, 1, 3, 2, 4)


@pytest.mark.parametrize("name", TARGETS)
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(count=2, nx=1, ny=1, seed=0)
def test_every_kind_respects_direct_sums_exactly(name, count, nx, ny, seed):
    # each block of f(X + Y) is bit for bit the block diagonal of that block of f(X) and of f(Y)
    rng = np.random.default_rng(seed)
    f, ball, (r, c) = target(name, rng)
    xs, ys = points_inside(rng, ball, count, nx), points_inside(rng, ball, count, ny)
    sums = np.stack([direct_sum(MatrixTuple(x), MatrixTuple(y)).entries for x, y in zip(xs, ys)])
    (both, both_failed), (fx, x_failed), (fy, y_failed) = (f.eval_batch(zs) for zs in (sums, xs, ys))
    assert not (both_failed.any() or x_failed.any() or y_failed.any())
    assembled = np.zeros((count, r, c, nx + ny, nx + ny), dtype=complex)
    assembled[..., :nx, :nx] = blocks(fx, r, c)
    assembled[..., nx:, nx:] = blocks(fy, r, c)
    assert blocks(both, r, c).tobytes() == assembled.tobytes()


@pytest.mark.parametrize("name", TARGETS)
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.integers(2, 4), st.integers(0, 2**32 - 1))
@example(count=2, n=2, seed=0)
def test_every_kind_respects_similarities(name, count, n, seed):
    # each block of f(S^-1 X S) is S^-1 f(X)_ab S, to rounding scaled by cond(S) and the size of f(X)
    rng = np.random.default_rng(seed)
    f, ball, (r, c) = target(name, rng)
    s = np.eye(n) + 0.3 * gaussian(rng, (n, n))
    xs = points_inside(rng, ball, count, n, radius=0.5)
    ys = np.stack([similarity(s, MatrixTuple(x)).entries for x in xs])
    assume(ball.norms_at(ys).max() < 0.95)
    (fx, x_failed), (fy, y_failed) = f.eval_batch(xs), f.eval_batch(ys)
    assert not (x_failed.any() or y_failed.any())
    want = np.linalg.solve(s, blocks(fx, r, c) @ s)
    error = np.linalg.norm(blocks(fy, r, c) - want, 2, axis=(-2, -1)).max()
    assert error <= 1e-10 * np.linalg.cond(s) * max(1.0, np.abs(fx).max())


@pytest.mark.parametrize("name", TARGETS)
@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([0.5, 0.99, 1 - 1e-9]), max_size=6), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example(radii=[], n=1, seed=0)
@example(radii=[0.5, 0.99, 1 - 1e-9], n=2, seed=0)
def test_every_kind_keeps_every_bit_under_the_pencil_certificate(name, radii, n, seed):
    # pencil norms skip only guards that cannot trip: the values and the failure mask keep every bit
    rng = np.random.default_rng(seed)
    f, ball, _ = target(name, rng)
    xs = points_inside(rng, ball, len(radii), n, radius=np.array(radii))
    if getattr(f, "pencil", None) is None:
        with pytest.raises(TypeError, match="no pencil"):
            f.eval_batch(xs, pencil_norms=ball.norms_at(xs))
        return
    values, failed = f.eval_batch(xs, pencil_norms=ball.norms_at(xs))
    exact_values, exact_failed = f.eval_batch(xs)
    assert values.tobytes() == exact_values.tobytes()
    assert failed.tolist() == exact_failed.tolist()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SPLIT_TARGETS), st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example(name="ex52", n=1, order=6, seed=0)
@example(name="poly", n=3, order=2, seed=0)
def test_tt_check_sides_are_bitwise_eval_and_the_word_by_word_sum(name, n, order, seed):
    # one solve or one walk for both sides: the left side is f.eval's bits and the right the word-by-word sum's
    rng = np.random.default_rng(seed)
    f, ball, _ = target(name, rng)
    x = MatrixTuple(points_inside(rng, ball, 1, n, radius=0.5)[0])
    report = tt_check(f, x, order)
    assert report.lhs.tobytes() == f.eval(x).tobytes()
    assert report.rhs.tobytes() == ref_tt_rhs(f, x, order).tobytes()


@pytest.mark.parametrize("name", TARGETS)
def test_eval_at_a_point_of_the_wrong_d_raises_one_error(name):
    f, _, _ = target(name, np.random.default_rng(0))
    message = f"{type(f).__name__} in d={f.d} variables evaluated at a {f.d + 1}-tuple"
    with pytest.raises(ValueError) as info:
        f.eval(MatrixTuple.zeros(f.d + 1, 2))
    assert str(info.value) == message


@pytest.mark.parametrize("name", TARGETS)
def test_an_unlabeled_probe_report_names_its_target_by_repr(name):
    # every kind has one name, its repr, and a caller's label wins over it
    f, ball, _ = target(name, np.random.default_rng(0))
    assert estimate_sup(f, ball, 1, 4, 0).target == repr(f)
    assert estimate_sup(f, ball, 1, 4, 0, target_label="mine").target == "mine"


# ---------------------------------------------------------------------------
# per-sample failures


def test_a_tripped_guard_masks_only_its_own_sample():
    # f(x) = x / (1 - x): the resolvent operand 1 - x is singular at x = 1,
    # for f and for the remainder factors that share its resolvent
    f = Realization(Pencil(np.ones((1, 1, 1))), 1, 0, [1], [1], [[1]])
    xs = np.array([0.5, 1.0, 0.25], dtype=complex).reshape(3, 1, 1, 1)
    for g in (f, RemainderColumn(f, 1), RemainderColumn(f, 2)):
        values, failed = g.eval_batch(xs)
        assert failed.tolist() == [False, True, False]
        assert np.isnan(values[1]).all()
        for i in (0, 2):
            assert values[i].tobytes() == g.eval(MatrixTuple(xs[i])).tobytes()
        with pytest.raises(IllConditionedError) as info:
            g.eval(MatrixTuple(xs[1]))
        assert info.value.cond == np.inf


# ---------------------------------------------------------------------------
# the resolvent certificate: pencil norms skip only condition numbers that cannot trip


def x_over_one_minus_x():
    """f(x) = x / (1 - x) on the unit disk, ||D|| = 1: the resolvent is singular at x = 1."""
    return Realization(Pencil(np.ones((1, 1, 1))), 1, 0, [1], [1], [[1]])


def stack_at_margins(rng, ball, n, margins):
    """One level-n point of the ball at pencil norm 1 - margin for each margin."""
    return np.concatenate([points_inside(rng, ball, 1, n, radius=1.0 - margin) for margin in margins])


@pytest.fixture
def cond_calls():
    """The stacks np.linalg.cond receives, recorded while the test runs."""
    calls = []
    cond = np.linalg.cond

    def spy(t):
        calls.append(t.copy())
        return cond(t)

    with mock.patch.object(realize.np.linalg, "cond", spy):
        yield calls


def resolvent_case(base, kind):
    """(g, its realization, ball, stack): a type with a resolvent at margins down to 1e-12."""
    rng = np.random.default_rng(21)
    margins = [0.5, 1e-3, 1e-6, 1e-9, 1e-12]
    if base == "ex52":
        f, ball, xs = bidisk_witness(), polydisk(2), stack_at_margins(rng, polydisk(2), 2, margins)
    elif base == "contraction":
        f, ball = random_contraction(rng, row_ball(2), 2), row_ball(2)
        xs = stack_at_margins(rng, ball, 3, margins)
    else:
        f = x_over_one_minus_x()
        ball, xs = f.pencil, np.array([0.5, 1.0, 0.25, 1.0 - 1e-10], dtype=complex).reshape(4, 1, 1, 1)
    g = {"f": f, "column": RemainderColumn(f, 2)}[kind]
    return g, f, ball, xs


@pytest.mark.parametrize("kind", ["f", "column"])
@pytest.mark.parametrize("base", ["ex52", "contraction", "x/(1-x)"])
def test_pencil_norms_keep_every_value_and_failure(base, kind, cond_calls):
    g, f, ball, xs = resolvent_case(base, kind)
    norms = ball.norms_at(xs)
    exact_values, exact_failed = g.eval_batch(xs)
    # without norms the whole stack is measured, as it always was
    assert [len(t) for t in cond_calls] == [len(xs)]
    cond_calls.clear()
    values, failed = g.eval_batch(xs, pencil_norms=norms)
    assert values.tobytes() == exact_values.tobytes()
    assert failed.tolist() == exact_failed.tolist()
    assert failed.tolist() == [base == "x/(1-x)" and i == 1 for i in range(len(xs))]
    # the guard measures the operands of the samples the bound leaves above 1e9, and no other
    uncertified = np.flatnonzero(f._d_norm * norms > realize._CERTIFIED_DELTA)
    n = xs.shape[-1]
    operands = np.eye(f.m * f.pencil.q * n) - _kron_eye_matmul(f.D, pencil_eval_batch(f._letter_pencil, xs[uncertified]), n)
    assert sum(len(t) for t in cond_calls) == len(uncertified)
    assert b"".join(t.tobytes() for t in cond_calls) == operands.tobytes()
    assert len(uncertified) == {"ex52": 2, "contraction": 0, "x/(1-x)": 2}[base]


def test_a_singular_operand_takes_the_exact_guard_with_norms():
    # at x = 1, delta = ||D|| ||Q(X)|| = 1 leaves no certificate: the exact
    # guard runs and trips with cond = inf, as without norms
    f = x_over_one_minus_x()
    xs = np.array([0.5, 1.0, 0.25], dtype=complex).reshape(3, 1, 1, 1)
    _, _, errors = f._resolvent(xs, f.pencil.norms_at(xs))
    assert list(errors) == [1]
    assert isinstance(errors[1], IllConditionedError) and errors[1].cond == np.inf
    assert str(errors[1]) == "resolvent operand 1 - (D x I_n) L(X) has 2-norm condition number inf, above 1e+12"


def test_a_singular_operand_past_the_guard_fails_at_its_zero_pivot(monkeypatch):
    # a guard that passes every operand leaves the exactly singular T of ex52
    # at (1, 1), 1 - D, to the solve: its zero pivot fails that sample alone
    monkeypatch.setattr(realize.np.linalg, "cond", lambda t: np.ones(len(t)))
    f = bidisk_witness()
    xs = np.array([[0.5, 0.5], [1.0, 1.0], [0.3, -0.2j]], dtype=complex).reshape(3, 2, 1, 1)
    values, failed = f.eval_batch(xs)
    assert failed.tolist() == [False, True, False]
    assert np.isnan(values[1]).all()
    for i in (0, 2):
        assert values[i].tobytes() == f.eval(MatrixTuple(xs[i])).tobytes()
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        f.eval(MatrixTuple(xs[1]))


def test_one_stack_masks_a_tripped_guard_and_a_zero_pivot_apart(monkeypatch):
    # x / (1 - x) at 0.5, 1, 1 and 0.25 under a guard that waves the third operand, 1 - 1 = 0, through:
    # the second sample trips the guard, the third meets its zero pivot, and the others keep their one-point bits
    cond = np.linalg.cond
    monkeypatch.setattr(realize.np.linalg, "cond", lambda t: np.where(np.arange(len(t)) == 2, 1.0, cond(t)))
    f = x_over_one_minus_x()
    xs = np.array([0.5, 1.0, 1.0, 0.25], dtype=complex).reshape(4, 1, 1, 1)
    _, res, errors = f._resolvent(xs)
    assert [(i, type(error)) for i, error in errors.items()] == [(1, IllConditionedError), (2, np.linalg.LinAlgError)]
    assert errors[1].cond == np.inf and str(errors[2]) == "matrix is singular"
    assert np.isnan(res[[1, 2]]).all() and not np.isnan(res[[0, 3]]).any()
    for g in (f, RemainderColumn(f, 1), RemainderColumn(f, 2)):
        values, failed = g.eval_batch(xs)
        assert failed.tolist() == [False, True, True, False]
        assert np.isnan(values[[1, 2]]).all()
        for i in (0, 3):
            assert values[i].tobytes() == g.eval(MatrixTuple(xs[i])).tobytes()


def test_ex52_needs_no_condition_number_at_margins_down_to_1e_6(cond_calls):
    f, ball = bidisk_witness(), polydisk(2)
    xs = stack_at_margins(np.random.default_rng(22), ball, 4, [0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    values, failed = f.eval_batch(xs, pencil_norms=ball.norms_at(xs))
    assert cond_calls == [] and not failed.any()
    assert values.tobytes() == f.eval_batch(xs)[0].tobytes()


def test_eval_batch_rejects_malformed_pencil_norms():
    f = bidisk_witness()
    xs = points_inside(np.random.default_rng(23), polydisk(2), 3, 2)
    with pytest.raises(ValueError, match="shape"):
        f.eval_batch(xs, pencil_norms=np.full(2, 0.5))
    with pytest.raises(ValueError, match="shape"):
        f.eval_batch(xs, pencil_norms=np.full((3, 1), 0.5))
    for bad in (np.nan, np.inf, -0.5):
        with pytest.raises(ValueError, match="finite"):
            f.eval_batch(xs, pencil_norms=[0.5, bad, 0.5])
    with pytest.raises(TypeError, match="no pencil"):
        parse("z1", 2).eval_batch(xs, pencil_norms=np.full(3, 0.5))


def test_eval_batch_rejects_bad_stacks():
    f = bidisk_witness()
    with pytest.raises(ValueError, match="stack of shape"):
        f.eval_batch(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="3-tuples"):
        f.eval_batch(np.zeros((1, 3, 1, 1)))
    with pytest.raises(ValueError, match="must be finite"):
        parse("z1", 2).eval_batch(np.full((1, 2, 1, 1), np.nan))


# ---------------------------------------------------------------------------
# one sampler


# seeds of one to five 32-bit entropy words
SEEDS = st.integers(0, 2**160 - 1)
MARGINS = (0.5, 0.1, 0.01, 0.001)


def rescaled(ball, raw, margin):
    """A raw (d, n, n) draw rescaled to ||Q(X)|| = 1 - margin, as a stack of one, as the sampler rescales."""
    factors = (1.0 - np.asarray([margin])) / ball.norms_at(raw[None])
    return (raw[None] * factors.astype(complex)[:, None, None, None])[0]


def two_draws(rng, d, n):
    """The sampler's raw point as it was first written: real and imaginary parts drawn one after the other."""
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 2, 3)), st.integers(1, 8), st.integers(1, 6), SEEDS)
@example(d=2, n=1, count=3, seed=2**32 - 2)
@example(d=1, n=3, count=1, seed=2**32 - 1)
@example(d=3, n=2, count=2, seed=2**32)
@example(d=2, n=8, count=2, seed=2**64)
@example(d=1, n=1, count=3, seed=2**128 - 1)
@example(d=3, n=1, count=1, seed=2**128)
def test_seeder_draws_the_bits_of_default_rng(d, n, count, seed):
    ball = polydisk(d)
    draws = [(seed + i, MARGINS[i % 4]) for i in range(count)]
    states = _pcg64_states([draw_seed for draw_seed, _ in draws])
    stack = np.concatenate(list(_sample_chunks(ball, n, draws, 2)))
    seeded = np.random.Generator(np.random.PCG64())
    for x, (draw_seed, margin), (state, inc) in zip(stack, draws, states):
        want = np.random.default_rng(draw_seed)
        assert {"state": state, "inc": inc} == want.bit_generator.state["state"]
        seeded.bit_generator.state = want.bit_generator.state
        re, im = want.standard_normal((d, n, n)), want.standard_normal((d, n, n))
        assert seeded.standard_normal((2, d, n, n)).tobytes() == np.stack([re, im]).tobytes()
        assert x.tobytes() == rescaled(ball, re + 1j * im, margin).tobytes()
        # the caller's generator: one draw of (2, d, n, n) ends where two draws of (d, n, n) end
        rng = np.random.default_rng(draw_seed)
        assert sample_in_ball(ball, n, margin, rng).entries.tobytes() == x.tobytes()
        assert rng.bit_generator.state == want.bit_generator.state


def test_seeder_takes_numpy_integers_and_rejects_negative_seeds():
    ball = polydisk(2)
    want = np.concatenate(list(_sample_chunks(ball, 2, [(5, 0.5), (2**63 + 5, 0.1)], 64)))
    got = np.concatenate(list(_sample_chunks(ball, 2, [(np.int64(5), 0.5), (np.uint64(2**63 + 5), 0.1)], 1)))
    assert got.tobytes() == want.tobytes()
    for seed in (-1, np.int64(-3)):
        with pytest.raises(ValueError, match="non-negative"):
            list(_sample_chunks(ball, 2, [(7, 0.5), (seed, 0.1)], 64))
    with pytest.raises(ValueError, match="must be >= 0"):
        estimate_sup(bidisk_witness(), ball, 2, 10, -2)
    with pytest.raises(TypeError):
        list(_sample_chunks(ball, 2, [(1.5, 0.5)], 64))


def test_seeder_self_check_names_numpy(monkeypatch):
    monkeypatch.setattr(probe, "_pcg64_states", lambda seeds: [(0, 1)] * len(seeds))
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        _check_seeder.__wrapped__()
    monkeypatch.undo()
    _check_seeder.__wrapped__()


def zero_norms(monkeypatch, first_only: int | None):
    """Make the ball report norm 0: at point first_only of the first stack it measures, or everywhere if None.

    Returns the list of stack sizes measured.
    """
    norms_at = Pencil.norms_at
    calls = []

    def patched(self, xs):
        s = norms_at(self, xs)
        if first_only is None:
            s[:] = 0.0
        elif not calls:
            s[first_only] = 0.0
        calls.append(len(xs))
        return s

    monkeypatch.setattr(Pencil, "norms_at", patched)
    return calls


def test_sampler_refuses_an_all_zero_draw(monkeypatch):
    ball = polydisk(2)
    draws = [(seed, MARGINS[seed % 4]) for seed in range(5)]
    calls = zero_norms(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="rng is broken"):
        list(_sample_chunks(ball, 2, draws, 64))
    assert calls == [5]
    monkeypatch.undo()
    calls = zero_norms(monkeypatch, None)
    with pytest.raises(RuntimeError, match="rng is broken"):
        sample_in_ball(ball, 2, 0.5, np.random.default_rng(7))
    assert calls == [1]


def test_the_sampler_seeds_a_multistart_once(monkeypatch):
    _check_seeder()  # the once-per-process check seeds on its own
    seeded = []
    pcg64_states = probe._pcg64_states
    monkeypatch.setattr(probe, "_pcg64_states", lambda seeds: seeded.append(len(seeds)) or pcg64_states(seeds))
    draws = [(seed, MARGINS[seed % 4]) for seed in range(100)]
    stacks = list(_sample_chunks(polydisk(2), 8, draws, 64))
    assert seeded == [100]
    assert [len(stack) for stack in stacks] == [64, 36]
    # the caller sizes the stacks: the 1 x 2 row pencil's are the 2 x 2 pencil's
    assert [len(stack) for stack in _sample_chunks(row_ball(2), 8, draws, 64)] == [64, 36]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 40), SEEDS, st.booleans())
@example(n=1, count=3, seed=0, row=False)
def test_chunked_sampler_is_sample_in_ball_per_draw(n, count, seed, row):
    ball = row_ball(2) if row else polydisk(2)
    margins = (0.5, 0.1, 0.01, 0.001)
    draws = [(seed + i, margins[i % 4]) for i in range(count)]
    stack = np.concatenate(list(_sample_chunks(ball, n, draws, 8)))
    assert stack.shape == (count, 2, n, n)
    for x, (draw_seed, margin) in zip(stack, draws):
        want = sample_in_ball(ball, n, margin, np.random.default_rng(draw_seed))
        assert x.tobytes() == want.entries.tobytes()
