"""Pencils, operator balls, membership, compressions."""

import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncball.mattuple import MatrixTuple, direct_sum, sup_norm
from ncball.opball import (
    BALL_FORMS,
    BALL_KINDS,
    BallMembership,
    Pencil,
    ball_from_shorthand,
    ball_shorthand,
    factor_two_check,
    membership,
    pencil_eval,
    pencil_from_dict,
    pencil_to_dict,
    polydisk,
    row_ball,
    ucp_compression,
)
from ncball.probe import sample_in_ball
from ncball.realize import Realization, bidisk_witness
from test_mattuple import json_round_trip, overwrites, with_parts


def random_tuple(rng, d, n, scale=1.0):
    return MatrixTuple(scale * (rng.normal(size=(d, n, n)) + 1j * rng.normal(size=(d, n, n))))


# ---------------------------------------------------------------------------
# pencils


def test_pencil_validation():
    with pytest.raises(ValueError, match="expected shape"):
        Pencil(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="linearly dependent"):
        Pencil([[[1.0, 0.0]], [[2.0, 0.0]]])
    with pytest.raises(ValueError, match="linearly dependent"):
        # more coefficients than entries can carry
        Pencil(np.ones((2, 1, 1)))
    for shape in ((0, 1, 1), (2, 0, 1), (2, 1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"d, p, q must be >= 1, got shape {shape}")):
            Pencil(np.zeros(shape))


def test_pencil_rejects_non_finite_coefficients():
    for bad in (np.nan, -np.inf):
        coeffs = polydisk(2).coefficients.copy()
        coeffs[1, 0, 1] = bad
        with pytest.raises(ValueError, match="pencil coefficients must be finite"):
            Pencil(coeffs)


def test_pencil_is_immutable():
    pencil = row_ball(2)
    with pytest.raises(AttributeError):
        pencil.coefficients = None
    # a pencil owns a read-only copy: mutating the caller's array changes nothing
    raw = polydisk(2).coefficients.copy()
    pencil = Pencil(raw)
    w = bidisk_witness()
    f = Realization(pencil, w.m, w.A, w.B, w.C, w.D)
    rng = np.random.default_rng(23)
    points = [(sample_in_ball(polydisk(2), n, 0.3, rng), sample_in_ball(polydisk(2), n, 0.3, rng)) for n in (1, 2)]
    values = [(f.eval(x), f.eval(y)) for x, y in points]
    raw[0] = 0.5 * raw[1]
    assert not np.shares_memory(pencil.coefficients, raw) and not pencil.coefficients.flags.writeable
    assert pencil.coefficients.tobytes() == polydisk(2).coefficients.tobytes()
    for (x, y), (fx, fy) in zip(points, values):
        n = x.n
        both = f.eval(direct_sum(x, y))
        assert both[:n, :n].tobytes() == fx.tobytes() and both[n:, n:].tobytes() == fy.tobytes()
        assert not both[:n, n:].any() and not both[n:, :n].any()


def test_row_pencil_eval_stacks_horizontally():
    rng = np.random.default_rng(0)
    x = random_tuple(rng, 3, 2)
    out = pencil_eval(row_ball(3), x)
    np.testing.assert_array_equal(out, np.hstack([x.entries[j] for j in range(3)]))


def test_polydisk_pencil_eval_is_block_diagonal():
    rng = np.random.default_rng(1)
    x = random_tuple(rng, 2, 3)
    out = pencil_eval(polydisk(2), x)
    assert out.shape == (6, 6)
    np.testing.assert_array_equal(out[:3, :3], x.entries[0])
    np.testing.assert_array_equal(out[3:, 3:], x.entries[1])
    assert not out[:3, 3:].any() and not out[3:, :3].any()
    assert abs(polydisk(2).norm_at(x) - sup_norm(x)) < 1e-12


def test_pencil_eval_dimension_mismatch():
    with pytest.raises(ValueError, match="evaluated at"):
        pencil_eval(row_ball(2), MatrixTuple.zeros(3, 1))


def test_ball_norm_against_eigvalsh_oracle():
    rng = np.random.default_rng(2)
    ball = row_ball(3)
    for _ in range(20):
        x = random_tuple(rng, 3, int(rng.integers(1, 4)))
        q = pencil_eval(ball, x)
        oracle = float(np.sqrt(max(np.linalg.eigvalsh(q.conj().T @ q))))
        assert abs(ball.norm_at(x) - oracle) < 1e-10


# ---------------------------------------------------------------------------
# membership


def test_membership_three_way():
    ball = row_ball(2)
    inside = membership(ball, MatrixTuple.scalars((0.3, 0.4)))
    assert inside.kind == "inside" and inside.is_inside
    assert abs(inside.norm - 0.5) < 1e-15
    assert abs(inside.distance - 0.5) < 1e-15

    outside = membership(ball, MatrixTuple.scalars((0.8, 0.7)))
    assert outside.kind == "outside" and not outside.is_inside
    want = np.sqrt(1.13)
    assert abs(outside.norm - want) < 1e-15
    assert abs(outside.distance - (want - 1.0)) < 1e-15

    boundary = membership(ball, MatrixTuple.scalars((1.0, 0.0)))
    assert boundary.kind == "boundary"
    assert boundary.distance < 1e-9


def test_membership_is_the_verdict_of_the_pencil_norm():
    rng = np.random.default_rng(31)
    ball = row_ball(2)
    for scale in (0.3, 0.7, 1.0, 1.5):
        x = random_tuple(rng, 2, 2, scale)
        assert membership(ball, x) == BallMembership.from_norm(ball.norm_at(x))
    # the boundary band is fixed: 1e-6 from the sphere is inside, 1e-10 is on it
    assert BallMembership.from_norm(1.0 - 1e-6).kind == "inside"
    assert BallMembership.from_norm(1.0 - 1e-10).kind == "boundary"
    assert BallMembership.from_norm(1.5) == BallMembership("outside", 1.5, 0.5)


def test_membership_is_a_level_free_notion():
    # the same scalar data direct-summed stays exactly as deep in the ball
    ball = polydisk(2)
    x = MatrixTuple.scalars((0.5, 0.25j))
    y = direct_sum(x, x)
    assert abs(membership(ball, x).norm - membership(ball, y).norm) < 1e-12


# ---------------------------------------------------------------------------
# compressions


def test_ucp_compression_shrinks_the_pencil_norm():
    rng = np.random.default_rng(4)
    ball = row_ball(2)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        x = random_tuple(rng, 2, n, scale=0.2)
        k = int(rng.integers(1, n + 1))
        v = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))[0]
        compressed = ucp_compression(x, v)
        assert compressed.n == k
        assert ball.norm_at(compressed) <= ball.norm_at(x) + 1e-12


def test_ucp_compression_rejects_non_isometry():
    x = MatrixTuple.zeros(2, 3)
    with pytest.raises(ValueError, match="differs from the identity"):
        ucp_compression(x, np.ones((3, 2)))
    with pytest.raises(ValueError, match="must be 3 x k"):
        ucp_compression(x, np.eye(2))
    # no columns: refused by the shape check, not an IndexError from the norm of a 0 x 0 matrix
    with pytest.raises(ValueError, match=r"^V must be 3 x k with k >= 1, got \(3, 0\)$"):
        ucp_compression(x, np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_ucp_compression_refuses_a_non_finite_isometry_by_name(bad):
    # refused before any product: not an SVD that fails to converge, nor an overflow warning in V*V
    v = np.eye(3)[:, :2].astype(complex)
    v[1, 0] = bad
    with pytest.raises(ValueError, match=r"^V must be finite \(found NaN or inf\)$"):
        ucp_compression(MatrixTuple.zeros(2, 3), v)


def test_state_compression_matches_manual_form():
    # compressing by a unit vector v gives the vector state: the scalars <x_j v, v>
    rng = np.random.default_rng(3)
    x = random_tuple(rng, 2, 4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    got = ucp_compression(x, v.reshape(-1, 1))
    for j in range(2):
        want = np.conj(v) @ (x.entries[j] @ v)
        assert abs(got.entries[j][0, 0] - want) < 1e-12


def test_state_compression_is_the_rank_one_ucp_case():
    # with an n x 1 isometry v the compression is the scalar point (<x_j v, v>)_j
    rng = np.random.default_rng(5)
    x = random_tuple(rng, 3, 4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v /= np.linalg.norm(v)
    column = ucp_compression(x, v.reshape(-1, 1))
    assert column.n == 1
    for j in range(3):
        assert abs(column.entries[j][0, 0] - np.vdot(v, x.entries[j] @ v)) < 1e-12


# ---------------------------------------------------------------------------
# the factor-two bound


def test_factor_two_on_row_and_polydisk():
    rng = np.random.default_rng(6)
    for ball in (row_ball(2), polydisk(3)):
        samples = []
        for _ in range(30):
            x = random_tuple(rng, ball.d, int(rng.integers(1, 5)))
            s = ball.norm_at(x)
            samples.append(x.scale(0.9 / s))
        assert factor_two_check(ball, samples, r=1.0)


def test_factor_two_validates_inputs():
    ball = polydisk(2)
    with pytest.raises(ValueError, match="not strictly inside"):
        factor_two_check(ball, [MatrixTuple.scalars((1.5, 0.0))], r=1.0)
    with pytest.raises(ValueError, match="exceeds the claimed level-1 bound"):
        factor_two_check(ball, [MatrixTuple.scalars((0.9, 0.0))], r=0.5)
    with pytest.raises(ValueError, match="r must be positive"):
        factor_two_check(ball, [], r=0.0)
    with pytest.raises(ValueError, match="r must be positive, got nan"):
        factor_two_check(ball, [MatrixTuple.scalars((0.5, 0.0))], r=float("nan"))


def test_factor_two_gives_no_verdict_without_samples_or_a_finite_r():
    ball = polydisk(2)
    with pytest.raises(ValueError, match="^samples must hold at least one point$"):
        factor_two_check(ball, [], r=1.0)
    with pytest.raises(ValueError, match="^samples must hold at least one point$"):
        factor_two_check(ball, iter(()), r=1.0)
    with pytest.raises(ValueError, match="^r must be finite, got inf$"):
        factor_two_check(ball, [MatrixTuple.scalars((0.5, 0.0))], r=float("inf"))
    with pytest.raises(ValueError, match="^r must be positive, got -inf$"):
        factor_two_check(ball, [MatrixTuple.scalars((0.5, 0.0))], r=-float("inf"))


# ---------------------------------------------------------------------------
# JSON and shorthand


def test_pencil_repr_names_the_sizes():
    assert repr(polydisk(2)) == "Pencil(d=2, p=2, q=2)"
    assert repr(row_ball(3)) == "Pencil(d=3, p=1, q=3)"


@st.composite
def pencils(draw, d):
    """A d-variable pencil of a drawn shape: gaussian coefficients with some parts overwritten (see overwrites)."""
    p = draw(st.integers(1, 3))
    q = draw(st.integers(-(-d // p), 3))  # p q >= d, so that d coefficients can be independent
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coefficients = with_parts(rng.normal(size=(d, p, q)) + 1j * rng.normal(size=(d, p, q)), draw(overwrites()))
    try:
        return Pencil(coefficients)
    except ValueError:  # the overwritten parts made the coefficients linearly dependent
        assume(False)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(pencils))
def test_pencil_dict_round_trip(pencil):
    again = pencil_from_dict(json_round_trip(pencil_to_dict(pencil)))
    assert again.coefficients.shape == pencil.coefficients.shape
    assert again.coefficients.tobytes() == pencil.coefficients.tobytes()


def test_pencil_from_dict_errors():
    with pytest.raises(ValueError, match="needs keys"):
        pencil_from_dict({"d": 1})
    good = pencil_to_dict(row_ball(2))
    bad = dict(good, coefficients=good["coefficients"][:1])
    with pytest.raises(ValueError, match="expected 2"):
        pencil_from_dict(bad)


def test_ball_shorthand_round_trip(tmp_path):
    assert ball_shorthand(row_ball(3)) == "row:3"
    assert ball_shorthand(polydisk(2)) == "polydisk:2"
    assert ball_from_shorthand("row:3") == row_ball(3)
    assert ball_from_shorthand("polydisk:2") == polydisk(2)

    rng = np.random.default_rng(8)
    pencil = Pencil(rng.normal(size=(2, 1, 2)))
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(pencil_to_dict(pencil)))
    ball = ball_from_shorthand(f"pencil:{path}")
    assert ball == pencil
    assert ball_shorthand(ball) is None


def test_every_ball_is_a_pencil(tmp_path):
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(pencil_to_dict(row_ball(2))))
    balls = [polydisk(2), row_ball(3), ball_from_shorthand("polydisk:3"), ball_from_shorthand(f"pencil:{path}")]
    assert all(type(ball) is Pencil for ball in balls)
    assert balls[3] == row_ball(2)


@pytest.mark.parametrize("make", [polydisk, row_ball])
def test_ball_dimension_must_be_a_positive_integer(make):
    for bad in (-1, 0):
        with pytest.raises(ValueError, match=rf"^d must be >= 1, got {bad}$"):
            make(bad)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^d must be an integer, got {bad}$"):
            make(bad)


def test_ball_shorthand_errors():
    with pytest.raises(ValueError, match="unrecognized ball shorthand"):
        ball_from_shorthand("cube:2")
    with pytest.raises(ValueError, match="file not found"):
        ball_from_shorthand("pencil:/no/such/file.json")
    for text in ("row:-1", "row:0", "polydisk:x", "polydisk:2.5", "row:²"):
        kind = text.partition(":")[0]
        with pytest.raises(ValueError, match=f"ball shorthand '{text}' needs an integer d >= 1 after '{kind}:'"):
            ball_from_shorthand(text)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", sorted(BALL_KINDS))
def test_each_ball_kind_names_its_ball_back(kind, d):
    ball = ball_from_shorthand(f"{kind}:{d}")
    assert ball == BALL_KINDS[kind](d)
    # polydisk:1 has row:1's pencil, and row comes first in the table
    assert ball_shorthand(ball) == ("row:1" if d == 1 else f"{kind}:{d}")


def test_ball_shorthand_messages_keep_their_text():
    assert BALL_FORMS == "row:d, polydisk:d, or pencil:FILE"
    messages = {
        "row:0": "ball shorthand 'row:0' needs an integer d >= 1 after 'row:'",
        "polydisk:x": "ball shorthand 'polydisk:x' needs an integer d >= 1 after 'polydisk:'",
        "row:": "ball shorthand 'row:' needs an integer d >= 1 after 'row:'",
        "row:\u0661": "ball shorthand 'row:\u0661' needs an integer d >= 1 after 'row:'",  # an Arabic-Indic one
        "pencil:": "unrecognized ball shorthand 'pencil:' (use row:d, polydisk:d, or pencil:FILE)",
        "cube:2": "unrecognized ball shorthand 'cube:2' (use row:d, polydisk:d, or pencil:FILE)",
    }
    for text, message in messages.items():
        with pytest.raises(ValueError) as caught:
            ball_from_shorthand(text)
        assert str(caught.value) == message
