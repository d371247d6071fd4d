"""Algebraic subvarieties: membership, homogeneity sampling, curve maps."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncball.freealg import FreePolynomial, parse
from ncball.mattuple import MatrixTuple, _unit_disk_points, direct_sum, similarity
from ncball.opball import BALL_KINDS, ball_shorthand, polydisk
from ncball.varieties import (
    AlgebraicVariety,
    HomogeneityReport,
    apply_poly_map,
    generator_defect,
    homogeneity_sample,
    parabola_cubic_pair,
    variety_from_dict,
    variety_membership,
    variety_to_dict,
)
from test_mattuple import PARTS, json_round_trip
from test_opball import pencils

BALL = polydisk(2)


def parabola():
    return parabola_cubic_pair()[0]


def parabola_point(rng, n, scale=0.5):
    """(T, T^2) with T drawn small enough to stay inside the bidisk."""
    t = scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    t /= max(1.0, 2.0 * np.linalg.norm(t, 2))
    return MatrixTuple(np.array([t, t @ t]))


# ---------------------------------------------------------------------------
# membership


def test_scalar_membership_on_the_parabola():
    v = parabola()
    assert variety_membership(v, MatrixTuple.scalars((0.5, 0.25)))
    assert variety_membership(v, MatrixTuple.scalars((-0.3j, -0.09)))
    assert not variety_membership(v, MatrixTuple.scalars((0.5, 0.35)))
    # on the algebraic set but outside the ambient ball
    assert not variety_membership(v, MatrixTuple.scalars((1.5, 2.25)))


def test_matrix_membership_on_the_parabola():
    v = parabola()
    rng = np.random.default_rng(30)
    for n in (2, 3, 4):
        x = parabola_point(rng, n)
        assert variety_membership(v, x)
        bumped = MatrixTuple(x.entries + np.full((2, n, n), 1e-3))
        assert not variety_membership(v, bumped)


def test_membership_tolerance_thresholds_the_defect():
    v = parabola()
    x = MatrixTuple.scalars((0.5, 0.25 + 1e-8))
    assert generator_defect(v, x) == pytest.approx(1e-8)
    assert not variety_membership(v, x)
    assert variety_membership(v, x, tol=1e-6)


def test_the_verdict_thresholds_the_defect_even_when_it_is_nan():
    # 1.7e308*z1 + 1.7e308*z2 overflows to inf at (0.9, 0.9), whose SVD norm is NaN; Python's max drops a NaN that
    # comes after a finite value, so the defect is checked in both generator orders
    overflowing, zero = parse("1.7e308*z1 + 1.7e308*z2", 2), parse("z1 - z1 + z2 - z2", 2)
    x = MatrixTuple.scalars((0.9, 0.9))
    with np.errstate(over="ignore", invalid="ignore"):
        for generators in ((zero, overflowing), (overflowing, zero)):
            v = AlgebraicVariety(BALL, generators)
            assert not np.isfinite(generator_defect(v, x))
            assert variety_membership(v, x) is False


def test_membership_validation():
    v = parabola()
    with pytest.raises(ValueError, match="tested against"):
        variety_membership(v, MatrixTuple.scalars((0.1,)))
    with pytest.raises(ValueError, match="generator in d=1"):
        AlgebraicVariety(BALL, (parse("z1", 1),))
    # a NaN tol made every point a non-member and inf every point inside the ball a member: both are refused,
    # as a negative tol and a bool (no tolerance, as it is no size) are, before any generator is evaluated
    on_curve = MatrixTuple.scalars((0.1, 0.01))
    assert variety_membership(v, on_curve)
    for tol in (float("nan"), float("inf"), -1e-12, True, np.True_):
        with mock.patch.object(FreePolynomial, "eval", side_effect=AssertionError("evaluated")):
            with pytest.raises(ValueError, match=rf"^tol must be a finite number >= 0, got {tol}$"):
                variety_membership(v, on_curve, tol)


def test_variety_points_are_closed_under_direct_sums():
    v = parabola()
    rng = np.random.default_rng(31)
    x, y = parabola_point(rng, 2), parabola_point(rng, 3)
    assert variety_membership(v, direct_sum(x, y))


def test_variety_points_are_closed_under_similarity():
    # conjugating (T, T^2) gives (S^-1 T S, (S^-1 T S)^2), still on the curve
    v = parabola()
    rng = np.random.default_rng(32)
    x = parabola_point(rng, 3, scale=0.2)
    s = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    y = similarity(s, x)
    assert variety_membership(v, y, tol=1e-8)


# ---------------------------------------------------------------------------
# homogeneity


def test_the_full_ball_slice_is_homogeneous():
    # zeros(z2): pairs (T, 0), closed under scaling
    v = AlgebraicVariety(BALL, (FreePolynomial.generator(2, 2),))
    rng = np.random.default_rng(33)
    samples = []
    for n in (1, 2, 3):
        t = rng.standard_normal((n, n))
        t *= 0.9 / max(1.0, 2.0 * np.linalg.norm(t, 2))
        samples.append(MatrixTuple(np.array([t, np.zeros((n, n))])))
    report = homogeneity_sample(v, samples, seed=0)
    assert report.holds
    assert bool(report)
    assert report.witness_point is None


def test_the_parabola_fails_homogeneity_with_the_frozen_witness():
    v = parabola()
    x = MatrixTuple.scalars((0.5, 0.25))
    report = homogeneity_sample(v, [x], lambdas=[0.5])
    assert isinstance(report, HomogeneityReport)
    assert not report.holds
    assert not bool(report)
    assert report.witness_scale == 0.5
    assert np.array_equal(report.witness_point.entries, x.entries)
    # g(x/2) = 0.25/2 - 0.25^2 = 1/16 exactly
    assert report.defect == 0.0625


def test_homogeneity_with_seeded_scales_also_finds_a_witness():
    v = parabola()
    rng = np.random.default_rng(34)
    report = homogeneity_sample(v, [parabola_point(rng, 2)], seed=5)
    assert not report.holds
    assert abs(report.witness_scale) < 1.0
    assert report.defect > 0.0


def test_integer_argument_homogeneity_seed_is_refused_by_name():
    # a bool would run as seed 1, and numpy's own refusals of 2.5 and -1 name no argument
    x = MatrixTuple.scalars((0.5, 0.25))
    for seed, message in ((True, "must be an integer, got True"), (2.5, "must be an integer, got 2.5"), (-1, "must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^seed {message}$"):
            homogeneity_sample(parabola(), [x], seed=seed)


def test_homogeneity_validation():
    v = parabola()
    x = MatrixTuple.scalars((0.5, 0.25))
    with pytest.raises(ValueError, match="open unit disk"):
        homogeneity_sample(v, [x], lambdas=[1.0])
    # a NaN scale is refused where it enters: not blamed on a point, nor skipped after a verdict at 0.5
    for lambdas in ([float("nan")], [0.5, float("nan")]):
        with pytest.raises(ValueError, match="open unit disk"):
            homogeneity_sample(v, [x], lambdas=lambdas)
    with pytest.raises(ValueError, match="out-of-variety"):
        homogeneity_sample(v, [MatrixTuple.scalars((0.5, 0.3))])


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"lambdas": []}, "lambdas must hold at least one scale"),
        ({"samples": []}, "samples must hold at least one point"),
    ],
)
def test_homogeneity_gives_no_verdict_from_no_samples(kwargs, message):
    # the parabola is not homogeneous, so a holds=True from nothing would be wrong
    kwargs = {"samples": [MatrixTuple.scalars((0.5, 0.25))], **kwargs}
    with pytest.raises(ValueError, match=message):
        homogeneity_sample(parabola(), **kwargs)


def test_default_scales_keep_their_draw():
    # all radii sqrt(u) first, then all phases, as the seeded scales were always drawn
    rng = np.random.default_rng(5)
    radii = np.sqrt(rng.uniform(0.0, 1.0, 20))
    phases = rng.uniform(0.0, 2.0 * np.pi, 20)
    want = [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, phases)]
    got = _unit_disk_points(np.random.default_rng(5), 20)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    report = homogeneity_sample(parabola(), [MatrixTuple.scalars((0.5, 0.25))], seed=5)
    assert report.witness_scale == want[0]


def test_a_variety_with_no_generators_is_its_ball():
    v = AlgebraicVariety(BALL, ())
    x = MatrixTuple.scalars((0.1, 0.2))
    assert variety_membership(v, x)
    assert generator_defect(v, x) == 0.0
    assert not variety_membership(v, MatrixTuple.scalars((1.5, 0.2)))


# ---------------------------------------------------------------------------
# the parabola/cubic pair


def test_pair_maps_carry_one_curve_onto_the_other():
    v1, v2, forward, backward = parabola_cubic_pair()
    rng = np.random.default_rng(35)
    for n in (1, 2, 3, 4):
        x = parabola_point(rng, n)
        image = apply_poly_map(forward, x)
        assert variety_membership(v2, image)
        # backward is a left inverse on the first curve, exactly:
        # both maps keep the first coordinate and recompute the second
        again = apply_poly_map(backward, image)
        assert np.array_equal(again.entries[0], x.entries[0])
        assert np.max(np.abs(again.entries[1] - x.entries[1])) < 1e-12


def test_pair_maps_the_other_direction():
    v1, v2, forward, backward = parabola_cubic_pair()
    rng = np.random.default_rng(36)
    for n in (1, 2, 3):
        t = 0.4 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        t /= max(1.0, 2.0 * np.linalg.norm(t, 2))
        x = MatrixTuple(np.array([t, t @ t @ t]))
        assert variety_membership(v2, x)
        image = apply_poly_map(backward, x)
        assert variety_membership(v1, image)
        again = apply_poly_map(forward, image)
        assert np.max(np.abs(again.entries[1] - x.entries[1])) < 1e-12


def test_apply_poly_map_frozen_values():
    z1 = FreePolynomial.generator(2, 1)
    got = apply_poly_map((z1, z1 * z1), MatrixTuple.scalars((0.5, 0.9))).entries
    assert got[0][0, 0] == 0.5 and got[1][0, 0] == 0.25


def test_both_curves_fail_homogeneity_at_one_half():
    v1, v2, _, _ = parabola_cubic_pair()
    r1 = homogeneity_sample(v1, [MatrixTuple.scalars((0.5, 0.25))], lambdas=[0.5])
    r2 = homogeneity_sample(v2, [MatrixTuple.scalars((0.5, 0.125))], lambdas=[0.5])
    assert not r1.holds and not r2.holds
    assert r1.defect == 0.0625
    # g(x/2) = 0.125/2 - 0.25^3 = 3/64
    assert r2.defect == 0.046875


# ---------------------------------------------------------------------------
# JSON form


@st.composite
def varieties(draw):
    """A variety of drawn d in a shorthand ball or a drawn pencil, with up to 3 generators of up to 4 terms."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from([*BALL_KINDS, "pencil"]))
    ball = draw(pencils(d)) if kind == "pencil" else BALL_KINDS[kind](d)
    words = st.lists(st.integers(1, d), max_size=3).map(tuple)
    terms = st.dictionaries(words, st.builds(complex, PARTS, PARTS), max_size=4)
    return AlgebraicVariety(ball, [FreePolynomial(d, g) for g in draw(st.lists(terms, max_size=3))])


def term_bits(p):
    return p.d, [(word, np.complex128(c).tobytes()) for word, c in p.sorted_terms()]


@settings(max_examples=60, deadline=None)
@given(varieties())
@example(parabola())
def test_variety_dict_round_trip(v):
    # every generator keeps the bits of its coefficients through its text, and a pencil ball through its JSON
    obj = json_round_trip(variety_to_dict(v))
    shorthand = ball_shorthand(v.ambient)
    assert (obj["ball"] == shorthand) if shorthand else ("pencil" in obj["ball"])
    again = variety_from_dict(obj)
    assert again.ambient.coefficients.tobytes() == v.ambient.coefficients.tobytes()
    assert [term_bits(g) for g in again.generators] == [term_bits(g) for g in v.generators]


def test_variety_from_dict_errors():
    with pytest.raises(ValueError, match="needs keys"):
        variety_from_dict({"ball": "polydisk:2"})
    with pytest.raises(ValueError, match="unrecognized ball shorthand"):
        variety_from_dict({"ball": "cube:2", "generators": []})
    # a string of generators is not read character by character, and every generator is a string
    for generators in ("12", [1], ["z1", None], None, {"z1": 1}):
        with pytest.raises(ValueError, match="variety generators must be a list of strings"):
            variety_from_dict({"ball": "polydisk:2", "generators": generators})
    for ball in (5, {}, {"pencils": {}}, ["polydisk:2"], None):
        with pytest.raises(ValueError, match="variety ball must be a shorthand string or an object with key pencil"):
            variety_from_dict({"ball": ball, "generators": []})
