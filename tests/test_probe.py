"""Seeded probes: sup-norm search, blowup scans, dichotomy, regularity."""

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncball import probe
from ncball.freealg import BATCH_BYTES, BudgetExceededError, FreePolynomial, NCFunction, parse, words_of_size
from ncball.mattuple import MatrixTuple, _spectral_norms, eval_word
from ncball.ncdiff import delta_first
from ncball.opball import BallMembership, membership, polydisk, row_ball
from ncball.probe import (
    INJECTION_EPS,
    MULTISTART_MARGINS,
    BlowupReport,
    DichotomyResult,
    MonomialRow,
    ProbeReport,
    RemainderColumn,
    blowup_scan,
    builtin_dichotomy_case,
    corner_path,
    dichotomy_scan,
    estimate_sup,
    regularity_factors,
    sample_in_ball,
)
from ncball.realize import Realization, RemainderFactor, bidisk_witness

BALL = polydisk(2)


# ---------------------------------------------------------------------------
# paths and samples


def test_corner_path_stays_strictly_inside():
    for eps in (0.5, 0.1, 0.01, 1e-4):
        x1, x2 = corner_path(eps)
        assert x2 == x1.conjugate()
        assert abs(x1) < 1.0
        verdict = membership(BALL, MatrixTuple.scalars((x1, x2)))
        assert verdict.is_inside
    assert corner_path(0.1) == (0.99 + 0.1j, 0.99 - 0.1j)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.01, 0.9),
    st.integers(1, 3),
    st.integers(0, 2**31),
    st.booleans(),
)
def test_samples_land_at_the_requested_margin(margin, level, seed, row):
    ball = row_ball(3) if row else BALL
    x = sample_in_ball(ball, level, margin, np.random.default_rng(seed))
    assert x.n == level and x.d == ball.d
    assert abs(ball.norm_at(x) - (1.0 - margin)) < 1e-9


def test_sampling_is_deterministic():
    a = sample_in_ball(BALL, 3, 0.2, np.random.default_rng(42))
    b = sample_in_ball(BALL, 3, 0.2, np.random.default_rng(42))
    assert np.array_equal(a.entries, b.entries)


def test_sampling_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="margin must be in"):
        sample_in_ball(BALL, 1, 0.0, rng)
    with pytest.raises(ValueError, match="margin must be in"):
        sample_in_ball(BALL, 1, 1.0, rng)
    with pytest.raises(ValueError, match="level must be >= 1"):
        sample_in_ball(BALL, 0, 0.5, rng)


# ---------------------------------------------------------------------------
# sup-norm search


def test_search_approaches_the_witness_supremum():
    report = estimate_sup(bidisk_witness(), BALL, 1, 2000, 0)
    assert 0.95 <= report.best_value <= 1.0 + 1e-6
    assert report.failures == 0
    assert report.evaluations <= 2000
    assert report.settled
    assert report.ball == "polydisk:2"
    assert report.target == "realization(d=2,m=1,isometry)"
    # the corner-path pool is injected ahead of the random multistarts
    assert [row.label for row in report.trajectory[:4]] == [
        "path:0.1",
        "path:0.045",
        "path:0.014",
        "m0.5",
    ]


def test_search_approaches_the_coordinate_supremum():
    report = estimate_sup(parse("z1", 2), BALL, 1, 600, 0)
    assert 0.95 <= report.best_value <= 1.0 + 1e-6


def test_search_of_the_zero_function():
    report = estimate_sup(FreePolynomial.zero(2), BALL, 1, 50, 0)
    assert report.best_value == 0.0
    assert report.argmax is not None
    assert report.settled


def test_search_is_deterministic():
    a = estimate_sup(bidisk_witness(), BALL, 2, 300, 7)
    b = estimate_sup(bidisk_witness(), BALL, 2, 300, 7)
    assert a.best_value == b.best_value
    assert a.trajectory == b.trajectory
    assert np.array_equal(a.argmax.entries, b.argmax.entries)
    assert a.margin_best == b.margin_best


def test_search_improves_with_budget():
    f = bidisk_witness()
    best = [estimate_sup(f, BALL, 1, budget, 0).best_value for budget in (200, 800, 2000)]
    assert best[0] <= best[1] <= best[2]


def test_argmax_is_a_sound_witness():
    f = bidisk_witness()
    report = estimate_sup(f, BALL, 2, 400, 11)
    assert membership(BALL, report.argmax).is_inside
    value = float(np.linalg.norm(f.eval(report.argmax), 2))
    assert abs(value - report.best_value) < 1e-12


def test_margin_override_pins_the_schedule():
    report = estimate_sup(parse("z1", 2), BALL, 2, 40, 5, margins=(0.5,))
    labels = {row.label for row in report.trajectory if row.label.startswith("m")}
    assert labels == {"m0.5"}
    assert all(row.value <= 0.5 + 1e-9 or row.label.startswith("climb") for row in report.trajectory)


def test_search_validation():
    with pytest.raises(ValueError, match="budget must be >= 1"):
        estimate_sup(parse("z1", 2), BALL, 1, 0, 0)
    with pytest.raises(ValueError, match="margin schedule"):
        estimate_sup(parse("z1", 2), BALL, 1, 10, 0, margins=())


# ---------------------------------------------------------------------------
# blowup scans


def test_first_difference_blows_up_along_the_path():
    f = bidisk_witness()

    def g(x):
        return delta_first(f, x.entries[:, 0, 0], (1.0, 0.0))

    report = blowup_scan(g, corner_path, [0.1, 0.01, 0.001], BALL)
    assert isinstance(report, BlowupReport)
    assert report.monotone
    for row, eps in zip(report.rows, (0.1, 0.01, 0.001)):
        want = 0.5 + 0.5j / eps
        assert abs(row.value - want) < 1e-9 / eps
        assert abs(row.norm - abs(want)) < 1e-9 / eps
        assert 0.0 < row.boundary_distance < 1.0
    assert report.rows[2].norm > 400.0


def test_the_witness_itself_stays_bounded_on_the_path():
    report = blowup_scan(bidisk_witness().eval, corner_path, [0.1, 0.01, 0.001], BALL)
    assert not report.monotone
    assert all(row.norm <= 1.0 for row in report.rows)
    assert abs(report.rows[0].norm - 0.01) < 1e-12


def test_blowup_rejects_points_outside_the_ball():
    with pytest.raises(ValueError, match="not strictly inside"):
        blowup_scan(bidisk_witness().eval, corner_path, [0.0], BALL)


def test_blowup_rejects_unknown_targets():
    with pytest.raises(TypeError, match="cannot evaluate"):
        blowup_scan("f", corner_path, [0.1], BALL)


# ---------------------------------------------------------------------------
# dichotomy scans


def test_builtin_dichotomy_cases():
    expected = {"half": "AllInterior", "identity": "AllInterior", "boundary": "AllBoundary"}
    for name, kind in expected.items():
        maps, source, target = builtin_dichotomy_case(name)
        result = dichotomy_scan(maps, source, target, 60, 0)
        assert result.kind == kind
        assert result.samples == 60
    with pytest.raises(ValueError, match="unknown dichotomy case"):
        builtin_dichotomy_case("nope")


def test_boundary_case_is_pinned_at_norm_one():
    maps, source, target = builtin_dichotomy_case("boundary")
    result = dichotomy_scan(maps, source, target, 30, 4)
    assert result.min_norm == result.max_norm == 1.0


def test_an_expanding_map_is_mixed():
    z1 = FreePolynomial.generator(2, 1)
    z2 = FreePolynomial.generator(2, 2)
    result = dichotomy_scan((1.2 * z1, z2), BALL, BALL.pencil, 60, 0)
    assert result.kind == "Mixed"
    assert result.max_norm > 1.0 > result.min_norm


def test_dichotomy_validation():
    z1 = FreePolynomial.generator(2, 1)
    with pytest.raises(ValueError, match="components but the target"):
        dichotomy_scan((z1,), BALL, BALL.pencil, 10, 0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        dichotomy_scan((z1, z1 * z1), BALL, BALL.pencil, 0, 0)
    with pytest.raises(ValueError, match="levels must name at least one level"):
        dichotomy_scan((z1, z1 * z1), BALL, BALL.pencil, 10, 0, levels=())


# ---------------------------------------------------------------------------
# regularity factors


def test_witness_regularity_factors_split():
    # the monomial row stays bounded by 2 while the remainder column diverges:
    # boundedness of f does not control its order-2 remainder factors
    report = regularity_factors(bidisk_witness(), 2, BALL, 1, 400, 3)
    assert 1.9 <= report.row_factor <= 2.0 + 1e-6
    assert report.row.settled
    assert report.col_factor > 10.0
    assert not report.col.settled


def test_monomial_row_supremum_order_one():
    # sup ||[x1 x2]|| over scalar bidisk points is sqrt(2)
    p = parse("z1*z2", 2)
    report = regularity_factors(p, 1, BALL, 1, 200, 0)
    assert 1.35 <= report.row_factor <= math.sqrt(2.0) + 1e-6


def test_quotient_column_of_a_monomial():
    # z1*z2 = z1*z2 . 1, so the quotient column has norm exactly 1
    report = regularity_factors(parse("z1*z2", 2), 2, BALL, 1, 200, 0)
    assert 0.95 <= report.col_factor <= 1.0 + 1e-9
    assert report.col.settled


def test_zero_polynomial_has_zero_column():
    report = regularity_factors(FreePolynomial.zero(2), 1, BALL, 1, 100, 0)
    assert report.col_factor == 0.0


def test_row_and_column_targets_stack_words_in_length_lex_order():
    f = bidisk_witness()
    rng = np.random.default_rng(9)
    x = sample_in_ball(BALL, 2, 0.3, rng)
    for size in (1, 3):
        words = list(words_of_size(2, size))
        row = np.hstack([eval_word(x, w) for w in words])
        col = np.vstack([RemainderFactor(f, w).eval(x) for w in words])
        assert MonomialRow(2, size).eval(x).tobytes() == row.tobytes()
        assert RemainderColumn(f, size).eval(x).tobytes() == col.tobytes()


def test_estimate_sup_evaluates_the_target_within_the_byte_bound():
    nbytes = []

    class SpyRow(MonomialRow):
        def eval_batch(self, xs, *, pencil_norms=None):
            values, failed = super().eval_batch(xs, pencil_norms=pencil_norms)
            nbytes.append(values.nbytes)
            return values, failed

    # a level-1 value of the size-9 row holds 2^9 entries (8 KiB), so the
    # 50-point multistart stack (400 KiB) must be evaluated in parts
    report = estimate_sup(SpyRow(2, 9), BALL, 1, 100, 0)
    assert report.evaluations + report.failures == 100
    assert max(nbytes) <= BATCH_BYTES


def test_estimate_sup_certifies_the_guard_only_on_the_targets_own_pencil(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda t: calls.append(len(t)) or cond(t))
    f = bidisk_witness()
    # on its own ball every ex52 sample is certified; on the row ball, none is
    own = estimate_sup(f, BALL, 2, 200, 0)
    assert calls == [] and own.failures == 0
    other = estimate_sup(f, row_ball(2), 2, 200, 0)
    assert sum(calls) >= other.evaluations + other.failures == 200


def nearest_margin(distance):
    """The reference bin: the margin nearest in log10 to the distance floored at 1e-12, ties to the first."""
    scale = np.log10(max(distance, 1e-12))
    return min(MULTISTART_MARGINS, key=lambda m: abs(np.log10(m) - scale))


# the boundary distances of the injected corner-path points, and the geometric
# midpoints of neighbouring margins, where the bins nearly tie
CORNER_DISTANCES = [abs(BALL.norm_at(MatrixTuple.scalars(corner_path(eps))) - 1.0) for eps in INJECTION_EPS]
MIDPOINTS = [math.sqrt(a * b) for a, b in zip(MULTISTART_MARGINS, MULTISTART_MARGINS[1:])]
SPECIAL_DISTANCES = [*MULTISTART_MARGINS, *CORNER_DISTANCES, *MIDPOINTS]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(SPECIAL_DISTANCES) | st.floats(1e-14, 1.0), min_size=1))
@example([*SPECIAL_DISTANCES, 1e-14, 1e-12, 1.0])
def test_margin_bins_follow_the_scalar_rule(distances):
    bins = probe._margin_bins(np.array(distances))
    assert bins == [nearest_margin(distance) for distance in distances]
    assert all(type(b) is float for b in bins)


@given(st.floats(0.0, 2.0))
@example(1.0 - 1e-9)
@example(1.0 + 1e-9)
def test_the_stack_distance_is_the_membership_distance(s):
    distance = np.abs(np.array([s]) - 1.0).tolist()[0]
    assert np.float64(distance).tobytes() == np.float64(BallMembership.from_norm(s).distance).tobytes()


@dataclass(frozen=True)
class FailsAtChosenPoints(NCFunction):
    """X -> X_1, failing at exactly the points whose entries are among ``chosen`` (as bytes)."""

    chosen: frozenset
    d: int = 2

    def _values(self, xs):
        errors = {i: np.linalg.LinAlgError("chosen") for i, x in enumerate(xs) if x.tobytes() in self.chosen}
        values = xs[:, 0].copy()
        values[list(errors)] = np.nan
        return values, errors


def test_estimate_sup_counts_and_skips_failed_samples():
    # level 2 has no corner-path pool: multistart sample i is drawn from seed + i
    budget, seed = 100, 4
    draws = [(seed + i, MULTISTART_MARGINS[i % len(MULTISTART_MARGINS)]) for i in range(budget // 2)]
    points = np.concatenate(list(probe._sample_chunks(BALL, 2, draws)))
    failing = [0, 3, 17, 18, 49]
    target = FailsAtChosenPoints(frozenset(points[i].tobytes() for i in failing))
    report = estimate_sup(target, BALL, 2, budget, seed)
    # climb candidates move off the drawn points, so only the chosen samples fail
    assert report.failures == len(failing)
    assert report.evaluations == len(report.trajectory)
    assert [row.iteration for row in report.trajectory] == list(range(report.evaluations))
    kept = [i for i in range(len(points)) if i not in failing]
    multistart = report.trajectory[: len(kept)]
    assert [row.label for row in multistart] == [f"m{draws[i][1]:g}" for i in kept]
    assert [row.value for row in multistart] == _spectral_norms(points[kept, 0]).tolist()
    assert [row.boundary_distance for row in multistart] == np.abs(BALL.norms_at(points[kept]) - 1.0).tolist()
    assert not report.trajectory[len(kept)].label.startswith("m")


def test_regularity_validation():
    f = bidisk_witness()
    with pytest.raises(ValueError, match="order must be >= 1"):
        regularity_factors(f, 0, BALL, 1, 100, 0)
    with pytest.raises(BudgetExceededError, match="exceed the budget"):
        regularity_factors(f, 14, BALL, 1, 100, 0)
    with pytest.raises(TypeError, match="polynomials and realizations"):
        regularity_factors("f", 1, BALL, 1, 100, 0)
    for size in (0, -2):
        with pytest.raises(ValueError, match=f"remainder columns are indexed by a word size >= 1, got {size}"):
            RemainderColumn(f, size)
    # the targets' dense walks charge 2^0 + ... + 2^20 words before their first step
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^20 words exceed the budget"):
            RemainderColumn(f, 20)
    with mock.patch("ncball.mattuple._seq_matmul", side_effect=AssertionError("walked")):
        with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^20 words exceed the budget"):
            MonomialRow(2, 20).eval(MatrixTuple.scalars((0.5, 0.4)))
