"""Seeded probes: sup-norm search, blowup scans, dichotomy, regularity."""

import math
import zlib
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncball import probe
from ncball.freealg import (
    BATCH_BYTES,
    BudgetExceededError,
    FreePolynomial,
    NCFunction,
    QuotientColumn,
    eval_word,
    homogeneous_component,
    parse,
    words_of_size,
)
from ncball.mattuple import MatrixTuple, _spectral_norms
from ncball.ncdiff import delta_first, tt_check
from ncball.opball import BallMembership, Pencil, membership, polydisk, row_ball
from ncball.probe import (
    BOUNDARY_THRESHOLD,
    DICHOTOMY_CASES,
    INJECTION_EPS,
    MULTISTART_MARGINS,
    BlowupReport,
    MonomialRow,
    blowup_scan,
    builtin_dichotomy_case,
    corner_path,
    dichotomy_scan,
    estimate_sup,
    regularity_factors,
    sample_in_ball,
)
from ncball.realize import Realization, RemainderColumn, bidisk_witness
from test_ncdiff import ref_remainder_values
from test_probe_pins import report_digest

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
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^level must be an integer, got {bad}$"):
            sample_in_ball(BALL, bad, 0.5, rng)


# ---------------------------------------------------------------------------
# sup-norm search


def test_search_approaches_the_witness_supremum():
    report = estimate_sup(bidisk_witness(), BALL, 1, 2000, 0)
    assert 0.95 <= report.best_value <= 1.0 + 1e-6
    assert report.failures == 0
    assert report.evaluations <= 2000
    assert report.settled
    assert report.ball == "polydisk:2"
    assert report.target == "Realization(d=2, p=2, q=2, m=1, mode='isometry', data=53ae46c5f0a8)"
    # the corner-path pool is injected ahead of the random multistarts
    assert report.labels[:4] == [
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
    assert (a.labels, a.values, a.boundary_distances) == (b.labels, b.values, b.boundary_distances)
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
    report = estimate_sup(parse("z1", 2), BALL, 2, 40, 5, margin=0.5)
    labels = {label for label in report.labels if label.startswith("m")}
    assert labels == {"m0.5"}
    assert all(value <= 0.5 + 1e-9 or label.startswith("climb") for label, value in zip(report.labels, report.values))


def test_a_multistart_draw_inside_the_boundary_band_is_not_rescaled():
    # only climb candidates past BOUNDARY_THRESHOLD are pulled back: the 20 draws at margin 1e-7 stay where they fell
    report = estimate_sup(bidisk_witness(), BALL, 2, 40, 3, margin=1e-7)
    multistart = [i for i, label in enumerate(report.labels) if label.startswith("m")]
    assert [report.labels[i] for i in multistart] == ["m1e-07"] * 20
    assert all(report.boundary_distances[i] < 1.0 - BOUNDARY_THRESHOLD for i in multistart)


def test_search_validation():
    with pytest.raises(ValueError, match="budget must be >= 1"):
        estimate_sup(parse("z1", 2), BALL, 1, 0, 0)
    # an object that is no nc function is rejected by type, before the budget is read
    for bad in ("f", parse("z1", 2).eval):
        with pytest.raises(TypeError, match=f"^cannot probe an object of type {type(bad).__name__}$"):
            estimate_sup(bad, polydisk(2), 1, 0, 0)
    with pytest.raises(ValueError, match=r"^margin must be in \(0, 1\), got 1.5$"):
        estimate_sup(parse("z1", 2), BALL, 1, 10, 0, margin=1.5)


def test_level_and_budget_must_be_integers():
    # refused by name at entry, before any draw: a bool is no integer, and a float is neither truncated nor passed on
    bad = [("level", True, 10, "True"), ("level", 1.0, 10, "1.0"), ("budget", 1, 10.5, "10.5"), ("budget", 1, True, "True")]
    with mock.patch.object(probe, "_sample_chunks", side_effect=AssertionError("drew")):
        for name, level, budget, shown in bad:
            with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {shown}$"):
                estimate_sup(bidisk_witness(), BALL, level, budget, 0)
    # numpy integers are integers, and the report keeps them as ints
    report = estimate_sup(bidisk_witness(), BALL, np.int64(2), np.int32(10), 0)
    assert (type(report.level), type(report.budget)) == (int, int)
    assert report.evaluations + report.failures == 10


def test_the_search_keeps_its_trajectory_in_columns():
    report = estimate_sup(bidisk_witness(), BALL, 1, 60, 0)
    assert len(report.labels) == len(report.values) == len(report.boundary_distances) == report.evaluations > 0
    # the columns are filled by the search alone: none is passed to the constructor
    for column in ("labels", "values", "boundary_distances"):
        with pytest.raises(TypeError, match=column):
            probe.ProbeReport("f", "polydisk:2", 1, 60, 0, **{column: []})


def test_a_margin_or_seed_is_checked_before_the_corner_path_pool():
    # at level 1 on the bidisk the three corner points fill a budget of 4's multistart, so nothing is drawn
    with mock.patch.object(NCFunction, "eval_batch", side_effect=AssertionError("evaluated")):
        for margin in (1.5, 0.0, 1.0, -2.0, math.nan):
            with pytest.raises(ValueError, match=rf"^margin must be in \(0, 1\), got {margin}$"):
                estimate_sup(bidisk_witness(), polydisk(2), 1, 4, 0, margin=margin)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
            estimate_sup(bidisk_witness(), polydisk(2), 1, 4, -5)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -5$"):
            regularity_factors(bidisk_witness(), 1, polydisk(2), 1, 4, -5)


def test_integer_argument_dichotomy_refuses_a_negative_seed_before_any_draw():
    with mock.patch.object(probe, "_sample_chunks", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            dichotomy_scan(*builtin_dichotomy_case("half"), 3, -1)


def test_integer_argument_monomial_row_checks_its_d():
    # refused where the row is built, by name, before the size and before any walk
    for d, problem in ((True, "must be an integer, got True"), (2.5, "must be an integer, got 2.5"), (0, "must be >= 1, got 0")):
        with pytest.raises(ValueError, match=rf"^d {problem}$"):
            MonomialRow(d, 1)
        with pytest.raises(ValueError, match=rf"^d {problem}$"):
            MonomialRow(d, 0)
    x = MatrixTuple.scalars((0.5, 0.25))
    assert MonomialRow(np.int64(2), 1).eval(x).tobytes() == MonomialRow(2, 1).eval(x).tobytes()


def test_a_seed_or_sample_count_must_be_an_integer():
    # refused by name at entry, before any draw: a bool is no integer, and a float is neither truncated nor sliced
    case = builtin_dichotomy_case("half")
    with mock.patch.object(probe, "_sample_chunks", side_effect=AssertionError("drew")):
        for seed, shown in ((True, "True"), (1.0, "1.0")):
            with pytest.raises(ValueError, match=rf"^seed must be an integer, got {shown}$"):
                estimate_sup(bidisk_witness(), polydisk(2), 1, 10, seed)
            with pytest.raises(ValueError, match=rf"^seed must be an integer, got {shown}$"):
                dichotomy_scan(*case, 3, seed)
        for samples, shown in ((True, "True"), (2.5, "2.5")):
            with pytest.raises(ValueError, match=rf"^samples must be an integer, got {shown}$"):
                dichotomy_scan(*case, samples, 0)
        with pytest.raises(ValueError, match=r"^samples must be >= 1, got 0$"):
            dichotomy_scan(*case, 0, 0)
    # numpy integers are integers, and the results keep them as ints
    assert type(estimate_sup(bidisk_witness(), BALL, 2, 10, np.int64(3)).seed) is int
    assert type(dichotomy_scan(*case, np.int64(3), np.int32(0)).samples) is int


def test_a_target_whose_d_is_not_the_balls_fails_before_any_draw():
    with mock.patch.object(probe, "_sample_chunks", side_effect=AssertionError("drew")):
        with pytest.raises(ValueError, match=r"^target in d=3 variables probed on a ball in d=2 variables$"):
            estimate_sup(parse("z1", 3), BALL, 1, 10, 0)
        with pytest.raises(ValueError, match=r"^target in d=2 variables probed on a ball in d=3 variables$"):
            estimate_sup(bidisk_witness(), polydisk(3), 1, 10, 0)
    # the column's d is checked before the row probe spends its budget
    with mock.patch.object(probe, "estimate_sup", side_effect=AssertionError("probed")):
        for f in (bidisk_witness(), parse("z1*z2", 2)):
            with pytest.raises(ValueError, match=r"^target in d=2 variables probed on a ball in d=3 variables$"):
                regularity_factors(f, 2, polydisk(3), 1, 2000, 0)


# ---------------------------------------------------------------------------
# blowup scans


def test_first_difference_blows_up_along_the_path():
    f = bidisk_witness()

    def g(x):
        return delta_first(f, x.entries[:, 0, 0], (1.0, 0.0))

    report = blowup_scan(g, [0.1, 0.01, 0.001], BALL)
    assert isinstance(report, BlowupReport)
    assert report.monotone
    for row, eps in zip(report.rows, (0.1, 0.01, 0.001)):
        want = 0.5 + 0.5j / eps
        assert abs(row.value - want) < 1e-9 / eps
        assert abs(row.norm - abs(want)) < 1e-9 / eps
        assert 0.0 < row.boundary_distance < 1.0
    assert report.rows[2].norm > 400.0


def test_the_witness_itself_stays_bounded_on_the_path():
    report = blowup_scan(bidisk_witness().eval, [0.1, 0.01, 0.001], BALL)
    assert not report.monotone
    assert all(row.norm <= 1.0 for row in report.rows)
    assert abs(report.rows[0].norm - 0.01) < 1e-12


def test_blowup_rejects_points_outside_the_ball():
    with pytest.raises(ValueError, match="not strictly inside"):
        blowup_scan(bidisk_witness().eval, [0.0], BALL)


def test_blowup_rejects_a_path_whose_d_is_not_the_balls():
    g = mock.Mock(side_effect=AssertionError("evaluated"))
    with pytest.raises(ValueError, match=r"^path point at eps=0.1 has d=2, but the ball has d=3$"):
        blowup_scan(g, [0.1], polydisk(3))


def test_blowup_needs_at_least_one_eps():
    g = mock.Mock(side_effect=AssertionError("evaluated"))
    for eps_list in ([], (), iter([])):
        with pytest.raises(ValueError, match=r"^eps_list must hold at least one value$"):
            blowup_scan(g, eps_list, BALL)


def test_blowup_rejects_unknown_targets():
    with pytest.raises(TypeError, match="cannot evaluate"):
        blowup_scan("f", [0.1], BALL)


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


def test_the_builtin_dichotomy_cases_are_one_table():
    assert list(DICHOTOMY_CASES) == ["half", "identity", "boundary"]
    for name, maps in DICHOTOMY_CASES.items():
        assert builtin_dichotomy_case(name) == (maps, BALL, BALL)
    with pytest.raises(ValueError, match=r"^unknown dichotomy case 'nope' \(use half, identity, or boundary\)$"):
        builtin_dichotomy_case("nope")


def test_boundary_case_is_pinned_at_norm_one():
    maps, source, target = builtin_dichotomy_case("boundary")
    result = dichotomy_scan(maps, source, target, 30, 4)
    assert result.min_norm == result.max_norm == 1.0


def test_dichotomy_takes_one_ball_as_source_and_target():
    maps, ball, target = builtin_dichotomy_case("half")
    assert target is ball
    result = dichotomy_scan(maps, ball, ball, 6, 0)
    assert result.kind == "AllInterior" and result.max_norm < 0.5
    assert dichotomy_scan(maps, polydisk(2), polydisk(2), 6, 0) == result


def test_an_expanding_map_is_mixed():
    z1 = FreePolynomial.generator(2, 1)
    z2 = FreePolynomial.generator(2, 2)
    result = dichotomy_scan((1.2 * z1, z2), BALL, BALL, 60, 0)
    assert result.kind == "Mixed"
    assert result.max_norm > 1.0 > result.min_norm


def test_dichotomy_validation():
    z1 = FreePolynomial.generator(2, 1)
    with pytest.raises(ValueError, match="components but the target"):
        dichotomy_scan((z1,), BALL, BALL, 10, 0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        dichotomy_scan((z1, z1 * z1), BALL, BALL, 0, 0)
    # each map is checked before the first draw
    cube = polydisk(3)
    with mock.patch.object(probe, "_sample_chunks", side_effect=AssertionError("drew")):
        with pytest.raises(TypeError, match="^map component 2 is an object of type str, not an nc function$"):
            dichotomy_scan((z1, "z2"), BALL, BALL, 10, 0)
        with pytest.raises(ValueError, match="^map component 1 in d=2 variables on a source ball in d=3 variables$"):
            dichotomy_scan((z1, z1, z1), cube, cube, 10, 0)
        with pytest.raises(ValueError, match="^map component 2 in d=3 variables on a source ball in d=2 variables$"):
            dichotomy_scan((z1, parse("z3", 3)), BALL, BALL, 10, 0)


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


def poly_with_low_words(rng, d: int, size: int) -> FreePolynomial:
    """Up to 8 seeded terms of sizes 0..size + 2, with a constant term and a linear one, so some word is below size."""
    words = [tuple(rng.integers(1, d + 1, rng.integers(0, size + 3)).tolist()) for _ in range(rng.integers(0, 7))]
    terms = {w: complex(*rng.normal(size=2)) for w in [(), (d,), *words]}
    return FreePolynomial(d, terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_the_regularity_split_is_the_tt_check_split(d, size, level, seed):
    # p = sum_{k<N} p_k + row(X^w) col(g_w) for any p, low words and all: the column holds the g_w tt_check adds
    rng = np.random.default_rng(seed)
    p = poly_with_low_words(rng, d, size)
    x = MatrixTuple(0.5 * (rng.normal(size=(d, level, level)) + 1j * rng.normal(size=(d, level, level))))
    low = sum(homogeneous_component(p, k).eval(x) for k in range(size))
    split = low + MonomialRow(d, size).eval(x) @ QuotientColumn(p, size).eval(x)
    radius = max(1.0, *(np.linalg.norm(entry, 2) for entry in x.entries))
    scale = sum(abs(c) * radius ** len(w) for w, c in p.terms.items())
    assert np.abs(p.eval(x) - split).max() <= 1e-13 * scale
    assert np.abs(tt_check(p, x, size).rhs - split).max() <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_the_column_of_a_polynomial_is_the_column_of_its_high_part_bitwise(d, size, count, level, seed):
    rng = np.random.default_rng(seed)
    p = poly_with_low_words(rng, d, size)
    high = FreePolynomial(d, {w: c for w, c in p.terms.items() if len(w) >= size})
    xs = rng.normal(size=(count, d, level, level)) + 1j * rng.normal(size=(count, d, level, level))
    got, want = QuotientColumn(p, size).eval_batch(xs), QuotientColumn(high, size).eval_batch(xs)
    assert got[0].tobytes() == want[0].tobytes() and not got[1].any() and not want[1].any()


def test_regularity_factors_take_a_polynomial_with_low_words_bitwise():
    # the column of 1 + z1 z2 + 0.5 z2 z1 z1 is that of its high part, so its probe report is too
    texts = ("1 + z1*z2 + 0.5*z2*z1*z1", "z1*z2 + 0.5*z2*z1*z1")
    low, high = (regularity_factors(parse(text, 2), 2, BALL, 1, 200, 0) for text in texts)
    assert report_digest(low.col) == report_digest(high.col)
    assert report_digest(low.row) == report_digest(high.row)
    assert low.col_factor == high.col_factor > 1.0


def test_row_and_column_targets_stack_words_in_length_lex_order():
    f = bidisk_witness()
    rng = np.random.default_rng(9)
    x = sample_in_ball(BALL, 2, 0.3, rng)
    for size in (1, 3):
        words = list(words_of_size(2, size))
        row = np.hstack([eval_word(x, w) for w in words])
        col = np.vstack(list(ref_remainder_values(f, x, words).values()))
        assert MonomialRow(2, size).eval(x).tobytes() == row.tobytes()
        assert RemainderColumn(f, size).eval(x).tobytes() == col.tobytes()


def test_estimate_sup_evaluates_the_target_within_the_byte_bound():
    nbytes, sizes = [], []

    class SpyRow(MonomialRow):
        def eval_batch(self, xs, *, pencil_norms=None):
            values, failed = super().eval_batch(xs, pencil_norms=pencil_norms)
            nbytes.append(values.nbytes)
            sizes.append(len(xs))
            return values, failed

    # a level-1 value of the size-9 row holds 2^9 entries (8 KiB), so the
    # 50-point multistart (400 KiB of values) must be drawn in several stacks
    report = estimate_sup(SpyRow(2, 9), BALL, 1, 100, 0)
    assert report.evaluations + report.failures == 100
    assert max(nbytes) <= BATCH_BYTES
    # the empty stack sizes the stacks before the search: the 3 corner-path
    # points, then 8-point stacks of the 47 samples, then the climb's stacks
    assert sizes[:9] == [0, 3, 8, 8, 8, 8, 8, 7, 8]
    assert 0 not in sizes[1:]


def test_a_target_value_that_fills_the_byte_bound_is_probed_one_point_per_stack(monkeypatch):
    measured, evaluated = [], []
    norms_at = Pencil.norms_at
    monkeypatch.setattr(Pencil, "norms_at", lambda self, xs: measured.append(len(xs)) or norms_at(self, xs))

    class SpyRow(MonomialRow):
        def eval_batch(self, xs, *, pencil_norms=None):
            evaluated.append(xs.copy())
            return super().eval_batch(xs, pencil_norms=pencil_norms)

    # a level-1 value of the size-12 row holds 2^12 entries, 64 KiB: every stack drawn, measured or evaluated is one point
    report = estimate_sup(SpyRow(2, 12), BALL, 1, 20, 0)
    assert report.evaluations + report.failures == 20
    assert set(measured) == {1}
    assert [len(xs) for xs in evaluated] == [0] + [1] * 20
    # the corner-path pool goes out as three stacks of one, ahead of the draws
    corners = [MatrixTuple.scalars(corner_path(eps)).entries.tobytes() for eps in INJECTION_EPS]
    assert [xs[0].tobytes() for xs in evaluated[1:4]] == corners


def test_a_dichotomy_scan_sizes_its_stacks_by_the_image():
    sizes = []
    sample_chunks = probe._sample_chunks

    def spy(ball, n, draws, size):
        sizes.append(size)
        return sample_chunks(ball, n, draws, size)

    with mock.patch.object(probe, "_sample_chunks", spy):
        dichotomy_scan(*builtin_dichotomy_case("half"), 6, 0)
    # each point's image is two level x level values: 32 n^2 bytes
    assert sizes == [BATCH_BYTES // (32 * n * n) for n in (1, 2, 3)]


@dataclass(frozen=True)
class FailsWhereCrcIsEven(NCFunction):
    """X -> X_1, failing at the points whose bytes have an even CRC-32: about half of them, drawn or climbed."""

    d: int = 2

    def _values(self, xs):
        errors = {i: np.linalg.LinAlgError("even") for i, x in enumerate(xs) if zlib.crc32(x.tobytes()) % 2 == 0}
        values = xs[:, 0].copy()
        values[list(errors)] = np.nan
        return values, errors


STACK_SIZE_TARGETS = {
    # the target's own pencil: the certificate settles the resolvent guard
    "ex52-polydisk": (bidisk_witness, polydisk(2)),
    # another pencil: every sample takes the exact guard
    "ex52-row": (bidisk_witness, row_ball(2)),
    "poly-polydisk": (lambda: parse("z1*z2 - 0.5*z2*z1 + (0.3+0.2i)*z1 + z2^3 - 1.5i", 2), polydisk(2)),
    # failures in the multistart and the climb; at seed 7 they fall ahead of a climb stack's first
    # improvement and in its dropped tail, and at level 1 in stacks of 5 a whole multistart and climb stack fails
    "fails-polydisk": (FailsWhereCrcIsEven, polydisk(2)),
}


@pytest.mark.parametrize("level, budget", [(1, 60), (2, 60), (8, 30)])
@pytest.mark.parametrize("name", sorted(STACK_SIZE_TARGETS))
def test_probe_reports_are_bitwise_the_same_at_any_stack_size(name, level, budget):
    make, ball = STACK_SIZE_TARGETS[name]

    def facts(report):
        # every attempt is charged once: the climb's dropped candidates are not, its failures are
        assert report.evaluations + report.failures == budget
        rows = list(zip(report.labels, map(float.hex, report.values), map(float.hex, report.boundary_distances)))
        margin_best = {key: value.hex() for key, value in report.margin_best.items()}
        return rows, report.argmax.entries.tobytes(), report.failures, margin_best, report.settled

    # a stack of one point is the one-point-at-a-time search; 5 splits the multistart and caps the climb
    report = estimate_sup(make(), ball, level, budget, 7)
    if name == "fails-polydisk":
        drawn = sum(not label.startswith("climb:") for label in report.labels)
        assert 0 < budget // 2 - drawn < report.failures  # some drawn samples and some climb candidates failed
    want = facts(report)
    for size in (1, 5):
        with mock.patch.object(probe, "_batch_size", lambda count, nbytes: size):
            assert facts(estimate_sup(make(), ball, level, budget, 7)) == want, size


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
    points = np.concatenate(list(probe._sample_chunks(BALL, 2, draws, 16)))
    failing = [0, 3, 17, 18, 49]
    target = FailsAtChosenPoints(frozenset(points[i].tobytes() for i in failing))
    report = estimate_sup(target, BALL, 2, budget, seed)
    # climb candidates move off the drawn points, so only the chosen samples fail
    assert report.failures == len(failing)
    assert report.evaluations == len(report.labels) == len(report.boundary_distances)
    kept = [i for i in range(len(points)) if i not in failing]
    assert report.labels[: len(kept)] == [f"m{draws[i][1]:g}" for i in kept]
    assert report.values[: len(kept)] == _spectral_norms(points[kept, 0]).tolist()
    assert report.boundary_distances[: len(kept)] == np.abs(BALL.norms_at(points[kept]) - 1.0).tolist()
    assert not report.labels[len(kept)].startswith("m")
    # a failed sample is charged to the budget like an evaluation: the climb gets what the multistart's half leaves
    assert report.evaluations + report.failures == budget
    # margin_best is in no pin digest: its keys, their order and its values are the reference fold over the kept samples
    margin_best = {}
    for value, distance in zip(report.values[: len(kept)], report.boundary_distances[: len(kept)]):
        key = nearest_margin(distance)
        margin_best[key] = max(margin_best.get(key, 0.0), value)
    assert list(report.margin_best.items()) == list(margin_best.items())


def test_regularity_refuses_a_function_of_neither_kind_before_any_probe():
    # an nc function that is neither a polynomial nor a realization has no remainder column: NCFunction's own hook says so
    with mock.patch.object(probe, "estimate_sup", side_effect=AssertionError("probed")):
        with pytest.raises(TypeError, match="^truncation splits polynomials and realizations, got MonomialRow$"):
            regularity_factors(MonomialRow(2, 1), 1, polydisk(2), 1, 10, 0)


def test_regularity_checks_d_before_building_a_target():
    # the d mismatch is found before the remainder column of order 8, which steps the realization's rows, is built
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        with pytest.raises(ValueError, match=r"^target in d=2 variables probed on a ball in d=3 variables$"):
            regularity_factors(bidisk_witness(), 8, polydisk(3), 1, 10, 0)


def test_regularity_validation():
    f = bidisk_witness()
    with pytest.raises(ValueError, match="order must be >= 1"):
        regularity_factors(f, 0, BALL, 1, 100, 0)
    with pytest.raises(BudgetExceededError, match="exceed the budget"):
        regularity_factors(f, 14, BALL, 1, 100, 0)
    # the exponent is capped past the budget, so an absurd order fails at once, naming the order asked for
    with pytest.raises(BudgetExceededError, match=r"^2\^1000000000 words exceed the budget 10000$"):
        regularity_factors(f, 10**9, BALL, 1, 100, 0)
    with pytest.raises(TypeError, match="polynomials and realizations"):
        regularity_factors("f", 1, BALL, 1, 100, 0)
    with pytest.raises(TypeError, match="polynomials and realizations, got str$"):
        regularity_factors("f", 0, BALL, 1, 100, 0)  # the type is checked before the order
    for size in (0, -2):
        with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
            RemainderColumn(f, size)
        with pytest.raises(ValueError, match=f"^size must be >= 1, got {size}$"):
            MonomialRow(2, size)
    # the targets' dense walks charge 2^0 + ... + 2^20 words before their first step
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^20 words exceed the budget"):
            RemainderColumn(f, 20)
    with mock.patch("ncball.freealg._seq_matmul", side_effect=AssertionError("walked")):
        with pytest.raises(BudgetExceededError, match=r"2\^0 \+ \.\.\. \+ 2\^20 words exceed the budget"):
            MonomialRow(2, 20).eval(MatrixTuple.scalars((0.5, 0.4)))


def test_a_word_size_or_order_must_be_an_integer():
    # a float size is never reached by a walk, which would run on without end, and a bool would run as 1:
    # both are refused by name before any target is walked or probed
    f = bidisk_witness()
    with mock.patch.object(Realization, "row_step", side_effect=AssertionError("walked")):
        with mock.patch.object(probe, "estimate_sup", side_effect=AssertionError("probed")):
            for size, shown in ((2.5, "2.5"), (True, "True")):
                with pytest.raises(ValueError, match=rf"^size must be an integer, got {shown}$"):
                    MonomialRow(2, size)
                with pytest.raises(ValueError, match=rf"^size must be an integer, got {shown}$"):
                    RemainderColumn(f, size)
                for g in (f, parse("z1*z2", 2)):
                    with pytest.raises(ValueError, match=rf"^order must be an integer, got {shown}$"):
                        regularity_factors(g, size, BALL, 1, 20, 0)
    # numpy integers are integers
    x = MatrixTuple.scalars((0.5, 0.4))
    assert MonomialRow(2, np.int64(2)).eval(x).tobytes() == MonomialRow(2, 2).eval(x).tobytes()
