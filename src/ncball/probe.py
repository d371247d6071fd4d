"""Seeded numerical probes: sup-norm estimation, blowup scans, dichotomy
classification, and regularity factors.

Every probe is deterministic: sample i of a run with seed s is drawn from the
stream of its own generator default_rng(s + i), so serial and parallel
schedules agree and rerun reports match bit for bit.  Estimates are always
lower bounds witnessed by a stored argmax point; nothing here certifies a
supremum.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .freealg import (
    BudgetExceededError,
    FreePolynomial,
    NCFunction,
    _batch_size,
    _capped_power,
    _monomials,
    _no_split,
    walk_levels,
)
from .mattuple import MatrixTuple, _checked_size, _spectral_norm, _spectral_norms
from .opball import Pencil, ball_shorthand, membership, polydisk

MULTISTART_MARGINS = (0.5, 0.1, 0.01, 0.001)
INITIAL_STEP = 0.1
MIN_STEP = 1e-6
REGULARITY_WORD_BUDGET = 10**4  # d^N: a per-evaluation size bound, as each target value holds d^N blocks per point
BOUNDARY_THRESHOLD = 1.0 - 1e-6
# corner-approach ladder injected into bidisk level-1 multistarts; the deeper
# rungs are left to hill climbing so divergence shows up as climb growth
INJECTION_EPS = (0.1, 0.045, 0.014)
# the climb evaluates this many candidates ahead, doubling up to one stack of
# the search after a stack with no improvement and starting over after one
CLIMB_CHUNK = 8
DICHOTOMY_LEVELS = (1, 2, 3)  # the levels that a dichotomy scan's samples cycle through


def corner_path(eps: float) -> tuple[complex, complex]:
    """The builtin path (1-eps^2+i*eps, 1-eps^2-i*eps) toward the corner (1,1).

    Each coordinate has squared modulus 1 - eps^2 + eps^4 < 1, so the path
    stays strictly inside the bidisk while the denominator x1+x2-2 = -2 eps^2
    collapses quadratically.
    """
    x1 = complex(1.0 - eps * eps, eps)
    return (x1, x1.conjugate())


# numpy's SeedSequence hash constants (a pool of four uint32 words) and PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _hasher(const: int, mult: int):
    """SeedSequence's running hash of uint32 arrays: xor the constant, step it by mult, multiply, fold."""

    def step(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ (value >> np.uint32(16))


def _pcg64_states(seeds) -> list[tuple[int, int]]:
    """The PCG64 (state, inc) of np.random.default_rng(seed), for each seed >= 0.

    SeedSequence hashes the seed's little-endian 32-bit words into a pool of
    four, with extra mixing rounds for words past the fourth (seeds >= 2^128),
    and generate_state(4, uint64) draws (initstate, initseq) from the pool;
    PCG64 then seeds as pcg64_set_seed does.  The hash runs as uint32 numpy
    over all seeds with the same count of words at once.
    """
    seeds = [operator.index(seed) for seed in seeds]
    groups: dict[int, list[int]] = {}
    for i, seed in enumerate(seeds):
        if seed < 0:
            raise ValueError(f"expected non-negative integer seed, got {seed}")
        groups.setdefault(max(1, -(-seed.bit_length() // 32)), []).append(i)
    out: list[tuple[int, int]] = [(0, 0)] * len(seeds)
    for size, where in groups.items():
        words = np.array([[seeds[i] >> (32 * k) & _MASK32 for i in where] for k in range(size)], dtype=np.uint32)
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(words[k] if k < size else np.zeros(len(where), np.uint32)) for k in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for src in range(4, size):
            for dst in range(4):
                pool[dst] = _mix(pool[dst], hashmix(words[src]))
        generate = _hasher(_INIT_B, _MULT_B)
        state = [generate(pool[k % 4]).astype(np.uint64) for k in range(8)]
        hi0, lo0, hi1, lo1 = ((state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))
        for i, a, b, c, e in zip(where, hi0, lo0, hi1, lo1):
            inc = ((c << 64 | e) << 1 | 1) & _MASK128
            # from state 0: step, add initstate, step
            out[i] = (((inc + (a << 64 | b)) * _PCG_MULT + inc) & _MASK128, inc)
    return out


@functools.cache
def _check_seeder() -> None:
    """Raise unless _pcg64_states reproduces np.random.default_rng, once per process."""
    seed = 2**128 + 2**64 + 12345  # five 32-bit words: the extra mixing rounds run too
    state = np.random.default_rng(seed).bit_generator.state["state"]
    if _pcg64_states([seed])[0] != (state["state"], state["inc"]):
        raise RuntimeError(f"the multistart seeder does not reproduce default_rng under numpy {np.__version__}")


def _sample_stack(
    ball: Pencil, n: int, margins, rng: np.random.Generator, states: list[tuple[int, int]] | None = None
) -> np.ndarray:
    """One Gaussian draw per margin, each in (0, 1) unchecked, rescaled so that ||Q(X)|| = 1 - its margin.

    Returns a (B, d, n, n) stack.  Point i is drawn by rng, whose PCG64 is
    first set to states[i] when states are given; one standard_normal fills
    its real and then its imaginary parts, as two draws of (d, n, n) would, so
    it keeps its bits in any stack.  The pencil's coefficients are independent,
    so ||Q(X)|| = 0 only at X = 0: a draw of all zeros raises RuntimeError.
    """
    bit_generator = rng.bit_generator
    buf = np.empty((len(margins), 2, ball.d, n, n))
    for i in range(len(margins)):
        if states is not None:
            pcg = {"state": states[i][0], "inc": states[i][1]}
            bit_generator.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=buf[i])
    raw = buf[:, 0] + 1j * buf[:, 1]
    s = ball.norms_at(raw)
    if (s <= 0.0).any():
        raise RuntimeError("a Gaussian draw of all zeros; rng is broken")
    factors = (1.0 - np.asarray(margins, dtype=float)) / s
    return raw * factors.astype(complex)[:, None, None, None]


def _sample_chunks(ball: Pencil, n: int, draws, size: int) -> Iterator[np.ndarray]:
    """Stacks of at most size level-n points of draws, a list of (seed, margin), in order.

    The point of (seed, margin) is sample_in_ball(ball, n, margin,
    default_rng(seed)), bit for bit: one reused generator is set to the
    PCG64 state that default_rng(seed) starts from.  The states of all draws
    are computed at once and sliced per stack.
    """
    _check_seeder()
    rng = np.random.Generator(np.random.PCG64())
    states = _pcg64_states([seed for seed, _ in draws])
    for start in range(0, len(draws), size):
        part = slice(start, start + size)
        yield _sample_stack(ball, n, [margin for _, margin in draws[part]], rng, states[part])


def sample_in_ball(ball: Pencil, n: int, margin: float, rng: np.random.Generator) -> MatrixTuple:
    """A Gaussian draw rescaled so that ||Q(X)|| = 1 - margin: the sampler's batch of one."""
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    return MatrixTuple(_sample_stack(ball, _checked_size(n, "level"), [margin], rng)[0])


@dataclass
class ProbeReport:
    """Deterministic record of one sup-norm search.

    ``settled`` is a heuristic: False when the running best kept growing as
    samples approached the boundary or while climbing, which is the numerical
    signature of an unbounded target.  ``best_value`` is only ever a lower
    bound for the true supremum.

    The trajectory is kept as three columns, entry i of each belonging to
    evaluation i: ``labels``, ``values`` and ``boundary_distances``.
    """

    target: str
    ball: str
    level: int
    budget: int
    seed: int
    best_value: float = 0.0
    argmax: MatrixTuple | None = None
    failures: int = 0
    settled: bool = True
    margin_best: dict = field(default_factory=dict)
    labels: list[str] = field(default_factory=list, init=False, repr=False)
    values: list[float] = field(default_factory=list, init=False, repr=False)
    boundary_distances: list[float] = field(default_factory=list, init=False, repr=False)

    @property
    def evaluations(self) -> int:
        """The successful evaluations: the length of each trajectory column."""
        return len(self.values)


_MARGIN_LOGS = np.log10(MULTISTART_MARGINS)


def _margin_bins(distances: np.ndarray) -> list[float]:
    """The margin of MULTISTART_MARGINS nearest in log10 to each distance (floored at 1e-12); ties go to the first."""
    scales = np.log10(np.maximum(distances, 1e-12))
    nearest = np.abs(_MARGIN_LOGS - scales[:, None]).argmin(axis=1)
    return [MULTISTART_MARGINS[i] for i in nearest]


def estimate_sup(
    f,
    ball: Pencil,
    n: int,
    budget: int,
    seed: int,
    target_label: str | None = None,
    margin: float | None = None,
) -> ProbeReport:
    """Estimate sup ||f(X)|| over level-n points of the ball.

    Spends half the budget on a random multistart over the margin schedule
    (0.5, 0.1, 0.01, 0.001) and, at level 1 with d = 2, on the corner-path
    points strictly inside the ball (the bidisk, a pencil: ball containing
    them, never row:2), then hill climbs from the best point by perturbing one
    real or imaginary entry at a time with rescale-to-membership projection
    and step halving from 0.1 down to 1e-6.  Every attempt, evaluated or
    failed, is charged to the budget; failures are counted and skipped.
    The report is reproducible bit for bit from (seed, budget).
    The pencil norm of each point is taken once per stack and gives its
    boundary distance; only a climb candidate rescaled toward the boundary is
    measured again, since |c| ||Q(X)|| need not equal ||Q(cX)|| to the bit.
    Where f has the ball's pencil, the same norms go to ``f.eval_batch`` as
    ``pencil_norms``, so its resolvent guard needs no condition number where
    the norm certifies it; any other f gets ``pencil_norms=None``.

    Points are drawn and climbed in stacks of as many points as fit
    BATCH_BYTES with one value of ``f`` each, sized before the search from
    its value at the empty stack.  Each stack is one ``f.eval_batch`` call
    and one charge to the report (``record``): its attempts are recorded in
    order, a climb stack's up to and including its first improvement, and the
    argmax point is built once per stack.  Since every sample keeps its bits
    in any stack, and the climb records only the candidates it would have
    tried one at a time, the report is still that of a search evaluating and
    charging one point at a time.

    Passing ``margin`` draws every multistart sample at that one margin.  The report names f by
    ``target_label``, or by ``repr(f)`` without one.
    """
    if not isinstance(f, NCFunction):
        raise TypeError(f"cannot probe an object of type {type(f).__name__}")
    budget, n = _checked_size(budget, "budget"), _checked_size(n, "level")
    if margin is not None and not 0.0 < margin < 1.0:  # before the corner-path pool
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    seed = _checked_size(seed, "seed", 0)  # before the pool, which can fill the multistart and leave nothing drawn
    _check_ball_d(f, ball)
    report = ProbeReport(
        target=target_label if target_label is not None else repr(f),
        ball=ball_shorthand(ball) or f"pencil(d={ball.d},p={ball.p},q={ball.q})",
        level=n,
        budget=budget,
        seed=seed,
    )

    # the target's values at the empty stack give their shape, and so the points per stack
    rows, cols = f.eval_batch(np.zeros((0, ball.d, n, n), dtype=complex))[0].shape[1:]
    stack = _batch_size(1, 16 * rows * cols)
    # the ball's norms are the target's own pencil norms: its resolvent guard may use them
    certify = getattr(f, "pencil", None) == ball

    def evaluate(xs: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """||f(X)|| at each point of a stack of pencil norms s, 0 where it failed, and the mask of failed points."""
        values, failed = f.eval_batch(xs, pencil_norms=s if certify else None)
        if not failed.any():
            return _spectral_norms(values), failed
        norms = np.zeros(len(values))
        norms[~failed] = _spectral_norms(values[~failed])
        return norms, failed

    def record(xs: np.ndarray, labels, distances: np.ndarray, norms: np.ndarray, failed: np.ndarray) -> None:
        """Charge a stack of attempts to the report in order: trajectory entries, and failures where failed.

        The argmax moves to the stack's first best point when that beats the
        running best, as it would charging one attempt at a time.
        """
        if failed.any():
            kept = ~failed
            report.failures += int(np.count_nonzero(failed))
            xs, distances, norms = xs[kept], distances[kept], norms[kept]
            labels = itertools.compress(labels, kept.tolist())
        values = norms.tolist()
        report.labels.extend(labels)
        report.values.extend(values)
        report.boundary_distances.extend(distances.tolist())
        if values and (report.argmax is None or max(values) > report.best_value):
            report.best_value = max(values)
            report.argmax = MatrixTuple(xs[values.index(report.best_value)])

    # multistart phase: the corner-path pool, then sample i drawn from seed + i
    n_samples = max(budget // 2, 1)
    injected: list[tuple[np.ndarray, str]] = []
    if ball.d == 2 and n == 1:
        for eps in INJECTION_EPS:
            point = MatrixTuple.scalars(corner_path(eps))
            if membership(ball, point).is_inside:
                injected.append((point.entries, f"path:{eps:g}"))
    injected = injected[:n_samples]
    schedule = MULTISTART_MARGINS if margin is None else (margin,)
    draws = [(seed + i, schedule[i % len(schedule)]) for i in range(n_samples - len(injected))]
    names = {m: f"m{m:g}" for m in schedule}
    labels = iter([label for _, label in injected] + [names[m] for _, m in draws])
    pool = [np.stack([x for x, _ in injected[i : i + stack]]) for i in range(0, len(injected), stack)]
    for xs in itertools.chain(pool, _sample_chunks(ball, n, draws, stack)):
        s = ball.norms_at(xs)
        # |s - 1| is the membership distance: fl(s - 1) = -fl(1 - s)
        record(xs, itertools.islice(labels, len(xs)), np.abs(s - 1.0), *evaluate(xs, s))
    multistart_best = report.best_value
    # each bin's best, keyed in order of first appearance: the running max(best, value) from 0.0, one bin at a time
    bins = _margin_bins(np.array(report.boundary_distances))
    values, keys = np.array(report.values), np.array(bins)
    for key in dict.fromkeys(bins):
        report.margin_best[key] = max(0.0, float(values[keys == key].max()))

    # hill-climbing phase from the multistart argmax: candidates are evaluated
    # a stack ahead, as if none improved, and recorded in order up to the
    # first improvement; the rest of the stack is dropped unrecorded
    remaining = budget - n_samples
    if report.argmax is not None and remaining > 0:
        moves = list(itertools.product(range(ball.d), range(n), range(n), (1.0, 1j), (1.0, -1.0)))
        schedule_ahead = _climb_schedule(len(moves), INITIAL_STEP, 0, False)
        ahead = CLIMB_CHUNK
        while remaining > 0:
            plan = list(itertools.islice(schedule_ahead, min(ahead, remaining, stack)))
            if not plan:
                break
            xs = np.repeat(report.argmax.entries[None], len(plan), axis=0)
            for i, (step, move) in enumerate(plan):
                j, r, c, part, direction = moves[move]
                xs[i, j, r, c] += direction * step * part
            s = ball.norms_at(xs)
            out = np.flatnonzero(s > BOUNDARY_THRESHOLD)
            if len(out):
                # |c| s is not bitwise ||Q(cX)||: measure rescaled points afresh
                xs[out] *= (BOUNDARY_THRESHOLD / s[out]).astype(complex)[:, None, None, None]
                s[out] = ball.norms_at(xs[out])
            norms, failed = evaluate(xs, s)
            better = np.flatnonzero(norms > report.best_value)  # a failed point's norm of 0 is never above it
            cut = int(better[0]) + 1 if len(better) else len(plan)
            record(xs[:cut], [_climb_label(step) for step, _ in plan[:cut]], np.abs(s[:cut] - 1.0), norms[:cut], failed[:cut])
            remaining -= cut
            if len(better):
                step, move = plan[cut - 1]
                schedule_ahead = _climb_schedule(len(moves), step, move + 1, True)
                ahead = CLIMB_CHUNK
            else:
                ahead = min(2 * ahead, stack)

    # settled heuristic: margin ladder ratio and climb growth
    near = report.margin_best.get(0.001, 0.0)
    mid = report.margin_best.get(0.1, 0.0)
    ladder_divergent = mid > 0.0 and near > 10.0 * mid
    climb_divergent = multistart_best > 0.0 and report.best_value > 1.25 * multistart_best
    report.settled = not (ladder_divergent or climb_divergent)
    return report


def _check_ball_d(f, ball: Pencil) -> None:
    """Reject a target whose number of variables is not the ball's, before any point is drawn."""
    if f.d != ball.d:
        raise ValueError(f"target in d={f.d} variables probed on a ball in d={ball.d} variables")


@functools.cache
def _climb_label(step: float) -> str:
    """The trajectory label of a climb candidate at this step, formatted once per step."""
    return f"climb:{step:g}"


def _climb_schedule(n_moves: int, step: float, move: int, improved: bool) -> Iterator[tuple[float, int]]:
    """The climb's (step, move index) from this state on, if no candidate improves.

    A sweep tries the n_moves moves in order; a sweep without improvement
    halves the step, and the climb ends once the step falls below MIN_STEP.
    """
    while True:
        if move == n_moves:
            if not improved:
                step *= 0.5
            move, improved = 0, False
            if step < MIN_STEP:
                return
        yield step, move
        move += 1


@dataclass(frozen=True)
class BlowupRow:
    eps: float
    value: complex | None  # scalar value when the target returns 1x1
    norm: float
    boundary_distance: float


@dataclass(frozen=True)
class BlowupReport:
    rows: tuple[BlowupRow, ...]
    monotone: bool  # norms strictly increasing in the listed eps order


def blowup_scan(g, eps_list, ball: Pencil) -> BlowupReport:
    """Evaluate g at corner_path(eps) for each eps (at least one), verifying strict membership first.

    ``g`` is called with the level-1 MatrixTuple of each path point, so an nc
    function is passed as ``f.eval``.
    """
    if not callable(g):
        raise TypeError(f"cannot evaluate an object of type {type(g).__name__}")
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("eps_list must hold at least one value")
    rows = []
    for eps in eps_list:
        x = MatrixTuple.scalars(corner_path(eps))
        if x.d != ball.d:
            raise ValueError(f"path point at eps={eps:g} has d={x.d}, but the ball has d={ball.d}")
        verdict = membership(ball, x)
        if not verdict.is_inside:
            raise ValueError(f"path point at eps={eps:g} is not strictly inside the ball (norm {verdict.norm:.17g})")
        value = np.atleast_2d(np.asarray(g(x), dtype=complex))
        norm = _spectral_norm(value)
        scalar = complex(value[0, 0]) if value.shape == (1, 1) else None
        rows.append(BlowupRow(float(eps), scalar, norm, verdict.distance))
    monotone = all(rows[i + 1].norm > rows[i].norm for i in range(len(rows) - 1))
    return BlowupReport(tuple(rows), monotone)


@dataclass(frozen=True)
class DichotomyResult:
    """Sampled classification of where a map sends a ball.

    Mixed is numerical evidence about the sampled hypothesis set, never a
    refutation of the interior/boundary alternative itself.
    """

    kind: str  # "AllInterior" | "AllBoundary" | "Mixed"
    max_norm: float
    min_norm: float
    samples: int


def dichotomy_scan(
    maps,
    source: Pencil,
    target: Pencil,
    samples: int,
    seed: int,
) -> DichotomyResult:
    """Classify ||P(F(X))|| over sampled X as all-interior, all-boundary, or mixed."""
    maps = list(maps)
    if len(maps) != target.d:
        raise ValueError(f"map has {len(maps)} components but the target pencil has d={target.d}")
    samples, seed = _checked_size(samples, "samples"), _checked_size(seed, "seed", 0)
    for i, p in enumerate(maps, 1):
        if not isinstance(p, NCFunction):
            raise TypeError(f"map component {i} is an object of type {type(p).__name__}, not an nc function")
        if p.d != source.d:
            raise ValueError(f"map component {i} in d={p.d} variables on a source ball in d={source.d} variables")
    norms = []
    # sample i is drawn at level DICHOTOMY_LEVELS[i % 3] from seed + i; the
    # norms are taken level by level, which leaves their max and min as they are
    for first, level in enumerate(DICHOTOMY_LEVELS[:samples]):
        draws = [
            (seed + i, MULTISTART_MARGINS[(i // len(DICHOTOMY_LEVELS)) % len(MULTISTART_MARGINS)])
            for i in range(first, samples, len(DICHOTOMY_LEVELS))
        ]
        # each sample's image holds len(maps) level x level values
        for xs in _sample_chunks(source, level, draws, _batch_size(1, 16 * len(maps) * level * level)):
            image = np.stack([p.eval_batch(xs)[0] for p in maps], axis=1)
            norms.extend(target.norms_at(image).tolist())
    max_norm, min_norm = max(norms), min(norms)
    if max_norm < BOUNDARY_THRESHOLD:
        kind = "AllInterior"
    elif min_norm > BOUNDARY_THRESHOLD:
        kind = "AllBoundary"
    else:
        kind = "Mixed"
    return DichotomyResult(kind, max_norm, min_norm, samples)


_Z1, _Z2 = FreePolynomial.generator(2, 1), FreePolynomial.generator(2, 2)
# the builtin dichotomy cases: polynomial maps of the bidisk into itself
DICHOTOMY_CASES = {
    "half": (0.5 * _Z1, 0.5 * _Z2),
    "identity": (_Z1, _Z2),
    "boundary": (FreePolynomial.constant(2, 1.0), FreePolynomial.zero(2)),
}


def builtin_dichotomy_case(name: str):
    """The case of DICHOTOMY_CASES with this name: (maps, source ball, target ball)."""
    if name not in DICHOTOMY_CASES:
        *head, last = DICHOTOMY_CASES
        raise ValueError(f"unknown dichotomy case {name!r} (use {', '.join(head)}, or {last})")
    ball = polydisk(2)
    return DICHOTOMY_CASES[name], ball, ball


@dataclass(frozen=True)
class MonomialRow(NCFunction):
    """The row [X^{w_1} ... X^{w_k}] over all words of one size, length-lex."""

    d: int
    size: int

    def __post_init__(self):
        _checked_size(self.d, "d")
        _checked_size(self.size, "size")

    def _values(self, xs: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        count, n = xs.shape[0], xs.shape[-1]
        top = np.concatenate([xws for k, (xws,) in walk_levels(self.d, self.size, _monomials(xs)) if k == self.size])
        return top.transpose(1, 2, 0, 3).reshape(count, n, len(top) * n), {}


@dataclass(frozen=True)
class RegularityReport:
    row: ProbeReport
    col: ProbeReport

    @property
    def row_factor(self) -> float:
        return self.row.best_value

    @property
    def col_factor(self) -> float:
        return self.col.best_value


def regularity_factors(f, order: int, ball: Pencil, n: int, budget: int, seed: int) -> RegularityReport:
    """Estimate sup||row(X^w)|| and sup||col(g_w(X))|| over words of size N.

    Each factor gets the full sample budget.  The column stacks remainder
    factors for a realization, or for a polynomial the quotients g_w cut
    from its high part, the part of size >= N, as tt_check cuts them.
    """
    if not isinstance(f, NCFunction):
        raise _no_split(f)
    order = _checked_size(order, "order")
    _check_ball_d(f, ball)
    if _capped_power(ball.d, order, REGULARITY_WORD_BUDGET) > REGULARITY_WORD_BUDGET:
        raise BudgetExceededError(f"{ball.d}^{order} words exceed the budget {REGULARITY_WORD_BUDGET}")
    row_target = MonomialRow(ball.d, order)
    col_target = f._remainder_column(order)
    row_report = estimate_sup(row_target, ball, n, budget, seed, target_label=f"row(X^w,|w|={order})")
    col_report = estimate_sup(col_target, ball, n, budget, seed, target_label=f"col(g_w,|w|={order})")
    return RegularityReport(row=row_report, col=col_report)
